"""Acceptance suite: the nine headline checks, one reported line each.

Each test prints a single "criterion N PASS/FAIL" line on the real
terminal (bypassing capture) and then asserts.  Tolerances are pinned
here, not imported, so a drift in library constants cannot silently
weaken the gate: bound comparisons 1e-9 absolute, trace moments 1e-6
relative to n*valency, eigenvector residuals 1e-8 relative to valency.
"""

import json
import random
from fractions import Fraction

import pytest

import oracles
from oracles import (
    degree_profile,
    degree_sum_check,
    hinge_count,
    mixing_check,
    rank_point,
    spectrum,
    sphere_transform,
    variance_check,
    vertex_array,
)
from fqlab import (
    check_main_theorem,
    degree_sum_bound,
    euclid_graph,
    generate_point_set,
    hinge_bound,
    load_point_set,
    make_field,
    mixing_bound,
    ramanujan_bound,
    sphere_table,
    variance_bound,
)
from fqlab.cli import DEFAULT_SWEEP_CONFIG, main, run_sweep
from stacks import columns

TOL_BOUND = 1e-9
TOL_TRACE = 1e-6
TOL_EIGVEC = 1e-8

DIM2_PRIMES = (3, 7, 11, 19)
DIM3_PRIMES = (3, 7)
INSTANCES = [(p, 2, a) for p in DIM2_PRIMES for a in range(1, p)] + [
    (p, 3, a) for p in DIM3_PRIMES for a in range(1, p)
]  # 44 graphs


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num} {'PASS' if ok else 'FAIL'} - {detail}")


def spanning_sizes(n, trials):
    return [max(1, min(n, round(n ** (i / (trials - 1))))) for i in range(trials)]


@pytest.fixture(scope="module")
def instances():
    """Graph, spectral summary, and sphere transform for all 44 instances."""
    out = {}
    for p, dim, a in INSTANCES:
        G = euclid_graph(make_field(p), dim, a)
        s = spectrum(G)
        out[(p, dim, a)] = (G, s, sphere_transform(G))
    return out


@pytest.fixture(scope="module")
def default_sweep_records():
    records, _ = run_sweep(DEFAULT_SWEEP_CONFIG, jobs=1)
    return records


def test_c1_sphere_counts_exact(capsys):
    bad = []
    for p in DIM2_PRIMES:
        sizes = list(sphere_table(make_field(p), 2).sizes)
        if sizes != oracles.sphere_sizes_brute(p, 2):
            bad.append((p, 2, "enumeration"))
        if sizes[0] != 1 or any(sizes[a] != p + 1 for a in range(1, p)):
            bad.append((p, 2, "closed form"))
    sizes33 = list(sphere_table(make_field(3), 3).sizes)
    if sizes33 != [9, 6, 12] or sizes33 != oracles.sphere_sizes_brute(3, 3):
        bad.append((3, 3, "table"))
    report(capsys, 1, not bad,
           "sphere counts: dim-2 tables p in {3,7,11,19} equal p+1 per radius "
           "and p=3 dim-3 table is [9,6,12], all matching exhaustive enumeration")
    assert not bad, bad


def test_c2_spectra_and_trace_moments(capsys, instances):
    s31 = instances[(3, 2, 1)][1]
    expected = [(4.0, 1), (1.0, 4), (-2.0, 4)]
    spec_ok = len(s31.classes) == 3 and all(
        abs(v - ev) <= TOL_BOUND and m == em
        for (v, m), (ev, em) in zip(s31.classes, expected)
    )
    worst_trace = worst_eig = 0.0
    for (p, dim, a), (G, s, _) in instances.items():
        nk = G.n * G.valency
        lam = oracles.eigenvalues(s)
        worst_trace = max(worst_trace, abs(float(lam.sum())) / nk,
                          abs(float((lam * lam).sum()) - nk) / nk)
        ranks = sorted(random.Random(p * 100 + a).sample(range(G.n), 8))
        worst_eig = max(worst_eig, oracles.eigvec_residual_brute(G, s, ranks) / G.valency)
    ok = spec_ok and worst_trace <= TOL_TRACE and worst_eig <= TOL_EIGVEC
    report(capsys, 2, ok,
           f"spectra: G(3;1) classes 4x1/1x4/-2x4 within 1e-9; over 44 graphs "
           f"worst trace residual {worst_trace:.2e} (tol 1e-6) and worst "
           f"eigenvector residual {worst_eig:.2e} (tol 1e-8)")
    assert spec_ok, s31.classes
    assert worst_trace <= TOL_TRACE
    assert worst_eig <= TOL_EIGVEC


def test_c3_eigenvalue_ceiling(capsys, instances):
    margins = []
    for (p, dim, a), (_, s, _) in instances.items():
        margins.append(s.ramanujan_bound + TOL_BOUND - s.second_eigenvalue)
    ok = all(m >= 0 for m in margins)
    report(capsys, 3, ok,
           f"eigenvalue ceiling: second eigenvalue <= 2*p^((dim-1)/2) + 1e-9 "
           f"on all 44 graphs, smallest margin {min(margins):.6g}")
    assert ok


def test_c4_subset_inequality_batteries(capsys, instances):
    trials = 50
    checks = fails = 0
    for (p, dim, a), (G, s, T) in instances.items():
        n, k = G.n, G.valency
        rng = random.Random(f"battery|{p}|{dim}|{a}")
        for size in spanning_sizes(n, trials):
            B = rng.sample(range(n), size)
            C = rng.sample(range(n), rng.randint(1, n))
            b, c = len(B), len(C)
            deg, members = columns(G, T, [B])
            variance = Fraction(variance_check(deg)[0], n)
            deviation = Fraction(mixing_check(deg, [vertex_array(n, C)])[0][1], n)
            hinges = hinge_count(deg, members)[0]
            degree_sum = degree_sum_check(deg, members)[0]
            for lam in (s.second_eigenvalue, ramanujan_bound(p, dim)):
                verdicts = (
                    variance <= variance_bound(n, lam, b) + TOL_BOUND,
                    deviation <= mixing_bound(lam, b, c) + TOL_BOUND,
                    hinges <= hinge_bound(n, k, lam, b) + TOL_BOUND,
                    degree_sum <= degree_sum_bound(n, k, lam, b) + Fraction(TOL_BOUND),
                )
                checks += 4
                fails += verdicts.count(False)
    ok = fails == 0
    report(capsys, 4, ok,
           f"subset batteries: variance/mixing/hinge plus the degree-sum step "
           f"on 44 graphs x {trials} subsets x (exact, ceiling) lambda = "
           f"{checks} verdicts, {fails} failures")
    assert ok


def test_c5_oracle_equivalence(capsys):
    G11 = euclid_graph(make_field(11), 2, 1)
    T11 = sphere_transform(G11)
    rng = random.Random("oracle|11|2|1")
    hinge_bad = 0
    for _ in range(100):
        sub = rng.sample(range(G11.n), rng.randint(0, 60))
        pts = [rank_point(11, 2, r) for r in sub]
        if hinge_count(*columns(G11, T11, [sub]))[0] != oracles.hinge_brute(11, 1, pts):
            hinge_bad += 1
    f_bad = 0
    f_sets = 0
    for p, dim, size, seed in [(3, 2, 9, 1), (7, 2, 30, 2), (7, 2, 40, 3),
                               (7, 3, 35, 4), (11, 2, 40, 5)]:
        F = make_field(p)
        E = generate_point_set(F, dim, f"random:{size}", seed=seed)
        via_profile = degree_profile(F, dim, E).f_value()
        ranks, via_hinges = E.ranks, 0
        for a in range(1, p):
            G = euclid_graph(F, dim, a)
            via_hinges += hinge_count(*columns(G, sphere_transform(G), [ranks]))[0]
        via_triples = oracles.f_brute(p, oracles.points(E))
        f_sets += 1
        if not (via_profile == via_hinges == via_triples):
            f_bad += 1
    ok = hinge_bad == 0 and f_bad == 0
    report(capsys, 5, ok,
           f"oracle equivalence: hinge fast path = cubic loop on 100 subsets "
           f"(|E| <= 60), and profile = per-radius hinges = triple loop on "
           f"{f_sets} sets (|E| <= 40), all exact integers")
    assert ok, (hinge_bad, f_bad)


def test_c6_f_sandwich_on_sweep(capsys, default_sweep_records, f3):
    bad = [
        r for r in default_sweep_records
        if not (
            r["lower_ok"] and r["upper_ok"] and r["asym_ok"]
            and r["lower_bound"] <= r["f_value"]
            and r["f_value"] <= r["upper_exact"] + TOL_BOUND
            and r["upper_exact"] <= r["upper_asymptotic"] + TOL_BOUND
        )
    ]
    spectra = {a: spectrum(euclid_graph(f3, 2, a)) for a in (1, 2)}
    full = check_main_theorem(
        f3, 2, degree_profile(f3, 2, generate_point_set(f3, 2, "all")), spectra
    )
    anchor_ok = (
        full.f_value == 288
        and full.lower_bound == Fraction(288)
        and abs(full.upper_exact - 648.0) <= TOL_BOUND
    )
    ok = not bad and anchor_ok
    report(capsys, 6, ok,
           f"f sandwich: lower <= f <= exact upper <= asymptotic upper on all "
           f"{len(default_sweep_records)} sweep cells; full-plane anchor "
           f"f = 288 = lower bound, exact upper 648")
    assert anchor_ok, (full.f_value, full.lower_bound, full.upper_exact)
    assert not bad, bad[:3]


def test_c7_distance_count_floor(capsys, default_sweep_records, f3):
    bad = [
        r for r in default_sweep_records
        if not (r["delta_ok"] and r["delta_implied"] <= r["distance_count"])
    ]
    spectra = {a: spectrum(euclid_graph(f3, 2, a)) for a in (1, 2)}
    three = load_point_set("0,0\n0,1\n1,0\n", f3, label="anchor")
    rep = check_main_theorem(f3, 2, degree_profile(f3, 2, three), spectra)
    anchor_ok = rep.delta_implied == Fraction(3, 2) and rep.distance_count == 2
    ok = not bad and anchor_ok
    report(capsys, 7, ok,
           f"distance-count floor: N^2/(|E| f) <= #distances on all "
           f"{len(default_sweep_records)} sweep cells; 3-point anchor gives "
           f"3/2 <= 2")
    assert anchor_ok, (rep.delta_implied, rep.distance_count)
    assert not bad, bad[:3]


def test_c8_regime_ratio_summary(capsys, tmp_path):
    out = tmp_path / "sweep.jsonl"
    code = main(["sweep", "--default", "--out", str(out), "--jobs", "1"])
    captured = capsys.readouterr().out
    table_ok = "regime" in captured and "ratio_cubic" in captured
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    a_cells = [r for r in recs if r["regime"] == "a"]
    a_bad = [
        r for r in a_cells
        if not (r["lower_ok"] and r["upper_ok"] and r["asym_ok"])
    ]
    ratios = [r["ratio_cubic"] for r in a_cells]
    ok = code == 0 and table_ok and a_cells and not a_bad
    report(capsys, 8, ok,
           f"regime ratios: summary table emitted; {len(a_cells)} regime-a "
           f"cells all satisfy the exact sandwich; f*q/|E|^3 spans "
           f"[{min(ratios):.4g}, {max(ratios):.4g}]")
    assert code == 0 and table_ok
    assert a_cells and not a_bad, a_bad[:3]


def test_c9_sweep_byte_determinism(capsys, tmp_path):
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert main(["sweep", "--default", "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["sweep", "--default", "--out", str(out2), "--jobs", "4"]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    ok = b1 == b2 and len(b1) > 0
    report(capsys, 9, ok,
           f"determinism: default sweep repeated with different worker counts "
           f"byte-reproduces the records file ({len(b1)} bytes, "
           f"{len(b1.splitlines())} records)")
    assert ok
