import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import spectrum
from fqlab import (
    BadSpec,
    DimensionMismatch,
    MissingSpectrum,
    PointSet,
    VerificationFailed,
    check_main_theorem,
    degree_profile,
    euclid_graph,
    generate_point_set,
    hinge_count,
    load_point_set,
    lower_bound_f,
    make_field,
    sphere_table,
    sphere_transform,
    upper_bound_f,
)
from fqlab import bounds, euclid
from stacks import columns

THREE_TEXT = "0,0\n0,1\n1,0\n"


def spectra_for(F, dim):
    return {a: spectrum(euclid_graph(F, dim, a)) for a in range(1, F.p)}


@pytest.fixture(scope="module")
def three(f3):
    return load_point_set(THREE_TEXT, f3, dim=2, label="three")


@pytest.fixture(scope="module")
def spectra3(f3):
    return spectra_for(f3, 2)


# --- degree profile ----------------------------------------------------------


def brute_sums(p, points):
    """(hinges, pairs) of the per-point oracle table: the column sums of
    its squared entries and of its entries."""
    table = oracles.degree_profile_brute(p, points)
    hinges = [sum(row[r] ** 2 for row in table) for r in range(p)]
    pairs = [sum(row[r] for row in table) for r in range(p)]
    return hinges, pairs


def sums_of(prof):
    return prof.hinges.tolist(), prof.pairs.tolist()


def test_profile_three_points(f3, three):
    # per-point degree rows (0,0): [0, 2, 0], (0,1) and (1,0): [0, 1, 1]
    prof = degree_profile(f3, 2, three)
    assert sums_of(prof) == ([0, 4 + 1 + 1, 1 + 1], [0, 2 + 1 + 1, 1 + 1])
    assert prof.pairs[0] == 0


def test_profile_singleton(f3):
    E = load_point_set("1,2\n", f3)
    prof = degree_profile(f3, 2, E)
    assert prof.f_value() == 0
    assert sums_of(prof) == ([0, 0, 0], [0, 0, 0])


def test_profile_counts_null_pairs(f7):
    # (2,3,1) is isotropic mod 7, so x and x+(2,3,1) form two ordered null pairs
    E = load_point_set("0,0,0\n2,3,1\n", f7)
    prof = degree_profile(f7, 3, E)
    assert prof.pairs[0] == 2
    assert prof.hinges[0] == 1 + 1


def test_profile_row_sums(f7):
    # every point has |E| - 1 = 11 others, so the pairs total 12 * 11
    E = generate_point_set(f7, 2, "random:12", seed=4)
    prof = degree_profile(f7, 2, E)
    assert all(sum(row) == 11 for row in oracles.degree_profile_brute(7, E.points))
    assert int(prof.pairs.sum()) == 12 * 11


@pytest.mark.parametrize("p,dim,gen", [(3, 2, "all"), (7, 2, "random:10"),
                                       (7, 3, "random:9"), (11, 2, "box:4")])
def test_profile_matches_brute(p, dim, gen):
    F = make_field(p)
    E = generate_point_set(F, dim, gen, seed=2)
    prof = degree_profile(F, dim, E)
    assert sums_of(prof) == brute_sums(p, E.points)
    assert prof.pairs[0] == oracles.null_pairs_brute(p, E.points)


def test_profile_peak_memory(monkeypatch):
    # one chunk of 2**16 pairs in int16 and int64 buffers: 0.76 MiB
    # measured; F_59^2 would convolve, so the pairwise route is pinned
    F = make_field(59)
    E = generate_point_set(F, 2, "all")
    taken = routes_taken(monkeypatch)
    tracemalloc.start()
    try:
        prof = profile_by("pairwise", F, 2, E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == ["pairwise"]
    assert prof.pairs.sum() == 3481 * 3480
    assert peak < 2**20


def test_profile_refuses_a_set_of_another_field_or_dimension(f3, f7):
    # ranks name points of one F_p^dim only, so a set is profiled over its own
    # field and dimension or refused
    for F, E in ((f7, generate_point_set(f3, 2, "all")),
                 (f3, generate_point_set(f7, 2, "random:5", seed=1))):
        with pytest.raises(BadSpec, match=f"F_{E.p}\\^2, not F_{F.p}\\^2"):
            degree_profile(F, 2, E)
    with pytest.raises(DimensionMismatch):
        degree_profile(f3, 3, generate_point_set(f3, 2, "all"))


# --- profile routes: pairwise and convolution ---------------------------------


def profile_by(route, F, dim, E):
    """degree_profile with its cost model pinned to one route."""
    ratio = 0 if route == "convolved" else math.inf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "PROFILE_FFT_RATIO", ratio)
        return degree_profile(F, dim, E)


# sets up to this size are also checked against the per-point oracle table
BRUTE_MAX = 200


def assert_routes_agree(F, dim, E):
    pair, conv = (profile_by(route, F, dim, E) for route in ("pairwise", "convolved"))
    assert conv.hinges.dtype == conv.pairs.dtype == np.int64
    assert sums_of(conv) == sums_of(pair)
    assert_pairwise_matches_oracles(pair, E)
    return conv


def assert_pairwise_matches_oracles(prof, E):
    """prof equals the int64 arithmetic route, and the per-point oracle
    table up to BRUTE_MAX points."""
    arith = oracles.pairwise_profile_arith(E.p, E.dim, E.ranks)
    assert sums_of(prof) == tuple(arith.tolist())
    if len(E) <= BRUTE_MAX:
        assert sums_of(prof) == brute_sums(E.p, E.points)


def routes_taken(monkeypatch):
    """The route of every later degree_profile call, in order."""
    taken = []
    for route in ("pairwise", "convolved"):
        fn = getattr(bounds, f"_{route}_profile")

        def recorder(*args, fn=fn, route=route):
            taken.append(route)
            return fn(*args)

        monkeypatch.setattr(bounds, f"_{route}_profile", recorder)
    return taken


# the (p, dim) pairs of the 44-instance grid
GRID = [(p, 2) for p in (3, 7, 11, 19)] + [(p, 3) for p in (3, 7)]


@pytest.mark.parametrize("p,dim", GRID)
@pytest.mark.parametrize("gen", ["all", "sphere:1", "box:1t", "random:1t", "random:2t"])
def test_profile_routes_agree_on_grid(p, dim, gen):
    F = make_field(p)
    assert_routes_agree(F, dim, generate_point_set(F, dim, gen, seed=3))


@st.composite
def profile_cases(draw):
    """(p, dim, ranks) with p in 3..13 and dim in 2..4; ranks are distinct
    and may be empty."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    dim = draw(st.integers(2, 4))
    n = p**dim
    ranks = draw(st.lists(st.integers(0, n - 1), max_size=min(n, 400), unique=True))
    return p, dim, ranks


@settings(max_examples=40, deadline=None)
@given(profile_cases())
@example((3, 2, []))
@example((13, 4, [28560]))
@example((5, 3, list(range(125))))
@example((7, 2, [0, 8, 16, 24, 32, 40, 48]))
def test_profile_routes_agree_random_spaces(case):
    p, dim, ranks = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F = make_field(p)
    E = PointSet(ranks, p=p, dim=dim)
    prof = assert_routes_agree(F, dim, E)
    assert prof.hinges.shape == prof.pairs.shape == (p,)
    assert int(prof.pairs.sum()) == len(ranks) * (len(ranks) - 1)


def test_profile_routes_agree_on_f3_full_space(f3):
    prof = assert_routes_agree(f3, 2, generate_point_set(f3, 2, "all"))
    assert prof.f_value() == 288


@pytest.mark.parametrize("p,dim,gen", [
    (11, 2, "random:60"),  # p <= 2|E|: each row counted into p bins
    (11, 2, "random:15"),  # bins, with |E| barely above p
    (7, 4, "random:50"),
    (211, 2, "random:1500"),  # int32 entries over 35 chunks of 2**16 pairs
    (103, 2, "random:40"),  # p > 2|E|: rows sorted, runs counted
    (19, 3, "random:12"),
    (1031, 2, "random:600"),  # bins over six chunks
])
def test_pairwise_profile_branches(p, dim, gen):
    F = make_field(p)
    E = generate_point_set(F, dim, gen, seed=5)
    assert_pairwise_matches_oracles(profile_by("pairwise", F, dim, E), E)


@pytest.mark.parametrize("p", [127, 131, 16381, 16411, 32749, 32771])
def test_pairwise_profile_block_dtype_edge(p):
    # an entry is a sum of dim squares before it is reduced mod p, and the
    # corners (0, 0) and (p - 1, p - 1) reach 2 (p - 1)**2: 31752 fits int16
    # at p = 127 and 33800 does not at p = 131; 2147745800 does not fit
    # int32 at p = 32771, whose entries are int64
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F = make_field(p)
    ranks = [0, p * p - 1, p - 1, (p - 1) * p] + list(range(7, p * p, p * p // 31))[:30]
    E = PointSet(ranks, p=p, dim=2)
    tracemalloc.start()
    try:
        prof = profile_by("pairwise", F, 2, E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_pairwise_matches_oracles(prof, E)
    # p > 2|E|: rows are sorted and only the distances that occur are
    # counted; with a 34 x p histogram the peak was 10.3 MiB at p = 32771,
    # and the length-p sums take most of the 0.56 MiB measured there
    assert peak < 2**20


@pytest.mark.parametrize("pair_chunk", [1, 150, 400])
@pytest.mark.parametrize("p,dim,gen", [(7, 2, "random:30"), (31, 2, "random:20"),
                                       (7, 3, "random:40")])
def test_pairwise_profile_chunk_boundaries(monkeypatch, pair_chunk, p, dim, gen):
    # chunks of one row, and chunks that leave a short last one, in both routes
    monkeypatch.setattr(bounds, "PAIR_CHUNK", pair_chunk)
    F = make_field(p)
    E = generate_point_set(F, dim, gen, seed=2)
    assert_pairwise_matches_oracles(profile_by("pairwise", F, dim, E), E)


@st.composite
def chunked_profile_cases(draw):
    """(p, dim, ranks, pair_chunk): p on both sides of 2|E|, dim 2..4, at
    least one point, and chunks from one pair to past |E|**2."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 31, 101]))
    dim = draw(st.integers(2, 4))
    n = p**dim
    ranks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 80),
                          unique=True))
    pair_chunk = draw(st.integers(1, len(ranks) ** 2 + 2 * len(ranks)))
    return p, dim, ranks, pair_chunk


@settings(max_examples=60, deadline=None)
@given(chunked_profile_cases())
# bins: rows of 7 over 25 points, the last chunk 4 rows
@example((7, 2, list(range(0, 49, 2)), 175))
# sorted rows: rows of 3 over 20 points, the last chunk 2 rows
@example((101, 3, list(range(5, 101**3, 51515))[:20], 60))
# one chunk of 300 rows: bin indices up to 300 p = 38100 need int32
@example((127, 2, list(range(0, 127 * 127, 53))[:300], 300 * 300))
def test_pairwise_profile_chunks_random(case):
    # the chunk buffers are made once and reused; a short last chunk must
    # count only its own rows of each of them, not rows of the chunk before
    p, dim, ranks, pair_chunk = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F = make_field(p)
    E = PointSet(ranks, p=p, dim=dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "PAIR_CHUNK", pair_chunk)
        prof = profile_by("pairwise", F, dim, E)
    assert sums_of(prof) == tuple(oracles.pairwise_profile_arith(p, dim, ranks).tolist())


@pytest.mark.parametrize("p,dim,gen,route", [
    (83, 2, "random:1t", "pairwise"),  # |E|**2 = p**3, the fcount-sparse set
    (59, 2, "all", "convolved"),  # |E|**2 = 59 p**3
    (11, 3, "all", "convolved"),  # |E|**2 = 121 p**4
])
def test_profile_route_choice(monkeypatch, p, dim, gen, route):
    F = make_field(p)
    E = generate_point_set(F, dim, gen, seed=1)
    taken = routes_taken(monkeypatch)
    degree_profile(F, dim, E)
    assert taken == [route]


def test_profile_above_spectrum_guardrail_stays_pairwise(monkeypatch):
    # all of F_23^2 is dense enough to convolve (|E|**2 = 23 p**3), but not
    # over a guardrail of 500 vertices unless forced
    monkeypatch.setattr(bounds, "SPECTRUM_MAX", 500)
    taken = routes_taken(monkeypatch)
    F = make_field(23)
    E = generate_point_set(F, 2, "all")
    unforced, forced = degree_profile(F, 2, E), degree_profile(F, 2, E, force=True)
    assert taken == ["pairwise", "convolved"]
    assert sums_of(unforced) == sums_of(forced)


@pytest.mark.parametrize("scale", [1.5, 2.0])  # entries leave the integers; wrong sum
def test_convolved_profile_certificate(monkeypatch, scale):
    # a corrupted gathered sphere transform fails the column certificate,
    # with no fallback to the pairwise route
    F = make_field(23)
    E = generate_point_set(F, 2, "random:500", seed=1)  # |E|**2 = 20.5 p**3
    taken = routes_taken(monkeypatch)
    gather = euclid.class_transform
    monkeypatch.setattr(euclid, "class_transform", lambda *args: gather(*args) * scale)
    with pytest.raises(VerificationFailed, match="fails its certificate"):
        degree_profile(F, 2, E)
    assert taken == ["convolved"]


@pytest.mark.parametrize("p,gen,seed", [(11, "random:100", 1), (59, "random:3t", 4)])
def test_swapped_class_table_fails_the_profile_certificate(monkeypatch, p, gen, seed):
    # two norm classes of equal size trade values in every row of the
    # table: the gathered sphere transforms keep their zero frequency, so
    # only the rounding residual can tell, and the profile is refused.
    # These sets sit below the cost model's cut (7.5 and 9 p**3), so the
    # convolution route, whose certificate this checks, is pinned.
    monkeypatch.setattr(bounds, "PROFILE_FFT_RATIO", 0)
    F = make_field(p)
    E = generate_point_set(F, 2, gen, seed=seed)
    values, imag = euclid._norm_class_table(F, 2)
    c1, c2 = 1, 2
    assert sphere_table(F, 2).sizes[c1] == sphere_table(F, 2).sizes[c2]
    assert np.abs(values[1:, c1] - values[1:, c2]).max() > 1.0
    swapped = values.copy()
    swapped[:, [c1, c2]] = values[:, [c2, c1]]
    taken = routes_taken(monkeypatch)
    monkeypatch.setattr(euclid, "_norm_class_table", lambda F, dim: (swapped, imag))
    with pytest.raises(VerificationFailed, match="fails its certificate"):
        degree_profile(F, 2, E)
    assert taken == ["convolved"]


def test_convolved_profile_peak_memory(monkeypatch):
    F = make_field(59)
    E = generate_point_set(F, 2, "all")
    taken = routes_taken(monkeypatch)
    tracemalloc.start()
    try:
        prof = degree_profile(F, 2, E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == ["convolved"]
    assert prof.pairs.sum() == 3481 * 3480
    assert peak < 8 * 2**20


def test_forced_full_space_profile_peak_memory(monkeypatch):
    # F_103^2 is past the pairwise guardrail; its forced profile convolves
    # and keeps only the two length-p vectors, not a 10609 x 103 table
    F = make_field(103)
    E = generate_point_set(F, 2, "all")
    valencies = [euclid_graph(F, 2, a).valency for a in range(1, 103)]
    taken = routes_taken(monkeypatch)
    tracemalloc.start()
    try:
        prof = degree_profile(F, 2, E, force=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == ["convolved"]
    assert prof.pairs.tolist() == [0] + [103**2 * k for k in valencies]
    assert prof.f_value() == 103**2 * sum(k * k for k in valencies)
    assert peak < 2 * 2**20


def test_pairwise_profile_peak_memory(monkeypatch):
    # one chunk of 2**16 pairs in reused buffers: 1.08, 0.80 and 0.86 MiB
    # measured at F_211^2, F_43^3 and F_83^2 (the fcount-sparse set),
    # against 5.5, 3.2 and 3.4 MiB with p x |E| tables of squares
    taken = routes_taken(monkeypatch)
    for p, dim in ((211, 2), (43, 3), (83, 2)):
        F = make_field(p)
        E = generate_point_set(F, dim, "random:1t", seed=1)
        tracemalloc.start()
        try:
            prof = degree_profile(F, dim, E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.pairs.sum() == len(E) * (len(E) - 1)
        assert peak < 1.5 * 2**20, (p, dim, peak)
    assert taken == ["pairwise"] * 3


def test_pairwise_profile_working_set_follows_pair_chunk(monkeypatch):
    # 2000 points of F_991^4 in chunks of 2**12 pairs: 0.15 MiB measured,
    # against 17 MiB with one p x |E| table of squares per coordinate;
    # nothing the profile holds grows with p |E|
    monkeypatch.setattr(bounds, "PAIR_CHUNK", 1 << 12)
    F = make_field(991)
    E = generate_point_set(F, 4, "random:2000", seed=1)
    tracemalloc.start()
    try:
        prof = profile_by("pairwise", F, 4, E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_pairwise_matches_oracles(prof, E)
    assert peak < 2**18


# --- f and distance set --------------------------------------------------------


def test_f_examples(f3, three):
    assert degree_profile(f3, 2, generate_point_set(f3, 2, "all")).f_value() == 288
    assert degree_profile(f3, 2, three).f_value() == 8
    assert degree_profile(f3, 2, load_point_set("1,1\n", f3)).f_value() == 0


def test_distance_set_examples(f3, three):
    assert degree_profile(f3, 2, three).distance_values() == frozenset({1, 2})
    assert degree_profile(f3, 2, load_point_set("1,1\n", f3)).distance_values() == frozenset()
    full = generate_point_set(f3, 2, "all")
    assert degree_profile(f3, 2, full).distance_values() - {0} == {1, 2}


@pytest.mark.parametrize("p,dim,size,seed", [(3, 2, 7, 1), (7, 2, 20, 2),
                                             (7, 3, 25, 3), (11, 2, 30, 4)])
def test_f_matches_triple_brute(p, dim, size, seed):
    F = make_field(p)
    E = generate_point_set(F, dim, f"random:{size}", seed=seed)
    assert degree_profile(F, dim, E).f_value() == oracles.f_brute(p, E.points)


@pytest.mark.parametrize("p,dim,size,seed", [(3, 2, 6, 5), (7, 2, 15, 6), (7, 3, 12, 7)])
def test_f_equals_hinge_sum_over_radii(p, dim, size, seed):
    # cross-module identity: f(E) = sum over a != 0 of the hinge count in G_q(a)
    F = make_field(p)
    E = generate_point_set(F, dim, f"random:{size}", seed=seed)
    ranks = E.ranks
    total = 0
    for a in range(1, p):
        G = euclid_graph(F, dim, a)
        total += hinge_count(*columns(G, sphere_transform(G), [ranks]))[0]
    assert degree_profile(F, dim, E).f_value() == total


# --- lower and upper bounds ----------------------------------------------------


def test_lower_bound_full_space_tight(f3):
    E = generate_point_set(f3, 2, "all")
    prof = degree_profile(f3, 2, E)
    assert lower_bound_f(prof, 3) == Fraction(288)  # 72**2 / (2 * 9)


def test_lower_bound_three_points(f3, three):
    prof = degree_profile(f3, 2, three)
    assert lower_bound_f(prof, 3) == Fraction(6)  # 36 / (2 * 3)
    assert prof.f_value() == 8  # bound is not tight here


def test_lower_bound_singleton(f3):
    prof = degree_profile(f3, 2, load_point_set("0,0\n", f3))
    assert lower_bound_f(prof, 3) == 0


def test_lower_bound_uses_nonzero_pairs(f7):
    # with a null pair, N < m(m-1) and the bound shrinks accordingly
    E = load_point_set("0,0,0\n2,3,1\n6,0,0\n", f7)
    prof = degree_profile(f7, 3, E)
    N = prof.nonzero_pair_count()
    assert N < 3 * 2
    assert lower_bound_f(prof, 7) == Fraction(N * N, 6 * 3)


def test_upper_bounds_full_space(f3, spectra3):
    E = generate_point_set(f3, 2, "all")
    exact, asym = upper_bound_f(E, spectra3)
    assert exact == pytest.approx(648.0, abs=1e-9)  # 2 * 9 * (4 + 2)**2
    assert asym == pytest.approx(2 * 9 * (4 + 2 * 3**0.5) ** 2, abs=1e-9)
    assert 288 <= exact <= asym


def test_upper_bounds_empty(f3, spectra3):
    E = PointSet([], p=3, dim=2, origin_label="empty")
    assert upper_bound_f(E, spectra3) == (0.0, 0.0)


def test_upper_bound_missing_radius(f3, spectra3, three):
    partial = {1: spectra3[1]}
    with pytest.raises(MissingSpectrum):
        upper_bound_f(three, partial)


# --- full report -----------------------------------------------------------------


def test_report_full_space(f3, spectra3):
    E = generate_point_set(f3, 2, "all")
    rep = check_main_theorem(f3, 2, E, spectra3)
    assert rep.f_value == 288
    assert rep.lower_bound == 288
    assert rep.upper_exact == pytest.approx(648.0, abs=1e-9)
    assert rep.regime == "a"  # 9 above 3**1.5
    assert rep.ratio_cubic == pytest.approx(288 * 3 / 729)
    assert rep.holds


def test_report_three_points(f3, spectra3, three):
    rep = check_main_theorem(f3, 2, three, spectra3)
    assert rep.delta_implied == Fraction(3, 2)  # 36 / (3 * 8)
    assert rep.distance_count == 2
    assert rep.regime == "b"
    assert rep.holds


def test_report_singleton_vacuous(f3, spectra3):
    E = load_point_set("2,0\n", f3)
    rep = check_main_theorem(f3, 2, E, spectra3)
    assert rep.f_value == 0
    assert rep.lower_bound == 0
    assert rep.delta_implied == 0
    assert rep.holds


def test_report_regime_tie_is_a(f3, spectra3):
    # |E| exactly at the real threshold q**((dim+1)/2) would need a
    # non-integer size for p=3; check the comparison direction instead
    small = generate_point_set(f3, 2, "random:5", seed=1)  # 5 < 5.196
    big = generate_point_set(f3, 2, "random:6", seed=1)  # 6 > 5.196
    assert check_main_theorem(f3, 2, small, spectra3).regime == "b"
    assert check_main_theorem(f3, 2, big, spectra3).regime == "a"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 49))
def test_report_holds_on_random_sets(seed, size):
    F = make_field(7)
    spectra = spectra_for(F, 2)
    E = generate_point_set(F, 2, f"random:{size}", seed=seed)
    rep = check_main_theorem(F, 2, E, spectra)
    assert rep.lower_ok and rep.upper_ok and rep.asym_ok and rep.delta_ok
    assert rep.lower_bound <= rep.f_value <= rep.upper_exact + 1e-9
    assert rep.upper_exact <= rep.upper_asymptotic + 1e-9
    assert rep.delta_implied <= rep.distance_count


def test_report_holds_dim3_with_null_pairs(f7):
    # dim 3 has isotropic directions; the N-based bound must still hold
    spectra = spectra_for(f7, 3)
    rng = random.Random(0)
    for size in (2, 10, 40, 120):
        E = generate_point_set(f7, 3, f"random:{size}", seed=rng.randint(0, 99))
        rep = check_main_theorem(f7, 3, E, spectra)
        assert rep.holds, (size, rep)


def test_full_space_f_formula(f7):
    # f = q^dim * sum of squared valencies, for the whole space
    spectra = spectra_for(f7, 2)
    E = generate_point_set(f7, 2, "all")
    rep = check_main_theorem(f7, 2, E, spectra)
    assert rep.f_value == 49 * 6 * 8 * 8
    assert rep.lower_bound == rep.f_value  # Cauchy-Schwarz tight, no null pairs
