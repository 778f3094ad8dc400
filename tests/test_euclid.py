import argparse
import dataclasses
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    VertexOutOfRange,
    degree_sum_check,
    hinge_count,
    mixing_check,
    point_rank,
    rank_point,
    recheck_transform,
    spectrum,
    sphere_transform,
    variance_check,
    vertex_array,
)
from fqlab import (
    BadSpec,
    TooLarge,
    VerificationFailed,
    degree_columns,
    euclid_graph,
    make_field,
    ramanujan_bound,
    recheck_spectrum,
    recheck_table,
    sphere_size,
    sphere_table,
)
from fqlab import cli
from fqlab.euclid import (
    EIGVEC_TOL,
    GROUP_TOL,
    certified_columns,
    class_transform,
    set_transforms,
)
from stacks import columns

# every instance exercised by the batteries: 44 graphs
INSTANCES = [(p, 2, a) for p in (3, 7, 11, 19) for a in range(1, p)] + [
    (p, 3, a) for p in (3, 7) for a in range(1, p)
]


def graph(p, dim, a):
    return euclid_graph(make_field(p), dim, a)


# --- construction ----------------------------------------------------------


def test_radius_zero_rejected(f3):
    with pytest.raises(BadSpec):
        euclid_graph(f3, 2, 0)


def test_dim_one_rejected(f3):
    with pytest.raises(BadSpec):
        euclid_graph(f3, 1, 1)


def test_valency_is_sphere_size(f7):
    G = euclid_graph(f7, 2, 3)
    assert G.valency == sphere_size(f7, 2, 3) == 8
    assert G.n == 49


# --- adjacency -------------------------------------------------------------


def test_adjacent_examples(f3):
    G = euclid_graph(f3, 2, 1)
    assert oracles.adjacent(G, (0, 0), (0, 1))
    assert not oracles.adjacent(G, (0, 0), (0, 0))
    assert not oracles.adjacent(G, (0, 0), (1, 1))


@given(st.tuples(st.integers(0, 6), st.integers(0, 6)),
       st.tuples(st.integers(0, 6), st.integers(0, 6)))
def test_adjacency_symmetric(x, y):
    G = euclid_graph(make_field(7), 2, 2)
    assert oracles.adjacent(G, x, y) == oracles.adjacent(G, y, x)


def test_neighbor_rows_match_brute(f3):
    G = euclid_graph(f3, 2, 1)
    for x in [(0, 0), (1, 2), (2, 2)]:
        mine = sorted(y for y in G_all_points() if oracles.adjacent(G, x, y))
        assert mine == sorted(oracles.neighbors_brute(3, 2, 1, x))


def G_all_points():
    from itertools import product

    return product(range(3), repeat=2)


# --- eigenvalues -----------------------------------------------------------


def test_eigenvalue_at_examples(f3):
    lam = oracles.eigenvalues(spectrum(euclid_graph(f3, 2, 1)))
    for m, want in [((0, 0), 4.0), ((1, 0), 1.0), ((1, 1), -2.0)]:
        assert oracles.eigenvalue_at_brute(3, 2, 1, m) == pytest.approx(want, abs=1e-9)
        assert lam[point_rank(3, m)] == pytest.approx(want, abs=1e-9)


def _match_oracle(G):
    """The norm-class table against the whole-sphere character sum for
    every frequency; returns the spectrum."""
    lam_ref, imag_ref = oracles.eigenvalues_brute(G.field.p, G.dim, G.a)
    s = spectrum(G)
    assert np.abs(oracles.eigenvalues(s) - lam_ref).max() <= 1e-9
    ref = oracles.group_classes_brute(lam_ref, GROUP_TOL)
    assert [m for _, m in s.classes] == [m for _, m in ref]
    assert np.allclose([v for v, _ in s.classes], [v for v, _ in ref], rtol=0, atol=1e-9)
    assert s.second_eigenvalue == pytest.approx(np.abs(lam_ref[1:]).max(), abs=1e-9)
    assert imag_ref <= 1e-8
    return s


@pytest.mark.parametrize("p,dim,a", INSTANCES)
def test_eigenvalues_match_character_sum_oracle(p, dim, a):
    _match_oracle(graph(p, dim, a))


# p**dim <= 2 * 10**4, and the oracle's p**dim x |sphere| ~ p**(2 dim - 1)
# character terms at most 5 * 10**6
SMALL_SPACES = [
    (p, dim)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 97, 139)
    for dim in range(2, 10)
    if p**dim <= 2 * 10**4 and p ** (2 * dim - 1) <= 5 * 10**6
]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SMALL_SPACES), st.integers(1, 10**6))
@example((5, 2), 1)
@example((13, 2), 5)
@example((5, 4), 2)
@example((7, 4), 3)
@example((3, 5), 1)
def test_eigenvalues_match_oracle_random_spaces(space, a_seed):
    # p = 1 mod 4 gives a nonzero isotropic class in dim 2; dim >= 4
    # exercises the table and the transform over a deeper norm grid
    p, dim = space
    a = 1 + a_seed % (p - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        G = graph(p, dim, a)
    recheck_transform(G, _match_oracle(G), sphere_transform(G))


def test_spectrum_g31(f3):
    s = spectrum(euclid_graph(f3, 2, 1))
    got = [(round(v, 9), m) for v, m in s.classes]
    assert got == [(4.0, 1), (1.0, 4), (-2.0, 4)]
    assert s.second_eigenvalue == pytest.approx(2.0, abs=1e-9)
    assert s.trivial_eigenvalue == pytest.approx(4.0, abs=1e-9)


def test_ramanujan_bound_value():
    assert ramanujan_bound(3, 2) == pytest.approx(2 * math.sqrt(3))
    assert ramanujan_bound(7, 3) == pytest.approx(14.0)


@pytest.mark.parametrize("p,dim,a", INSTANCES)
def test_eigenvalue_bound_all_instances(p, dim, a):
    s = spectrum(graph(p, dim, a))
    assert s.second_eigenvalue <= ramanujan_bound(p, dim) + 1e-9


@pytest.mark.parametrize("p,dim,a", INSTANCES)
def test_trace_moments_all_instances(p, dim, a):
    G = graph(p, dim, a)
    lam = oracles.eigenvalues(spectrum(G))
    nk = G.n * G.valency
    assert abs(lam.sum()) <= 1e-6 * nk
    assert abs((lam * lam).sum() - nk) <= 1e-6 * nk


def test_multiplicities_sum_to_n(f7):
    s = spectrum(euclid_graph(f7, 3, 1))
    assert sum(m for _, m in s.classes) == 343


def test_spectrum_negation_symmetric(f7):
    lam = oracles.eigenvalues(spectrum(euclid_graph(f7, 2, 1)))
    for m in [(1, 2), (3, 0), (5, 6)]:
        neg = tuple((-c) % 7 for c in m)
        assert lam[point_rank(7, m)] == pytest.approx(lam[point_rank(7, neg)], abs=1e-9)
        assert lam[point_rank(7, m)] == pytest.approx(
            oracles.eigenvalue_at_brute(7, 2, 1, neg), abs=1e-9
        )


@pytest.mark.parametrize("p,dim,a", [(3, 2, 1), (3, 2, 2), (3, 3, 1), (7, 2, 3)])
def test_closed_walks_match_dense_matrix_powers(p, dim, a):
    # basis-independent: trace(A), trace(A^2), trace(A^3) against sum(lam^j)
    A = oracles.adjacency_matrix_brute(p, dim, a)
    w1, w2, w3 = oracles.closed_walk_counts(A)
    lam = oracles.eigenvalues(spectrum(graph(p, dim, a)))
    assert w1 == 0
    assert abs(lam.sum() - w1) <= 1e-6 * max(1, w2)
    assert abs((lam**2).sum() - w2) <= 1e-6 * w2
    assert abs((lam**3).sum() - w3) <= 1e-4 * max(1.0, abs(w3))


def test_degree_rows_all_equal_valency(f7):
    # row degrees by brute adjacency scan must equal the sphere size
    A = oracles.adjacency_matrix_brute(7, 2, 1)
    assert set(A.sum(axis=1)) == {8}
    assert (A == A.T).all()
    assert A.trace() == 0


# --- verification ----------------------------------------------------------


def test_verify_spectrum_residuals(f3, f7):
    G3, G7 = euclid_graph(f3, 2, 1), euclid_graph(f7, 2, 1)
    assert recheck_transform(G3, spectrum(G3), sphere_transform(G3)) <= 1e-8 * 4
    assert recheck_transform(G7, spectrum(G7), sphere_transform(G7)) <= 1e-8 * 8


def _residual_at(G, s, T, r):
    """|T[m] - lam(||m||)| at the frequency m of rank r, read off the half
    spectrum in rank-order layout (axis j holds coordinate dim - 1 - j); a
    frequency outside the half is read at -m, which has the same norm."""
    p = G.field.p
    m = rank_point(p, G.dim, r)
    if m[0] > p // 2:
        m = tuple(-c % p for c in m)
    lam = s.norm_values[sum(c * c for c in m) % p] if r else s.trivial_eigenvalue
    return abs(T[m[::-1]] - lam)


@pytest.mark.parametrize("p,dim,a", INSTANCES)
def test_recheck_matches_neighbor_sum_oracle(p, dim, a):
    # every frequency stays within the pinned 1e-8 relative residual, and
    # at 8 sampled frequencies the transform's residual is the explicit
    # neighbor sums' one, for the true summary and for one whose class
    # values are all shifted
    G = graph(p, dim, a)
    s, T = spectrum(G), sphere_transform(G)
    assert recheck_transform(G, s, T) <= 1e-8 * G.valency
    ranks = sorted(random.Random(p * 100 + a).sample(range(G.n), 8))
    shifted = oracles.replace(
        s, norm_values=tuple(v + 0.01 * (c + 1) for c, v in enumerate(s.norm_values))
    )
    for summary in (s, shifted):
        for r in ranks:
            brute = oracles.eigvec_residual_brute(G, summary, [r])
            assert _residual_at(G, summary, T, r) == pytest.approx(brute, abs=1e-12)
    with pytest.raises(VerificationFailed, match="eigenvector residual"):
        recheck_transform(G, shifted, T)


def test_verify_spectrum_trace_values(f3, f7):
    lam3 = oracles.eigenvalues(spectrum(euclid_graph(f3, 2, 1)))
    assert (lam3 * lam3).sum() == pytest.approx(36, rel=1e-9)
    lam7 = oracles.eigenvalues(spectrum(euclid_graph(f7, 2, 1)))
    assert (lam7 * lam7).sum() == pytest.approx(392, rel=1e-9)


def _corrupt_class_table(monkeypatch, F, dim, edit):
    import fqlab.euclid as euclid_mod

    values = euclid_mod._norm_class_table(F, dim).copy()
    edit(values)
    monkeypatch.setattr(euclid_mod, "_norm_class_table", lambda F, dim: values)


def test_verify_spectrum_detects_corruption(f3, monkeypatch):
    G = euclid_graph(f3, 2, 1)

    def shift(v):
        v[1, 2] += 0.5

    _corrupt_class_table(monkeypatch, f3, 2, shift)
    with pytest.raises(VerificationFailed):
        recheck_transform(G, spectrum(G), sphere_transform(G))


def test_verify_spectrum_detects_swapped_classes(f7, monkeypatch):
    # Two norm classes of equal size trade values: the multiset of
    # eigenvalues, and so both trace sums, stay as they were, and only the
    # eigenvector check can tell; it names a frequency of a swapped class.
    G = euclid_graph(f7, 2, 1)
    sizes = sphere_table(f7, 2).sizes
    c1, c2 = 1, 3
    assert sizes[c1] == sizes[c2]
    good = spectrum(G)
    assert abs(good.norm_values[c1] - good.norm_values[c2]) > 1.0

    def swap(v):
        v[1, [c1, c2]] = v[1, [c2, c1]]

    _corrupt_class_table(monkeypatch, f7, 2, swap)
    bad = spectrum(G)
    assert bad.classes == good.classes
    assert bad.trace_sum_residual == pytest.approx(good.trace_sum_residual, abs=1e-9)
    assert bad.trace_square_residual == pytest.approx(good.trace_square_residual, abs=1e-9)
    with pytest.raises(VerificationFailed, match="eigenvector residual") as info:
        recheck_transform(G, bad, sphere_transform(G))
    m = re.search(r"at m = \((\d+), (\d+)\)", str(info.value)).groups()
    assert sum(int(c) ** 2 for c in m) % 7 in (c1, c2)


def test_verify_spectrum_rejects_foreign_summary(f7):
    G = euclid_graph(f7, 2, 1)
    with pytest.raises(BadSpec):
        recheck_transform(G, spectrum(euclid_graph(f7, 2, 3)), sphere_transform(G))


def test_spectrum_guardrail():
    # the table is bounded by its p x p entries, not by the p**dim vertices:
    # F_103^3 (1,092,727 vertices) gets its spectrum, F_1019^2 is refused
    s = spectrum(euclid_graph(make_field(103), 3, 1))
    assert s.n == 103**3 and s.second_eigenvalue <= s.ramanujan_bound
    with pytest.raises(TooLarge, match="spectrum table guardrail 1000000"):
        spectrum(euclid_graph(make_field(1019), 2, 1))


def test_refused_table_builds_no_graph(monkeypatch):
    # each graph descriptor reads the sphere table, O(p) work per radius,
    # so the table guardrail refuses F_1019^2 before any is built
    import fqlab.euclid as euclid_mod

    built = []
    monkeypatch.setattr(euclid_mod, "euclid_graph", lambda *args: built.append(args))
    with pytest.raises(TooLarge, match="spectrum table guardrail"):
        euclid_mod.spectra(make_field(1019), 2, range(1, 1019))
    assert built == []
    assert euclid_mod.spectra(make_field(1019), 2, []) == {}


# --- the closed-form table against the per-class character sums ---------------


def _field(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_field(p)


def _match_table_oracle(p, dim):
    """The closed-form table against the O(p**(dim+1)) per-class character
    sums, the Gauss-sum fft2 it replaced and the closed form as written, on
    every class of every row, row 0 (the radius-0 sphere, origin
    included) too."""
    import fqlab.euclid as euclid_mod

    values = euclid_mod._norm_class_table(_field(p), dim)
    assert values.shape == (p, p) and values.dtype == np.float64
    assert not values.flags.writeable
    ref, ref_imag = oracles.norm_class_table_brute(p, dim)
    fft2, fft2_imag = oracles.norm_class_table_fft2(p, dim)
    X = oracles.points_by_rank(p, dim)
    held = np.bincount((X[1:] * X[1:]).sum(axis=1) % p, minlength=p) > 0
    assert np.abs(values - ref).max() <= 1e-9
    assert np.abs(values - fft2).max() <= 1e-9
    assert np.abs(values - oracles.norm_class_table_closed_form(p, dim)).max() <= 1e-9
    if dim >= 2:
        assert np.abs(euclid_mod._recomputed_table(_field(p), dim) - ref).max() <= 1e-9
    assert (values[:, ~held] == 0).all()
    assert ref_imag.max() <= 1e-9 and fft2_imag.max() <= 1e-9


@pytest.mark.parametrize("p,dim", sorted({(p, dim) for p, dim, _ in INSTANCES}))
def test_class_table_matches_character_sum_oracle(p, dim):
    _match_table_oracle(p, dim)


# the oracle's p**(dim+1) work at most 2 * 10**6
TABLE_SPACES = [
    (p, dim)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29)
    for dim in range(2, 7)
    if p ** (dim + 1) <= 2 * 10**6
]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29)] + TABLE_SPACES))
@example((5, 2))
@example((13, 3))
@example((29, 3))
@example((5, 6))
@example((7, 5))
@example((13, 1))
@example((7, 1))
def test_class_table_matches_oracle_random_spaces(space):
    # p = 1 (mod 4), where -1 is a square, and dim 1 to 6, odd dims (Salie)
    # and even (Kloosterman)
    _match_table_oracle(*space)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([43, 59, 61, 83, 89, 101, 211, 229]), st.integers(1, 6))
@example(83, 2)
@example(89, 3)
def test_class_table_matches_fft2_oracle_at_larger_p(p, dim):
    # the fft2 route costs O(p**2 log p), so it reaches the primes of the
    # benchmark; column 0 of the fft2 table carries its rounding, while the
    # closed form's is an exact integer
    import fqlab.euclid as euclid_mod

    values = euclid_mod._norm_class_table(_field(p), dim)
    fft2, fft2_imag = oracles.norm_class_table_fft2(p, dim)
    scale = float(p) ** ((dim - 1) / 2)
    assert np.abs(values - fft2).max() <= 1e-12 * scale * p
    assert fft2_imag.max() <= 1e-12 * scale * p
    if dim >= 2:
        assert (values[:, 0] == np.rint(values[:, 0])).all()
        # the recomputed table's rounding is relative to each row's sphere
        # size, which its (norm, dot) counts sum to
        sizes = np.array(sphere_table(_field(p), dim).sizes, dtype=np.float64)
        recomputed = euclid_mod._recomputed_table(_field(p), dim)
        assert (np.abs(recomputed - fft2) <= 1e-12 * (sizes[:, None] + scale * p)).all()


@pytest.mark.parametrize("dim", [2, 3])
def test_class_table_peak_memory(dim):
    # F_991^dim: the table is 8 p**2 bytes, and its build holds one int64
    # index of the same size beside it, against 45 MiB for the complex fft2
    # route it replaced
    import fqlab.euclid as euclid_mod

    F = make_field(991)
    F.square_counts  # the field's own table is not the build's
    tracemalloc.start()
    try:
        values = euclid_mod._norm_class_table.__wrapped__(F, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (991, 991)
    assert peak < 2.5 * 8 * 991**2


@pytest.mark.parametrize("p,dim", [(7, 3), (13, 2), (11, 4), (5, 5)])
@pytest.mark.parametrize("defect", ["eta_sign", "frequency", "isotropic_shift"])
def test_closed_form_defects_are_caught(monkeypatch, p, dim, defect):
    # one defect planted in the closed form: eta negated, cos(4 pi b/p) in
    # place of cos(2 pi b/p), or the isotropic column off by p.  Every
    # radius' recheck refuses the table: the whole-table recheck from the
    # (norm, dot) counts, and the per-frequency one against its sphere
    # transform.
    import fqlab.bounds as bounds
    import fqlab.euclid as euclid_mod
    from fqlab import generate_point_set
    from oracles import degree_profile

    F = _field(p)
    planted = {"eta_sign": -1, "frequency": 2, "isotropic_shift": p}[defect]
    bad = oracles.norm_class_table_closed_form(p, dim, **{defect: planted})
    bad.setflags(write=False)
    assert np.abs(bad[1:] - euclid_mod._norm_class_table(F, dim)[1:]).max() >= 1.0
    monkeypatch.setattr(bounds, "profile_route", lambda m, p, dim, force=False: ("convolved", 0))
    E = generate_point_set(F, dim, "random:1t", seed=1)
    good = degree_profile(F, dim, E)
    monkeypatch.setattr(euclid_mod, "_norm_class_table", lambda F, dim: bad)
    worst, at = recheck_table(F, dim)
    for a in range(1, p):
        G = euclid_graph(F, dim, a)
        with pytest.raises(VerificationFailed):
            recheck_spectrum(spectrum(G), worst, at)
        assert worst[a] > EIGVEC_TOL * G.valency
        with pytest.raises(VerificationFailed):
            recheck_transform(G, spectrum(G), sphere_transform(G))
    if defect != "frequency":
        # a convolved profile gathers its transforms from the table, and
        # its degree columns leave the integers
        with pytest.raises(VerificationFailed, match="fails its certificate"):
            degree_profile(F, dim, E)
        return
    # Doubling the frequency is the dilation b -> 2b, which puts row 4a in
    # place of row a: an exact sphere transform of a sphere of the same
    # size, since 4 is a square.  The columns stay certified counts, of
    # radius 4a, so no certificate can see this defect; the recheck above
    # is what refuses it.
    bad_profile = degree_profile(F, dim, E)
    moved = 4 * np.arange(1, p) % p
    assert (bad_profile.hinges[1:] == good.hinges[moved]).all()
    assert (bad_profile.pairs[1:] == good.pairs[moved]).all()
    assert (bad_profile.hinges != good.hinges).any()


# --- the whole-table recheck from (norm, dot) counts ---------------------------


def _representative(p, dim, c):
    """The frequency vector behind _dot_counts' table of norm c, by its
    coordinates: e_1 for c = 1, (1, b, 0, ...) with 1 + b**2 = c for a
    non-square c, and (x, y, 1, 0, ...) with x**2 + y**2 = -1, or (i, 1)
    with i**2 = -1 in dim 2, for c = 0."""
    if c == 1:
        return (1,) + (0,) * (dim - 1)
    if c:
        b = next(b for b in range(p) if (1 + b * b - c) % p == 0)
        return (1, b) + (0,) * (dim - 2)
    if dim == 2:
        return (next(i for i in range(p) if (i * i + 1) % p == 0), 1)
    x, y = next((x, y) for x in range(p) for y in range(p) if (x * x + y * y + 1) % p == 0)
    return (x, y, 1) + (0,) * (dim - 3)


# p**dim <= 3 * 10**4: the brute counts pair every point with m
DOT_SPACES = [
    (p, dim) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29) for dim in range(2, 8)
    if p**dim <= 3 * 10**4
]


@pytest.mark.parametrize("p,dim", DOT_SPACES)
def test_dot_counts_match_brute_force(p, dim):
    # each (norm, dot) count table equals the count over all of F_p^dim
    # for its frequency, which has the norm it is filed under; the square
    # class, the non-square class and, where one exists, the isotropic
    # class each get one
    import fqlab.euclid as euclid_mod

    F = _field(p)
    tables = list(euclid_mod._dot_counts(F, dim))
    squares = {x * x % p for x in range(1, p)}
    kinds = [0 if c == 0 else c in squares for c, _ in tables]
    assert kinds == [True, False] + ([0] if dim >= 3 or p % 4 == 1 else [])
    for c, H in tables:
        m = _representative(p, dim, c)
        assert oracles.norm_brute(p, m) == c
        brute = oracles.dot_counts_brute(p, dim, m)
        assert H.dtype == np.int64 and H.shape == (p, (p + 1) // 2)
        np.testing.assert_array_equal(H, brute[:, : (p + 1) // 2])
        np.testing.assert_array_equal(brute[:, 1:], brute[:, :0:-1])  # j and -j
        assert (H.sum(axis=1) * 2 - H[:, 0] == sphere_table(F, dim).sizes).all()


@pytest.mark.parametrize("p,dim,a", INSTANCES)
def test_recomputed_row_matches_sphere_transform(p, dim, a):
    # the recomputed row of every radius against the FFT of its sphere at
    # every frequency, where lam is one value per norm class (Witt)
    import fqlab.euclid as euclid_mod

    G = graph(p, dim, a)
    row = euclid_mod._recomputed_table(G.field, dim)[a]
    s = oracles.replace(spectrum(G), norm_values=row)
    assert recheck_transform(G, s, sphere_transform(G)) <= 1e-12 * G.valency
    worst, at = recheck_table(G.field, dim)
    assert recheck_spectrum(spectrum(G), worst, at) <= 1e-12 * G.valency


# p = 1 (mod 4) from dim 2, dims 2 to 5, p**dim <= 3 * 10**4 for the FFT
KERNEL_SPACES = [(p, dim) for p, dim in DOT_SPACES if dim <= 5]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(KERNEL_SPACES), st.integers(1, 10**6))
@example((5, 2), 1)
@example((13, 2), 5)
@example((13, 3), 7)
@example((5, 4), 2)
@example((5, 5), 3)
@example((17, 2), 16)
def test_recomputed_row_matches_sphere_transform_random_spaces(space, a_seed):
    import fqlab.euclid as euclid_mod

    p, dim = space
    F = _field(p)
    a = 1 + a_seed % (p - 1)
    G = euclid_graph(F, dim, a)
    recomputed = euclid_mod._recomputed_table(F, dim)
    s = oracles.replace(spectrum(G), norm_values=recomputed[a])
    assert recheck_transform(G, s, sphere_transform(G)) <= 1e-12 * G.valency
    worst, _ = recheck_table(F, dim)
    assert (worst <= 1e-12 * np.array(sphere_table(F, dim).sizes)).all()


def _patched_table(monkeypatch, F, dim, edit):
    """Serve the norm-class table of (F, dim) with edit applied to a copy."""
    import fqlab.euclid as euclid_mod

    values = euclid_mod._norm_class_table(F, dim).copy()
    edit(values)
    values.setflags(write=False)
    monkeypatch.setattr(euclid_mod, "_norm_class_table", lambda F, dim: values)


@pytest.mark.parametrize("p,dim,a,c", [
    (7, 2, 3, 5), (13, 2, 1, 0), (7, 3, 2, 0), (5, 4, 4, 3), (11, 2, 0, 4), (13, 3, 0, 0),
])
def test_table_recheck_refuses_one_entry_off(monkeypatch, p, dim, a, c):
    # one entry of row a off by 10 tolerances: its recheck names the radius
    # and the class; row 0, which no graph reads, fails every radius; an
    # entry off by a tenth of a tolerance passes
    F = _field(p)
    k = sphere_table(F, dim).sizes
    for scale, refused in ((10, True), (0.1, False)):
        with monkeypatch.context() as m:
            def shift(values):
                values[a, c] += scale * EIGVEC_TOL * k[a]

            _patched_table(m, F, dim, shift)
            worst, at = recheck_table(F, dim)
            assert worst[a] == pytest.approx(scale * EIGVEC_TOL * k[a], rel=1e-3)
            assert at[a] == c
            for r in range(1, p):
                s = spectrum(euclid_graph(F, dim, r))
                if refused and a in (r, 0):
                    with pytest.raises(VerificationFailed,
                                       match=f"at radius {a}, norm class {c} exceeds"):
                        recheck_spectrum(s, worst, at)
                else:
                    assert recheck_spectrum(s, worst, at) <= EIGVEC_TOL * k[r]


def test_table_recheck_refuses_a_nan_entry(monkeypatch):
    # a residual that is not a number fails its radius, as a large one does
    F = make_field(7)

    def spoil(values):
        values[3, 5] = float("nan")

    _patched_table(monkeypatch, F, 2, spoil)
    worst, at = recheck_table(F, 2)
    with pytest.raises(VerificationFailed, match="at radius 3, norm class 5 exceeds"):
        recheck_spectrum(oracles.spectrum(euclid_graph(F, 2, 3)), worst, at)
    assert recheck_spectrum(oracles.spectrum(euclid_graph(F, 2, 2)), worst, at) <= 1e-12 * 8


@pytest.mark.parametrize("p,dim", [(7, 2), (11, 2), (19, 2), (7, 3), (13, 3), (5, 4)])
def test_table_recheck_refuses_swapped_classes(monkeypatch, p, dim):
    # two classes of one size trade values in row 1: both trace sums stay
    # as they were, and only the recheck can tell; it names one of them,
    # and row 2 still passes
    F = _field(p)
    sizes = sphere_table(F, dim).sizes
    good = spectrum(euclid_graph(F, dim, 1))
    c1, c2 = next(
        (c1, c2) for c1 in range(1, p) for c2 in range(c1 + 1, p)
        if sizes[c1] == sizes[c2] and abs(good.norm_values[c1] - good.norm_values[c2]) > 1.0
    )

    def swap(values):
        values[1, [c1, c2]] = values[1, [c2, c1]]

    _patched_table(monkeypatch, F, dim, swap)
    bad = spectrum(euclid_graph(F, dim, 1))
    assert bad.trace_sum_residual == pytest.approx(good.trace_sum_residual, abs=1e-6)
    assert bad.trace_square_residual == pytest.approx(good.trace_square_residual, abs=1e-6)
    worst, at = recheck_table(F, dim)
    with pytest.raises(VerificationFailed, match="at radius 1, norm class") as info:
        recheck_spectrum(bad, worst, at)
    assert int(re.search(r"norm class (\d+)", str(info.value)).group(1)) in (c1, c2)
    assert recheck_spectrum(spectrum(euclid_graph(F, dim, 2)), worst, at) <= 1e-12 * sizes[2]


def test_table_recheck_peak_memory():
    # F_991^3, p**dim = 9.7 * 10**8: the recheck holds three p x p floats at
    # most beside the table, no p**dim array, and every radius passes
    import fqlab.euclid as euclid_mod

    F = make_field(991)
    euclid_mod._norm_class_table(F, 3)  # the table is not the recheck's
    tracemalloc.start()
    try:
        worst, at = recheck_table(F, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert worst.shape == at.shape == (991,)
    assert (worst <= 1e-12 * np.array(sphere_table(F, 3).sizes)).all()
    assert peak < 3.5 * 8 * 991**2


# --- the sphere transform gathered from the table -----------------------------


def _gathered_transform_error(F, dim, a):
    """|class_transform - sphere_transform| / valency, worst over every
    frequency, for the table row and valency the degree profile gathers."""
    import fqlab.euclid as euclid_mod

    G = euclid_graph(F, dim, a)
    values = euclid_mod._norm_class_table(F, dim)
    T, want = class_transform(F.p, dim, values[a], G.valency), sphere_transform(G)
    assert T.shape == want.shape
    return float(np.abs(T - want).max()) / G.valency


@pytest.mark.parametrize("p,dim,a", INSTANCES)
def test_gathered_transform_matches_sphere_transform(p, dim, a):
    assert _gathered_transform_error(make_field(p), dim, a) <= EIGVEC_TOL


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(TABLE_SPACES), st.integers(1, 10**6))
@example((5, 2), 1)
@example((13, 3), 7)
@example((29, 2), 3)
@example((5, 6), 2)
@example((7, 5), 4)
def test_gathered_transform_matches_sphere_transform_random_spaces(space, a_seed):
    # p = 1 (mod 4) included; dim up to 6 gathers from a deep norm grid
    p, dim = space
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F = make_field(p)
    assert _gathered_transform_error(F, dim, 1 + a_seed % (p - 1)) <= EIGVEC_TOL


@pytest.mark.parametrize("p,dim,a", INSTANCES)
def test_gathered_columns_equal_sphere_transform_columns(p, dim, a):
    # the subset counts' route, a transform gathered from the radius' row of
    # the table, makes the same integer columns as an FFT of the sphere,
    # for a stack of an empty set, a point, a random third and the space
    G = graph(p, dim, a)
    s = spectrum(G)
    rng = random.Random(p * dim * a)
    sets = [[], [rng.randrange(G.n)], rng.sample(range(G.n), G.n // 3), range(G.n)]
    gathered, _ = columns(G, class_transform(p, dim, s.norm_values, s.valency), sets)
    made, _ = columns(G, sphere_transform(G), sets)
    assert gathered.shape == (4, G.n)
    np.testing.assert_array_equal(gathered, made)


# --- degree columns and the oracle neighbor table ----------------------------


def test_regular_view_shape(g3_view):
    assert g3_view.n == 9 and g3_view.k == 4
    assert g3_view.adj.shape == (9, 4)
    # the view is the neighbor table alone; lambda goes to each bound
    assert [f.name for f in dataclasses.fields(g3_view)] == ["n", "k", "adj"]


def test_regular_view_neighbors_match_brute(g3_view):
    for x in [(0, 0), (2, 1)]:
        r = point_rank(3, x)
        got = sorted(oracles.neighbors(g3_view, r))
        want = sorted(point_rank(3, y) for y in oracles.neighbors_brute(3, 2, 1, x))
        assert got == want


def assert_columns_match_tables(G, view, pairs):
    """The stacked FFT degree columns of the sets B equal their
    neighbor-table columns, and every count read off the stack equals the
    literal count over the table, for each (B, C) pair of one stack."""
    deg, members = columns(G, sphere_transform(G), [B for B, _ in pairs])
    assert deg.dtype == np.int64 and deg.shape == (len(pairs), G.n)
    Cs = [vertex_array(G.n, C) for _, C in pairs]
    variance, mixing = variance_check(deg), mixing_check(deg, Cs)
    hinges, sums = hinge_count(deg, members), degree_sum_check(deg, members)
    for i, (B, C) in enumerate(pairs):
        assert np.array_equal(deg[i], oracles.view_column(view, B))
        want = oracles.table_counts(view, B, C)
        assert (Fraction(variance[i], G.n), mixing[i][0], hinges[i], sums[i]) == want
        b, c = len(set(B)), len(set(C))
        assert Fraction(mixing[i][1], G.n) == abs(want[1] - Fraction(G.valency * b * c, G.n))


def test_degree_columns_match_neighbor_tables_on_grid():
    # one stack of five subsets per instance
    for p, dim, a in INSTANCES:
        G = graph(p, dim, a)
        view = oracles.regular_view(G)
        rng = random.Random(f"column|{p}|{dim}|{a}")
        pairs = []
        for size in (0, 1, 2, G.n // 3, G.n):
            B = rng.sample(range(G.n), size)
            C = rng.sample(range(G.n), rng.randint(0, G.n))
            pairs.append((B, C))
        assert_columns_match_tables(G, view, pairs)


def test_count_numerators_equal_n_times_fraction_oracles_on_grid():
    # variance and mixing deviations are numerators over n: n times the
    # Fraction routes they replaced, for four sets per instance
    for p, dim, a in INSTANCES:
        G = graph(p, dim, a)
        rng = random.Random(f"numerator|{p}|{dim}|{a}")
        sets = [rng.sample(range(G.n), size) for size in (0, 1, G.n // 3, G.n)]
        Cs = [vertex_array(G.n, rng.sample(range(G.n), rng.randint(0, G.n))) for _ in sets]
        deg, _ = columns(G, sphere_transform(G), sets)
        variance, mixing = variance_check(deg), mixing_check(deg, Cs)
        assert all(type(v) is int for v in variance)
        assert variance == [G.n * v for v in oracles.variance_fraction(deg)]
        assert all(type(e) is int and type(dev) is int for e, dev in mixing)
        assert mixing == [(e, G.n * dev) for e, dev in oracles.mixing_fraction(deg, Cs)]


@st.composite
def column_cases(draw):
    """(p, dim, a, B, C) on a space of at most 7**4 points; B and C may
    repeat ranks."""
    p, dim = draw(st.sampled_from(
        [(p, d) for p in (3, 5, 7, 11, 13) for d in (2, 3, 4) if p**d <= 7**4]
    ))
    ranks = st.lists(st.integers(0, p**dim - 1), max_size=300)
    return p, dim, draw(st.integers(1, p - 1)), draw(ranks), draw(ranks)


@settings(max_examples=20, deadline=None)
@given(column_cases())
@example((5, 4, 2, list(range(625)), [0, 0, 7]))
@example((13, 2, 5, [3, 3, 168], list(range(169))))
@example((13, 3, 1, list(range(0, 2197, 5)), [1]))
@example((7, 4, 3, [], list(range(2401))))
def test_degree_columns_match_neighbor_tables_random_spaces(case):
    p, dim, a, B, C = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        G = euclid_graph(make_field(p), dim, a)
    assert_columns_match_tables(G, oracles.regular_view(G), [(B, C)])


@st.composite
def stack_cases(draw):
    """(p, dim, a, pairs): one to five (B, C) pairs for one stack, p in
    3..13 and dim in 2..4 on a space of at most 7**4 points; a set may be
    empty, a singleton or repeat ranks, and C differs from B."""
    p, dim = draw(st.sampled_from(
        [(p, d) for p in (3, 5, 7, 11, 13) for d in (2, 3, 4) if p**d <= 7**4]
    ))
    rank = st.integers(0, p**dim - 1)
    sets = st.one_of(
        st.just([]), st.lists(rank, min_size=1, max_size=1),
        st.lists(rank, max_size=60), st.lists(st.sampled_from([0, p**dim - 1, 1]), max_size=6),
    )
    pairs = draw(st.lists(st.tuples(sets, sets), min_size=1, max_size=5))
    return p, dim, draw(st.integers(1, p - 1)), pairs


@settings(max_examples=30, deadline=None)
@given(stack_cases())
@example((3, 2, 1, [([], [0]), ([4], []), ([4, 4, 8, 0], [8, 8]), ([], [])]))
@example((13, 2, 5, [(list(range(169)), [5]), ([7], list(range(169)))]))
def test_stacked_columns_match_neighbor_tables_random_spaces(case):
    p, dim, a, pairs = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        G = euclid_graph(make_field(p), dim, a)
    assert_columns_match_tables(G, oracles.regular_view(G), pairs)


def test_degree_column_edge_cases(f7):
    G = euclid_graph(f7, 2, 3)
    T, view, n, k = sphere_transform(G), oracles.regular_view(G), G.n, G.valency
    (empty, one, full, dup), _ = columns(G, T, [[], [5], range(n), [4, 9, 4, 4]])
    assert not empty.any()
    assert one.sum() == k and set(one.tolist()) == {0, 1}
    assert (full == k).all()
    assert np.array_equal(dup, columns(G, T, [[9, 4]])[0][0])
    assert_columns_match_tables(
        G, view, [(B, [4, 5, 5, 30]) for B in ([], [5], range(n), [4, 9, 4, 4])]
    )
    for bad in ([n], [-1], [0, n + 3]):
        with pytest.raises(VertexOutOfRange):
            columns(G, T, [bad])
    stack = one[None]
    with pytest.raises(VertexOutOfRange):
        mixing_check(stack, [np.array([n])])
    with pytest.raises(VertexOutOfRange):
        hinge_count(stack, [np.array([-1])])
    with pytest.raises(VertexOutOfRange):
        degree_sum_check(stack, [np.array([n])])


def test_degree_column_certificate(f3):
    G1, G2 = euclid_graph(f3, 3, 1), euclid_graph(f3, 3, 2)  # valencies 6 and 12
    T1, T2 = sphere_transform(G1), sphere_transform(G2)
    columns(G1, T1, [range(27)])
    with pytest.raises(VerificationFailed):
        columns(G1, T1 * 1.5, [[0, 5, 7]])  # entries leave the integers
    with pytest.raises(VerificationFailed):
        columns(G1, T2, [[0, 5, 7]])  # exact integers, wrong total


@pytest.mark.parametrize("scale", [1.5, 2.0])  # entries leave the integers; wrong sum
def test_stacked_certificate_names_the_failing_row(f7, scale):
    G = euclid_graph(f7, 2, 3)
    T = sphere_transform(G)
    members = [vertex_array(G.n, B) for B in ([1, 2], [0, 5, 7], [3], [])]
    sizes = [m.size for m in members]
    hats = set_transforms(7, 2, members)
    assert certified_columns(G, T, hats, sizes).shape == (4, G.n)
    hats[1] *= scale  # corrupts row 1 of hats * T only
    with pytest.raises(VerificationFailed, match=r"row 1 \(3 vertices\) fails its certificate"):
        certified_columns(G, T, hats, sizes)


def test_degree_columns_guardrail():
    # degree columns span F_p^dim: F_103^3 is refused before its first
    # stack is transformed, and no members make no work
    F = make_field(103)
    with pytest.raises(TooLarge, match="exceeds the spectrum guardrail 1000000"):
        next(degree_columns(F, 3, [np.arange(5)], [1]))
    assert list(degree_columns(F, 3, [], [1])) == []


def test_subset_counts_peak_memory():
    # one radius of F_43^3: n = 79,507 vertices of valency 1,806, so
    # an n x k neighbor table alone would take about 1.2 GB
    G = euclid_graph(make_field(43), 3, 1)
    rng = random.Random(1)
    sets = [rng.sample(range(G.n), size) for size in (1, 282, G.n)]
    tracemalloc.start()
    try:
        T = sphere_transform(G)
        for B in sets:
            deg, members = columns(G, T, [B])
            variance_check(deg)
            mixing_check(deg, members)
            hinge_count(deg, members)
            degree_sum_check(deg, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_stacked_subset_counts_peak_memory(monkeypatch):
    # ten sets of one radius of F_43^3 through verify's subset pass, at
    # most max(1, STACK_ELEMENTS // n) = 3 sets of 79,507 vertices per
    # stack, each stack dropped before the next is made
    import fqlab.euclid as euclid_mod

    F = make_field(43)
    G = euclid_graph(F, 3, 1)
    spectra = {1: spectrum(G)}
    rng = random.Random(2)
    sizes = (1, 10, 100, 282, 1000, 5000, 20000, 40000, G.n - 1, G.n)
    members = [vertex_array(G.n, rng.sample(range(G.n), size)) for size in sizes]
    stacked = []

    def counted(p, dim, stack):
        stacked.append(len(stack))
        return set_transforms(p, dim, stack)

    monkeypatch.setattr(euclid_mod, "set_transforms", counted)
    monkeypatch.setattr(cli, "_subset_draws", lambda n, check, trials, rng: (
        (B, B if check == "mixing" else None) for B in members
    ))
    args = argparse.Namespace(seed=0, trials=len(members), force=False)
    tracemalloc.start()
    try:
        held = [r["holds"] for check in ("variance", "mixing", "hinge")
                for r in cli._subset_records(F, 3, spectra, check, 1, args)[0]]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stacked == [3, 3, 3, 1] * 3  # one pass per check
    assert len(held) == 10 * 8 and all(held)  # (2 + 2 + 4) verdicts per set
    assert peak < 64 * 2**20
