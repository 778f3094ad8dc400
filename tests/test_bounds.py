import random
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import degree_profile, hinge_count, spectrum, sphere_transform
from fqlab import (
    BadSpec,
    DegreeProfile,
    DimensionMismatch,
    MissingSpectrum,
    PointSet,
    TooLarge,
    VerificationFailed,
    check_main_theorem,
    euclid_graph,
    generate_point_set,
    load_point_set,
    lower_bound_f,
    make_field,
    sphere_table,
    upper_bound_f,
)
from fqlab import bounds, euclid, geometry
from fqlab.bounds import degree_profiles
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
    assert all(sum(row) == 11 for row in oracles.degree_profile_brute(7, oracles.points(E)))
    assert int(prof.pairs.sum()) == 12 * 11


@pytest.mark.parametrize("p,dim,gen", [(3, 2, "all"), (7, 2, "random:10"),
                                       (7, 3, "random:9"), (11, 2, "box:4")])
def test_profile_matches_brute(p, dim, gen):
    F = make_field(p)
    E = generate_point_set(F, dim, gen, seed=2)
    prof = degree_profile(F, dim, E)
    assert sums_of(prof) == brute_sums(p, oracles.points(E))
    assert prof.pairs[0] == oracles.null_pairs_brute(p, oracles.points(E))


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


# --- profile routes: pairwise, complement and convolution ---------------------

ROUTES = ("pairwise", "complement", "convolved")


def profile_by(route, F, dim, E):
    """degree_profile with its cost model pinned to one route."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "profile_route", lambda m, p, dim, force=False: (route, 0))
        return degree_profile(F, dim, E)


# sets up to this size are also checked against the per-point oracle table
BRUTE_MAX = 200
# sets whose complement is at most this size are also profiled through it
COMPLEMENT_MAX = 2000


def assert_routes_agree(F, dim, E):
    routes = [r for r in ROUTES if r != "complement" or E.p**dim - len(E) <= COMPLEMENT_MAX]
    pair, *others = (profile_by(route, F, dim, E) for route in routes)
    for prof in others:
        assert prof.hinges.dtype == prof.pairs.dtype == np.int64
        assert sums_of(prof) == sums_of(pair)
    assert_pairwise_matches_oracles(pair, E)
    return others[-1]


def assert_pairwise_matches_oracles(prof, E):
    """prof equals the int64 arithmetic route, and the per-point oracle
    table up to BRUTE_MAX points."""
    arith = oracles.pairwise_profile_arith(E.p, E.dim, E.ranks)
    assert sums_of(prof) == tuple(arith.tolist())
    if len(E) <= BRUTE_MAX:
        assert sums_of(prof) == brute_sums(E.p, oracles.points(E))


def routes_taken(monkeypatch):
    """The route functions every later degree_profile call runs, in
    order; the complement route's pass over a nonempty complement is a
    pairwise pass, run before the complement route carries it over."""
    taken = []
    for route in ROUTES:
        fn = getattr(bounds, f"_{route}_profile")
        monkeypatch.setattr(bounds, f"_{route}_profile",
                            lambda *args, fn=fn, route=route: taken.append(route) or fn(*args))
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


@st.composite
def complement_cases(draw):
    """(p, dim, ranks) whose complement in F_p^dim is empty, one point, a
    few, or half the space; p = 1 (mod 4) and dim >= 3 give null pairs."""
    p, dim = draw(st.sampled_from([(3, 2), (5, 2), (7, 2), (13, 2), (31, 2), (3, 3),
                                   (5, 3), (7, 3), (3, 4), (5, 4), (3, 5)]))
    n = p**dim
    size = draw(st.sampled_from([0, 1, 2, 3, 5, n // 2]))
    outside = set(draw(st.randoms(use_true_random=False)).sample(range(n), size))
    return p, dim, [r for r in range(n) if r not in outside]


@settings(max_examples=40, deadline=None)
@given(complement_cases())
@example((3, 2, list(range(9))))
@example((5, 3, list(range(1, 125))))
@example((13, 2, list(range(0, 169, 2))))
def test_profile_routes_agree_on_complements(case):
    p, dim, ranks = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F = make_field(p)
    E = PointSet(ranks, p=p, dim=dim)
    prof = assert_routes_agree(F, dim, E)
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
    (59, 2, "all", "complement"),  # the fcount-dense set: |C|**2 + p**2 = p**2
    (11, 3, "all", "complement"),
    (11, 3, "random:665", "convolved"),  # |E|**2 and |C|**2 both past 20 p**4
    # |E|**2 = 1.6e9 and |C|**2 = 1.6e11 are past the guardrail, the
    # convolution's 20 p**4 = 6.8e7 is not, so it convolves unforced
    (43, 3, "random:40000", "convolved"),
])
def test_profile_route_choice(monkeypatch, p, dim, gen, route):
    F = make_field(p)
    E = generate_point_set(F, dim, gen, seed=1)
    taken = routes_taken(monkeypatch)
    degree_profile(F, dim, E)
    assert taken == [route]


@pytest.mark.parametrize("m,p,dim,force,chosen", [
    (0, 3, 2, False, ("pairwise", 0)),
    (991**2, 991, 2, False, ("complement", 991**2)),
    (991**2 - 10**4, 991, 2, False, ("complement", 10**8 + 991**2)),
    (13778, 83, 3, False, ("pairwise", 13778**2)),  # random:2t, refused
    (40000, 43, 3, False, ("convolved", 20 * 43**4)),
    (285000, 83, 3, False, ("convolved", 20 * 83**4)),  # refused
    # past the spectrum guardrail the convolution needs force
    (5 * 10**5, 101, 3, False, ("pairwise", 25 * 10**10)),
    (5 * 10**5, 101, 3, True, ("convolved", 20 * 101**4)),
    (10**4, 991, 4, False, ("pairwise", 10**8)),
])
def test_profile_route_costs(m, p, dim, force, chosen):
    assert bounds.profile_route(m, p, dim, force) == chosen


def test_complement_route_needs_int64_sums():
    # _complement_fits bounds every sum of the complement route below 2**63:
    # it holds for all of F_3^13 and not for F_3^14, whose hinges at one
    # radius reach |E| k_r**2 > 1.2e19; that space then convolves, forced,
    # or stays pairwise.  In F_7^8 the |C|**2 term decides.
    assert bounds.profile_route(3**13, 3, 13) == ("complement", 9)
    assert bounds.profile_route(3**14, 3, 14, force=True) == ("convolved", 20 * 3**15)
    assert bounds.profile_route(3**14, 3, 14) == ("pairwise", 3**28)
    assert bounds._complement_fits(7, 8, 1838200)
    assert not bounds._complement_fits(7, 8, 1838201)
    # all of F_3^12 through the complement route, against its closed form
    F = make_field(3)
    prof = degree_profile(F, 12, generate_point_set(F, 12, "all"))
    K = np.array(sphere_table(F, 12).sizes) - np.eye(1, 3, dtype=np.int64)[0]
    assert prof.pairs.tolist() == (3**12 * K).tolist()
    assert prof.hinges.tolist() == (3**12 * K * K).tolist()


def test_profile_above_spectrum_guardrail_stays_pairwise(monkeypatch):
    # half of F_11^3 is dense enough to convolve (|E|**2 and |C|**2 both past
    # 20 p**4), but not over a guardrail of 500 vertices unless forced
    monkeypatch.setattr(bounds, "SPECTRUM_MAX", 500)
    taken = routes_taken(monkeypatch)
    F = make_field(11)
    E = generate_point_set(F, 3, "random:665", seed=1)
    unforced, forced = degree_profile(F, 3, E), degree_profile(F, 3, E, force=True)
    assert taken == ["pairwise", "convolved"]
    assert sums_of(unforced) == sums_of(forced)


@pytest.mark.parametrize("scale", [1.5, 2.0])  # entries leave the integers; wrong sum
def test_convolved_profile_certificate(monkeypatch, scale):
    # a corrupted gathered sphere transform fails the column certificate,
    # with no fallback to another route.  |E|**2 = 20.5 p**3, but 29 points
    # short of F_23^2 the complement is cheaper, so the convolution route,
    # whose certificate this checks, is pinned.
    monkeypatch.setattr(bounds, "PROFILE_FFT_RATIO", 0)
    F = make_field(23)
    E = generate_point_set(F, 2, "random:500", seed=1)
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
    values = euclid._norm_class_table(F, 2)
    c1, c2 = 1, 2
    assert sphere_table(F, 2).sizes[c1] == sphere_table(F, 2).sizes[c2]
    assert np.abs(values[1:, c1] - values[1:, c2]).max() > 1.0
    swapped = values.copy()
    swapped[:, [c1, c2]] = values[:, [c2, c1]]
    taken = routes_taken(monkeypatch)
    monkeypatch.setattr(euclid, "_norm_class_table", lambda F, dim: swapped)
    with pytest.raises(VerificationFailed, match="fails its certificate"):
        degree_profile(F, 2, E)
    assert taken == ["convolved"]


def test_convolved_profile_peak_memory(monkeypatch):
    # all of F_59^2 takes the complement route; the convolution is pinned
    F = make_field(59)
    E = generate_point_set(F, 2, "all")
    taken = routes_taken(monkeypatch)
    tracemalloc.start()
    try:
        prof = profile_by("convolved", F, 2, E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == ["convolved"]
    assert prof.pairs.sum() == 3481 * 3480
    assert peak < 8 * 2**20


def test_forced_full_space_profile_peak_memory(monkeypatch):
    # all of F_103^2 takes the complement route, at a cost of p**2 and no
    # force; the convolution, pinned and forced, keeps only the two
    # length-p vectors too, not a 10609 x 103 table
    F = make_field(103)
    E = generate_point_set(F, 2, "all")
    valencies = [euclid_graph(F, 2, a).valency for a in range(1, 103)]
    taken = routes_taken(monkeypatch)
    for profile in (lambda: degree_profile(F, 2, E),
                    lambda: profile_by("convolved", F, 2, E)):
        tracemalloc.start()
        try:
            prof = profile()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.pairs.tolist() == [0] + [103**2 * k for k in valencies]
        assert prof.f_value() == 103**2 * sum(k * k for k in valencies)
        assert peak < 2 * 2**20
    assert taken == ["complement", "convolved"]


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


# --- stacked profiles: many sets of one (p, dim) in one call -------------------


def assert_stacked_profiles_agree(F, dim, sets, stacked):
    """stacked, the degree_profiles entries of sets, are entry by entry
    the profile each set gets alone and the int64 arithmetic route's
    sums."""
    assert len(stacked) == len(sets)
    for E, got in zip(sets, stacked):
        (alone,) = degree_profiles(F, dim, [E])
        if isinstance(alone, Exception):
            assert type(got) is type(alone) and str(got) == str(alone)
            continue
        assert got.size == len(E)
        assert got.hinges.dtype == got.pairs.dtype == np.int64
        assert sums_of(got) == sums_of(alone)
        assert sums_of(got) == tuple(oracles.pairwise_profile_arith(E.p, dim, E.ranks).tolist())


def stacked_passes(monkeypatch, F, dim, sets):
    """(degree_profiles of sets, the (S, m) shape of each pairwise pass it
    made), checked against each set alone."""
    shapes, kernel = [], bounds._pairwise_profile
    with monkeypatch.context() as mp:
        mp.setattr(bounds, "_pairwise_profile",
                   lambda p, dim, stack, sums: shapes.append(stack.shape)
                   or kernel(p, dim, stack, sums))
        stacked = degree_profiles(F, dim, sets)
    assert_stacked_profiles_agree(F, dim, sets, stacked)
    return stacked, shapes


@pytest.mark.parametrize("p,dim", GRID)
def test_stacked_profiles_agree_on_grid(monkeypatch, p, dim):
    # every default generator over three seeds, with the empty set and a
    # singleton: each random generator's seeds give sets of one size, which
    # share one pass, and "all" takes the complement route with no pass
    F = make_field(p)
    gens = ["all", "sphere:1", "box:1t", "random:0.5t", "random:1t", "random:2t"]
    sets = [generate_point_set(F, dim, gen, seed=seed) for gen in gens for seed in (1, 2, 3)]
    sets += [PointSet([], p=p, dim=dim), PointSet([p**dim - 1], p=p, dim=dim)]
    _, shapes = stacked_passes(monkeypatch, F, dim, sets)
    # one pass per size of the sets, or complements, that go pairwise, all
    # of them at most 256 = isqrt(PAIR_CHUNK) points, whatever their number
    jobs = Counter()
    for E in sets:
        route, _ = bounds.profile_route(len(E), p, dim)
        jobs[{"pairwise": len(E), "complement": p**dim - len(E)}.get(route, 0)] += 1
    del jobs[0]
    assert max(jobs) <= 256
    assert sorted(shapes) == sorted((count, m) for m, count in jobs.items())
    assert len(shapes) < sum(jobs.values())


@pytest.mark.parametrize("p,m", [(7, 1), (11, 15), (103, 10), (1031, 40)])
def test_stacked_profiles_of_equal_size(monkeypatch, p, m):
    # five sets of m points in one (5, m) pass: p <= 2m counts rows into
    # bins, p > 2m (103 and 1031) sorts them
    F = field(p)
    sets = [generate_point_set(F, 2, f"random:{m}", seed=seed) for seed in range(5)]
    _, shapes = stacked_passes(monkeypatch, F, 2, sets)
    assert shapes[0] == (5, m)


def test_stacked_profiles_share_a_pass_with_equal_complements(monkeypatch):
    # three sets of all of F_7^2 but 3 points take the complement route,
    # and their complements of 3 points share one pass with a 3-point set
    # on the pairwise route; a set of another size gets a pass of its own
    F = field(7)
    near_all = [np.setdiff1d(np.arange(49), [i, i + 9, i + 20]) for i in (0, 5, 11)]
    sets = [PointSet(ranks, p=7, dim=2) for ranks in near_all]
    sets.insert(1, PointSet([3, 17, 40], p=7, dim=2))
    sets.append(PointSet([2, 30], p=7, dim=2))
    assert [bounds.profile_route(len(E), 7, 2)[0] for E in sets] == (
        ["complement", "pairwise", "complement", "complement", "pairwise"])
    _, shapes = stacked_passes(monkeypatch, F, 2, sets)
    assert shapes[:2] == [(4, 3), (1, 2)]


@pytest.mark.parametrize("pair_chunk", [1, 20, 2 * 64 + 1, 5 * 64])
@pytest.mark.parametrize("p", [7, 101])
def test_stacked_profiles_split_across_chunks(monkeypatch, pair_chunk, p):
    # five sets of 8 points: 64 pairs a set, so a chunk of 2 * 64 + 1 pairs
    # holds two sets and the last chunk one, and a chunk under 64 pairs
    # holds rows of one set; bins at p = 7 and sorted rows at p = 101
    monkeypatch.setattr(bounds, "PAIR_CHUNK", pair_chunk)
    F = field(p)
    sets = [generate_point_set(F, 2, "random:8", seed=seed) for seed in range(5)]
    _, shapes = stacked_passes(monkeypatch, F, 2, sets)
    assert shapes[0] == ((5, 8) if pair_chunk >= 64 else (1, 8))


def test_stacked_profiles_working_set_follows_pair_chunk():
    # 200 sets of 100 points of F_101^2 in one stack of 2 * 10**6 pairs:
    # each chunk holds the 6 whole sets that fit in PAIR_CHUNK = 2**16
    # pairs, and the call peaked at 2.5 MiB, where one chunk of the whole
    # stack holds 24 MiB of buffers
    F = field(101)
    sets = [generate_point_set(F, 2, "random:100", seed=seed) for seed in range(200)]
    assert len({len(E) for E in sets}) == 1
    tracemalloc.start()
    try:
        got = degree_profiles(F, 2, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(int(prof.pairs.sum()) == 100 * 99 for prof in got)
    assert sums_of(got[-1]) == tuple(oracles.pairwise_profile_arith(101, 2, sets[-1].ranks).tolist())
    assert peak < 4 * 2**20


def test_stacked_profiles_keep_each_error_in_its_place(monkeypatch):
    # under a guardrail of 200 pair-equivalents, the union of two draws of
    # 10 points of F_7^2, 17 points at seed 1, is refused (|E|**2, |C|**2 +
    # p**2 and 20 p**3 all past it), as it is alone, and the sets of 5 and
    # 11 points and all of F_7^2 around it are profiled
    monkeypatch.setattr(bounds, "PROFILE_MAX_PAIRS", 200)
    F = field(7)
    sets = [generate_point_set(F, 2, gen, seed=1)
            for gen in ("random:5", "random:10+random:10", "random:5+line:0,0;1,0", "all")]
    assert [len(E) for E in sets] == [5, 17, 11, 49]
    got, _ = stacked_passes(monkeypatch, F, 2, sets)
    assert [type(prof) for prof in got] == [DegreeProfile, TooLarge, DegreeProfile, DegreeProfile]
    with pytest.raises(TooLarge) as refusal:
        bounds.guard_profile(len(sets[1]), 7, 2)
    assert str(got[1]) == str(refusal.value)
    with pytest.raises(TooLarge):
        degree_profile(F, 2, sets[1])
    assert sums_of(degree_profiles(F, 2, sets, force=True)[1]) == tuple(
        oracles.pairwise_profile_arith(7, 2, sets[1].ranks).tolist())


def test_stacked_profiles_of_no_set(f3):
    assert degree_profiles(f3, 2, []) == []
    with pytest.raises(DimensionMismatch):
        degree_profiles(f3, 3, [generate_point_set(f3, 3, "all"), generate_point_set(f3, 2, "all")])


@st.composite
def stacked_cases(draw):
    """(p, dim, rank lists, pair_chunk or None): up to eight sets of F_p^dim,
    p in 3..31 and dim 2..3, of sizes drawn from three, so some share a
    size, empty sets and, below 1000 points, sets near all of F_p^dim
    among them."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 31]))
    dim = draw(st.integers(2, 3))
    n = p**dim
    sizes = draw(st.lists(st.integers(0, min(n, 60)), min_size=1, max_size=3))
    sizes += [n - size for size in sizes if 60 < n - size < 1000 and draw(st.booleans())]
    rng = random.Random(draw(st.integers(0, 2**32)))
    sets = [sorted(rng.sample(range(n), draw(st.sampled_from(sizes))))
            for _ in range(draw(st.integers(1, 8)))]
    pair_chunk = draw(st.none() | st.integers(1, 4 * 60 * 60))
    return p, dim, sets, pair_chunk


@settings(max_examples=60, deadline=None)
@given(stacked_cases())
@example((3, 2, [[], [0], [4], [0, 1, 2], list(range(9))], None))
@example((31, 2, [list(range(0, 120, 4)), list(range(1, 121, 4)), list(range(20))], 1000))
def test_stacked_profiles_agree_random(case):
    p, dim, sets, pair_chunk = case
    with pytest.MonkeyPatch.context() as mp:
        if pair_chunk is not None:
            mp.setattr(bounds, "PAIR_CHUNK", pair_chunk)
        F, sets = field(p), [PointSet(r, p=p, dim=dim) for r in sets]
        assert_stacked_profiles_agree(F, dim, sets, degree_profiles(F, dim, sets))


# --- sphere intersection table ---------------------------------------------


def field(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_field(p)


# the grid's (p, dim) pairs have p = 3 (mod 4); p = 1 (mod 4) adds null
# vectors in dim 2, and dim 1 and 4 the edge cases of N_{dim-1}, N_{dim-2}
INTERSECTION_CASES = GRID + [(5, 2), (13, 2), (5, 3), (3, 4), (5, 4), (3, 1), (7, 1)]


@pytest.mark.parametrize("p,dim", INTERSECTION_CASES)
def test_intersection_table_matches_brute(p, dim):
    table = geometry.intersection_table(field(p), dim)
    assert table.shape == (p, p) and table.dtype == np.int64
    assert not table.flags.writeable
    brute = oracles.intersection_counts_brute(p, dim)
    pts = oracles.points_by_rank(p, dim)
    norms = (pts * pts).sum(axis=1) % p
    # Witt: every nonzero v of norm t has the column of t
    assert (brute[1:] == table[:, norms[1:]].T).all()


@pytest.mark.parametrize("p,dim", GRID + [(5, 2), (13, 2)])
def test_corrupted_intersection_entry_fails_the_double_count(monkeypatch, p, dim):
    # column t is weighted by the vectors of norm t: at least one for t != 0,
    # and for t = 0 the null vectors, which F_p^2 has only for p = 1 (mod 4);
    # without them the column is never read, as no pair is null
    F = field(p)
    build = geometry._intersection_counts
    weights = np.array(sphere_table(F, dim).sizes) - np.eye(1, p, dtype=np.int64)[0]
    for r, t in [(0, 1), (p - 1, p - 1), (1, p // 2), (2, 0)]:
        def corrupted(F, dim, r=r, t=t):
            table = build(F, dim)
            table[r, t] -= 1
            return table

        monkeypatch.setattr(geometry, "_intersection_counts", corrupted)
        if weights[t]:
            with pytest.raises(VerificationFailed, match=f"double count at radius {r}$"):
                geometry.intersection_table.__wrapped__(F, dim)
        else:
            geometry.intersection_table.__wrapped__(F, dim)


def test_corrupted_intersection_table_fails_the_complement_profile(monkeypatch):
    # a table that breaks its double count stops the profile, with no
    # fallback to another route
    F = make_field(23)
    E = generate_point_set(F, 2, "random:500", seed=1)
    build = geometry._intersection_counts

    def corrupted(F, dim):
        table = build(F, dim)
        table[3, 5] += 1
        return table

    monkeypatch.setattr(geometry, "_intersection_counts", corrupted)
    geometry.intersection_table.cache_clear()
    taken = routes_taken(monkeypatch)
    with pytest.raises(VerificationFailed, match="F_23\\^2 fails its double count"):
        degree_profile(F, 2, E)
    assert taken == ["pairwise", "complement"]


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
    assert degree_profile(F, dim, E).f_value() == oracles.f_brute(p, oracles.points(E))


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
    exact, asym = upper_bound_f(len(E), spectra3)
    assert exact == pytest.approx(648.0, abs=1e-9)  # 2 * 9 * (4 + 2)**2
    assert asym == pytest.approx(2 * 9 * (4 + 2 * 3**0.5) ** 2, abs=1e-9)
    assert 288 <= exact <= asym


def test_upper_bounds_empty(f3, spectra3):
    assert upper_bound_f(0, spectra3) == (0.0, 0.0)


@pytest.mark.parametrize("p,dim,terms", [(7, 2, 1), (11, 2, 1), (7, 3, 2), (3, 4, 1), (3, 5, 2)])
def test_upper_bound_computes_each_term_once(monkeypatch, p, dim, terms):
    # in F_p^dim, p = 3 mod 4, every radius of even dim has one valency and
    # one second eigenvalue, and the two square classes of odd dim two
    F = make_field(p)
    spectra = euclid.spectra(F, dim, range(1, p))
    calls, hinge = [], bounds.hinge_bound
    monkeypatch.setattr(bounds, "hinge_bound", lambda *args: calls.append(args) or hinge(*args))
    upper_bound_f(len(generate_point_set(F, dim, "random:1t", seed=1)), spectra)
    assert len(calls) == len(set(calls)) == terms


@pytest.mark.parametrize("p,dim", GRID)
@pytest.mark.parametrize("gen", ["all", "sphere:1", "random:0.5t", "random:2t"])
def test_upper_bound_equals_the_per_radius_sum(p, dim, gen):
    # one term per distinct (valency, second eigenvalue), still added in
    # radius order: bit for bit the sum of the p - 1 terms made one a radius
    F = make_field(p)
    spectra = euclid.spectra(F, dim, range(1, p))
    E = generate_point_set(F, dim, gen, seed=2)
    exact = 0.0
    for a in range(1, p):
        s = spectra[a]
        exact += bounds.hinge_bound(p**dim, s.valency, s.second_eigenvalue, len(E))
    assert upper_bound_f(len(E), spectra)[0] == exact


def test_upper_bound_missing_radius(f3, spectra3, three):
    partial = {1: spectra3[1]}
    with pytest.raises(MissingSpectrum):
        upper_bound_f(len(three), partial)


# --- full report -----------------------------------------------------------------


def test_report_full_space(f3, spectra3):
    E = generate_point_set(f3, 2, "all")
    rep = check_main_theorem(f3, 2, degree_profile(f3, 2, E), spectra3)
    assert rep.f_value == 288
    assert rep.lower_bound == 288
    assert rep.upper_exact == pytest.approx(648.0, abs=1e-9)
    assert rep.regime == "a"  # 9 above 3**1.5
    assert rep.ratio_cubic == pytest.approx(288 * 3 / 729)
    assert rep.lower_ok and rep.upper_ok and rep.asym_ok and rep.delta_ok


def test_report_three_points(f3, spectra3, three):
    rep = check_main_theorem(f3, 2, degree_profile(f3, 2, three), spectra3)
    assert rep.delta_implied == Fraction(3, 2)  # 36 / (3 * 8)
    assert rep.distance_count == 2
    assert rep.regime == "b"
    assert rep.lower_ok and rep.upper_ok and rep.asym_ok and rep.delta_ok


def test_report_singleton_vacuous(f3, spectra3):
    E = load_point_set("2,0\n", f3)
    rep = check_main_theorem(f3, 2, degree_profile(f3, 2, E), spectra3)
    assert rep.f_value == 0
    assert rep.lower_bound == 0
    assert rep.delta_implied == 0
    assert rep.lower_ok and rep.upper_ok and rep.asym_ok and rep.delta_ok


def test_report_regime_tie_is_a(f3, spectra3):
    # |E| exactly at the real threshold q**((dim+1)/2) would need a
    # non-integer size for p=3; check the comparison direction instead
    small = generate_point_set(f3, 2, "random:5", seed=1)  # 5 < 5.196
    big = generate_point_set(f3, 2, "random:6", seed=1)  # 6 > 5.196
    assert check_main_theorem(f3, 2, degree_profile(f3, 2, small), spectra3).regime == "b"
    assert check_main_theorem(f3, 2, degree_profile(f3, 2, big), spectra3).regime == "a"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 49))
def test_report_holds_on_random_sets(seed, size):
    F = make_field(7)
    spectra = spectra_for(F, 2)
    E = generate_point_set(F, 2, f"random:{size}", seed=seed)
    rep = check_main_theorem(F, 2, degree_profile(F, 2, E), spectra)
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
        rep = check_main_theorem(f7, 3, degree_profile(f7, 3, E), spectra)
        assert rep.lower_ok and rep.upper_ok and rep.asym_ok and rep.delta_ok, (size, rep)


def test_full_space_f_formula(f7):
    # f = q^dim * sum of squared valencies, for the whole space
    spectra = spectra_for(f7, 2)
    E = generate_point_set(f7, 2, "all")
    rep = check_main_theorem(f7, 2, degree_profile(f7, 2, E), spectra)
    assert rep.f_value == 49 * 6 * 8 * 8
    assert rep.lower_bound == rep.f_value  # Cauchy-Schwarz tight, no null pairs
