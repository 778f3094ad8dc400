import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fqlab.geometry
import oracles
from oracles import point_rank, rank_point
from fqlab import (
    BadSpec,
    DimensionMismatch,
    InfeasibleSize,
    PointSet,
    TooLarge,
    generate_point_set,
    load_point_set,
    make_field,
    parse_generator,
    parse_point_text,
    size_threshold,
    sphere_points,
    sphere_size,
    sphere_table,
)
from fqlab.geometry import coords_to_ranks, ranks_to_coords

pt2 = st.tuples(st.integers(0, 2), st.integers(0, 2))


# --- norms and distances -------------------------------------------------


def test_norm_examples(f3, f7):
    assert oracles.norm_brute(f3.p, (0, 0)) == 0
    assert oracles.norm_brute(f3.p, (1, 1)) == 2
    assert oracles.norm_brute(f7.p, (2, 3, 1)) == 0  # isotropic vector in dim 3


def test_distance_examples(f3):
    assert oracles.distance(f3, (0, 0), (0, 1)) == 1
    assert oracles.distance(f3, (0, 1), (1, 0)) == 2


def test_distance_dimension_mismatch(f3):
    with pytest.raises(DimensionMismatch):
        oracles.distance(f3, (0, 0), (0, 0, 0))


@given(pt2, pt2, pt2)
def test_distance_symmetric_and_translation_invariant(x, y, t):
    F = make_field(3)
    assert oracles.distance(F, x, y) == oracles.distance(F, y, x)
    xt = tuple((a + b) % 3 for a, b in zip(x, t))
    yt = tuple((a + b) % 3 for a, b in zip(y, t))
    assert oracles.distance(F, xt, yt) == oracles.distance(F, x, y)


# --- rank encoding --------------------------------------------------------


def test_rank_least_significant_first():
    assert point_rank(3, (1, 0)) == 1
    assert point_rank(3, (0, 1)) == 3
    assert point_rank(5, (2, 3)) == 2 + 3 * 5
    assert coords_to_ranks(5, [(2, 3), (1, 0)]).tolist() == [2 + 3 * 5, 1]


@given(st.integers(0, 342))
def test_rank_roundtrip(r):
    assert point_rank(7, rank_point(7, 3, r)) == r
    coords = ranks_to_coords(7, 3, np.array([r], dtype=np.int64))
    assert tuple(coords[0].tolist()) == rank_point(7, 3, r)
    assert coords_to_ranks(7, coords).tolist() == [r]


# --- sphere counting ------------------------------------------------------


def test_sphere_table_p3_dim2(f3):
    assert sphere_table(f3, 2).sizes == (1, 4, 4)


def test_sphere_table_p3_dim3(f3):
    assert sphere_table(f3, 3).sizes == (9, 6, 12)


def test_sphere_table_p7_dim2(f7):
    assert sphere_table(f7, 2).sizes == (1, 8, 8, 8, 8, 8, 8)


@pytest.mark.parametrize("p", [3, 7, 11])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sphere_table_matches_enumeration(p, dim):
    F = make_field(p)
    assert list(sphere_table(F, dim).sizes) == oracles.sphere_sizes_brute(p, dim)
    assert oracles.sphere_sizes_convolution(p, dim) == oracles.sphere_sizes_brute(p, dim)


@pytest.mark.parametrize("p,dim", [(3, 4), (3, 5), (7, 4)])
def test_sphere_table_matches_enumeration_high_dim(p, dim):
    F = make_field(p)
    assert list(sphere_table(F, dim).sizes) == oracles.sphere_sizes_brute(p, dim)


PRIMES_TO_101 = [p for p in range(3, 102, 2) if all(p % d for d in range(3, p, 2))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES_TO_101), st.integers(1, 12))
@example(101, 12)
@example(13, 8)  # 1 mod 4: -1 is a square
def test_sphere_table_closed_form_matches_convolution(p, dim):
    # past p**dim = 2**62 too, where only Python ints hold the counts
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F = make_field(p)
    assert list(sphere_table(F, dim).sizes) == oracles.sphere_sizes_convolution(p, dim)


@pytest.mark.parametrize("p,n", [(7, 1), (11, 3), (7, 5), (3, 7), (103, 9)])
def test_quadric_counts_for_odd_n_hold_three_ints(p, n):
    # the p counts equal the formula made afresh for each b, and share
    # three ints, p**(n-1) and p**(n-1) -+ p**((n-1)/2), for either
    # square class of delta
    F = make_field(p)
    eta = [c - 1 for c in F.square_counts]
    for delta in (1, p - 1):  # p = 3 mod 4: -1 is a nonsquare
        sign, half = (-1) ** ((n - 1) // 2) * delta, p ** ((n - 1) // 2)
        counts = fqlab.geometry._quadric_counts(F, n, delta)
        assert counts == tuple(p ** (n - 1) + half * eta[sign * b % p] for b in range(p))
        assert len({id(c) for c in counts}) <= 3


@pytest.mark.parametrize("p", [3, 7, 11, 19])
def test_sphere_table_sums_to_space(p):
    for dim in (2, 3):
        F = make_field(p)
        assert sum(sphere_table(F, dim).sizes) == p**dim


@pytest.mark.parametrize("p", [3, 7, 11, 19])
def test_dim2_valency_is_p_plus_1(p):
    # p = 3 mod 4, dim 2: one origin, every nonzero radius gets p+1 points
    sizes = sphere_table(make_field(p), 2).sizes
    assert sizes[0] == 1
    assert all(sizes[a] == p + 1 for a in range(1, p))


def test_sphere_points_examples(f3, f7):
    assert sphere_points(f3, 2, 1) == [(0, 1), (0, 2), (1, 0), (2, 0)]
    assert sphere_points(f3, 2, 0) == [(0, 0)]
    assert len(sphere_points(f7, 2, 3)) == 8 == sphere_size(f7, 2, 3)


@pytest.mark.parametrize(
    "p,dim", [(3, 2), (3, 3), (3, 4), (7, 1), (7, 2), (7, 3), (7, 4), (11, 2)]
)
def test_sphere_points_match_brute(p, dim):
    F = make_field(p)
    for a in range(p):
        assert sphere_points(F, dim, a) == oracles.sphere_points_brute(p, dim, a)


def test_sphere_points_negation_closed(f7):
    for a in range(1, 7):
        pts = set(sphere_points(f7, 2, a))
        assert {tuple((-c) % 7 for c in x) for x in pts} == pts


# --- point sets and generators -------------------------------------------


def test_pointset_rejects_duplicates(f3):
    # (0, 1) has rank 3 in F_3^2
    with pytest.raises(BadSpec, match=r"^duplicate point \(0, 1\)$"):
        PointSet([3, 3], p=3, dim=2, origin_label="dup")
    with pytest.raises(BadSpec, match=r"^line 2: duplicate point '0,1'$"):
        load_point_set("0,1\n0,1\n", f3, dim=2)


def test_pointset_rejects_ragged(f3):
    # a ragged point list can only arrive as text; coordinates handed over
    # as rows in place of ranks are refused too
    with pytest.raises(DimensionMismatch, match=r"^line 2: expected 2 coordinates, got 3$"):
        load_point_set("0,1\n0,1,2\n", f3, dim=2)
    with pytest.raises(DimensionMismatch):
        PointSet([[0, 1], [1, 0]], p=3, dim=2, origin_label="ragged")


def test_pointset_rejects_negative_and_out_of_range(f3):
    for ranks in ([-1], [0, 9], [8, -4, 2]):
        with pytest.raises(BadSpec, match=r"outside \[0, 9\)"):
            PointSet(ranks, p=3, dim=2)
    for text, point in (("-1,0\n", "(-1, 0)"), ("0,0\n0,3\n", "(0, 3)")):
        with pytest.raises(BadSpec) as info:
            load_point_set(text, f3, dim=2)
        assert str(info.value) == f"coordinate out of range [0, 3) in point {point}"
    assert oracles.points(PointSet([8, 0], p=3, dim=2)) == ((2, 2), (0, 0))


def test_pointset_refuses_spaces_past_int64_ranks(f3):
    with pytest.raises(BadSpec, match="int64"):
        PointSet([0], p=3, dim=40)
    with pytest.raises(BadSpec, match="int64"):
        generate_point_set(f3, 40, "box:1")
    assert len(generate_point_set(f3, 39, "box:1")) == 1


def test_pointset_ranks_are_a_read_only_copy():
    given_ranks = np.array([5, 1, 7], dtype=np.int64)
    E = PointSet(given_ranks, p=3, dim=2)
    given_ranks[0] = 0
    assert E.ranks.tolist() == [5, 1, 7] and E.ranks.dtype == np.int64
    with pytest.raises(ValueError):
        E.ranks[0] = 2
    assert oracles.points(E) == ((2, 1), (1, 0), (1, 2)) and len(E) == 3


def test_pointset_keeps_a_read_only_array_it_owns():
    kept = np.array([1, 5, 7], dtype=np.int64)
    kept.flags.writeable = False
    assert PointSet(kept, p=3, dim=2).ranks is kept
    # a writeable array is copied, so writing to it leaves the set as it
    # was; so is a read-only view, whose memory another array owns
    given = np.array([1, 5, 7], dtype=np.int64)
    E = PointSet(given, p=3, dim=2)
    given[0] = 0
    assert E.ranks is not given and E.ranks.tolist() == [1, 5, 7]
    view = kept[1:]
    assert PointSet(view, p=3, dim=2).ranks is not view
    assert not E.ranks.flags.writeable and E.ranks.flags.owndata


def test_pointset_refuses_increasing_ranks_past_the_space_and_unsorted_twins():
    # increasing ranks take the neighbor compare alone, so their range
    # check reads their ends; all others are sorted for both checks
    for ranks in ([0, 4, 9], [-1, 3], [2, 9, 10]):
        with pytest.raises(BadSpec, match=r"outside \[0, 9\)"):
            PointSet(np.array(ranks, dtype=np.int64), p=3, dim=2)
    # (2, 1) has rank 5 and (1, 0) rank 1 in F_3^2
    for ranks, point in (([5, 1, 5], (2, 1)), ([1, 1, 4], (1, 0)), ([8, 1, 3, 1], (1, 0))):
        with pytest.raises(BadSpec) as info:
            PointSet(ranks, p=3, dim=2)
        assert str(info.value) == f"duplicate point {point}"


def test_generate_all(f3):
    E = generate_point_set(f3, 2, "all")
    assert len(E) == 9
    assert oracles.points(E)[:2] == ((0, 0), (1, 0))  # rank order


def test_generate_box(f7):
    E = generate_point_set(f7, 2, "box:2")
    assert set(oracles.points(E)) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_generate_box_too_wide(f3):
    with pytest.raises(BadSpec):
        generate_point_set(f3, 2, "box:4")


def test_generate_random_deterministic(f7):
    a = generate_point_set(f7, 2, "random:5", seed=1)
    b = generate_point_set(f7, 2, "random:5", seed=1)
    assert oracles.points(a) == oracles.points(b)
    assert len(a) == 5


def test_generate_random_infeasible(f3):
    with pytest.raises(InfeasibleSize):
        generate_point_set(f3, 2, "random:10")


def test_generate_sphere_atom(f3):
    E = generate_point_set(f3, 2, "sphere:1")
    assert set(oracles.points(E)) == {(0, 1), (0, 2), (1, 0), (2, 0)}


def test_generate_line(f7):
    E = generate_point_set(f7, 2, "line:0,0;1,2")
    assert len(E) == 7
    assert (2, 4) in oracles.points(E)


def test_one_atom_generator_copies_its_ranks_once():
    # the atom's ranks, handed to the point set read-only and kept, plus
    # the increasing check's one byte per rank: about 1.13 times the rank
    # array for F_103^3, against 2.13 when the set sorted a copy and kept
    # another, and 3.13 when one part was concatenated too
    F = make_field(103)
    tracemalloc.start()
    try:
        E = generate_point_set(F, 3, "all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(E) == 103**3
    assert peak < 1.3 * E.ranks.nbytes, peak / E.ranks.nbytes


def test_generate_union_dedupes(f3):
    E = generate_point_set(f3, 2, "sphere:1+sphere:1+line:0,0;1,0")
    assert len(E) == len(set(oracles.points(E)))
    assert len(E) == 4 + 3 - 2  # (1,0) and (2,0) overlap the line through 0


def test_generate_threshold_relative_sizes(f7):
    t = size_threshold(7, 2)  # 7**1.5
    E = generate_point_set(f7, 2, "random:2t", seed=3)
    assert len(E) == min(49, round(2 * t))
    box = generate_point_set(f7, 2, "box:1t", seed=0)
    side = round(t ** 0.5)
    assert len(box) == side * side


def test_enumeration_guardrail_one_message(f3, monkeypatch):
    # spheres, the full space and boxes all enumerate 9 points of F_3^2
    monkeypatch.setattr(fqlab.geometry, "SPHERE_ENUM_MAX", 5)
    messages = set()
    for route in (
        lambda force: sphere_points(f3, 2, 1, force=force),
        lambda force: generate_point_set(f3, 2, "all", force=force),
        lambda force: generate_point_set(f3, 2, "box:3", force=force),
    ):
        with pytest.raises(TooLarge) as info:
            route(False)
        messages.add(str(info.value))
        assert route(True)
    assert messages == {
        "9 points exceed the enumeration guardrail 5; pass --force to override"
    }


def test_parse_generator_rejects_garbage():
    for bad in ("", "random", "random:p", "box:-1", "orbit:3", "line:0,0",
                "random:0.5", "sphere:x"):
        with pytest.raises(BadSpec):
            parse_generator(bad)


# the (p, dim) pairs of the 44-instance grid
GRID = [(p, 2) for p in (3, 7, 11, 19)] + [(p, 3) for p in (3, 7)]


def grid_specs(p, dim):
    """One generator of every atom kind on F_p^dim, plus unions."""
    line = f"line:{','.join(['1'] * dim)};{','.join(['0'] * (dim - 1) + ['2'])}"
    atoms = ["all", "random:7", "random:1t", "box:2", "box:1t", "sphere:0", "sphere:1", line]
    unions = [f"sphere:1+{line}", "box:1t+random:0.5t+sphere:1", f"random:5+random:5+{line}+all"]
    return atoms + unions


@pytest.mark.parametrize("p,dim", GRID)
def test_generators_match_the_tuple_oracle_on_grid(p, dim):
    F = make_field(p)
    for spec in grid_specs(p, dim):
        for seed in (0, 3):
            E = generate_point_set(F, dim, spec, seed=seed)
            want = oracles.generate_points_brute(p, dim, spec, seed=seed)
            assert E.ranks.tolist() == [point_rank(p, pt) for pt in want], spec
            assert oracles.points(E) == tuple(want)
            assert (E.p, E.dim, E.origin_label) == (p, dim, spec)


@pytest.mark.parametrize("p,dim", GRID)
def test_size_floor_is_the_size_of_a_one_atom_set(p, dim):
    # exact for one atom, which lets a sweep refuse a set past the profile
    # guardrail before drawing it; a floor for a union
    F = make_field(p)
    for text in grid_specs(p, dim):
        spec = parse_generator(text)
        size = len(generate_point_set(F, dim, spec, seed=3))
        if len(spec.atoms) == 1:
            assert spec.size_floor(F, dim) == size, text
        else:
            assert spec.size_floor(F, dim) <= size, text


@st.composite
def generator_cases(draw):
    """(p, dim, spec, seed): a union of one to three valid atoms on a small
    F_p^dim, p including primes that are 1 mod 4."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    dim = draw(st.integers(1, 3))
    total = p**dim
    residues = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["all", "random", "random_t", "box", "box_t", "sphere", "line"]))
        if kind == "all":
            atoms.append("all")
        elif kind == "random":
            atoms.append(f"random:{draw(st.integers(0, total))}")
        elif kind == "box":
            atoms.append(f"box:{draw(st.integers(0, p))}")
        elif kind in ("random_t", "box_t"):
            rel = draw(st.sampled_from(["0.1", "0.5", "1", "1.5", "3"]))
            atoms.append(f"{kind[:-2]}:{rel}t")
        elif kind == "sphere":
            atoms.append(f"sphere:{draw(st.integers(0, p - 1))}")
        else:
            base = draw(residues)
            step = draw(residues.filter(any))
            atoms.append(f"line:{','.join(map(str, base))};{','.join(map(str, step))}")
    return p, dim, "+".join(atoms), draw(st.integers(0, 2**64))


@settings(max_examples=60, deadline=None)
@given(generator_cases())
@example((3, 2, "sphere:1+sphere:1+line:0,0;1,0", 0))
@example((13, 3, "random:2197+all", 7))
@example((5, 1, "sphere:2+box:0", 1))
def test_generators_match_the_tuple_oracle_random_specs(case):
    p, dim, spec, seed = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F = make_field(p)
    E = generate_point_set(F, dim, spec, seed=seed)
    want = oracles.generate_points_brute(p, dim, spec, seed=seed)
    assert E.ranks.tolist() == [point_rank(p, pt) for pt in want]
    assert oracles.points(E) == tuple(want)


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=25)
def test_generate_random_no_duplicates(seed):
    F = make_field(7)
    E = generate_point_set(F, 2, "random:20", seed=seed)
    assert len(E) == 20
    assert len(set(oracles.points(E))) == 20


# --- point file format ----------------------------------------------------


def test_parse_point_text_roundtrip(f7):
    E = generate_point_set(f7, 3, "random:6", seed=9)
    again = load_point_set(oracles.format_point_text(E), f7, dim=3)
    assert oracles.points(again) == oracles.points(E)


def test_parse_point_text_comments_and_blanks():
    pts = parse_point_text("# header\n\n0,2,1\n1,0,0\n")
    assert pts == [(0, 2, 1), (1, 0, 0)]


def test_parse_point_text_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        parse_point_text("0,1\n0,1,2\n")


def test_parse_point_text_rejects_duplicates():
    with pytest.raises(BadSpec):
        parse_point_text("0,1\n0,1\n")


def test_load_point_set_range_checked(f3):
    with pytest.raises(BadSpec):
        load_point_set("0,5\n", f3)
