import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fqlab.geometry
import oracles
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
    point_rank,
    rank_point,
    size_threshold,
    sphere_points,
    sphere_size,
    sphere_table,
)

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


@given(st.integers(0, 342))
def test_rank_roundtrip(r):
    assert point_rank(7, rank_point(7, 3, r)) == r


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


def test_pointset_rejects_duplicates():
    with pytest.raises(BadSpec):
        PointSet(points=((0, 1), (0, 1)), dim=2, origin_label="dup")


def test_pointset_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        PointSet(points=((0, 1), (0, 1, 2)), dim=2, origin_label="ragged")


def test_generate_all(f3):
    E = generate_point_set(f3, 2, "all")
    assert len(E) == 9
    assert E.points[0] == (0, 0) and E.points[1] == (1, 0)  # rank order


def test_generate_box(f7):
    E = generate_point_set(f7, 2, "box:2")
    assert set(E.points) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_generate_box_too_wide(f3):
    with pytest.raises(BadSpec):
        generate_point_set(f3, 2, "box:4")


def test_generate_random_deterministic(f7):
    a = generate_point_set(f7, 2, "random:5", seed=1)
    b = generate_point_set(f7, 2, "random:5", seed=1)
    assert a.points == b.points
    assert len(a) == 5


def test_generate_random_infeasible(f3):
    with pytest.raises(InfeasibleSize):
        generate_point_set(f3, 2, "random:10")


def test_generate_sphere_atom(f3):
    E = generate_point_set(f3, 2, "sphere:1")
    assert set(E.points) == {(0, 1), (0, 2), (1, 0), (2, 0)}


def test_generate_line(f7):
    E = generate_point_set(f7, 2, "line:0,0;1,2")
    assert len(E) == 7
    assert (2, 4) in E.points


def test_generate_union_dedupes(f3):
    E = generate_point_set(f3, 2, "sphere:1+sphere:1+line:0,0;1,0")
    assert len(E) == len(set(E.points))
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


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=25)
def test_generate_random_no_duplicates(seed):
    F = make_field(7)
    E = generate_point_set(F, 2, "random:20", seed=seed)
    assert len(E) == 20
    assert len(set(E.points)) == 20


# --- point file format ----------------------------------------------------


def test_parse_point_text_roundtrip(f7):
    E = generate_point_set(f7, 3, "random:6", seed=9)
    again = load_point_set(oracles.format_point_text(E), f7, dim=3)
    assert again.points == E.points


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
