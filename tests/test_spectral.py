import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fqlab import (
    BadSpec,
    degree_sum_bound,
    euclid_graph,
    hinge_bound,
    make_field,
    mixing_bound,
    variance_bound,
    within_bound,
)
from fqlab.spectral import BOUND_TOL, bound_limit, bound_threshold
from oracles import (
    VertexOutOfRange,
    degree_sum_check,
    hinge_count,
    mixing_check,
    point_rank,
    rank_point,
    spectrum,
    sphere_transform,
    variance_check,
    vertex_array,
    view_column,
)
from stacks import columns, one


def ranks(p, pts):
    return [point_rank(p, x) for x in pts]


THREE = [(0, 0), (0, 1), (1, 0)]


# --- view construction -----------------------------------------------------


def test_make_view_rejects_asymmetric():
    adj = np.array([[1], [0], [1]])  # 2 -> 1 missing the reverse edge
    with pytest.raises(BadSpec):
        oracles.make_view(n=3, k=1, adj=adj)


def test_make_view_rejects_out_of_range():
    adj = np.array([[3], [0], [1]])
    with pytest.raises(VertexOutOfRange):
        oracles.make_view(n=3, k=1, adj=adj)


def test_neighbors_out_of_range(g3_view):
    with pytest.raises(VertexOutOfRange):
        oracles.neighbors(g3_view, 9)


# --- hinge counting ----------------------------------------------------------


def test_hinge_examples(g3_view):
    for E, want in ((ranks(3, THREE), 6), ([0], 0), (range(9), 144)):
        assert one(hinge_count, view_column(g3_view, E), E) == want


def test_hinge_matches_brute_route(g3_view):
    rng = random.Random(7)
    for _ in range(20):
        size = rng.randint(0, 9)
        sub = rng.sample(range(9), size)
        pts = [rank_point(3, 2, r) for r in sub]
        deg = view_column(g3_view, sub)
        assert one(hinge_count, deg, sub) == oracles.hinge_brute(3, 1, pts)


@pytest.mark.parametrize("p,dim,a", [(7, 2, 1), (11, 2, 3), (3, 3, 2)])
def test_hinge_oracle_equivalence_random(p, dim, a):
    G = euclid_graph(make_field(p), dim, a)
    T = sphere_transform(G)
    rng = random.Random(1234 + p)
    for _ in range(100):
        size = rng.randint(0, min(G.n, 60))
        sub = rng.sample(range(G.n), size)
        pts = [rank_point(p, dim, r) for r in sub]
        assert hinge_count(*columns(G, T, [sub]))[0] == oracles.hinge_brute(p, a, pts)


def test_hinge_bound_examples():
    assert hinge_bound(9, 4, 2.0, 3) == pytest.approx(100 / 3, abs=1e-9)
    assert hinge_bound(9, 4, 2.0, 0) == 0.0
    assert hinge_bound(9, 4, 2.0, 9) == pytest.approx(324.0, abs=1e-9)


@given(st.integers(0, 50), st.integers(0, 50), st.floats(0, 10), st.floats(0, 5))
def test_hinge_bound_monotone(m, dm, lam, dlam):
    n, k = 100, 10
    assert hinge_bound(n, k, lam, m) <= hinge_bound(n, k, lam, m + dm) + 1e-9
    assert hinge_bound(n, k, lam, m) <= hinge_bound(n, k + 1, lam, m) + 1e-9
    assert hinge_bound(n, k, lam, m) <= hinge_bound(n, k, lam + dlam, m) + 1e-9


# --- variance ----------------------------------------------------------------


def test_variance_example(g3_view, g3_lam):
    lhs = Fraction(one(variance_check, view_column(g3_view, ranks(3, THREE))), 9)
    rhs = variance_bound(9, g3_lam, 3)
    assert lhs == 4
    assert rhs == pytest.approx(8.0, abs=1e-9)
    assert within_bound(lhs, rhs)


def test_variance_empty_and_full(g3_view, g3_lam):
    for B, b in (([], 0), (range(9), 9)):
        lhs = Fraction(one(variance_check, view_column(g3_view, B)), 9)
        rhs = variance_bound(9, g3_lam, b)
        assert lhs == 0
        assert rhs == pytest.approx(0.0, abs=1e-9)
        assert within_bound(lhs, rhs)


def test_variance_lhs_matches_fraction_brute(g3_view):
    rng = random.Random(5)
    for _ in range(15):
        sub = rng.sample(range(9), rng.randint(0, 9))
        pts = [rank_point(3, 2, r) for r in sub]
        want = oracles.variance_lhs_brute(3, 2, 1, pts)
        assert Fraction(one(variance_check, view_column(g3_view, sub)), 9) == want


# --- mixing ------------------------------------------------------------------


def test_mixing_full_space(g3_view, g3_lam):
    e, deviation = one(mixing_check, view_column(g3_view, range(9)), range(9))
    deviation = Fraction(deviation, 9)
    assert e == 36
    assert deviation == 0
    assert within_bound(deviation, mixing_bound(g3_lam, 9, 9))


def test_mixing_singletons(g3_view, g3_lam):
    e, deviation = one(mixing_check, view_column(g3_view, [0]), [point_rank(3, (0, 1))])
    deviation = Fraction(deviation, 9)
    assert e == 1
    assert deviation == Fraction(5, 9)  # |1 - 4/9|
    bound = mixing_bound(g3_lam, 1, 1)
    assert bound == pytest.approx(2.0, abs=1e-9)
    assert within_bound(deviation, bound)


def test_mixing_empty(g3_view, g3_lam):
    e, deviation = one(mixing_check, view_column(g3_view, []), range(9))
    deviation = Fraction(deviation, 9)
    bound = mixing_bound(g3_lam, 0, 9)
    assert e == 0 and bound == pytest.approx(0.0) and within_bound(deviation, bound)


def test_mixing_e_matches_brute(g3_view):
    rng = random.Random(11)
    for _ in range(15):
        B = rng.sample(range(9), rng.randint(0, 9))
        C = rng.sample(range(9), rng.randint(0, 9))
        bp = [rank_point(3, 2, r) for r in B]
        cp = [rank_point(3, 2, r) for r in C]
        e = one(mixing_check, view_column(g3_view, B), C)[0]
        assert e == oracles.mixing_e_brute(3, 1, bp, cp)


# --- whole-battery properties ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inequalities_hold_on_g7(data):
    G = euclid_graph(make_field(7), 2, 1)
    lam = spectrum(G).second_eigenvalue
    B = data.draw(st.sets(st.integers(0, 48), max_size=49))
    C = data.draw(st.sets(st.integers(0, 48), max_size=49))
    b, c = len(B), len(C)
    deg, members = columns(G, sphere_transform(G), [B])
    assert within_bound(Fraction(variance_check(deg)[0], 49), variance_bound(49, lam, b))
    assert within_bound(
        Fraction(mixing_check(deg, [vertex_array(49, C)])[0][1], 49), mixing_bound(lam, b, c)
    )
    p2 = hinge_count(deg, members)[0]
    assert p2 <= hinge_bound(G.n, G.valency, lam, b) + 1e-9
    assert within_bound(degree_sum_check(deg, members)[0], degree_sum_bound(49, 8, lam, b))


def test_degree_sum_is_hinge_linear_step(g3_view, g3_lam):
    # Eq.-style intermediate: sum of inside-degrees over E
    E = ranks(3, THREE)
    lhs = one(degree_sum_check, view_column(g3_view, E), E)
    rhs = degree_sum_bound(9, 4, g3_lam, 3)
    assert lhs == 4  # degrees 2,1,1
    assert rhs == pytest.approx(4 * 9 / 9 + 2.0 * 3, abs=1e-9)
    assert within_bound(lhs, rhs)


def test_checks_with_ceiling_lambda(f7):
    G, ceiling = euclid_graph(f7, 2, 1), 2 * 7**0.5
    T = sphere_transform(G)
    rng = random.Random(3)
    for _ in range(10):
        B = rng.sample(range(49), rng.randint(1, 49))
        b, (deg, members) = len(B), columns(G, T, [B])
        assert within_bound(Fraction(variance_check(deg)[0], 49), variance_bound(49, ceiling, b))
        assert within_bound(Fraction(mixing_check(deg, members)[0][1], 49), mixing_bound(ceiling, b, b))
        assert hinge_count(deg, members)[0] <= hinge_bound(49, 8, ceiling, b) + 1e-9


def test_within_bound_exact_when_bound_is_exact():
    # in floats the bound 10**17 - 1e-6 rounds up to 10**17 and would pass
    assert not within_bound(10**17, Fraction(10**17) - Fraction(1, 10**6))
    assert within_bound(10**17, Fraction(10**17) - Fraction(1, 10**10))
    assert within_bound(Fraction(1, 3), 1 / 3)
    assert not within_bound(1, 1 - 1e-6)


def threshold_verdict(lhs_num, lhs_den, rhs) -> bool:
    """The subset verdict: a count lhs_num over lhs_den against the exact
    threshold of rhs."""
    num, den = bound_threshold(rhs)
    return lhs_num * den <= num * lhs_den


EXACT_BOUNDS = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.floats(min_value=-1e18, max_value=1e18),
        st.floats(allow_nan=False, allow_infinity=False),
        EXACT_BOUNDS,
    ),
    st.integers(1, 10**6),
    st.booleans(),
)
@example(0.0, 1, False)
@example(1.7976931348623157e308, 7, False)
@example(-5e-324, 3, True)
@example(Fraction(10**17) - Fraction(1, 10**6), 10**6, False)
def test_within_bound_matches_fraction_comparison(rhs, n, as_numpy):
    # a count against a float or exact bound, at equality with rhs +
    # BOUND_TOL, one ulp either side of it, and at the nearest fractions of
    # denominator n, gives the verdict of Fraction's own exact comparison,
    # through the exact threshold and through within_bound
    exact = isinstance(rhs, Fraction)
    if as_numpy and not exact:
        rhs = np.float64(rhs)
    limit = rhs + Fraction(BOUND_TOL) if exact else Fraction(rhs + BOUND_TOL)
    assert Fraction(*bound_threshold(rhs)) == limit
    if exact:
        ulp = Fraction(1, limit.denominator * n)
        sides = (limit - ulp, limit + ulp)
    else:
        ulps = (math.nextafter(rhs + BOUND_TOL, to) for to in (-math.inf, math.inf))
        sides = tuple(Fraction(x) for x in ulps if math.isfinite(x))
    near = Fraction(round(limit * n), n)
    for lhs in (limit, *sides, near - Fraction(1, n), near, near + Fraction(1, n)):
        want = oracles.within_bound_fraction(lhs, rhs)
        assert threshold_verdict(lhs.numerator, lhs.denominator, rhs) is want
        assert within_bound(lhs, rhs) is want
        assert within_bound(float(lhs), rhs) is oracles.within_bound_fraction(float(lhs), rhs)


def test_within_bound_outside_the_finite_floats():
    assert within_bound(Fraction(10**400, 3), math.inf)
    assert not within_bound(Fraction(1, 3), -math.inf)
    assert not within_bound(Fraction(1, 3), math.nan)
    # inf passes every finite count, -inf and nan fail it, as Fraction's
    # comparison with a non-finite float does
    for rhs, threshold in ((math.inf, (1, 0)), (-math.inf, (-1, 0)), (math.nan, (-1, 0))):
        assert bound_threshold(rhs) == threshold
        for lhs in (Fraction(10**400, 3), -Fraction(10**400, 3), Fraction(0), 7, -2.5):
            want = oracles.within_bound_fraction(lhs, rhs)
            assert want is (rhs == math.inf)
            assert threshold_verdict(*lhs.as_integer_ratio(), rhs) is want
            assert within_bound(lhs, rhs) is want


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(st.floats(), st.sampled_from([5e-324, -5e-324, 1e308, -1e308]), EXACT_BOUNDS),
    st.integers(-2**200, 2**200),
    st.integers(2, 10**7),
    st.booleans(),
)
@example(math.inf, 2**200, 9, False)
@example(-math.inf, -2**200, 9, True)
@example(math.nan, 0, 9, False)
@example(1e308, 2**200, 9, True)
@example(Fraction(10**17) - Fraction(1, 10**6), 10**17, 10**6, False)
def test_bound_limit_is_the_largest_count_that_holds(rhs, count, n, over_n):
    # a count over lhs_den (1, or n for the deviations) holds exactly when
    # it is at most bound_limit, by the cross-multiplied threshold and by
    # Fraction's own comparison; a finite limit holds and one past it fails
    lhs_den = n if over_n else 1
    limit = bound_limit(rhs, lhs_den)
    for lhs_num in (count, count + 1, -count):
        want = oracles.within_bound_fraction(Fraction(lhs_num, lhs_den), rhs)
        assert (lhs_num <= limit) is want is threshold_verdict(lhs_num, lhs_den, rhs)
    if isinstance(limit, int):
        assert oracles.within_bound_fraction(Fraction(limit, lhs_den), rhs)
        assert not oracles.within_bound_fraction(Fraction(limit + 1, lhs_den), rhs)
    else:
        assert limit == (math.inf if rhs + BOUND_TOL == math.inf else -math.inf)


@pytest.mark.parametrize("lhs", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("rhs", [math.inf, -math.inf, math.nan, 1.0, Fraction(1, 3), Fraction(10**400, 3)])
def test_within_bound_non_finite_count(lhs, rhs):
    assert within_bound(lhs, rhs) is oracles.within_bound_fraction(lhs, rhs)


# --- integer routes against the Fraction routes they replaced --------------

EXTREME_LAMBDAS = (5e-324, -5e-324, 1e300, -1e300, -2.5, -0.0, 0.0, 3.0, 2 * 7**0.5)
LAMBDAS = st.one_of(
    st.sampled_from(EXTREME_LAMBDAS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def bound_args(draw):
    """(n, k, lam, m) with n up to 10**12, k and m up to n."""
    n = draw(st.integers(1, 10**12))
    return n, draw(st.integers(0, n)), draw(LAMBDAS), draw(st.integers(0, n))


def outcome(fn, *args):
    """fn's result, or the type of the OverflowError it raised."""
    try:
        return fn(*args)
    except OverflowError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(bound_args(), st.booleans())
@example((9, 4, 5e-324, 3), False)
@example((10**12, 10**12, 1e300, 10**12), False)
@example((10**12, 7, -1e300, 1), False)
@example((49, 8, -2.5, 30), True)
@example((49, 8, 3.0, 0), False)
def test_hinge_bound_matches_fraction_oracle_bit_for_bit(args, as_numpy):
    n, k, lam, m = args
    if as_numpy:
        lam = np.float64(lam)
    got = outcome(hinge_bound, n, k, lam, m)
    want = outcome(oracles.hinge_bound_fraction, n, k, lam, m)
    if isinstance(want, float):
        assert type(got) is float and got.hex() == want.hex()
    else:
        assert got is want  # both overflow


@settings(max_examples=400, deadline=None)
@given(bound_args())
@example((9, 4, 5e-324, 3))
@example((10**12, 10**12, 1e300, 10**12))
@example((10**12, 7, -1e300, 1))
@example((49, 8, 3.0, 0))
def test_degree_sum_bound_matches_fraction_oracle(args):
    n, k, lam, m = args
    got = degree_sum_bound(n, k, lam, m)
    assert type(got) is Fraction and got == oracles.degree_sum_bound_fraction(n, k, lam, m)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 12), max_size=20), st.sampled_from([list, tuple, np.array]))
@example([], list)
@example([], tuple)
@example([9, 9, 0], tuple)
def test_vertex_array_matches_sorted_set(values, kind):
    # the sorted distinct vertices, as int64, whatever the container;
    # refused as soon as one leaves [0, 10), empty input included
    S = kind(values) if kind is not np.array else np.array(values, dtype=np.int64)
    if any(not 0 <= v < 10 for v in values):
        with pytest.raises(VertexOutOfRange):
            vertex_array(10, S)
        return
    arr = vertex_array(10, S)
    assert arr.dtype == np.int64 and arr.tolist() == sorted(set(values))


def test_vertex_array_passes_a_sorted_array_through():
    arr = vertex_array(10, [7, 2, 7, 0])
    assert arr.tolist() == [0, 2, 7] and arr.dtype == np.int64
    # anything else is sorted and deduplicated, arrays included
    assert vertex_array(10, np.array([7, 2, 7, 0])).tolist() == [0, 2, 7]
    assert vertex_array(10, np.array([3, 3], dtype=np.int64)).tolist() == [3]
    assert vertex_array(10, np.array([3, 1], dtype=np.int64)).tolist() == [1, 3]
    for bad in (np.array([0, 10], dtype=np.int64), np.array([-1, 4], dtype=np.int64)):
        with pytest.raises(VertexOutOfRange):
            vertex_array(10, bad)
