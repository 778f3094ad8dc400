import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fqlab import (
    BadSpec,
    VertexOutOfRange,
    degree_sum_check,
    euclid_graph,
    hinge_bound,
    hinge_count,
    make_field,
    make_view,
    mixing_check,
    point_rank,
    rank_point,
    regular_view,
    spectrum,
    variance_check,
)


def ranks(p, pts):
    return [point_rank(p, x) for x in pts]


THREE = [(0, 0), (0, 1), (1, 0)]


# --- view construction -----------------------------------------------------


def test_make_view_rejects_asymmetric():
    adj = np.array([[1], [0], [1]])  # 2 -> 1 missing the reverse edge
    with pytest.raises(BadSpec):
        make_view(n=3, k=1, lam=0.0, adj=adj)


def test_make_view_rejects_out_of_range():
    adj = np.array([[3], [0], [1]])
    with pytest.raises(VertexOutOfRange):
        make_view(n=3, k=1, lam=0.0, adj=adj)


def test_neighbors_out_of_range(g3_view):
    with pytest.raises(VertexOutOfRange):
        g3_view.neighbors(9)


# --- hinge counting ----------------------------------------------------------


def test_hinge_examples(g3_view):
    assert hinge_count(g3_view, ranks(3, THREE)) == 6
    assert hinge_count(g3_view, [0]) == 0
    assert hinge_count(g3_view, range(9)) == 144


def test_hinge_matches_brute_route(g3_view):
    rng = random.Random(7)
    for _ in range(20):
        size = rng.randint(0, 9)
        sub = rng.sample(range(9), size)
        pts = [rank_point(3, 2, r) for r in sub]
        assert hinge_count(g3_view, sub) == oracles.hinge_brute(3, 1, pts)


@pytest.mark.parametrize("p,dim,a", [(7, 2, 1), (11, 2, 3), (3, 3, 2)])
def test_hinge_oracle_equivalence_random(p, dim, a):
    G = euclid_graph(make_field(p), dim, a)
    view = regular_view(G)
    rng = random.Random(1234 + p)
    for _ in range(100):
        size = rng.randint(0, min(G.n, 60))
        sub = rng.sample(range(G.n), size)
        pts = [rank_point(p, dim, r) for r in sub]
        assert hinge_count(view, sub) == oracles.hinge_brute(p, a, pts)


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


def test_variance_example(g3_view):
    res = variance_check(g3_view, ranks(3, THREE))
    assert res.lhs == pytest.approx(4.0, abs=1e-12)
    assert res.rhs == pytest.approx(8.0, abs=1e-9)
    assert res.holds


def test_variance_empty_and_full(g3_view):
    for B in ([], range(9)):
        res = variance_check(g3_view, B)
        assert res.lhs == pytest.approx(0.0, abs=1e-12)
        assert res.rhs == pytest.approx(0.0, abs=1e-9)
        assert res.holds


def test_variance_lhs_matches_fraction_brute(g3_view):
    rng = random.Random(5)
    for _ in range(15):
        sub = rng.sample(range(9), rng.randint(0, 9))
        pts = [rank_point(3, 2, r) for r in sub]
        want = oracles.variance_lhs_brute(3, 2, 1, pts)
        assert variance_check(g3_view, sub).lhs == pytest.approx(float(want), abs=1e-12)


# --- mixing ------------------------------------------------------------------


def test_mixing_full_space(g3_view):
    res = mixing_check(g3_view, range(9), range(9))
    assert res.e == 36
    assert res.expected == pytest.approx(36.0)
    assert res.deviation == pytest.approx(0.0, abs=1e-12)
    assert res.holds


def test_mixing_singletons(g3_view):
    res = mixing_check(g3_view, [0], [point_rank(3, (0, 1))])
    assert res.e == 1
    assert res.expected == pytest.approx(4 / 9)
    assert res.deviation == pytest.approx(5 / 9)
    assert res.bound == pytest.approx(2.0, abs=1e-9)
    assert res.holds


def test_mixing_empty(g3_view):
    res = mixing_check(g3_view, [], range(9))
    assert res.e == 0 and res.bound == pytest.approx(0.0) and res.holds


def test_mixing_e_matches_brute(g3_view):
    rng = random.Random(11)
    for _ in range(15):
        B = rng.sample(range(9), rng.randint(0, 9))
        C = rng.sample(range(9), rng.randint(0, 9))
        bp = [rank_point(3, 2, r) for r in B]
        cp = [rank_point(3, 2, r) for r in C]
        assert mixing_check(g3_view, B, C).e == oracles.mixing_e_brute(3, 1, bp, cp)


# --- whole-battery properties ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inequalities_hold_on_g7(data):
    G = euclid_graph(make_field(7), 2, 1)
    view = regular_view(G)
    B = data.draw(st.sets(st.integers(0, 48), max_size=49))
    C = data.draw(st.sets(st.integers(0, 48), max_size=49))
    assert variance_check(view, B).holds
    assert mixing_check(view, B, C).holds
    p2 = hinge_count(view, B)
    assert p2 <= hinge_bound(view.n, view.k, view.lam, len(B)) + 1e-9
    assert degree_sum_check(view, B).holds


def test_degree_sum_is_hinge_linear_step(g3_view):
    # Eq.-style intermediate: sum of inside-degrees over E
    res = degree_sum_check(g3_view, ranks(3, THREE))
    assert res.lhs == 4  # degrees 2,1,1
    assert res.rhs == pytest.approx(4 * 9 / 9 + 2.0 * 3, abs=1e-9)
    assert res.holds


def test_checks_with_ceiling_lambda(f7):
    import dataclasses

    G = euclid_graph(f7, 2, 1)
    exact = regular_view(G)
    ceiling = dataclasses.replace(exact, lam=2 * 7**0.5)
    rng = random.Random(3)
    for _ in range(10):
        B = rng.sample(range(49), rng.randint(1, 49))
        assert variance_check(ceiling, B).holds
        assert mixing_check(ceiling, B, B).holds
        assert hinge_count(ceiling, B) <= hinge_bound(49, 8, ceiling.lam, len(B)) + 1e-9
