"""Inequality checks for regular graphs, split into counts and bounds.

Every count reduces one degree column: for a vertex set B of a k-regular
graph on n vertices, deg[v] = |N(v) inside B| for every vertex v, an int64
array of length n whose entries sum to k|B|.  The counts (variance_check,
mixing_check, hinge_count, degree_sum_check) see only that column and the
sets they sum it over, so they serve the distance graphs, whose columns
euclid builds by convolution, as well as any other regular graph whose
column the tests build from a neighbor table.  Each bound is computed from
(n, k, lambda, set sizes), where lambda is any upper bound on the
nontrivial eigenvalue magnitudes, sharp or not; one count can thus be
judged under several lambdas.  Counts are exact integers or rationals;
only the lambda-bearing bounds may live in floating point, and
within_bound compares the two with the absolute tolerance BOUND_TOL.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import VertexOutOfRange

BOUND_TOL = 1e-9


def within_bound(lhs, rhs) -> bool:
    """lhs <= rhs + BOUND_TOL, in exact rationals when rhs is exact."""
    tol = Fraction(BOUND_TOL) if isinstance(rhs, Fraction) else BOUND_TOL
    return bool(lhs <= rhs + tol)


def vertex_array(n: int, S: Iterable[int]) -> np.ndarray:
    """The distinct vertices of S as a sorted int64 array; raises
    VertexOutOfRange when one leaves [0, n).  An int64 array that is
    already sorted and distinct, such as one this function returned, is
    only range-checked, so a set sorted once can be handed to every count.
    """
    arr = S
    if not (
        isinstance(S, np.ndarray) and S.dtype == np.int64 and S.ndim == 1
        and (S[1:] > S[:-1]).all()
    ):
        arr = np.array(sorted({int(v) for v in S}), dtype=np.int64)
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise VertexOutOfRange(f"vertex set leaves [0, {n})")
    return arr


def hinge_count(deg: np.ndarray, E: Iterable[int]) -> int:
    """Ordered hinges (u, v, w) in E**3 with uv and vw edges; u == w counts.

    deg is the degree column of E; the count is the sum over v in E of
    deg[v] squared.
    """
    inside = deg[vertex_array(deg.size, E)]
    return int((inside * inside).sum())


def hinge_bound(n: int, k: int, lam: float, m: int) -> float:
    """m * (k*m/n + lam)**2, assembled in exact rationals, floated last."""
    if m <= 0:
        return 0.0
    b = Fraction(k * m, n) + Fraction(float(lam))
    return float(m * b * b)


def degree_sum_check(deg: np.ndarray, E: Iterable[int]) -> int:
    """The sum over v in E of deg[v], deg the degree column of E: e(E, E).

    Its bound is the mixing inequality on the pair (E, E), the
    intermediate step the hinge bound squares.
    """
    return int(deg[vertex_array(deg.size, E)].sum())


def degree_sum_bound(n: int, k: int, lam: float, m: int) -> Fraction:
    """k*m**2/n + lam*m, exact in the float lam."""
    return Fraction(k * m * m, n) + Fraction(float(lam)) * m


def variance_check(deg: np.ndarray) -> Fraction:
    """The exact neighbor-count variance over all vertices: the sum over v
    of (deg[v] - k|B|/n)**2, deg the degree column of B (k|B| = deg.sum())."""
    total = int(deg.sum())
    return int((deg * deg).sum()) - Fraction(total * total, deg.size)


def variance_bound(n: int, lam: float, b: int) -> float:
    """(lam**2 / n) * b * (n - b)."""
    return lam * lam * b * (n - b) / n


def mixing_check(deg: np.ndarray, C: Iterable[int]) -> tuple[int, Fraction]:
    """(e, |e - k|B||C|/n|), deg the degree column of B and e the number of
    ordered adjacent pairs (u in B, v in C)."""
    c_arr = vertex_array(deg.size, C)
    e = int(deg[c_arr].sum())
    return e, abs(Fraction(e) - Fraction(int(deg.sum()) * int(c_arr.size), deg.size))


def mixing_bound(lam: float, b: int, c: int) -> float:
    """lam * sqrt(b*c)."""
    return lam * math.sqrt(b * c)
