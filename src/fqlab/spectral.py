"""Inequality checks for regular graphs with a known eigenvalue bound.

Everything here is stated against RegularGraphView, a bare (n, k, lambda)
abstraction with a materialized neighbor table, so the checks can be
exercised both by the distance graphs built elsewhere in this package and
by unrelated regular graphs in the tests.  Left-hand sides are exact
integers or rationals; only the lambda-bearing right-hand sides live in
floating point, and every bound comparison gets the absolute tolerance
BOUND_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import BadSpec, VertexOutOfRange

BOUND_TOL = 1e-9
# Symmetry validation is skipped above this many table entries.
VALIDATE_MAX_ENTRIES = 2_000_000


@dataclass(frozen=True, eq=False)
class RegularGraphView:
    """A k-regular graph on vertices 0..n-1 with an eigenvalue bound.

    adj[v] lists the k neighbors of v.  lam is an upper bound on the
    absolute value of every nontrivial eigenvalue; the checks are valid
    for any true bound, sharp or not, so callers may carry the exact
    second eigenvalue or a ceiling.
    """

    n: int
    k: int
    lam: float
    adj: np.ndarray

    def neighbors(self, v: int) -> list[int]:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in [0, {self.n})")
        return [int(u) for u in self.adj[v]]


def make_view(
    n: int, k: int, lam: float, adj: np.ndarray
) -> RegularGraphView:
    """Wrap a neighbor table after validating its shape and range, and its
    symmetry when it has at most VALIDATE_MAX_ENTRIES entries."""
    adj = np.asarray(adj, dtype=np.int64)
    if adj.shape != (n, k):
        raise BadSpec(f"adjacency table shape {adj.shape} != ({n}, {k})")
    if adj.size and (adj.min() < 0 or adj.max() >= n):
        raise VertexOutOfRange("neighbor index outside [0, n)")
    if adj.size and adj.size <= VALIDATE_MAX_ENTRIES:
        src = np.repeat(np.arange(n, dtype=np.int64), k)
        dst = adj.ravel()
        fwd = np.lexsort((dst, src))
        rev = np.lexsort((src, dst))
        if not (
            np.array_equal(src[fwd], dst[rev]) and np.array_equal(dst[fwd], src[rev])
        ):
            raise BadSpec("adjacency table is not symmetric")
    return RegularGraphView(n=n, k=k, lam=float(lam), adj=adj)


def _subset(view: RegularGraphView, S: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate a vertex collection into (sorted array, indicator)."""
    arr = np.array(sorted({int(v) for v in S}), dtype=np.int64)
    if arr.size and (arr[0] < 0 or arr[-1] >= view.n):
        raise VertexOutOfRange(f"vertex set leaves [0, {view.n})")
    ind = np.zeros(view.n, dtype=np.int64)
    if arr.size:
        ind[arr] = 1
    return arr, ind


def hinge_count(view: RegularGraphView, E: Iterable[int]) -> int:
    """Ordered hinges (u, v, w) in E**3 with uv and vw edges; u == w counts.

    Equals the sum over v in E of |N(v) inside E| squared, computed in one
    pass over the neighbor table.
    """
    arr, ind = _subset(view, E)
    if arr.size == 0:
        return 0
    degs = ind[view.adj[arr]].sum(axis=1)
    return int((degs * degs).sum())


def hinge_bound(n: int, k: int, lam: float, m: int) -> float:
    """m * (k*m/n + lam)**2, assembled in exact rationals, floated last."""
    if m <= 0:
        return 0.0
    b = Fraction(k * m, n) + Fraction(float(lam))
    return float(m * b * b)


@dataclass(frozen=True)
class VarianceResult:
    lhs: float
    rhs: float
    holds: bool


def variance_check(view: RegularGraphView, B: Iterable[int]) -> VarianceResult:
    """Neighbor-count variance over all vertices against the lambda bound.

    lhs = sum over v in V of (|N(v) inside B| - k|B|/n)**2, exact.
    rhs = (lam**2 / n) |B| (n - |B|).
    """
    arr, ind = _subset(view, B)
    b = int(arr.size)
    n, k = view.n, view.k
    degs = ind[view.adj].sum(axis=1)
    sum_deg = int(degs.sum())
    sum_sq = int((degs * degs).sum())
    mean = Fraction(k * b, n)
    lhs = Fraction(sum_sq) - 2 * mean * sum_deg + n * mean * mean
    rhs = view.lam * view.lam * b * (n - b) / n
    return VarianceResult(lhs=float(lhs), rhs=float(rhs), holds=bool(lhs <= rhs + BOUND_TOL))


@dataclass(frozen=True)
class MixingResult:
    e: int
    expected: float
    deviation: float
    bound: float
    holds: bool


def mixing_check(
    view: RegularGraphView, B: Iterable[int], C: Iterable[int]
) -> MixingResult:
    """Ordered adjacent pairs (u in B, v in C) against the mixing bound.

    |e(B, C) - k|B||C|/n| <= lam * sqrt(|B||C|).
    """
    b_arr, _ = _subset(view, B)
    _, c_ind = _subset(view, C)
    e = int(c_ind[view.adj[b_arr]].sum()) if b_arr.size else 0
    b, c = int(b_arr.size), int(c_ind.sum())
    expected = Fraction(view.k * b * c, view.n)
    deviation = abs(Fraction(e) - expected)
    bound = view.lam * math.sqrt(b * c)
    return MixingResult(
        e=e,
        expected=float(expected),
        deviation=float(deviation),
        bound=float(bound),
        holds=bool(deviation <= bound + BOUND_TOL),
    )


@dataclass(frozen=True)
class DegreeSumResult:
    lhs: int
    rhs: float
    holds: bool


def degree_sum_check(view: RegularGraphView, E: Iterable[int]) -> DegreeSumResult:
    """Sum over v in E of |N(v) inside E| against k|E|**2/n + lam|E|.

    This is the mixing inequality applied to the pair (E, E); it is the
    intermediate step the hinge bound squares.
    """
    arr, ind = _subset(view, E)
    m = int(arr.size)
    lhs = int(ind[view.adj[arr]].sum()) if m else 0
    rhs = Fraction(view.k * m * m, view.n) + Fraction(float(view.lam)) * m
    return DegreeSumResult(
        lhs=lhs, rhs=float(rhs), holds=bool(lhs <= rhs + Fraction(BOUND_TOL))
    )
