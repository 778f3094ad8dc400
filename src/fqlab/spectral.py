"""Inequality checks for regular graphs, split into counts and bounds.

Everything here is stated against RegularGraphView, a bare (n, k) neighbor
table, so the checks can be exercised both by the distance graphs built
elsewhere in this package and by unrelated regular graphs in the tests.
Each inequality is a count that depends only on the graph and the subset
(variance_check, mixing_check, hinge_count, degree_sum_check) plus a bound
computed from (n, k, lambda, set sizes), where lambda is any upper bound on
the nontrivial eigenvalue magnitudes, sharp or not; one count can thus be
judged under several lambdas.  Counts are exact integers or rationals;
only the lambda-bearing bounds may live in floating point, and
within_bound compares the two with the absolute tolerance BOUND_TOL.
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
    """A k-regular graph on vertices 0..n-1; adj[v] lists the k neighbors
    of v."""

    n: int
    k: int
    adj: np.ndarray


def make_view(n: int, k: int, adj: np.ndarray) -> RegularGraphView:
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
    return RegularGraphView(n=n, k=k, adj=adj)


def within_bound(lhs, rhs) -> bool:
    """lhs <= rhs + BOUND_TOL, in exact rationals when rhs is exact."""
    tol = Fraction(BOUND_TOL) if isinstance(rhs, Fraction) else BOUND_TOL
    return bool(lhs <= rhs + tol)


def _subset(view: RegularGraphView, S: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate a vertex collection into (sorted array, indicator)."""
    arr = np.array(sorted({int(v) for v in S}), dtype=np.int64)
    if arr.size and (arr[0] < 0 or arr[-1] >= view.n):
        raise VertexOutOfRange(f"vertex set leaves [0, {view.n})")
    ind = np.zeros(view.n, dtype=np.int64)
    if arr.size:
        ind[arr] = 1
    return arr, ind


def _inside_degrees(view: RegularGraphView, E: Iterable[int]) -> np.ndarray:
    """|N(v) inside E| for each v in E, in one pass over the neighbor table."""
    arr, ind = _subset(view, E)
    return ind[view.adj[arr]].sum(axis=1)


def hinge_count(view: RegularGraphView, E: Iterable[int]) -> int:
    """Ordered hinges (u, v, w) in E**3 with uv and vw edges; u == w counts.

    Equals the sum over v in E of |N(v) inside E| squared.
    """
    degs = _inside_degrees(view, E)
    return int((degs * degs).sum())


def hinge_bound(n: int, k: int, lam: float, m: int) -> float:
    """m * (k*m/n + lam)**2, assembled in exact rationals, floated last."""
    if m <= 0:
        return 0.0
    b = Fraction(k * m, n) + Fraction(float(lam))
    return float(m * b * b)


def degree_sum_check(view: RegularGraphView, E: Iterable[int]) -> int:
    """The sum over v in E of |N(v) inside E|, that is e(E, E).

    Its bound is the mixing inequality on the pair (E, E), the
    intermediate step the hinge bound squares.
    """
    return int(_inside_degrees(view, E).sum())


def degree_sum_bound(n: int, k: int, lam: float, m: int) -> Fraction:
    """k*m**2/n + lam*m, exact in the float lam."""
    return Fraction(k * m * m, n) + Fraction(float(lam)) * m


def variance_check(view: RegularGraphView, B: Iterable[int]) -> Fraction:
    """The exact neighbor-count variance over all vertices: the sum over v
    in V of (|N(v) inside B| - k|B|/n)**2."""
    arr, ind = _subset(view, B)
    n = view.n
    degs = ind[view.adj].sum(axis=1)
    mean = Fraction(view.k * int(arr.size), n)
    sum_sq, sum_deg = int((degs * degs).sum()), int(degs.sum())
    return Fraction(sum_sq) - 2 * mean * sum_deg + n * mean * mean


def variance_bound(n: int, lam: float, b: int) -> float:
    """(lam**2 / n) * b * (n - b)."""
    return lam * lam * b * (n - b) / n


def mixing_check(
    view: RegularGraphView, B: Iterable[int], C: Iterable[int]
) -> tuple[int, Fraction]:
    """(e, |e - k|B||C|/n|), e counting ordered adjacent pairs (u in B, v in C)."""
    b_arr, _ = _subset(view, B)
    _, c_ind = _subset(view, C)
    e = int(c_ind[view.adj[b_arr]].sum()) if b_arr.size else 0
    b, c = int(b_arr.size), int(c_ind.sum())
    return e, abs(Fraction(e) - Fraction(view.k * b * c, view.n))


def mixing_bound(lam: float, b: int, c: int) -> float:
    """lam * sqrt(b*c)."""
    return lam * math.sqrt(b * c)
