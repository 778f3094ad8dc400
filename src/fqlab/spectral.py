"""Inequality checks for regular graphs, split into counts and bounds.

Every count reduces a stack of degree columns: for vertex sets B_0, ...,
B_{S-1} of a k-regular graph on n vertices, deg[i, v] = |N(v) inside B_i|
for every vertex v, an (S, n) int64 array whose row i sums to k|B_i|.  The
counts see only that stack and sorted member arrays, so they serve any
regular graph, and return one result per row: member_sums gathers every
segment's degrees at once, at a member_index built once per stack, and
sums each segment's run with np.add.reduceat into its hinge count and
its degree sum (e(B_i, C), and so the mixing count); variance_check is a
pair of row sums.  Each bound is computed from (n, k, lambda, set sizes),
where lambda is any upper bound on the nontrivial eigenvalue magnitudes,
sharp or not; one count can thus be judged under several lambdas, and
sets of one size share every bound.  Every count is an integer numerator
over a known denominator: hinge and degree-sum counts over 1, the
variance and mixing deviations over n.  The lambda-bearing
bounds may live in floating point; hinge_bound and degree_sum_bound are
assembled from lambda's integer ratio, exactly, in Python ints.
bound_threshold turns a bound plus the absolute tolerance BOUND_TOL into
an exact integer ratio num/den, and bound_limit turns that, once per bound
and count denominator, into the largest count numerator the bound admits,
so a verdict is one comparison of Python ints, lhs_num <= limit;
within_bound makes it for one (lhs, rhs) pair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from .errors import VertexOutOfRange

BOUND_TOL = 1e-9
BOUND_TOL_EXACT = Fraction(BOUND_TOL)  # the same tolerance, for exact bounds
_TOL_NUM, _TOL_DEN = BOUND_TOL.as_integer_ratio()


def bound_threshold(rhs) -> tuple[int, int]:
    """The exact threshold of the bound rhs: (num, den), den > 0, with
    num/den equal to rhs + BOUND_TOL.

    A float bound adds the tolerance in floating point, as the verdict
    always has, and takes the sum's integer ratio; an exact bound adds it
    exactly.  A non-finite sum becomes (1, 0) for +inf and (-1, 0) for
    -inf and nan, so under the verdict's comparison every finite count
    passes the first and fails the other two."""
    if isinstance(rhs, Fraction):
        num, den = rhs.numerator, rhs.denominator
        return num * _TOL_DEN + _TOL_NUM * den, den * _TOL_DEN
    limit = rhs + BOUND_TOL
    if math.isfinite(limit):
        return limit.as_integer_ratio()
    return (1 if limit > 0 else -1), 0


def bound_limit(rhs, lhs_den: int):
    """The largest count numerator over lhs_den > 0 that the bound rhs
    admits: an integer lhs_num has lhs_num / lhs_den <= rhs + BOUND_TOL
    exactly when lhs_num <= bound_limit(rhs, lhs_den).

    With (num, den) = bound_threshold(rhs) and den > 0, lhs_num * den <=
    num * lhs_den holds for an integer lhs_num exactly when lhs_num <=
    (num * lhs_den) // den.  The non-finite thresholds (den = 0) give
    +inf, which every count passes, and -inf, which none does."""
    num, den = bound_threshold(rhs)
    if den:
        return num * lhs_den // den
    return math.inf if num > 0 else -math.inf


def within_bound(lhs, rhs) -> bool:
    """lhs <= rhs + BOUND_TOL, exactly: the numerator of lhs (an int,
    Fraction or float) against bound_limit of rhs over its denominator,
    the comparison every verdict makes.  A non-finite float lhs is
    compared as a float."""
    if isinstance(lhs, float) and not math.isfinite(lhs):
        return bool(lhs <= rhs + (BOUND_TOL_EXACT if isinstance(rhs, Fraction) else BOUND_TOL))
    if isinstance(lhs, float):
        lhs_num, lhs_den = lhs.as_integer_ratio()
    else:
        lhs_num, lhs_den = int(lhs.numerator), int(lhs.denominator)
    return lhs_num <= bound_limit(rhs, lhs_den)


def vertex_array(n: int, S: Iterable[int]) -> np.ndarray:
    """The distinct vertices of S as a sorted int64 array, the form every
    count reads; raises VertexOutOfRange when one leaves [0, n)."""
    # One sort and a neighbor mask; np.unique hashes integers since numpy
    # 2.3, which is several times slower at these sizes.
    arr = S if isinstance(S, np.ndarray) else np.fromiter(S, dtype=np.int64)
    arr = np.sort(arr.astype(np.int64, copy=False))
    distinct = np.empty(arr.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=distinct[1:])
    arr = arr[distinct]
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise VertexOutOfRange(f"vertex set leaves [0, {n})")
    return arr


class MemberIndex(NamedTuple):
    """Where the segments of one gather sit in a stack of degree columns:
    (rows[j], flat[j]) is the j-th (row, member) pair, segment by segment,
    and sizes[i] is segment i's member count."""

    rows: np.ndarray
    flat: np.ndarray
    sizes: np.ndarray


def member_index(n: int, members, rows=None) -> MemberIndex:
    """The MemberIndex of the sorted vertex arrays members, segment i read
    from row rows[i] of the columns (row i when rows is None); raises
    VertexOutOfRange when a member leaves [0, n), n the column length."""
    sizes = np.array([len(m) for m in members], dtype=np.int64)
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *members]).astype(np.int64, copy=False)
    if flat.size and (flat.min() < 0 or flat.max() >= n):
        raise VertexOutOfRange(f"vertex set leaves [0, {n})")
    rows = np.arange(sizes.size) if rows is None else np.asarray(rows, dtype=np.int64)
    return MemberIndex(np.repeat(rows, sizes), flat, sizes)


def _member_degrees(deg: np.ndarray, index: MemberIndex) -> np.ndarray:
    """deg[i, v] for every (row i, member v) pair of index, in one gather."""
    return deg[index.rows, index.flat]


def _row_sums(values: np.ndarray, sizes: np.ndarray) -> list[int]:
    """The sum of each row's run of sizes[i] consecutive values, as exact
    ints.  A trailing 0 keeps every start index in range; an empty run,
    which reduceat reads as its successor's first value, is set to 0."""
    sums = np.add.reduceat(np.append(values, 0), np.cumsum(sizes) - sizes)
    return np.where(sizes > 0, sums, 0).tolist()


def hinge_bound(n: int, k: int, lam: float, m: int) -> float:
    """m * (k*m/n + lam)**2, exact in the float lam, rounded once.

    With lam = N/D its integer ratio this is m*(k*m*D + N*n)**2 over
    (n*D)**2, and the int true division rounds it correctly, as float()
    of the same Fraction would."""
    if m <= 0:
        return 0.0
    N, D = float(lam).as_integer_ratio()
    root = k * m * D + N * n
    return m * root * root / (n * D) ** 2


def member_sums(deg: np.ndarray, index: MemberIndex) -> tuple[list[int], list[int]]:
    """(hinge counts, degree sums) of every segment of index, from one
    gather of deg: the sums over its members v of deg[i, v] squared and of
    deg[i, v], i the row it reads."""
    inside = _member_degrees(deg, index)
    return _row_sums(inside * inside, index.sizes), _row_sums(inside, index.sizes)


def degree_sum_bound(n: int, k: int, lam: float, m: int) -> Fraction:
    """k*m**2/n + lam*m, exact in the float lam: with lam = N/D its integer
    ratio, (k*m**2*D + N*m*n) / (n*D)."""
    N, D = float(lam).as_integer_ratio()
    return Fraction(k * m * m * D + N * m * n, n * D)


def variance_check(deg: np.ndarray) -> list[int]:
    """The exact neighbor-count variance over all vertices, for every row
    i, as its numerator over n: the sum over v of (deg[i, v] -
    k|B_i|/n)**2 is (n * sum deg[i]**2 - t_i**2) / n, deg[i] the degree
    column of B_i and t_i = k|B_i| the row sum."""
    n = deg.shape[1]
    totals = deg.sum(axis=1).tolist()
    squares = np.einsum("ij,ij->i", deg, deg).tolist()
    return [n * sq - t * t for sq, t in zip(squares, totals)]


def variance_bound(n: int, lam: float, b: int) -> float:
    """(lam**2 / n) * b * (n - b)."""
    return lam * lam * b * (n - b) / n


def mixing_bound(lam: float, b: int, c: int) -> float:
    """lam * sqrt(b*c)."""
    return lam * math.sqrt(b * c)
