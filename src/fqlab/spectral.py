"""Bounds of the inequality checks for regular graphs, and their verdicts.

The checks count inside degree columns: for a vertex set B of a
k-regular graph on n vertices, d[v] = |N(v) inside B| for every vertex
v, a column that sums to k|B|.  Its variance, mixing, hinge and
degree-sum counts are read off that column alone (cli._subset_records,
verify's pass for one check and radius), or off a set's degree profile
when the set is checked against itself (bounds.subset_counts).  Each
bound is computed from (n, k, lambda, set sizes), where lambda is any
upper bound on the nontrivial eigenvalue magnitudes, sharp or not; one
count can thus be judged under several lambdas, and sets of one size
share every bound.  Every count is an integer numerator over a known
denominator: hinge and degree-sum counts over 1, the variance and mixing
deviations over n.  The lambda-bearing bounds may live in floating
point; hinge_bound and degree_sum_bound are assembled from lambda's
integer ratio, exactly, in Python ints.  bound_threshold turns a bound
plus the absolute tolerance BOUND_TOL into an exact integer ratio
num/den, and bound_limit turns that, once per bound and count
denominator, into the largest count numerator the bound admits, so a
verdict is one comparison of Python ints, lhs_num <= limit;
within_bound makes the same comparison for one (lhs, rhs) pair.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
    """lhs <= rhs + BOUND_TOL, exactly: the tolerance is added exactly to a
    Fraction bound and in floating point to any other, and CPython compares
    int, float and Fraction by exact value.  Every caller in this package
    passes a Python int, float or Fraction."""
    tol = BOUND_TOL_EXACT if isinstance(rhs, Fraction) else BOUND_TOL
    return bool(lhs <= rhs + tol)


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


def degree_sum_bound(n: int, k: int, lam: float, m: int) -> Fraction:
    """k*m**2/n + lam*m, exact in the float lam: with lam = N/D its integer
    ratio, (k*m**2*D + N*m*n) / (n*D)."""
    N, D = float(lam).as_integer_ratio()
    return Fraction(k * m * m * D + N * m * n, n * D)


def variance_bound(n: int, lam: float, b: int) -> float:
    """(lam**2 / n) * b * (n - b)."""
    return lam * lam * b * (n - b) / n


def mixing_bound(lam: float, b: int, c: int) -> float:
    """lam * sqrt(b*c)."""
    return lam * math.sqrt(b * c)
