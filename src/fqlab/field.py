"""Odd prime moduli: the primality test and the square-count table of F_p.

Residues are plain ints in [0, p).  A PrimeField is immutable after
construction and safe to share across threads and worker processes.  The
square-count table drives every sphere-size computation downstream; it
is built once, by full enumeration, when first read, so refused work
costs no O(p).
"""

from __future__ import annotations

import functools
import math
import warnings

from .errors import EvenModulus, NotPrime
from .record import Record


def is_prime(n: int) -> bool:
    """Deterministic trial division, adequate for desk-scale moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class PrimeField(Record):
    """An odd prime modulus p together with its square-count table.

    square_counts[t] is the number of x in F_p with x*x == t.  The table
    satisfies square_counts[0] == 1, every other entry is 0 or 2, and the
    entries sum to p.  minus_one_is_square records whether p == 1 (mod 4),
    in which case null distances between distinct points exist already in
    dimension 2 and default command-line runs refuse the modulus.  The
    table is a function of p, so equality and hashing skip it: a cache
    keyed by the field costs O(1) per lookup, not O(p).
    """

    p: int
    minus_one_is_square: bool

    @functools.cached_property
    def square_counts(self) -> tuple[int, ...]:
        counts = [0] * self.p
        for x in range(self.p):
            counts[x * x % self.p] += 1
        assert (counts[-1] > 0) == self.minus_one_is_square  # Euler's criterion
        return tuple(counts)


def make_field(p: int) -> PrimeField:
    """Validate p and build a PrimeField; its square-count table waits
    until it is read.

    Raises EvenModulus for even p (the even check runs first, so 4 is
    reported as even rather than composite) and NotPrime for everything
    else that is not prime.  A modulus with p == 1 (mod 4) is returned
    but triggers a warning rather than an error, since -1 being a square
    changes the distance geometry qualitatively.
    """
    if p < 2:
        raise NotPrime(f"modulus must be an odd prime, got {p}")
    if p % 2 == 0:
        raise EvenModulus(f"modulus must be odd, got {p}")
    if not is_prime(p):
        raise NotPrime(f"modulus must be prime, got {p}")
    minus_one = p % 4 == 1  # Euler's criterion
    if minus_one:
        warnings.warn(
            f"p={p} is 1 mod 4, so -1 is a square and distinct points at "
            "distance 0 exist in every dimension >= 2",
            stacklevel=2,
        )
    return PrimeField(p=p, minus_one_is_square=minus_one)
