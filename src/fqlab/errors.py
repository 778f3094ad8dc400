"""Exception types shared across the package."""


class FqlabError(Exception):
    """Base class for every error this package raises deliberately."""


class NotPrime(FqlabError):
    """The requested modulus is not a prime number."""


class EvenModulus(FqlabError):
    """The requested modulus is even; only odd primes are supported."""


class DimensionMismatch(FqlabError):
    """Two point-like arguments disagree about the ambient dimension."""


class TooLarge(FqlabError):
    """A guardrailed computation was refused; pass force=True to override."""


class InfeasibleSize(FqlabError):
    """More distinct points were requested than the space contains."""


class BadSpec(FqlabError):
    """A generator expression, config, or input file could not be accepted."""


class VerificationFailed(FqlabError):
    """An independent recheck of a computed quantity did not agree."""


class MissingSpectrum(FqlabError):
    """A bound needed the spectrum of some radius that was not supplied."""
