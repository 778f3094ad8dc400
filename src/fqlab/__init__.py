"""Exact verification laboratory for distance geometry over prime fields.

The package computes sphere sizes and distance-graph spectra over F_p^d
with exact or tightly-bounded arithmetic, then checks expander-type
inequalities (variance, mixing, hinge) and the resulting bounds on the
pair-count statistic f(E) and on the number of realized distances.  Every
random choice is seeded and every emitted record is byte-deterministic.
"""

from .bounds import (
    BoundReport,
    DegreeProfile,
    check_main_theorem,
    degree_profiles,
    lower_bound_f,
    upper_bound_f,
)
from .errors import (
    BadSpec,
    DimensionMismatch,
    EvenModulus,
    FqlabError,
    InfeasibleSize,
    MissingSpectrum,
    NotPrime,
    TooLarge,
    VerificationFailed,
)
from .euclid import (
    EuclidGraphSpec,
    SpectralSummary,
    degree_columns,
    euclid_graph,
    ramanujan_bound,
    recheck_spectrum,
    recheck_table,
    spectra,
)
from .field import PrimeField, is_prime, make_field
from .geometry import (
    PointSet,
    SphereTable,
    generate_point_set,
    load_point_set,
    parse_generator,
    parse_point_text,
    size_threshold,
    sphere_points,
    sphere_size,
    sphere_table,
)
from .spectral import (
    degree_sum_bound,
    hinge_bound,
    mixing_bound,
    variance_bound,
    within_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # field
    "PrimeField", "is_prime", "make_field",
    # geometry
    "PointSet", "SphereTable", "generate_point_set", "load_point_set",
    "parse_generator", "parse_point_text",
    "size_threshold", "sphere_points", "sphere_size", "sphere_table",
    # spectral
    "degree_sum_bound", "hinge_bound", "mixing_bound", "variance_bound",
    "within_bound",
    # euclid
    "EuclidGraphSpec", "SpectralSummary", "degree_columns", "euclid_graph",
    "ramanujan_bound", "recheck_spectrum", "recheck_table", "spectra",
    # bounds
    "BoundReport", "DegreeProfile", "check_main_theorem", "degree_profiles",
    "lower_bound_f", "upper_bound_f",
    # errors
    "FqlabError", "NotPrime", "EvenModulus", "DimensionMismatch", "TooLarge",
    "InfeasibleSize", "BadSpec", "VerificationFailed", "MissingSpectrum",
]
