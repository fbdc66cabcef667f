"""Lemnatomic polynomials over the Gaussian integers.

Two independent pipelines compute the lemnatomic polynomial Lambda_beta for
odd non-unit beta in Z[i]: an arbitrary-precision numeric route through the
lemniscatic function sl, and an exact symbolic route through the
multiplication maps of sl over Z[i][sl].  On top of them sit verification
engines for separability modulo odd primes, the prime-splitting
irreducibility criterion, and the congruence obstruction with its witness
search.
"""

from .errors import (
    InputError,
    InternalInconsistency,
    LemnatomicError,
    NotCoprime,
    NotDivisible,
    NotOdd,
    ParseError,
    PoleProximity,
    PrecisionError,
    PrecisionLoss,
    RoundingUnstable,
    VerificationError,
)
from .gaussint import (
    GaussInt,
    GaussPrime,
    canonical_associate,
    divides,
    exact_div,
    factor,
    format_gauss,
    gauss_divmod,
    gauss_gcd,
    is_primary,
    is_prime,
    odd_part,
    parse_gauss,
    primary_normalize,
    primes_up_to_norm,
)
from .zipoly import PolyZi, discriminant, exact_divide, resultant
from .residue import ResidueRing, UnitGroup, class_of, phi_norm, residue_ring, subgroup_generated, unit_group
from .gfq import (
    PolyFq,
    ResidueField,
    factor_degrees,
    has_root,
    reduce_poly,
    residue_field,
    splits_completely,
    squarefree,
)
from .lemniscate import NumericReport, lemniscate_constant, lemnatomic_numeric, sl_eval, torsion_points
from .exact import (
    LemnatomicRecord,
    all_torsion_poly,
    divisors_up_to_units,
    lemnatomic_exact,
    mult_map,
    record_checksum,
)
from .classfield import (
    DensityReport,
    Prop1Report,
    Prop2Report,
    SplittingReport,
    TheoremReport,
    density_report,
    frobenius_orbit_check,
    prop2_evidence,
    semisplit_primes,
    splitting_primes,
    theorem_search,
    verify_prop1,
)
from .cache import cache_load, cache_store

__version__ = "0.1.0"

__all__ = [
    "DensityReport",
    "GaussInt",
    "GaussPrime",
    "InputError",
    "InternalInconsistency",
    "LemnatomicError",
    "LemnatomicRecord",
    "NotCoprime",
    "NotDivisible",
    "NotOdd",
    "NumericReport",
    "ParseError",
    "PolyFq",
    "PolyZi",
    "PoleProximity",
    "PrecisionError",
    "PrecisionLoss",
    "Prop1Report",
    "Prop2Report",
    "ResidueField",
    "ResidueRing",
    "RoundingUnstable",
    "SplittingReport",
    "TheoremReport",
    "UnitGroup",
    "VerificationError",
    "all_torsion_poly",
    "cache_load",
    "cache_store",
    "canonical_associate",
    "class_of",
    "density_report",
    "discriminant",
    "divides",
    "divisors_up_to_units",
    "exact_div",
    "exact_divide",
    "factor",
    "factor_degrees",
    "format_gauss",
    "frobenius_orbit_check",
    "gauss_divmod",
    "gauss_gcd",
    "has_root",
    "is_primary",
    "is_prime",
    "lemnatomic_exact",
    "lemnatomic_numeric",
    "lemniscate_constant",
    "mult_map",
    "odd_part",
    "parse_gauss",
    "phi_norm",
    "primary_normalize",
    "primes_up_to_norm",
    "prop2_evidence",
    "record_checksum",
    "reduce_poly",
    "residue_field",
    "residue_ring",
    "resultant",
    "semisplit_primes",
    "sl_eval",
    "splits_completely",
    "splitting_primes",
    "squarefree",
    "subgroup_generated",
    "theorem_search",
    "torsion_points",
    "unit_group",
    "verify_prop1",
]
