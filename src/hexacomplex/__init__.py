"""Commutative 6-dimensional hypercomplex numbers, polar and planar.

Arithmetic over both rings, canonical idempotent decomposition and
geometry, cosexponential special functions, elementary transcendental
functions, polynomial factorization, contour integration with residues,
matrix representations, and a small expression-language CLI.
"""

from .algebra import (
    HexaNumber,
    Variant,
    basis_mul,
    canonical_values,
    format_hexa,
    from_canonical_values,
)
from .canonical import (
    DRhoReport,
    ExpForm,
    Geometry,
    TrigForm,
    canonical_basis,
    check_d_rho_relation,
    exp_form,
    geometry,
    geometry_record,
    rotated_coords,
    trig_form,
)
from .errors import (
    DegeneratePathError,
    DomainError,
    HexaError,
    NonConvergenceError,
    ParseError,
    VariantError,
    ZeroDivisorError,
)

__version__ = "0.1.0"

__all__ = [
    "HexaNumber",
    "Variant",
    "basis_mul",
    "format_hexa",
    "Geometry",
    "ExpForm",
    "TrigForm",
    "DRhoReport",
    "canonical_values",
    "from_canonical_values",
    "canonical_basis",
    "rotated_coords",
    "geometry",
    "geometry_record",
    "exp_form",
    "trig_form",
    "check_d_rho_relation",
    "HexaError",
    "VariantError",
    "ZeroDivisorError",
    "DomainError",
    "NonConvergenceError",
    "DegeneratePathError",
    "ParseError",
    "__version__",
]
