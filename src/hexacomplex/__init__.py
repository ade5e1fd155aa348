"""Commutative 6-dimensional hypercomplex numbers, polar and planar.

Arithmetic over both rings, canonical idempotent decomposition and
geometry, cosexponential special functions, elementary transcendental
functions, polynomial factorization, contour integration with residues,
matrix representations, and a small expression-language CLI.
"""

from .algebra import HexaNumber, Variant, basis_mul, format_hexa
from .canonical import (
    Canonical,
    DRhoReport,
    ExpForm,
    Geometry,
    RotatedCoords,
    TrigForm,
    canonical_basis,
    check_d_rho_relation,
    exp_form,
    from_canonical,
    geometry,
    geometry_record,
    rotated_coords,
    to_canonical,
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
    "Canonical",
    "RotatedCoords",
    "Geometry",
    "ExpForm",
    "TrigForm",
    "DRhoReport",
    "to_canonical",
    "from_canonical",
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
