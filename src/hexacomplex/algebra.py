"""Six-dimensional commutative hypercomplex numbers of the polar and planar kinds.

A value is a real 6-tuple ``x0 + x1 h1 + ... + x5 h5`` tagged with its
variant.  The two variants share the basis symbols but not the ring:
polar multiplication is the cyclic convolution ``hj hk = h[(j+k) % 6]``,
planar multiplication twists the wrapped products by -1.  Both rings are
commutative and associative, and both embed into 6x6 real matrices
(circulant, respectively sign-twisted circulant), which this module also
provides together with the orthogonal change of basis that splits the
matrix into its irreducible blocks.

All values are immutable and every operation is a pure function, so
everything here is safe to use from any number of threads.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

from . import _transforms as tr
from .errors import DomainError, VariantError, ZeroDivisorError

__all__ = [
    "Variant",
    "HexaNumber",
    "basis_mul",
    "format_hexa",
    "canonical_values",
    "from_canonical_values",
    "matrix_rows",
    "irreducible_form",
    "ZERO_COMPONENT_RTOL",
]

# A canonical component counts as zero below this fraction of the modulus.
ZERO_COMPONENT_RTOL = 1e-13


class Variant(Enum):
    """Which of the two 6-dimensional rings a value lives in."""

    POLAR = "polar"
    PLANAR = "planar"

    @property
    def is_planar(self) -> bool:
        return self is Variant.PLANAR


def basis_mul(j: int, k: int, variant: Variant) -> tuple[int, int]:
    """Product of basis elements hj and hk (h0 is the unit) as ``(index, sign)``.

    ``hj hk = sign * h[index]``.
    """
    if not (0 <= j <= 5 and 0 <= k <= 5):
        raise ValueError("basis indices must lie in 0..5")
    s = j + k
    if s < 6:
        return s, 1
    return s - 6, -1 if variant.is_planar else 1


def _check_components(components: tuple[float, ...]) -> None:
    """Raise :class:`DomainError` for a component that overflowed (or is NaN)."""
    if len(components) != 6:
        raise ValueError(f"expected 6 components, got {len(components)}")
    if not all(map(math.isfinite, components)):
        i = next(i for i, value in enumerate(components) if not math.isfinite(value))
        raise DomainError(f"component {i} is not finite: {components[i]!r}")


def _immutable(self, name: str, *value) -> None:
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


class Frozen:
    """Base of the library's values: ``__init__`` sets each attribute once
    through ``object.__setattr__``, and assigning or deleting one later
    raises AttributeError."""

    __slots__ = ()
    __setattr__ = __delattr__ = _immutable


class HexaNumber(Frozen):
    """An element of one of the two commutative 6-dimensional rings.

    Instances are immutable and compare and hash by value; arithmetic goes
    through the usual operators.  Mixing variants in one operation raises
    :class:`VariantError` because the two rings are not isomorphic.
    """

    __slots__ = ("variant", "components")
    variant: Variant
    components: tuple[float, float, float, float, float, float]

    def __init__(self, variant: Variant, components: Iterable[float]):
        comps = tuple(float(c) for c in components)
        _check_components(comps)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "components", comps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.variant is other.variant and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.variant, self.components))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variant: Variant) -> "HexaNumber":
        return cls(variant, (0.0,) * 6)

    @classmethod
    def one(cls, variant: Variant) -> "HexaNumber":
        return cls(variant, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    @classmethod
    def basis(cls, variant: Variant, index: int) -> "HexaNumber":
        """Basis element h_index, with h0 the multiplicative unit."""
        if not 0 <= index <= 5:
            raise ValueError("basis index must lie in 0..5")
        comps = [0.0] * 6
        comps[index] = 1.0
        return cls(variant, comps)

    @classmethod
    def from_real(cls, variant: Variant, value: float) -> "HexaNumber":
        return cls(variant, (float(value), 0.0, 0.0, 0.0, 0.0, 0.0))

    # -- structure ---------------------------------------------------------

    def __getitem__(self, index: int) -> float:
        return self.components[index]

    def __iter__(self) -> Iterator[float]:
        return iter(self.components)

    def _require_same_variant(self, other: "HexaNumber") -> None:
        if self.variant is not other.variant:
            raise VariantError(
                f"cannot combine {self.variant.value} and {other.variant.value} values")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "HexaNumber") -> "HexaNumber":
        if not isinstance(other, HexaNumber):
            return NotImplemented
        self._require_same_variant(other)
        return HexaNumber(self.variant, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "HexaNumber") -> "HexaNumber":
        if not isinstance(other, HexaNumber):
            return NotImplemented
        self._require_same_variant(other)
        return HexaNumber(self.variant, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "HexaNumber":
        return HexaNumber(self.variant, tuple(-a for a in self.components))

    def scale(self, factor: float) -> "HexaNumber":
        return HexaNumber(self.variant, tuple(a * factor for a in self.components))

    def __mul__(self, other):
        if isinstance(other, HexaNumber):
            self._require_same_variant(other)
            return HexaNumber(self.variant, _convolve(self.components, other.components,
                                                      self.variant.is_planar))
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            x = float(other)
            if x and math.isfinite(1.0 / x):
                return self.scale(1.0 / x)
            # a zero divisor or a reciprocal beyond the range: inverse() names its component
            other = HexaNumber.from_real(self.variant, x)
        if isinstance(other, HexaNumber):
            self._require_same_variant(other)
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, exponent: int) -> "HexaNumber":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** -exponent
        if exponent == 0:
            return HexaNumber.one(self.variant)
        # right to left by squaring; a square is formed only while a higher bit remains
        base, result = self, None
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    # -- metric and inverse --------------------------------------------------

    def modulus(self) -> float:
        """Euclidean norm of the 6-tuple, scaled so that it neither overflows nor underflows."""
        return math.hypot(*self.components)

    def __abs__(self) -> float:
        return self.modulus()

    def inverse(self, zero_rtol: float = ZERO_COMPONENT_RTOL) -> "HexaNumber":
        """Multiplicative inverse, built by inverting each canonical component.

        Raises :class:`ZeroDivisorError` naming the first canonical component
        whose magnitude falls at or below ``zero_rtol`` times the modulus, and
        :class:`DomainError` when ``zero_rtol`` is not a finite number >= 0 or
        when a component's reciprocal is beyond the double range (naming the
        first such canonical component).
        """
        if not 0.0 <= zero_rtol < math.inf:
            raise DomainError(f"zero-divisor tolerance must be finite and >= 0, got {zero_rtol!r}")
        values = canonical_values(self)
        label = tr.first_zero(self.variant.is_planar, values, zero_threshold(self, zero_rtol))
        if label:
            raise ZeroDivisorError(label)
        return from_canonical_values(self.variant, [tr.quotient(1.0, v) for v in values])

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        return format_hexa(self)

    def __repr__(self) -> str:
        return f"HexaNumber({self.variant.value}, {self.components})"


class IrreducibleRep(NamedTuple):
    """T U T^-1 with its diagonal blocks pulled out.

    Polar blocks: two 1x1 blocks (v+, v-) then two 2x2 rotation-scaled
    blocks; planar: three 2x2 blocks.  ``off_block_max`` is the largest
    entry outside the block pattern and should sit at rounding level.
    ``matrix`` and each block are tuples of rows.
    """

    variant: Variant
    matrix: tuple[tuple[float, ...], ...]
    blocks: tuple[tuple[tuple[float, ...], ...], ...]
    off_block_max: float


def _convolve(x, y, planar: bool) -> tuple[float, ...]:
    out = [0.0] * 6
    for j in range(6):
        xj = x[j]
        for k in range(6):
            s = j + k
            if s < 6:
                out[s] += xj * y[k]
            elif planar:
                out[s - 6] -= xj * y[k]
            else:
                out[s - 6] += xj * y[k]
    return tuple(out)


def matrix_rows(u: HexaNumber) -> tuple[tuple[float, ...], ...]:
    """Rows of the 6x6 matrix U representing ``u``: entry (i, j) is x_(j-i), negated where planar wraps."""
    planar = u.variant.is_planar
    x = u.components
    return tuple(tuple(-x[j - i] if planar and j < i else x[j - i] for j in range(6))
                 for i in range(6))


def irreducible_form(u: HexaNumber) -> IrreducibleRep:
    """T U T^T over the rotated orthonormal axes (T = ``tr.rotation_rows``), its blocks as row tuples."""
    planar = u.variant.is_planar
    t = tr.rotation_rows(planar)
    rows = matrix_rows(u)
    columns = [[tr.dot(tk, row) for row in rows] for tk in t]  # column k of U T^T
    m = tuple(tuple(tr.dot(ti, col) for col in columns) for ti in t)
    slices = tr.component_slices(planar)
    block_of = [n for n, s in enumerate(slices) for _ in range(s.start, s.stop)]
    off_block_max = max(abs(m[i][j]) for i in range(6) for j in range(6)
                        if block_of[i] != block_of[j])
    return IrreducibleRep(variant=u.variant, matrix=m,
                          blocks=tuple(tuple(row[s] for row in m[s]) for s in slices),
                          off_block_max=off_block_max)


def canonical_components(u: HexaNumber) -> tuple[float, ...]:
    """Raw canonical variables in canonical row order (see _transforms).

    The components of ``u`` are finite but their sums need not be: raises
    :class:`DomainError` naming the first canonical component that overflows.
    """
    planar = u.variant.is_planar
    values = tuple(tr.dot(row, u.components) for row in tr.canonical_rows(planar))
    _require_finite(planar, values)
    return values


def _require_finite(planar: bool, flat) -> None:
    """Raise :class:`DomainError` naming the first canonical component that is not finite."""
    if not all(map(math.isfinite, flat)):
        label = next(label for label, v in zip(tr.component_labels(planar),
                                               tr.as_values(planar, flat)) if not cmath.isfinite(v))
        raise DomainError(f"canonical component {label} is not finite", component=label)


def canonical_values(u: HexaNumber) -> tuple:
    """Canonical values in row order: a float per real axis, then vk + i vk~ per plane."""
    return tr.as_values(u.variant.is_planar, canonical_components(u))


def zero_threshold(u: HexaNumber, rtol: float = ZERO_COMPONENT_RTOL) -> float:
    """rtol |u|, below which a canonical component of ``u`` counts as zero.

    Only when |u| overflows (it can reach sqrt(6) DBL_MAX) is it taken from u / 4.
    """
    d = u.modulus()
    if d < math.inf:
        return rtol * d
    return rtol * math.hypot(*(0.25 * x for x in u.components)) * 4.0


def plane_radii(planar: bool, values) -> list[float]:
    """Radius of each plane value; raises :class:`DomainError` naming the first that overflows."""
    rhos = [tr.radius(v) for v in values]
    if math.inf in rhos:
        label = tr.component_labels(planar)[rhos.index(math.inf)]
        raise DomainError(f"plane radius of canonical component {label} is not finite",
                          component=label)
    return rhos[tr.axis_count(planar):]


def from_canonical_components(variant: Variant, values) -> HexaNumber:
    """Rebuild a value from raw canonical variables (inverse of the above)."""
    v0, v1, v2, v3, v4, v5 = values
    # one dot per component, added left to right from 0.0 as an accumulator would
    return HexaNumber(variant, [
        0.0 + v0 * c[0] + v1 * c[1] + v2 * c[2] + v3 * c[3] + v4 * c[4] + v5 * c[5]
        for c in tr.basis_columns(variant.is_planar)])


def from_canonical_values(variant: Variant, values) -> HexaNumber:
    """Inverse of :func:`canonical_values`; :class:`DomainError` names a value not finite."""
    flat = tr.as_flat(variant.is_planar, values)
    _require_finite(variant.is_planar, flat)
    return from_canonical_components(variant, flat)


# -- text form ------------------------------------------------------------

def format_hexa(u: HexaNumber, digits: int | None = None) -> str:
    """Render ``a0 + a1 h1 + ... + a5 h5`` with zero terms omitted.

    With ``digits`` unset, coefficients use the shortest representation
    that parses back to the same float, and each term holds one component,
    so ``evaluate(parse(format_hexa(u)), u.variant) == u`` (see
    :mod:`hexacomplex.expressions`).
    """

    def fmt(value: float) -> str:
        return repr(value) if digits is None else f"{value:.{digits}g}"

    parts: list[str] = []
    for i, a in enumerate(u.components):
        if a == 0.0:
            continue
        mag = abs(a)
        if i == 0:
            body = fmt(mag)
        elif mag == 1.0:
            body = f"h{i}"
        else:
            body = f"{fmt(mag)} h{i}"
        if not parts:
            parts.append(body if a > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if a > 0 else f"- {body}")
    if not parts:
        return "0"
    return " ".join(parts)
