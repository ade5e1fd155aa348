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

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from . import _transforms as tr
from .errors import VariantError, ZeroDivisorError

__all__ = [
    "Variant",
    "BasisProduct",
    "HexaNumber",
    "basis_mul",
    "format_hexa",
    "parse_hexa",
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

    @classmethod
    def parse(cls, text: str) -> "Variant":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown variant {text!r}; expected 'polar' or 'planar'") from None


@dataclass(frozen=True)
class BasisProduct:
    """Result of multiplying two basis elements: ``hj hk = sign * h[index]``."""

    index: int
    sign: int


def basis_mul(j: int, k: int, variant: Variant) -> BasisProduct:
    """Product of basis elements hj and hk (h0 is the unit)."""
    if not (0 <= j <= 5 and 0 <= k <= 5):
        raise ValueError("basis indices must lie in 0..5")
    s = j + k
    if s < 6:
        return BasisProduct(s, 1)
    return BasisProduct(s - 6, -1 if variant.is_planar else 1)


def _check_components(components: tuple[float, ...]) -> None:
    if len(components) != 6:
        raise ValueError(f"expected 6 components, got {len(components)}")
    for i, value in enumerate(components):
        if not math.isfinite(value):
            raise ValueError(f"component {i} is not finite: {value!r}")


@dataclass(frozen=True)
class HexaNumber:
    """An element of one of the two commutative 6-dimensional rings.

    Instances are immutable; arithmetic goes through the usual operators.
    Mixing variants in one operation raises :class:`VariantError` because
    the two rings are not isomorphic.
    """

    variant: Variant
    components: tuple[float, float, float, float, float, float]

    def __init__(self, variant: Variant, components: Iterable[float]):
        comps = tuple(float(c) for c in components)
        _check_components(comps)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "components", comps)

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
        if isinstance(other, HexaNumber):
            self._require_same_variant(other)
            return self * other.inverse()
        if isinstance(other, (int, float)):
            return self.scale(1.0 / float(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "HexaNumber":
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = HexaNumber.one(self.variant)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- metric and inverse --------------------------------------------------

    def modulus(self) -> float:
        """Euclidean norm of the 6-tuple, scaled so that it neither overflows nor underflows."""
        return math.hypot(*self.components)

    def __abs__(self) -> float:
        return self.modulus()

    def inverse(self, zero_rtol: float = ZERO_COMPONENT_RTOL) -> "HexaNumber":
        """Multiplicative inverse, built by inverting each canonical component.

        Raises :class:`ZeroDivisorError` naming the first canonical component
        whose magnitude falls at or below ``zero_rtol`` times the modulus.
        """
        planar = self.variant.is_planar
        comps = canonical_components(self)
        label = tr.first_zero(planar, comps, zero_rtol * self.modulus())
        if label:
            raise ZeroDivisorError(label)
        axes, planes = tr.split(planar, comps)
        return from_canonical_components(self.variant, tr.join([1.0 / v for v in axes],
                                                               [1.0 / z for z in planes]))

    # -- matrix representations ----------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """6x6 matrix representing this value; U(u v) = U(u) U(v)."""
        planar = self.variant.is_planar
        x = self.components
        m = np.empty((6, 6))
        for i in range(6):
            for j in range(6):
                value = x[(j - i) % 6]
                m[i, j] = -value if planar and j < i else value
        return m

    def irreducible_rep(self) -> "IrreducibleRep":
        """Block-diagonal form T U T^-1 over the rotated orthonormal axes."""
        t = rotation_matrix(self.variant)
        m = t @ self.to_matrix() @ t.T
        mask = np.ones((6, 6), dtype=bool)
        blocks = []
        for rows in tr.component_slices(self.variant.is_planar):
            blocks.append(m[rows, rows].copy())
            mask[rows, rows] = False
        off_block_max = float(np.abs(m[mask]).max())
        return IrreducibleRep(variant=self.variant, matrix=m, blocks=tuple(blocks),
                              off_block_max=off_block_max)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        return format_hexa(self)

    def __repr__(self) -> str:
        return f"HexaNumber({self.variant.value}, {self.components})"


@dataclass(frozen=True)
class IrreducibleRep:
    """T U T^-1 with its diagonal blocks pulled out.

    Polar blocks: two 1x1 blocks (v+, v-) then two 2x2 rotation-scaled
    blocks; planar: three 2x2 blocks.  ``off_block_max`` is the largest
    entry outside the block pattern and should sit at rounding level.
    """

    variant: Variant
    matrix: np.ndarray
    blocks: tuple[np.ndarray, ...]
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


def rotation_matrix(variant: Variant) -> np.ndarray:
    """Orthogonal matrix onto the rotated axes (rows are the new basis)."""
    return np.array(tr.rotation_rows(variant.is_planar))


def canonical_components(u: HexaNumber) -> tuple[float, ...]:
    """Raw canonical variables in canonical row order (see _transforms)."""
    rows = tr.canonical_rows(u.variant.is_planar)
    return tuple(tr.dot(row, u.components) for row in rows)


def from_canonical_components(variant: Variant, values) -> HexaNumber:
    """Rebuild a value from raw canonical variables (inverse of the above)."""
    rows = tr.basis_rows(variant.is_planar)
    comps = [0.0] * 6
    for value, row in zip(values, rows):
        for p in range(6):
            comps[p] += value * row[p]
    return HexaNumber(variant, comps)


# -- canonical text form ------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)\s*)?"
    r"(?P<basis>h[1-5])?")


def format_hexa(u: HexaNumber, digits: int | None = None) -> str:
    """Render ``a0 + a1 h1 + ... + a5 h5`` with zero terms omitted.

    With ``digits`` unset, coefficients use the shortest representation
    that parses back to the same float, so print/parse round-trips exactly.
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


def parse_hexa(text: str, variant: Variant) -> HexaNumber:
    """Parse the canonical text form produced by :func:`format_hexa`."""
    comps = [0.0] * 6
    pos = 0
    first = True
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty hexa-number literal")
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or (m.group("num") is None and m.group("basis") is None):
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"invalid hexa-number literal near {rest!r}")
        if m.group("sign") is None and not first:
            raise ValueError("missing sign between terms in hexa-number literal")
        sign = -1.0 if m.group("sign") == "-" else 1.0
        num = m.group("num")
        basis = m.group("basis")
        value = sign * (float(num) if num is not None else 1.0)
        index = int(basis[1]) if basis is not None else 0
        if num is None and basis is None:
            raise ValueError("empty term in hexa-number literal")
        comps[index] += value
        pos = m.end()
        first = False
    return HexaNumber(variant, comps)
