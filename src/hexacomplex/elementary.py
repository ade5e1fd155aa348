"""Elementary transcendental functions of a 6-dimensional hypercomplex variable.

The functions here act through the canonical decomposition: the real
axes (polar v+, v-) receive the scalar function, each canonical plane
receives the complex function of vk + i vk~, and the result maps back.
That componentwise action defines exp, ln, fractional powers and the
circular and hyperbolic functions, and it makes each identity reduce to
its scalar counterpart; integer powers are ring products.  Power series
evaluate through the same rearrangement, with per-component
convergence-radius estimates.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple, Sequence

from . import _transforms as tr
from .algebra import (
    HexaNumber,
    Variant,
    canonical_components,
    canonical_values,
    from_canonical_values,
    plane_radii,
    zero_threshold,
)
from .errors import DomainError

__all__ = [
    "COMPONENTWISE",
    "exp",
    "ln",
    "pow_real",
    "cos",
    "sin",
    "cosh",
    "sinh",
    "RadiusEstimate",
    "ConvergenceReport",
    "eval_series",
]

def _apply(variant: Variant, values,
           axis_fn: Callable[[float], float],
           plane_fn: Callable[[complex], complex]) -> HexaNumber:
    """The value whose canonical values are ``values``, each mapped by axis_fn or plane_fn."""
    return from_canonical_values(variant, [plane_fn(v) if isinstance(v, complex) else axis_fn(v)
                                           for v in values])


# The entire functions that act as the real function of the same name on each
# axis and as the complex one on each plane.  math and cmath both define them
# under these names, so this one table serves the axes, the planes and calculus.
COMPONENTWISE = ("exp", "sin", "cos", "sinh", "cosh")


def exp(u: HexaNumber) -> HexaNumber:
    """Componentwise exponential; entire on both variants."""
    return _apply(u.variant, canonical_values(u), math.exp, cmath.exp)


def cos(u: HexaNumber) -> HexaNumber:
    return _apply(u.variant, canonical_values(u), math.cos, cmath.cos)


def sin(u: HexaNumber) -> HexaNumber:
    return _apply(u.variant, canonical_values(u), math.sin, cmath.sin)


def cosh(u: HexaNumber) -> HexaNumber:
    return _apply(u.variant, canonical_values(u), math.cosh, cmath.cosh)


def sinh(u: HexaNumber) -> HexaNumber:
    return _apply(u.variant, canonical_values(u), math.sinh, cmath.sinh)


def ln_domain(u: HexaNumber, undefined: str = "logarithm undefined") -> tuple:
    """Canonical values of ``u``; a DomainError led by ``undefined`` where ln is undefined."""
    planar = u.variant.is_planar
    values = canonical_values(u)
    label = tr.first_zero(planar, values, zero_threshold(u), positive_axes=True)
    if label:
        raise DomainError(f"{undefined}: {tr.vanished(label)}", component=label)
    plane_radii(planar, values)
    return values


def _principal_log(z: complex) -> complex:
    return complex(math.log(tr.radius(z)), tr.azimuth(z))


def ln(u: HexaNumber) -> HexaNumber:
    """Principal logarithm with plane azimuths taken in [0, 2*pi).

    Polar values need v+ > 0 and v- > 0; every plane radius must be
    positive on both variants.  exp(ln(u)) == u on that domain; the
    reverse composition is the identity only when every azimuth of the
    argument already lies in [0, 2*pi).
    """
    return ln_of_values(u.variant, ln_domain(u))


def ln_of_values(variant: Variant, values) -> HexaNumber:
    """ln of the value with canonical values ``values``, which passed :func:`ln_domain`."""
    return _apply(variant, values, math.log, _principal_log)


def pow_real(u: HexaNumber, m: float) -> HexaNumber:
    """Real power ``u^m``.

    An integer exponent is the ring product ``u ** m``, formed by repeated
    squaring; a negative one first inverts ``u``, which must be invertible
    at the library's 1e-13 (:data:`~hexacomplex.algebra.ZERO_COMPONENT_RTOL`).
    A non-integer exponent acts on the canonical components and shares
    ln's domain.
    """
    m = float(m)
    if m.is_integer():
        return u ** int(m)

    values = ln_domain(u)

    def plane_frac(z: complex) -> complex:
        return cmath.rect(math.pow(tr.radius(z), m), m * tr.azimuth(z))

    return _apply(u.variant, values, lambda v: math.pow(v, m), plane_frac)


class RadiusEstimate(NamedTuple):
    """Ratio-based convergence radius estimate; indeterminate when the
    finite ratio data is too short or not monotone."""

    value: float | None
    indeterminate: bool


class ConvergenceReport(NamedTuple):
    """Per-component radius estimates plus the crude modulus bound."""

    radii: dict[str, RadiusEstimate]
    crude_bound: RadiusEstimate


_RATIO_WINDOW = 5


def _radius_estimate(magnitudes: Sequence[float], divisor: float = 1.0) -> RadiusEstimate:
    ratios = [magnitudes[i] / (divisor * magnitudes[i + 1])
              for i in range(len(magnitudes) - 1) if magnitudes[i + 1] > 0.0]
    if len(ratios) < 2:
        return RadiusEstimate(value=None, indeterminate=True)
    window = ratios[-_RATIO_WINDOW:]
    ascending = all(b >= a for a, b in zip(window, window[1:]))
    descending = all(b <= a for a, b in zip(window, window[1:]))
    return RadiusEstimate(value=sum(window) / len(window),
                          indeterminate=not (ascending or descending))


def _power_sum(coefficients, base):
    """sum c_l base^l, real on an axis and complex on a plane."""
    acc = 0.0
    power = 1.0
    for c in coefficients:
        acc += c * power
        power *= base
    return acc


def eval_series(terms: Sequence[HexaNumber], u: HexaNumber) -> tuple[HexaNumber, ConvergenceReport]:
    """Evaluate sum a_l u^l, with ``terms`` a0..aL, by the canonical-component rearrangement.

    Finite sums always evaluate; the report estimates each component's
    convergence radius from the trailing coefficient ratios, plus the
    crude bound |a_l| / (sqrt(dim-factor) |a_{l+1}|).  Raises ValueError
    for an empty series or a term in another variant than ``u``.
    """
    if not terms:
        raise ValueError("a series needs at least one coefficient")
    if any(t.variant is not u.variant for t in terms):
        raise ValueError("series coefficients and argument must share one variant")
    planar = u.variant.is_planar
    # one column of term projections per canonical component, axes then planes
    columns = list(zip(*(tr.as_values(planar, canonical_components(t)) for t in terms)))
    sums = [_power_sum(column, base) for column, base in zip(columns, canonical_values(u))]
    radii = {tag: _radius_estimate([abs(c) for c in column])
             for tag, column in zip(tr.component_tags(planar), columns)}
    scale = tr.SQRT3 if planar else tr.SQRT6
    crude = _radius_estimate([t.modulus() for t in terms], divisor=scale)
    value = from_canonical_values(u.variant, sums)
    return value, ConvergenceReport(radii=radii, crude_bound=crude)
