"""Elementary transcendental functions of a 6-dimensional hypercomplex variable.

Every function here acts through the canonical decomposition: the real
axes (polar v+, v-) receive the scalar function, each canonical plane
receives the complex function of vk + i vk~, and the result maps back.
That componentwise action defines exp, ln, powers and the circular and
hyperbolic functions here, and it makes each identity reduce to its
scalar counterpart.  Power series evaluate through the same
rearrangement, with per-component convergence-radius estimates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

from . import _transforms as tr
from .algebra import (
    ZERO_COMPONENT_RTOL,
    HexaNumber,
    Variant,
    canonical_components,
    from_canonical_components,
)
from .errors import DomainError, ZeroDivisorError

__all__ = [
    "exp",
    "ln",
    "pow_real",
    "cos",
    "sin",
    "cosh",
    "sinh",
    "SeriesCoefficients",
    "RadiusEstimate",
    "ConvergenceReport",
    "eval_series",
]

def _apply(u: HexaNumber,
           axis_fn: Callable[[float], float],
           plane_fn: Callable[[complex], complex]) -> HexaNumber:
    axes, planes = tr.split(u.variant.is_planar, canonical_components(u))
    return from_canonical_components(u.variant, tr.join(map(axis_fn, axes), map(plane_fn, planes)))


def exp(u: HexaNumber) -> HexaNumber:
    """Componentwise exponential; entire on both variants."""
    return _apply(u, math.exp, cmath.exp)


def cos(u: HexaNumber) -> HexaNumber:
    return _apply(u, math.cos, cmath.cos)


def sin(u: HexaNumber) -> HexaNumber:
    return _apply(u, math.sin, cmath.sin)


def cosh(u: HexaNumber) -> HexaNumber:
    return _apply(u, math.cosh, cmath.cosh)


def sinh(u: HexaNumber) -> HexaNumber:
    return _apply(u, math.sinh, cmath.sinh)


def _ln_preconditions(u: HexaNumber) -> None:
    label = tr.first_zero(u.variant.is_planar, canonical_components(u),
                          ZERO_COMPONENT_RTOL * u.modulus(), positive_axes=True)
    if label:
        raise DomainError(f"logarithm undefined: {tr.vanished(label)}", component=label)


def _principal_log(z: complex) -> complex:
    return complex(math.log(abs(z)), tr.azimuth(z))


def ln(u: HexaNumber) -> HexaNumber:
    """Principal logarithm with plane azimuths taken in [0, 2*pi).

    Polar values need v+ > 0 and v- > 0; every plane radius must be
    positive on both variants.  exp(ln(u)) == u on that domain; the
    reverse composition is the identity only when every azimuth of the
    argument already lies in [0, 2*pi).
    """
    _ln_preconditions(u)
    return _apply(u, math.log, _principal_log)


def pow_real(u: HexaNumber, m: float) -> HexaNumber:
    """Real power through the canonical decomposition.

    Integer exponents act on every element whose relevant components
    allow it (negative axis values included); negative integer exponents
    require an invertible ``u``.  Non-integer exponents share ln's domain.
    """
    m = float(m)
    if m.is_integer():
        n = int(m)
        if n < 0:
            label = tr.first_zero(u.variant.is_planar, canonical_components(u),
                                  ZERO_COMPONENT_RTOL * u.modulus())
            if label:
                raise ZeroDivisorError(label)
        return _apply(u, lambda v: math.pow(v, n), lambda z: z ** n)

    _ln_preconditions(u)

    def plane_frac(z: complex) -> complex:
        return cmath.rect(math.pow(abs(z), m), m * tr.azimuth(z))

    return _apply(u, lambda v: math.pow(v, m), plane_frac)


@dataclass(frozen=True)
class SeriesCoefficients:
    """Power-series coefficients a0..aL with their canonical projections.

    ``projections[l]`` carries the canonical variables of term l, which
    coincide with the cosine/sine component sums of its six coefficients.
    """

    terms: tuple[HexaNumber, ...]
    projections: tuple[tuple[float, ...], ...]

    def __init__(self, terms: Sequence[HexaNumber]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a series needs at least one coefficient")
        variant = terms[0].variant
        for t in terms:
            if t.variant is not variant:
                raise ValueError("series coefficients must share one variant")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "projections",
                           tuple(canonical_components(t) for t in terms))

    @property
    def variant(self) -> Variant:
        return self.terms[0].variant

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class RadiusEstimate:
    """Ratio-based convergence radius estimate; indeterminate when the
    finite ratio data is too short or not monotone."""

    value: float | None
    indeterminate: bool


@dataclass(frozen=True)
class ConvergenceReport:
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


def eval_series(coeffs: SeriesCoefficients, u: HexaNumber) -> tuple[HexaNumber, ConvergenceReport]:
    """Evaluate sum a_l u^l by the canonical-component rearrangement.

    Finite sums always evaluate; the report estimates each component's
    convergence radius from the trailing coefficient ratios, plus the
    crude bound |a_l| / (sqrt(dim-factor) |a_{l+1}|).
    """
    if coeffs.variant is not u.variant:
        raise ValueError("series and argument variants differ")
    planar = u.variant.is_planar
    axes, planes = tr.split(planar, canonical_components(u))
    # one column of term projections per canonical component, axes then planes
    columns = list(zip(*(chain(*tr.split(planar, proj)) for proj in coeffs.projections)))
    sums = [_power_sum(column, base) for column, base in zip(columns, (*axes, *planes))]
    radii = {tag: _radius_estimate([abs(c) for c in column])
             for tag, column in zip(tr.component_tags(planar), columns)}
    scale = tr.SQRT3 if planar else tr.SQRT6
    crude = _radius_estimate([t.modulus() for t in coeffs.terms], divisor=scale)
    value = from_canonical_components(u.variant, tr.join(sums[:len(axes)], sums[len(axes):]))
    return value, ConvergenceReport(radii=radii, crude_bound=crude)
