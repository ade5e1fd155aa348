"""Canonical decomposition and geometry of 6-dimensional hypercomplex values.

The canonical variables diagonalize multiplication: real axes (polar v+,
v-; planar none), then complex planes (polar two, planar three).  Every
count and name comes from the layout in ``_transforms``, so each function
here has one body for both rings.  On top of the raw linear transforms
this module derives the geometric parameters (modulus, amplitude,
angles), the idempotent basis, and the exponential and trigonometric
product forms.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from . import _transforms as tr
from . import elementary
from .algebra import (
    HexaNumber,
    Variant,
    canonical_values,
    from_canonical_values,
    plane_radii,
    zero_threshold,
)
from .errors import DomainError

__all__ = [
    "Geometry",
    "ExpForm",
    "TrigForm",
    "DRhoReport",
    "canonical_basis",
    "rotated_coords",
    "geometry",
    "geometry_record",
    "exp_form",
    "trig_form",
    "check_d_rho_relation",
]


class Geometry(NamedTuple):
    """Modulus d, amplitude rho and the angles of a value, in printed order.

    A field the ring lacks (theta+/- on planar, psi2, phi3 and rho3 on
    polar) is None, and so is an angle that would require 0/0.  ``rho``
    is None when the axes differ in sign, where no real sixth root exists.
    """

    d: float
    rho: float | None = None
    theta_plus: float | None = None
    theta_minus: float | None = None
    psi1: float | None = None
    psi2: float | None = None
    phi1: float | None = None
    phi2: float | None = None
    phi3: float | None = None
    rho1: float | None = None
    rho2: float | None = None
    rho3: float | None = None


class ExpForm(NamedTuple):
    """Factors of the exponential form: u = rho * exp(exponent)."""

    rho: float
    exponent: HexaNumber


class TrigForm(NamedTuple):
    """Factors of the trigonometric form: u = scale * direction * exp(phase)."""

    scale: float
    direction: HexaNumber
    phase: HexaNumber


class DRhoReport(NamedTuple):
    """Check of the modulus-amplitude relation.

    ``rhs`` uses the constant this library derives from the defining
    equations; ``rhs_quoted_constant`` applies the constant 2^(1/3)/sqrt(6)
    commonly quoted for both rings (correct for polar, off by 2^(1/6) for
    planar).  When preconditions fail the check is skipped and the rhs
    fields are None.
    """

    variant: Variant
    skipped: bool
    reason: str | None
    d: float
    rho: float | None
    rhs: float | None
    rhs_quoted_constant: float | None


def canonical_basis(variant: Variant) -> tuple[HexaNumber, ...]:
    """Idempotent basis: (e+, e-, e1, e1~, e2, e2~) or (e1, e1~, ..., e3~)."""
    return tuple(HexaNumber(variant, row) for row in tr.basis_rows(variant.is_planar))


def rotated_coords(u: HexaNumber) -> tuple[float, ...]:
    """Coordinates of ``u`` over the rotated orthonormal axes, in canonical row order.

    Their norm equals |u|; plane k is at ``tr.plane_slice(planar, k)``.
    """
    return tuple(tr.dot(row, u.components) for row in tr.rotation_rows(u.variant.is_planar))


def _cbrt(x: float) -> float:
    """Cube root of x >= 0, to about an ulp.

    x ** (1.0 / 3.0) carries the rounding of 1/3, a relative error of
    2e-17 ln(x) (5e-15 at x = 1e110); one Newton step, written so that no
    intermediate overflows or underflows, removes it.
    """
    if not 0.0 < x < math.inf:
        return x
    r = x ** (1.0 / 3.0)
    return r - (r - x / (r * r)) / 3.0


def _amplitude(axes, rhos) -> float:
    """rho: the 6th root of |v+ v-| rho1^2 rho2^2 (polar), the cube root of rho1 rho2 rho3 (planar).

    Both are the product of |v|^(1/6) over the axes and rho_k^(1/3) over
    the planes.  Taking each root before multiplying keeps every factor
    near the scale of rho, so no partial product overflows or underflows.
    """
    return (math.prod(_cbrt(math.sqrt(abs(v))) for v in axes)
            * math.prod(_cbrt(r) for r in rhos))


def _theta(rho1: float, v: float) -> float | None:
    """Angle with tan(theta) = sqrt(2) rho1 / v; None at 0/0.

    Both sides are first scaled by the same power of two, so sqrt(2) rho1
    neither overflows near the top of the double range nor rounds among
    the subnormals.
    """
    if rho1 == 0.0 and v == 0.0:
        return None
    e = -math.frexp(max(rho1, abs(v)))[1]
    return math.atan2(tr.SQRT2 * math.ldexp(rho1, e), math.ldexp(v, e))


def geometry(u: HexaNumber) -> Geometry:
    """Modulus, amplitude and angles of ``u``; undefined angles are None.

    Components within the zero threshold snap to exactly zero first, so
    the limiting angles (e.g. theta+ = 0 at rho1 = 0, pi/2 at v+ = 0)
    come out exact.  Each axis gives a theta, each plane after the first a
    psi with tan(psi_k) = rho1 / rho_{k+1}, and each plane its phi and rho.
    Raises :class:`DomainError` when a plane radius or d overflows.
    """
    planar = u.variant.is_planar
    values = canonical_values(u)
    rhos = plane_radii(planar, values)
    d = u.modulus()
    if not d < math.inf:
        raise DomainError("modulus d is not finite")
    threshold = zero_threshold(u)
    a = tr.axis_count(planar)
    axes = [v if abs(v) > threshold else 0.0 for v in values[:a]]
    rhos = [r if r > threshold else 0.0 for r in rhos]
    rho1 = rhos[0]
    parts = {f"theta_{tag}": _theta(rho1, v) for tag, v in zip(tr.component_tags(planar), axes)}
    for k, r in enumerate(rhos[1:], start=1):
        parts[f"psi{k}"] = math.atan2(rho1, r) if max(rho1, r) > 0.0 else None
    for k, (z, r) in enumerate(zip(values[a:], rhos), start=1):
        parts[f"phi{k}"] = tr.azimuth(z) if r > 0.0 else None
        parts[f"rho{k}"] = r
    rho: float | None
    if 0.0 in axes or 0.0 in rhos:
        rho = 0.0
    elif len({v < 0.0 for v in axes}) > 1:
        rho = None
    else:
        rho = _amplitude(axes, rhos)
    return Geometry(d=d, rho=rho, **parts)


def geometry_record(g: Geometry, digits: int = 12) -> str:
    """Flat key=value text record in field order; absent fields are omitted."""
    return "\n".join(f"{key}={value:.{digits}g}" for key, value in zip(g._fields, g)
                     if value is not None)


def exp_form(u: HexaNumber) -> ExpForm:
    """Amplitude and hypercomplex exponent with u = rho * exp(exponent).

    Polar values need v+ > 0, v- > 0 and both plane radii positive;
    planar values need all three plane radii positive.  Violations raise
    :class:`DomainError` naming the offending component.  The exponent is
    ln(u) with its real part, ln(rho), removed.
    """
    planar = u.variant.is_planar
    values = elementary.ln_domain(u, "exponential form undefined")
    exponent = elementary.ln_of_values(u.variant, values).components
    return ExpForm(rho=_amplitude(values[:tr.axis_count(planar)], plane_radii(planar, values)),
                   exponent=HexaNumber(u.variant, (0.0, *exponent[1:])))


def trig_form(u: HexaNumber) -> TrigForm:
    """Factors of the trigonometric form u = scale * direction * exp(phase).

    Requires the first plane radius to be positive (it normalizes every
    ratio of the product form); other vanishing radii contribute a zero
    coefficient and no phase term.  The direction has the canonical
    components of u divided by rho1, each plane turned onto its real axis.
    """
    planar = u.variant.is_planar
    threshold = zero_threshold(u)
    values = canonical_values(u)
    rhos = plane_radii(planar, values)
    rho1 = rhos[0]
    if rho1 <= threshold:
        raise DomainError("trigonometric form undefined: plane radius rho1 vanishes",
                          component="pair1")
    a = tr.axis_count(planar)
    direction = from_canonical_values(u.variant, [v / rho1 for v in (*values[:a], *rhos)])
    phase = from_canonical_values(u.variant, [0.0] * a + [
        complex(0.0, tr.azimuth(z) if r > threshold else 0.0) for z, r in zip(values[a:], rhos)])
    return TrigForm(scale=u.modulus() / direction.modulus(), direction=direction, phase=phase)


_QUOTED_CONSTANT = 2.0 ** (1.0 / 3.0) / tr.SQRT6


def check_d_rho_relation(u: HexaNumber) -> DRhoReport:
    """Evaluate the modulus-amplitude relation for ``u``.

    With tan(theta) = sqrt(2) rho1 / v on each of the a axes and
    tan(psi_k) = rho1 / rho_{k+1}, the defining equations give
    d = C rho prod tan(theta)^(1/6) prod tan(psi)^(1/3) sqrt(1 + sum 1/tan^2)
    with C = 2^(a/6) / sqrt(3 * 2^(a/2)): 2^(1/3)/sqrt(6) for polar but
    1/sqrt(3) for planar, though 2^(1/3)/sqrt(6) is commonly quoted for
    both.  ``rhs`` uses C and ``rhs_quoted_constant`` the quoted constant,
    so the planar discrepancy stays observable.
    """
    planar = u.variant.is_planar
    values = canonical_values(u)
    d = u.modulus()
    label = tr.first_zero(planar, values, zero_threshold(u))
    if label:
        return DRhoReport(u.variant, skipped=True,
                          reason=f"canonical component {label} vanishes (rho=0)",
                          d=d, rho=0.0, rhs=None, rhs_quoted_constant=None)
    axes = values[:tr.axis_count(planar)]
    if any(v < 0.0 for v in axes):
        return DRhoReport(u.variant, skipped=True, reason="v+ or v- negative: no real amplitude",
                          d=d, rho=None, rhs=None, rhs_quoted_constant=None)
    rhos = plane_radii(planar, values)
    rho = _amplitude(axes, rhos)
    t_theta = [tr.SQRT2 * (rhos[0] / v) for v in axes]
    t_psi = [rhos[0] / r for r in rhos[1:]]
    # rho multiplies in last: the factor and C are near 1, rho may be near DBL_MAX
    factor = (math.prod(t ** (1.0 / 6.0) for t in t_theta)
              * math.prod(t ** (1.0 / 3.0) for t in t_psi)
              * math.sqrt(1.0 + sum(1.0 / t ** 2 for t in t_theta + t_psi)))
    a = len(axes)
    return DRhoReport(u.variant, skipped=False, reason=None, d=d, rho=rho,
                      rhs=rho * (factor * (2.0 ** (a / 6.0) / math.sqrt(3.0 * 2.0 ** (a / 2.0)))),
                      rhs_quoted_constant=rho * (factor * _QUOTED_CONSTANT))
