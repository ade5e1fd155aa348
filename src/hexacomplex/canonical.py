"""Canonical decomposition and geometry of 6-dimensional hypercomplex values.

The canonical variables diagonalize multiplication: the polar ring splits
into two real axes (v+, v-) and two complex-like planes, the planar ring
into three complex-like planes.  On top of the raw linear transforms this
module derives the geometric parameters (modulus, amplitude, angles), the
idempotent basis, and the exponential and trigonometric product forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import _transforms as tr
from . import elementary
from .algebra import (
    ZERO_COMPONENT_RTOL,
    HexaNumber,
    Variant,
    canonical_components,
    from_canonical_components,
)
from .errors import DomainError

__all__ = [
    "PolarCanonical",
    "PlanarCanonical",
    "RotatedCoords",
    "PolarGeometry",
    "PlanarGeometry",
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
]


@dataclass(frozen=True)
class PolarCanonical:
    """Canonical variables of a polar value: two axes plus two planes."""

    v_plus: float
    v_minus: float
    pairs: tuple[tuple[float, float], tuple[float, float]]

    @property
    def variant(self) -> Variant:
        return Variant.POLAR

    def as_sequence(self) -> tuple[float, ...]:
        (v1, t1), (v2, t2) = self.pairs
        return (self.v_plus, self.v_minus, v1, t1, v2, t2)

    def pair_complex(self, k: int) -> complex:
        v, t = self.pairs[k - 1]
        return complex(v, t)


@dataclass(frozen=True)
class PlanarCanonical:
    """Canonical variables of a planar value: three planes."""

    pairs: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

    @property
    def variant(self) -> Variant:
        return Variant.PLANAR

    def as_sequence(self) -> tuple[float, ...]:
        return tuple(x for pair in self.pairs for x in pair)

    def pair_complex(self, k: int) -> complex:
        v, t = self.pairs[k - 1]
        return complex(v, t)


@dataclass(frozen=True)
class RotatedCoords:
    """Coordinates over the rotated orthonormal axes; the norm equals |u|."""

    variant: Variant
    xi: tuple[float, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        planar = self.variant.is_planar
        return ("xi+", "xi-")[:tr.axis_count(planar)] + tuple(
            f"{name}{k}" for k in range(1, tr.pair_count(planar) + 1) for name in ("xi", "eta"))

    def plane(self, k: int) -> tuple[float, float]:
        """Projection onto the k-th (xi_k, eta_k) plane."""
        return self.xi[tr.plane_slice(self.variant.is_planar, k)]


@dataclass(frozen=True)
class PolarGeometry:
    """Geometric parameters of a polar value.

    Angles that would require 0/0 are absent (None) rather than defaulted.
    ``rho`` is absent when v+ v- < 0, where no real sixth root exists.
    """

    d: float
    rho: float | None
    theta_plus: float | None
    theta_minus: float | None
    psi1: float | None
    phi1: float | None
    phi2: float | None
    rho1: float
    rho2: float


@dataclass(frozen=True)
class PlanarGeometry:
    """Geometric parameters of a planar value; absent angles are None."""

    d: float
    rho: float
    psi1: float | None
    psi2: float | None
    phi1: float | None
    phi2: float | None
    phi3: float | None
    rho1: float
    rho2: float
    rho3: float


@dataclass(frozen=True)
class ExpForm:
    """Factors of the exponential form: u = rho * exp(exponent)."""

    rho: float
    exponent: HexaNumber


@dataclass(frozen=True)
class TrigForm:
    """Factors of the trigonometric form: u = scale * direction * exp(phase)."""

    scale: float
    direction: HexaNumber
    phase: HexaNumber


@dataclass(frozen=True)
class DRhoReport:
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


def to_canonical(u: HexaNumber) -> PolarCanonical | PlanarCanonical:
    """Canonical variables of ``u`` (the diagonalizing linear map)."""
    planar = u.variant.is_planar
    axes, planes = tr.split(planar, canonical_components(u))
    pairs = tuple((z.real, z.imag) for z in planes)
    return (PlanarCanonical if planar else PolarCanonical)(*axes, pairs=pairs)


def from_canonical(c: PolarCanonical | PlanarCanonical) -> HexaNumber:
    """Inverse of :func:`to_canonical`."""
    return from_canonical_components(c.variant, c.as_sequence())


def canonical_basis(variant: Variant) -> tuple[HexaNumber, ...]:
    """Idempotent basis: (e+, e-, e1, e1~, e2, e2~) or (e1, e1~, ..., e3~)."""
    return tuple(HexaNumber(variant, row) for row in tr.basis_rows(variant.is_planar))


def rotated_coords(u: HexaNumber) -> RotatedCoords:
    """Coordinates of ``u`` over the rotated orthonormal axes."""
    rows = tr.rotation_rows(u.variant.is_planar)
    return RotatedCoords(u.variant, tuple(tr.dot(row, u.components) for row in rows))


def _plane_polar(z: complex, threshold: float) -> tuple[float, float | None]:
    """(radius, azimuth-or-None) for one canonical plane; tiny radii snap to 0."""
    rho = tr.radius(z)
    if rho <= threshold:
        return 0.0, None
    return rho, tr.azimuth(z)


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


def geometry(u: HexaNumber) -> PolarGeometry | PlanarGeometry:
    """Modulus, amplitude and angles of ``u``; undefined angles are None.

    Components within the zero threshold snap to exactly zero first, so
    the limiting angles (e.g. theta+ = 0 at rho1 = 0, pi/2 at v+ = 0)
    come out exact.
    """
    d = u.modulus()
    threshold = ZERO_COMPONENT_RTOL * d
    planar = u.variant.is_planar
    axes, planes = tr.split(planar, canonical_components(u))
    rhos, phis = zip(*(_plane_polar(z, threshold) for z in planes))
    psi1 = math.atan2(rhos[0], rhos[1]) if max(rhos[0], rhos[1]) > 0.0 else None
    if planar:
        rho1, rho2, rho3 = rhos
        phi1, phi2, phi3 = phis
        psi2 = math.atan2(rho1, rho3) if max(rho1, rho3) > 0.0 else None
        return PlanarGeometry(d=d, rho=_amplitude(axes, rhos), psi1=psi1, psi2=psi2,
                              phi1=phi1, phi2=phi2, phi3=phi3,
                              rho1=rho1, rho2=rho2, rho3=rho3)

    v_plus, v_minus = (0.0 if abs(v) <= threshold else v for v in axes)
    rho1, rho2 = rhos
    phi1, phi2 = phis
    theta_plus = (math.atan2(tr.SQRT2 * rho1, v_plus)
                  if rho1 > 0.0 or v_plus != 0.0 else None)
    theta_minus = (math.atan2(tr.SQRT2 * rho1, v_minus)
                   if rho1 > 0.0 or v_minus != 0.0 else None)
    rho: float | None
    if min(rho1, rho2, abs(v_plus), abs(v_minus)) == 0.0:
        rho = 0.0
    elif (v_plus < 0.0) != (v_minus < 0.0):
        rho = None
    else:
        rho = _amplitude(axes, rhos)
    return PolarGeometry(d=d, rho=rho, theta_plus=theta_plus, theta_minus=theta_minus,
                         psi1=psi1, phi1=phi1, phi2=phi2, rho1=rho1, rho2=rho2)


_RECORD_KEYS = ("d", "rho", "theta_plus", "theta_minus", "psi1", "psi2",
                "phi1", "phi2", "phi3", "rho1", "rho2", "rho3")


def geometry_record(g: PolarGeometry | PlanarGeometry, digits: int = 12) -> str:
    """Flat key=value text record; absent fields are omitted."""
    present = {f.name: getattr(g, f.name) for f in fields(g)}
    lines = []
    for key in _RECORD_KEYS:
        if key in present and present[key] is not None:
            lines.append(f"{key}={present[key]:.{digits}g}")
    return "\n".join(lines)


def exp_form(u: HexaNumber) -> ExpForm:
    """Amplitude and hypercomplex exponent with u = rho * exp(exponent).

    Polar values need v+ > 0, v- > 0 and both plane radii positive;
    planar values need all three plane radii positive.  Violations raise
    :class:`DomainError` naming the offending component.  The exponent is
    ln(u) with its real part, ln(rho), removed.
    """
    planar = u.variant.is_planar
    comps = canonical_components(u)
    label = tr.first_zero(planar, comps, ZERO_COMPONENT_RTOL * u.modulus(), positive_axes=True)
    if label:
        raise DomainError(f"exponential form undefined: {tr.vanished(label)}", component=label)
    axes, planes = tr.split(planar, comps)
    exponent = elementary.ln(u).components
    return ExpForm(rho=_amplitude(axes, [tr.radius(z) for z in planes]),
                   exponent=HexaNumber(u.variant, (0.0, *exponent[1:])))


def trig_form(u: HexaNumber) -> TrigForm:
    """Factors of the trigonometric form u = scale * direction * exp(phase).

    Requires the first plane radius to be positive (it normalizes every
    ratio of the product form); other vanishing radii contribute a zero
    coefficient and no phase term.  The direction has the canonical
    components of u divided by rho1, each plane turned onto its real axis.
    """
    planar = u.variant.is_planar
    d = u.modulus()
    threshold = ZERO_COMPONENT_RTOL * d
    axes, planes = tr.split(planar, canonical_components(u))
    rhos = [tr.radius(z) for z in planes]
    rho1 = rhos[0]
    if rho1 <= threshold:
        raise DomainError("trigonometric form undefined: plane radius rho1 vanishes",
                          component="pair1")
    direction = from_canonical_components(
        u.variant, tr.join([v / rho1 for v in axes], [complex(r / rho1) for r in rhos]))
    phase = from_canonical_components(u.variant, tr.join(
        [0.0] * len(axes), [complex(0.0, tr.azimuth(z) if r > threshold else 0.0)
                            for z, r in zip(planes, rhos)]))
    return TrigForm(scale=d / direction.modulus(), direction=direction, phase=phase)


_QUOTED_CONSTANT = 2.0 ** (1.0 / 3.0) / tr.SQRT6


def check_d_rho_relation(u: HexaNumber) -> DRhoReport:
    """Evaluate the modulus-amplitude relation for ``u``.

    Substituting the defining equations gives the constant 2^(1/3)/sqrt(6)
    for the polar relation but 1/sqrt(3) for the planar one, although the
    same 2^(1/3)/sqrt(6) is commonly quoted for both.  ``rhs`` carries the
    derived value, ``rhs_quoted_constant`` the commonly quoted one, so the
    planar discrepancy stays observable.
    """
    planar = u.variant.is_planar
    comps = canonical_components(u)
    d = u.modulus()
    label = tr.first_zero(planar, comps, ZERO_COMPONENT_RTOL * d)
    if label:
        return DRhoReport(u.variant, skipped=True,
                          reason=f"canonical component {label} vanishes (rho=0)",
                          d=d, rho=0.0, rhs=None, rhs_quoted_constant=None)
    axes, planes = tr.split(planar, comps)
    rhos = [tr.radius(z) for z in planes]
    if planar:
        rho = _amplitude(axes, rhos)
        t1 = rhos[0] / rhos[1]
        t2 = rhos[0] / rhos[2]
        base = rho * (t1 * t2) ** (1.0 / 3.0) * math.sqrt(1.0 + 1.0 / t1 ** 2 + 1.0 / t2 ** 2)
        return DRhoReport(u.variant, skipped=False, reason=None, d=d, rho=rho,
                          rhs=base / tr.SQRT3,
                          rhs_quoted_constant=base * _QUOTED_CONSTANT)

    v_plus, v_minus = axes
    rho1, rho2 = rhos
    if v_plus < 0.0 or v_minus < 0.0:
        return DRhoReport(u.variant, skipped=True, reason="v+ or v- negative: no real amplitude",
                          d=d, rho=None, rhs=None, rhs_quoted_constant=None)
    rho = _amplitude(axes, rhos)
    t_plus = tr.SQRT2 * rho1 / v_plus
    t_minus = tr.SQRT2 * rho1 / v_minus
    t_psi = rho1 / rho2
    rhs = (rho * _QUOTED_CONSTANT * (t_plus * t_minus * t_psi ** 2) ** (1.0 / 6.0)
           * math.sqrt(1.0 / t_plus ** 2 + 1.0 / t_minus ** 2 + 1.0 + 1.0 / t_psi ** 2))
    return DRhoReport(u.variant, skipped=False, reason=None, d=d, rho=rho,
                      rhs=rhs, rhs_quoted_constant=rhs)
