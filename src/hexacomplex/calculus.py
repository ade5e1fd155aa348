"""Numerical differentiation and contour integration over the 6-dimensional rings.

Derivatives of analytic functions are direction independent and lock the
36 first partials of the component functions into six equality chains
(with a sign twist on the planar wrap); both facts are checked here by
central finite differences.  Line integrals run over sampled polyline
paths with midpoint quadrature; closed loops pick up 2*pi residues from
the canonical planes only, weighted by per-plane winding numbers.

The quadrature works in canonical coordinates: one transform moves the
sampled path to the real axes and complex planes, where the products and
quotients of f(u) (u - u0)^-1 du act on each axis and plane separately,
and the sum maps back once.  f is called once per chord midpoint, on a
HexaNumber, so any evaluator works.  Memory is O(N): besides the path,
one (N+1)x6 array of canonical offsets and fixed-size blocks of chords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Mapping

import numpy as np

from .algebra import ZERO_COMPONENT_RTOL, HexaNumber, Variant, from_canonical_components
from .errors import DegeneratePathError, DomainError, VariantError, ZeroDivisorError
from . import _transforms as tr
from . import elementary

__all__ = [
    "Path",
    "FunctionUnderTest",
    "FUNCTIONS",
    "CRReport",
    "ResidueComparison",
    "directional_derivative",
    "cr_check",
    "line_integral",
    "winding_number",
    "residue_integral",
    "circle_path",
]

_FIRST_ORDER_STEP = 1e-5
_SECOND_ORDER_STEP = 1e-4
_PATH_CLEARANCE = 1e-6
_PROJECTION_CLEARANCE = 1e-9
# Rows per block of the array arithmetic on sampled paths: its temporaries
# stay near 12 kB each whatever the sample count, which keeps peak memory
# at the path itself plus one array of canonical offsets.
_BLOCK = 256

Evaluator = Callable[[HexaNumber], HexaNumber]


def _blocks(n: int) -> Iterable[tuple[int, int]]:
    """Consecutive row ranges [lo, hi) covering range(n)."""
    return ((lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


@dataclass(frozen=True)
class Path:
    """Sampled polyline path; closed paths repeat the first sample last."""

    variant: Variant
    samples: tuple[HexaNumber, ...]
    closed: bool

    def __init__(self, variant: Variant, samples: Iterable[HexaNumber], closed: bool):
        samples = tuple(samples)
        if len(samples) < 3:
            raise ValueError("a path needs at least three samples")
        for s in samples:
            if s.variant is not variant:
                raise ValueError("path sample variant mismatch")
        if closed and samples[0] != samples[-1]:
            raise ValueError("closed paths must repeat the first sample exactly")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "closed", closed)

    def segments(self):
        return zip(self.samples[:-1], self.samples[1:])

    def length(self) -> float:
        return sum((b - a).modulus() for a, b in self.segments())

    def to_text(self) -> str:
        lines = [f"{self.variant.value} {len(self.samples)} {int(self.closed)}"]
        for s in self.samples:
            lines.append(" ".join(f"{c:.17g}" for c in s.components))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Path":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty path serialization")
        head = lines[0].split()
        if len(head) != 3:
            raise ValueError("path header must be 'variant N closed'")
        variant = Variant.parse(head[0])
        count = int(head[1])
        closed = bool(int(head[2]))
        if len(lines) - 1 != count:
            raise ValueError(f"expected {count} samples, found {len(lines) - 1}")
        samples = [HexaNumber(variant, [float(v) for v in ln.split()]) for ln in lines[1:]]
        return cls(variant, samples, closed)


def circle_path(variant: Variant, center: HexaNumber, radii: Mapping[int, float] | float,
                samples: int, plane: int | None = None) -> Path:
    """Closed loop tracing circles in one or more canonical planes.

    ``radii`` is either a mapping plane->radius or a single radius for
    ``plane``.  The projections onto the chosen (xi_k, eta_k) planes are
    circles around the projections of ``center``; every other rotated
    coordinate stays constant.
    """
    if isinstance(radii, (int, float)):
        if plane is None:
            raise ValueError("plane index required with a scalar radius")
        radii = {plane: float(radii)}
    if samples < 8:
        raise ValueError("need at least 8 samples for a circle")
    rows = tr.rotation_rows(variant.is_planar)
    directions = [(radius, *rows[tr.plane_slice(variant.is_planar, k)])
                  for k, radius in radii.items()]
    loop = []
    for lo, hi in _blocks(samples):
        t = 2.0 * np.pi * np.arange(lo, hi) / samples
        points = np.tile(center.components, (hi - lo, 1))
        for radius, xi_row, eta_row in directions:
            points += np.outer(radius * np.cos(t), xi_row)
            points += np.outer(radius * np.sin(t), eta_row)
        loop.extend(HexaNumber(variant, p.tolist()) for p in points)
    loop.append(loop[0])
    return Path(variant, loop, closed=True)


@dataclass(frozen=True)
class FunctionUnderTest:
    """A deterministic map u -> f(u) with a note on where it is regular."""

    name: str
    evaluator: Evaluator
    domain: str = "entire"

    def __call__(self, u: HexaNumber) -> HexaNumber:
        return self.evaluator(u)


def _fn_one(u: HexaNumber) -> HexaNumber:
    return HexaNumber.one(u.variant)


FUNCTIONS: dict[str, FunctionUnderTest] = {
    "one": FunctionUnderTest("one", _fn_one),
    "u": FunctionUnderTest("u", lambda u: u),
    "u2": FunctionUnderTest("u2", lambda u: u * u),
    "u3": FunctionUnderTest("u3", lambda u: u * u * u),
    "exp": FunctionUnderTest("exp", elementary.exp),
    "sin": FunctionUnderTest("sin", elementary.sin),
    "cos": FunctionUnderTest("cos", elementary.cos),
    "sinh": FunctionUnderTest("sinh", elementary.sinh),
    "cosh": FunctionUnderTest("cosh", elementary.cosh),
}


def directional_derivative(f: Evaluator, u0: HexaNumber, direction: HexaNumber) -> HexaNumber:
    """Central-difference derivative of f at u0 along an invertible direction.

    For analytic f the result does not depend on the direction.  The
    quotient needs the direction to be invertible; zero-divisor directions
    raise :class:`DomainError`.
    """
    if u0.variant is not direction.variant:
        raise DomainError("direction and base point variants differ")
    try:
        direction.inverse()
    except Exception as exc:
        raise DomainError(f"derivative quotient undefined along this direction: {exc}") from exc
    h = _FIRST_ORDER_STEP * (1.0 + u0.modulus()) / max(direction.modulus(), 1e-30)
    du = direction * h
    numerator = f(u0 + du) - f(u0 - du)
    return numerator * (du * 2.0).inverse()


@dataclass(frozen=True)
class CRReport:
    """Spreads of the finite-difference partial-derivative chains.

    ``first_order[c]`` is the spread within chain c of the six equal first
    partials; ``second_order[k][lam]`` the spread of the mixed second
    partials of component k along diagonal lam.
    """

    variant: Variant
    first_order: tuple[float, ...]
    second_order: tuple[tuple[float, ...], ...]

    @property
    def max_first_order(self) -> float:
        return max(self.first_order)

    @property
    def max_second_order(self) -> float:
        return max(max(row) for row in self.second_order)

    @property
    def max_residual(self) -> float:
        return max(self.max_first_order, self.max_second_order)


def _shift(u: HexaNumber, p: int, h: float) -> HexaNumber:
    comps = list(u.components)
    comps[p] += h
    return HexaNumber(u.variant, comps)


def cr_check(f: Evaluator, u0: HexaNumber) -> CRReport:
    """Check the component-derivative equality chains of an analytic f at u0."""
    variant = u0.variant
    planar = variant.is_planar
    h1 = _FIRST_ORDER_STEP
    plus = [f(_shift(u0, p, h1)) for p in range(6)]
    minus = [f(_shift(u0, p, -h1)) for p in range(6)]
    jac = [[(plus[p][k] - minus[p][k]) / (2.0 * h1) for p in range(6)] for k in range(6)]
    # jac[k][p] = d P_k / d x_p

    first_order = []
    for c in range(6):
        values = []
        for p in range(6):
            s = c + p
            sign = -1.0 if planar and s >= 6 else 1.0
            values.append(sign * jac[(s) % 6][p])
        first_order.append(max(values) - min(values))

    h2 = _SECOND_ORDER_STEP
    base = f(u0)
    mixed: dict[tuple[int, int], tuple[float, ...]] = {}
    for a in range(6):
        for b in range(a, 6):
            if a == b:
                fp = f(_shift(u0, a, h2))
                fm = f(_shift(u0, a, -h2))
                mixed[(a, a)] = tuple((fp[k] - 2.0 * base[k] + fm[k]) / (h2 * h2)
                                      for k in range(6))
            else:
                fpp = f(_shift(_shift(u0, a, h2), b, h2))
                fpm = f(_shift(_shift(u0, a, h2), b, -h2))
                fmp = f(_shift(_shift(u0, a, -h2), b, h2))
                fmm = f(_shift(_shift(u0, a, -h2), b, -h2))
                mixed[(a, b)] = tuple((fpp[k] - fpm[k] - fmp[k] + fmm[k]) / (4.0 * h2 * h2)
                                      for k in range(6))

    second_order = []
    for k in range(6):
        row = []
        for lam in range(6):
            values = []
            for a in range(6):
                for b in range(a, 6):
                    s = a + b
                    if s % 6 != lam:
                        continue
                    sign = -1.0 if planar and s >= 6 else 1.0
                    values.append(sign * mixed[(a, b)][k])
            row.append(max(values) - min(values) if len(values) > 1 else 0.0)
        second_order.append(tuple(row))

    return CRReport(variant=variant, first_order=tuple(first_order),
                    second_order=tuple(second_order))


def _sample_array(path: Path, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Samples lo..hi-1 of the path (all by default) as the rows of an array."""
    samples = path.samples[lo:hi]
    flat = chain.from_iterable(s.components for s in samples)
    return np.fromiter(flat, np.float64, 6 * len(samples)).reshape(-1, 6)


def _canonical(x: np.ndarray, planar: bool) -> np.ndarray:
    """Canonical components of each row of x, in canonical row order (see _transforms)."""
    return np.einsum("ij,kj->ik", x, tr.canonical_rows(planar))


def _axes_planes(c: np.ndarray, planar: bool) -> tuple[np.ndarray, np.ndarray]:
    """Views of a canonical array: real axis columns and complex plane columns vk + i vk~."""
    axes = tr.axis_count(planar)
    return c[:, :axes], c.view(np.complex128)[:, axes // 2:]


def _ring_update(op, a: np.ndarray, b: np.ndarray, planar: bool) -> None:
    """a = op(a, b) in place, per canonical component: real on the axes, complex on the planes."""
    for x, y in zip(_axes_planes(a, planar), _axes_planes(b, planar)):
        op(x, y, out=x)


def _first_below(c: np.ndarray, bound, planar: bool, strict: bool) -> str | None:
    """Label of the first canonical component, row by row, whose magnitude is below ``bound``.

    ``bound`` is a number or one bound per row; ``strict`` picks < over <=.
    Components are named v+, v- and pair1, pair2, ... as in ZeroDivisorError.
    """
    axes, planes = _axes_planes(c, planar)
    magnitudes = np.hstack((np.abs(axes), np.abs(planes)))
    bound = np.reshape(bound, (-1, 1))
    hits = np.argwhere(magnitudes < bound if strict else magnitudes <= bound)
    if not len(hits):
        return None
    return tr.component_labels(planar)[hits[0][1]]


def _midpoint_sum(f: Evaluator, path: Path, pole: HexaNumber | None = None) -> HexaNumber:
    """Midpoint rule on the chords of ``path``, summed in canonical coordinates.

    Each chord contributes F(mid) * delta, divided by mid - pole when a pole
    is given; products and quotients act on each axis and plane
    separately.  With a pole, a sample within 1e-6 of it in some canonical
    component raises :class:`DegeneratePathError` before f is called, and
    a chord midpoint that is a zero divisor of u - pole raises
    :class:`ZeroDivisorError` before f is called on its block of chords.
    """
    variant = path.variant
    planar = variant.is_planar
    # One path-sized array, the canonical offsets of the samples from the
    # pole (or from zero); everything else works in blocks of chords.
    offsets = _sample_array(path)
    if pole is not None:
        offsets -= pole.components
    for lo, hi in _blocks(len(offsets)):
        offsets[lo:hi] = _canonical(offsets[lo:hi], planar)
        if pole is not None:
            label = _first_below(offsets[lo:hi], _PATH_CLEARANCE, planar, strict=True)
            if label:
                raise DegeneratePathError(
                    f"path canonical component {label} comes within {_PATH_CLEARANCE} of zero")
    total = np.zeros(6)
    for lo, hi in _blocks(len(offsets) - 1):
        samples = _sample_array(path, lo, hi + 1)
        values = samples[:-1] + samples[1:]  # chord midpoints, then F(mid)
        values *= 0.5
        ends = offsets[lo:hi + 1]
        weights = ends[1:] - ends[:-1]
        if pole is not None:
            quotient = ends[1:] + ends[:-1]
            quotient *= 0.5
            shifted = values - pole.components
            threshold = ZERO_COMPONENT_RTOL * np.sqrt(np.einsum("ij,ij->i", shifted, shifted))
            label = _first_below(quotient, threshold, planar, strict=False)
            if label:
                raise ZeroDivisorError(label)
            _ring_update(np.divide, weights, quotient, planar)
        for i, mid in enumerate(values):
            value = f(HexaNumber(variant, mid.tolist()))
            if value.variant is not variant:
                raise VariantError(f"integrand returned a {value.variant.value} value "
                                   f"on a {variant.value} path")
            values[i] = value.components
        terms = _canonical(values, planar)
        _ring_update(np.multiply, terms, weights, planar)
        total += terms.sum(axis=0)
    return from_canonical_components(variant, total)


def line_integral(f: Evaluator, path: Path) -> HexaNumber:
    """Midpoint-rule integral of f along the sampled polyline."""
    return _midpoint_sum(f, path)


def winding_number(path: Path, u0: HexaNumber, plane: int) -> int:
    """Turns of the path's projection onto plane ``plane`` around u0's projection.

    Requires a closed path whose projection keeps a positive clearance
    from the projected point; otherwise :class:`DegeneratePathError`.
    """
    if not path.closed:
        raise ValueError("winding numbers need a closed path")
    if u0.variant is not path.variant:
        raise ValueError("point and path variants differ")
    planar = path.variant.is_planar
    rows = tr.rotation_rows(planar)[tr.plane_slice(planar, plane)]
    dx, dy = np.empty((2, len(path.samples)))
    for lo, hi in _blocks(len(path.samples)):
        points = _sample_array(path, lo, hi)
        points -= u0.components
        dx[lo:hi], dy[lo:hi] = np.einsum("ij,kj->ki", points, rows)
    if (np.hypot(dx, dy) < _PROJECTION_CLEARANCE).any():
        raise DegeneratePathError(
            f"projected path touches the projected point in plane {plane}")
    delta = np.diff(np.arctan2(dy, dx))
    delta[delta > math.pi] -= 2.0 * math.pi
    delta[delta <= -math.pi] += 2.0 * math.pi
    return round(float(delta.sum()) / (2.0 * math.pi))


@dataclass(frozen=True)
class ResidueComparison:
    """Numeric contour integral of f(u)/(u - u0) against the residue formula."""

    numeric: HexaNumber
    formula: HexaNumber
    windings: tuple[int, ...]

    @property
    def max_abs_difference(self) -> float:
        return max(abs(a - b) for a, b in zip(self.numeric.components,
                                              self.formula.components))


def residue_integral(f: Evaluator, path: Path, u0: HexaNumber) -> ResidueComparison:
    """Integrate f(u)/(u - u0) around a closed path and compare with 2*pi residues.

    Every canonical component of u(t) - u0 must stay at least 1e-6 away
    from zero along the sampled path; otherwise the quotient approaches
    the non-invertible set and :class:`DegeneratePathError` is raised.
    """
    if not path.closed:
        raise ValueError("residue integrals need a closed path")
    numeric = _midpoint_sum(f, path, u0)
    variant = path.variant
    planar = variant.is_planar
    windings = tuple(winding_number(path, u0, k)
                     for k in range(1, tr.pair_count(planar) + 1))
    # sum of w_k ek~: the imaginary unit of each plane, weighted by its winding number
    weight = from_canonical_components(
        variant, tr.join([0.0] * tr.axis_count(planar), [complex(0.0, w) for w in windings]))
    formula = f(u0) * weight * (2.0 * math.pi)
    return ResidueComparison(numeric=numeric, formula=formula, windings=windings)
