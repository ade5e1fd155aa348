"""Numerical differentiation and contour integration over the 6-dimensional rings.

Derivatives of analytic functions are direction independent and lock the
36 first partials of the component functions into six equality chains
(with a sign twist on the planar wrap); both facts are checked here by
central finite differences.  Line integrals run over sampled polyline
paths with midpoint quadrature; closed loops pick up 2*pi residues from
the canonical planes only, weighted by per-plane winding numbers.

A path holds the components of its N+1 samples as row tuples of six
floats; it is made by :func:`circle_path` or from any iterable of
HexaNumbers or of 6-component rows (a 2-D numpy array among them).
Everything here runs in scalar Python arithmetic.  The quadrature works
on the canonical values of the offsets of the samples (a float per real
axis, then the planes vk + i vk~), where f(u) (u - u0)^-1 du acts value
by value; each function in :data:`FUNCTIONS` carries the ``cmath``
function (or product of u's) that computes it there.

A loop made by :func:`circle_path` remembers its centre, radii and N,
and builds its samples only when they are read.  On such a loop, with an
f from :data:`FUNCTIONS`, :func:`residue_integral` never reads them: it
works on the exact circle in each plane the loop winds in (every other
canonical component of u - u0 is constant along it, so du is 0 there),
with the periodic trapezoid rule.  That rule converges geometrically, so
it sums nested subsets of the N nodes and stops once two successive sums
agree to rounding; N only caps the node count, and memory does not grow
with it.  Every other path and callable, and :func:`line_integral`, use
the midpoint rule on the chords.  Both rules check the offsets alike.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .algebra import (
    ZERO_COMPONENT_RTOL,
    Frozen,
    HexaNumber,
    Variant,
    basis_mul,
    from_canonical_values,
)
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
_EPS = 2.0 ** -52

Evaluator = Callable[[HexaNumber], HexaNumber]
ElementwiseMap = Callable[[complex], complex]


class _Rows(Sequence):
    """The samples of a path as HexaNumbers, each built when it is read."""

    def __init__(self, path: Path):
        self._path = path

    def __len__(self) -> int:
        path = self._path
        return path._circle[2] + 1 if path._points is None else len(path._points)

    def __getitem__(self, index):
        variant = self._path.variant
        rows = self._path.points[index]
        if isinstance(index, slice):
            return [HexaNumber(variant, row) for row in rows]
        return HexaNumber(variant, rows)


class Path(Frozen):
    """Sampled polyline path; closed paths repeat the first sample last.

    ``points`` holds the components of the samples, a tuple of six finite
    floats per sample; ``samples`` reads those rows as HexaNumbers.  A
    path is built from an iterable of either form (a 2-D array of rows
    too) and compares by identity.  Samples that are not finite raise
    :class:`DomainError`.  A loop made by :func:`circle_path` also keeps
    its centre, radii and sample count in ``_circle`` and builds
    ``points`` the first time it is read; any other path has None there.
    """

    __slots__ = ("variant", "_points", "closed", "_circle")
    variant: Variant
    _points: tuple[tuple[float, ...], ...] | None
    closed: bool
    _circle: tuple[HexaNumber, tuple[tuple[int, float], ...], int] | None

    def __init__(self, variant: Variant, samples: Iterable[HexaNumber | Iterable[float]],
                 closed: bool):
        points = []
        for s in samples:
            if isinstance(s, HexaNumber):
                if s.variant is not variant:
                    raise ValueError("path sample variant mismatch")
                points.append(s.components)
            else:
                row = tuple(map(float, s))
                if len(row) != 6:
                    raise ValueError(f"path samples need 6 components each, got {len(row)}")
                points.append(row)
        if len(points) < 3:
            raise ValueError("a path needs at least three samples")
        if not all(math.isfinite(x) for row in points for x in row):
            raise DomainError("path samples must be finite")
        if closed and points[0] != points[-1]:
            raise ValueError("closed paths must repeat the first sample exactly")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "_points", tuple(points))
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "_circle", None)

    @property
    def points(self) -> tuple[tuple[float, ...], ...]:
        if self._points is None:
            rows = tuple(_circle_rows(self.variant, *self._circle))
            object.__setattr__(self, "_points", rows + rows[:1])
        return self._points

    @property
    def samples(self) -> Sequence[HexaNumber]:
        return _Rows(self)

    def length(self) -> float:
        points = self.points
        return sum(map(math.dist, points, points[1:]))


def _circle_rows(variant: Variant, center: HexaNumber, radii: tuple[tuple[int, float], ...],
                 samples: int) -> Iterator[tuple[float, ...]]:
    """The components of a :func:`circle_path` loop's samples, without the first repeated last.

    Sample q is the centre plus r_k cos t xi_k, then r_k sin t eta_k, for
    each plane k in turn, t = 2 pi q / N.
    """
    rows = tr.rotation_rows(variant.is_planar)
    planes = [(radius, *rows[tr.plane_slice(variant.is_planar, k)]) for k, radius in radii]
    for q in range(samples):
        t = tr.TWO_PI * q / samples
        point = center.components
        for radius, xi_row, eta_row in planes:
            a, b = radius * math.cos(t), radius * math.sin(t)
            point = tuple(x + a * xi + b * eta for x, xi, eta in zip(point, xi_row, eta_row))
        yield point


def circle_path(variant: Variant, center: HexaNumber, radii: Mapping[int, float],
                samples: int) -> Path:
    """Closed loop tracing circles in one or more canonical planes.

    ``radii`` maps each plane k to its radius.  The projections onto those
    (xi_k, eta_k) planes are circles around the projections of ``center``;
    every other rotated coordinate stays constant.

    The loop keeps its centre, radii and sample count and builds its
    points only when they are read.  :func:`residue_integral` integrates
    on the exact circle instead, so an ``integrate`` command allocates
    nothing that grows with the sample count.  It is still a Path only
    because the benchmark's tracer counts loop samples from the Path this
    function returns.  Where the samples may overflow, they are checked
    here one at a time, and none is kept: the first that is not finite
    raises :class:`DomainError`, as any other Path does.
    """
    if samples < 8:
        raise ValueError("need at least 8 samples for a circle")
    planar = variant.is_planar
    circle = (center, tuple(radii.items()), samples)
    rows = tr.rotation_rows(planar)
    planes = [(abs(radius), rows[tr.plane_slice(planar, k)]) for k, radius in circle[1]]
    # component p of a sample is at most |center_p| + sum_k |r_k| hypot(xi_kp, eta_kp);
    # the margin covers the rounding of the few products and sums that form it
    bound = max(abs(x) + sum(r * math.hypot(xi[p], eta[p]) for r, (xi, eta) in planes)
                for p, x in enumerate(center.components))
    if not math.isfinite(bound * (1.0 + 2.0 ** -40)):
        for point in _circle_rows(variant, *circle):
            if not all(map(math.isfinite, point)):
                raise DomainError("path samples must be finite")
    path = object.__new__(Path)
    object.__setattr__(path, "variant", variant)
    object.__setattr__(path, "_points", None)
    object.__setattr__(path, "closed", True)
    object.__setattr__(path, "_circle", circle)
    return path


class FunctionUnderTest(Frozen):
    """A deterministic map u -> f(u), compared by identity.

    ``canonical_map``, when given, computes f in canonical coordinates: it
    maps one canonical value, a Python float (a real axis) or complex (a
    plane vk + i vk~), to that component of f.  Quadrature evaluates f
    through it, one component of one point at a time.
    """

    name: str
    evaluator: Evaluator
    canonical_map: ElementwiseMap | None

    def __init__(self, name: str, evaluator: Evaluator,
                 canonical_map: ElementwiseMap | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "evaluator", evaluator)
        object.__setattr__(self, "canonical_map", canonical_map)

    def __call__(self, u: HexaNumber) -> HexaNumber:
        return self.evaluator(u)


def _polynomial(name: str, evaluator: Evaluator) -> FunctionUnderTest:
    """A product of u's, which is its own canonical map: products act per component."""
    return FunctionUnderTest(name, evaluator, canonical_map=evaluator)


FUNCTIONS: dict[str, FunctionUnderTest] = {f.name: f for f in (
    FunctionUnderTest("one", lambda u: HexaNumber.one(u.variant), canonical_map=lambda z: 1.0),
    _polynomial("u", lambda u: u),
    _polynomial("u2", lambda u: u * u),
    _polynomial("u3", lambda u: u * u * u),
    *(FunctionUnderTest(name, getattr(elementary, name), canonical_map=getattr(cmath, name))
      for name in elementary.COMPONENTWISE),
)}


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


class CRReport(NamedTuple):
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
    h1 = _FIRST_ORDER_STEP
    plus = [f(_shift(u0, p, h1)) for p in range(6)]
    minus = [f(_shift(u0, p, -h1)) for p in range(6)]
    jac = [[(plus[p][k] - minus[p][k]) / (2.0 * h1) for p in range(6)] for k in range(6)]
    # jac[k][p] = d P_k / d x_p

    first_order = []
    for c in range(6):
        values = []
        for p in range(6):
            index, sign = basis_mul(c, p, variant)
            values.append(sign * jac[index][p])
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
                    index, sign = basis_mul(a, b, variant)
                    if index == lam:
                        values.append(sign * mixed[(a, b)][k])
            row.append(max(values) - min(values) if len(values) > 1 else 0.0)
        second_order.append(tuple(row))

    return CRReport(variant=variant, first_order=tuple(first_order),
                    second_order=tuple(second_order))


def _first_hit(planar: bool, hits: Iterable[bool]) -> str | None:
    """Label of the first canonical component flagged in ``hits``, one flag per component."""
    return next((label for label, hit in zip(tr.component_labels(planar), hits) if hit), None)


def _check_overflow(planar: bool, hits: Iterable[bool]) -> None:
    """:class:`DomainError` for the first canonical offset flagged as not finite in ``hits``."""
    label = _first_hit(planar, hits)
    if label:
        raise DomainError(f"path overflows: its canonical component {label} is not finite",
                          component=label)


def _check_clearance(planar: bool, radii: Iterable[float]) -> None:
    """:class:`DegeneratePathError` for the first canonical offset radius under 1e-6."""
    label = _first_hit(planar, (r < _PATH_CLEARANCE for r in radii))
    if label:
        raise DegeneratePathError(
            f"path canonical component {label} comes within {_PATH_CLEARANCE} of zero")


def _check_invertible(planar: bool, radii: Sequence[float], largest: Sequence[float]) -> None:
    """:class:`ZeroDivisorError` for the first canonical radius in ``radii`` at or
    below ZERO_COMPONENT_RTOL |u|, u the value of canonical radii ``largest``: |u|
    is the hypot of |v| / sqrt6 on the axes and |v| / sqrt3 on the planes."""
    axes = tr.axis_count(planar)
    modulus = math.hypot(*(x / (tr.SQRT6 if j < axes else tr.SQRT3) for j, x in enumerate(largest)))
    label = tr.first_zero(planar, radii, ZERO_COMPONENT_RTOL * modulus)
    if label:
        raise ZeroDivisorError(label)


def _sum_value(variant: Variant, total: Sequence, overflowed: Iterable[bool]) -> HexaNumber:
    """The value with canonical components ``total``; :class:`DomainError`
    names the first component flagged in ``overflowed``."""
    label = _first_hit(variant.is_planar, overflowed)
    if label:
        raise DomainError(f"integrand overflows: canonical component {label} of the sum "
                          f"is not finite", component=label)
    return from_canonical_values(variant, total)


def _canonical_at(planar: bool, components: Sequence[float]) -> tuple:
    """Canonical values of six components, which may overflow: quadrature reports it itself."""
    return tr.as_values(planar, [tr.dot(row, components) for row in tr.canonical_rows(planar)])


def _midpoint_sum(f: Evaluator, path: Path, pole: HexaNumber | None = None) -> HexaNumber:
    """Midpoint rule on the chords of ``path``, summed in canonical coordinates.

    In each canonical component, the chord between the offsets a and b of
    two samples from the pole (or from 0) adds F(mid) (b - a), divided by
    mid with a pole, where mid = 0.5 a + 0.5 b does not overflow.  An f
    with a canonical map is evaluated on pole + mid, as in
    :func:`_trapezoid_residue`; any other f is called on each chord's
    midpoint, a HexaNumber.  Before f is called at all: the first sample
    with an offset that is not finite raises :class:`DomainError`; with a
    pole, then a sample within 1e-6 of it in some canonical component
    raises :class:`DegeneratePathError`, and then a chord midpoint that is
    a zero divisor of u - pole raises :class:`ZeroDivisorError`.  A sum
    that is not finite (a canonical map's ``OverflowError`` included)
    raises :class:`DomainError`.  Each error names the first canonical
    component at fault.  Memory is O(N).
    """
    variant = path.variant
    planar = variant.is_planar
    points = path.points
    base = (0.0,) * 6 if pole is None else pole.components
    offsets = [_canonical_at(planar, [x - p for x, p in zip(point, base)]) for point in points]
    for z in offsets:
        _check_overflow(planar, (not cmath.isfinite(v) for v in z))
    if pole is not None:
        for z in offsets:
            _check_clearance(planar, map(tr.radius, z))
    chords = []
    for a, b in zip(offsets, offsets[1:]):
        mid = [0.5 * x + 0.5 * y for x, y in zip(a, b)]
        step = [y - x for x, y in zip(a, b)]
        if pole is not None:
            radii = [tr.radius(v) for v in mid]
            _check_invertible(planar, radii, radii)
            step = [tr.quotient(d, v) for d, v in zip(step, mid)]
        chords.append((mid, step))
    total: list = [0j] * len(offsets[0])
    F = getattr(f, "canonical_map", None)
    if F is not None:
        for j, p in enumerate(_canonical_at(planar, base)):
            try:
                for mid, step in chords:
                    total[j] += F(p + mid[j]) * step[j]
            except (OverflowError, ValueError):  # cmath's overflow, or its domain error at inf
                total[j] = math.inf
    else:
        for x, y, (_, step) in zip(points, points[1:], chords):
            value = f(HexaNumber(variant, [0.5 * a + 0.5 * b for a, b in zip(x, y)]))
            if value.variant is not variant:
                raise VariantError(f"integrand returned a {value.variant.value} value "
                                   f"on a {variant.value} path")
            for j, (v, w) in enumerate(zip(_canonical_at(planar, value.components), step)):
                total[j] += v * w
    return _sum_value(variant, total, (not cmath.isfinite(v) for v in total))


def _trapezoid_residue(f: FunctionUnderTest, path: Path,
                       pole: HexaNumber) -> tuple[HexaNumber, tuple[int, ...]]:
    """Periodic trapezoid rule for f(u)/(u - pole) du on a :func:`circle_path`
    loop, with the loop's winding numbers around the pole.

    Along the loop, the canonical offset z of u from the pole is
    c + sqrt3 |r| e^(it) in each plane the loop winds in, where c is the
    centre's offset, and is c in every other component.  So du is
    i (z - c) dt in a wound plane and 0 elsewhere, and a wound plane's
    integral is i times that of F(pole + z) (1 - c / z) dt over [0, 2 pi)
    (:func:`_circle_integral`).  Everything runs on that exact circle,
    without the loop's points: the checks of :func:`_midpoint_sum` run in
    O(1) on the smallest and largest |z| of each component; F is also
    evaluated once on every constant component, so that its overflow is
    reported; and a plane's winding number is 1 exactly when its circle
    encloses 0.
    """
    variant = path.variant
    planar = variant.is_planar
    axes = tr.axis_count(planar)
    center, radii, count = path._circle
    c = _canonical_at(planar, [a - b for a, b in zip(center.components, pole.components)])
    origin = _canonical_at(planar, pole.components)
    rho = [0.0] * len(c)  # the canonical radius of each wound plane's circle
    for k, radius in radii:
        rho[axes + k - 1] = tr.SQRT3 * abs(radius)
    near = [tr.radius(v) for v in c]
    far = [a + r for a, r in zip(near, rho)]  # the largest |z| on the circle
    _check_overflow(planar, (not math.isfinite(x) for x in far))
    closest = [abs(a - r) for a, r in zip(near, rho)]
    _check_clearance(planar, closest)
    _check_invertible(planar, closest, far)
    total: list = [0.0] * axes + [0j] * (len(c) - axes)
    overflowed = []
    for j, (p, v, r) in enumerate(zip(origin, c, rho)):
        try:
            if r:
                value = total[j] = 1j * _circle_integral(f.canonical_map, p, v, r, count)
            else:
                value = f.canonical_map(complex(p + v))
            overflowed.append(not cmath.isfinite(value))
        except (OverflowError, ValueError):  # cmath's overflow, or its domain error at inf
            overflowed.append(True)
    windings = tuple(int(a < r) for a, r in zip(near[axes:], rho[axes:]))
    return _sum_value(variant, total, overflowed), windings


def _circle_integral(F: ElementwiseMap, pole: complex, c: complex, rho: float,
                     count: int) -> complex:
    """Periodic trapezoid rule for the integral of F(pole + z) (1 - c / z) dt
    over [0, 2 pi), z = c + rho e^(it), on nested subsets of ``count``
    equispaced nodes.

    It starts on the fewest nodes, count / 2^j, that still number at least
    16, and doubles them by adding the nodes in between until two
    successive estimates agree to rounding (8 eps times the summed moduli
    of the terms), an estimate is not finite (no later one would be) or
    all ``count`` nodes are summed.  e^(it) is exactly 1 and -1 at t = 0
    and pi, and every other node is summed with its mirror image, the
    conjugate, so that an integrand symmetric under conjugation sums
    exactly.  From |c| + rho = 2^1020 up, where c / z can overflow
    inside Python's division, the quotient is formed on c and rho scaled
    by a power of two.
    """
    weight = tr.TWO_PI / count
    cs, rs = c, rho
    e = math.frexp(tr.radius(c) + rho)[1]
    if e > 1020:
        cs, rs = tr.scaled(c, -e), math.ldexp(rho, -e)

    def nodes(first: int, stride: int) -> tuple[complex, float]:
        """Sum and summed moduli of the weighted terms at every ``stride``-th node from ``first``."""
        total, size = 0j, 0.0
        for q in range(first, count // 2 + 1, stride):
            if q == 0 or 2 * q == count:
                units = (1.0 if q == 0 else -1.0,)
            else:
                u = complex(math.cos(weight * q), math.sin(weight * q))
                units = (u, u.conjugate())
            pair = 0j
            for u in units:
                term = F(pole + (c + rho * u)) * (1.0 - cs / (cs + rs * u)) * weight
                pair += term
                size += abs(term)
            total += pair
        return total, size

    stride = 1
    while count % (2 * stride) == 0 and count // (2 * stride) >= 16:
        stride *= 2
    total, size = nodes(0, stride)
    while stride > 1 and cmath.isfinite(total):
        stride //= 2
        more, more_size = nodes(stride, 2 * stride)
        previous = total * 2
        total += more
        size += more_size
        if abs(total - previous) <= 8 * _EPS * size:
            break
    return total * stride


def line_integral(f: Evaluator, path: Path) -> HexaNumber:
    """Midpoint-rule integral of f along the sampled polyline."""
    return _midpoint_sum(f, path)


def winding_number(path: Path, u0: HexaNumber, plane: int) -> int:
    """Turns of the path's projection onto plane ``plane`` around u0's projection.

    Each step of the projection's angle is wrapped into (-pi, pi] and the
    steps are summed.  Requires a closed path whose projection keeps a
    positive clearance from the projected point; otherwise
    :class:`DegeneratePathError`.
    """
    if not path.closed:
        raise ValueError("winding numbers need a closed path")
    if u0.variant is not path.variant:
        raise ValueError("point and path variants differ")
    planar = path.variant.is_planar
    xi_row, eta_row = tr.rotation_rows(planar)[tr.plane_slice(planar, plane)]
    angles = []
    for point in path.points:
        offset = [x - c for x, c in zip(point, u0.components)]
        dx, dy = tr.dot(xi_row, offset), tr.dot(eta_row, offset)
        if math.hypot(dx, dy) < _PROJECTION_CLEARANCE:
            raise DegeneratePathError(
                f"projected path touches the projected point in plane {plane}")
        angles.append(math.atan2(dy, dx))
    turn = 0.0
    for a, b in zip(angles, angles[1:]):
        step = b - a
        if step > math.pi:
            step -= tr.TWO_PI
        elif step <= -math.pi:
            step += tr.TWO_PI
        turn += step
    return round(turn / tr.TWO_PI)


class ResidueComparison(NamedTuple):
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

    On a loop made by :func:`circle_path`, an f with a canonical map (as
    every entry of :data:`FUNCTIONS` has) is integrated on the exact circle
    in each plane the loop winds in, by the periodic trapezoid rule on at
    most the loop's N nodes, and a plane's winding number is 1 exactly
    when its circle encloses u0; the loop's samples are not built.  Any
    other path or f takes the midpoint rule on the chords, in the same
    scalar arithmetic, and :func:`winding_number` per plane, on the
    samples.  Every canonical component of u(t) - u0 must stay at least
    1e-6 away from zero along the path; otherwise the quotient approaches
    the non-invertible set and :class:`DegeneratePathError` is raised.
    """
    if not path.closed:
        raise ValueError("residue integrals need a closed path")
    if u0.variant is not path.variant:
        raise ValueError("point and path variants differ")
    variant = path.variant
    planar = variant.is_planar
    if path._circle is not None and getattr(f, "canonical_map", None) is not None:
        numeric, windings = _trapezoid_residue(f, path, u0)
    else:
        numeric = _midpoint_sum(f, path, u0)
        windings = tuple(winding_number(path, u0, k)
                         for k in range(1, tr.pair_count(planar) + 1))
    # sum of w_k ek~: the imaginary unit of each plane, weighted by its winding number
    weight = from_canonical_values(
        variant, [0.0] * tr.axis_count(planar) + [complex(0.0, w) for w in windings])
    formula = f(u0) * weight * (2.0 * math.pi)
    return ResidueComparison(numeric=numeric, formula=formula, windings=windings)
