"""Numerical differentiation and contour integration over the 6-dimensional rings.

Derivatives of analytic functions are direction independent and lock the
36 first partials of the component functions into six equality chains
(with a sign twist on the planar wrap); both facts are checked here by
central finite differences.  Line integrals run over sampled polyline
paths with midpoint quadrature; closed loops pick up 2*pi residues from
the canonical planes only, weighted by per-plane winding numbers.

A path is an (N+1)x6 array of components, made by :func:`circle_path`
or from any such array or sequence of HexaNumbers.  The quadrature
works in canonical coordinates: one transform moves the sampled path to
one complex column per canonical component (the real axes with zero
imaginary part, then the planes vk + i vk~), where the products and
quotients of f(u) (u - u0)^-1 du act column by column, and the sum maps
back once.  The functions in :data:`FUNCTIONS` act there too: each
carries one elementwise map, so f is evaluated on whole arrays of
canonical points.  Any other callable is called once per chord
midpoint, on a HexaNumber.  Memory is O(N): the path, one (N+1)-row
array of canonical offsets and temporaries no larger than it.

A loop made by :func:`circle_path` remembers its centre and radii.  On
such a loop, with an f from :data:`FUNCTIONS`, :func:`residue_integral`
uses the periodic trapezoid rule, which converges geometrically in N,
and only in the planes the loop winds in: every other canonical
component of u - u0 is constant along it, so du is 0 there.  Every
other path and callable, and :func:`line_integral`, use the midpoint
rule on the chords.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple

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

if TYPE_CHECKING:
    import numpy as np

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
# stay near 12-16 kB each whatever the sample count, which keeps peak memory
# at the path itself plus one array of canonical offsets.
_BLOCK = 256

Evaluator = Callable[[HexaNumber], HexaNumber]
ElementwiseMap = Callable[["np.ndarray"], "np.ndarray"]


def _blocks(n: int) -> Iterable[tuple[int, int]]:
    """Consecutive row ranges [lo, hi) covering range(n)."""
    return ((lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


class _Rows(Sequence):
    """The rows of a component array as HexaNumbers, each built when it is read."""

    def __init__(self, variant: Variant, points: np.ndarray):
        self._variant = variant
        self._points = points

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, index):
        rows = self._points[index].tolist()
        if isinstance(index, slice):
            return [HexaNumber(self._variant, row) for row in rows]
        return HexaNumber(self._variant, rows)


class Path(Frozen):
    """Sampled polyline path; closed paths repeat the first sample last.

    ``points`` holds the components of the samples, one read-only row of
    six finite floats per sample; ``samples`` reads those rows as
    HexaNumbers.  A path is built from either form and compares by
    identity.  Samples that are not finite raise :class:`DomainError`.
    A loop made by :func:`circle_path` also keeps its centre and radii in
    ``_circle``; any other path has None there.
    """

    __slots__ = ("variant", "points", "closed", "_circle")
    variant: Variant
    points: np.ndarray
    closed: bool
    _circle: tuple[HexaNumber, tuple[tuple[int, float], ...]] | None

    def __init__(self, variant: Variant, samples: Iterable[HexaNumber] | np.ndarray,
                 closed: bool):
        import numpy as np

        if isinstance(samples, np.ndarray):
            points = np.array(samples, dtype=np.float64)
        else:
            samples = tuple(samples)
            for s in samples:
                if s.variant is not variant:
                    raise ValueError("path sample variant mismatch")
            points = np.array([s.components for s in samples], dtype=np.float64).reshape(-1, 6)
        if points.ndim != 2 or points.shape[1] != 6:
            raise ValueError(f"path samples need 6 components each, got shape {points.shape}")
        if len(points) < 3:
            raise ValueError("a path needs at least three samples")
        if not np.isfinite(points).all():
            raise DomainError("path samples must be finite")
        if closed and not np.array_equal(points[0], points[-1]):
            raise ValueError("closed paths must repeat the first sample exactly")
        points.flags.writeable = False
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "_circle", None)

    @property
    def samples(self) -> Sequence[HexaNumber]:
        return _Rows(self.variant, self.points)

    def length(self) -> float:
        import numpy as np

        return float(np.hypot.reduce(np.diff(self.points, axis=0), axis=1).sum())


def circle_path(variant: Variant, center: HexaNumber, radii: Mapping[int, float],
                samples: int) -> Path:
    """Closed loop tracing circles in one or more canonical planes.

    ``radii`` maps each plane k to its radius.  The projections onto those
    (xi_k, eta_k) planes are circles around the projections of ``center``;
    every other rotated coordinate stays constant.
    """
    if samples < 8:
        raise ValueError("need at least 8 samples for a circle")
    import numpy as np

    rows = tr.rotation_rows(variant.is_planar)
    t = 2.0 * np.pi * np.arange(samples) / samples
    points = np.empty((samples + 1, 6))
    loop = points[:-1]
    loop[:] = center.components
    with np.errstate(over="ignore"):  # Path rejects a sample that overflows
        for k, radius in radii.items():
            xi_row, eta_row = rows[tr.plane_slice(variant.is_planar, k)]
            loop += np.outer(radius * np.cos(t), xi_row)
            loop += np.outer(radius * np.sin(t), eta_row)
    points[-1] = points[0]
    path = Path(variant, points, closed=True)
    object.__setattr__(path, "_circle", (center, tuple(radii.items())))
    return path


class FunctionUnderTest(Frozen):
    """A deterministic map u -> f(u), compared by identity.

    ``canonical_map``, when given, computes f in canonical coordinates,
    elementwise on one complex128 array of canonical components: the real
    axes with zero imaginary part and the planes vk + i vk~.  Quadrature
    then evaluates f on whole blocks of points through it.
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


def _fn_one(u: HexaNumber) -> HexaNumber:
    return HexaNumber.one(u.variant)


def _numpy_map(name: str) -> ElementwiseMap:
    """numpy's elementwise function ``name``, looked up on each call so that
    building :data:`FUNCTIONS` does not import numpy."""

    def mapped(values):
        import numpy as np

        return getattr(np, name)(values)

    return mapped


def _polynomial(name: str, evaluator: Evaluator) -> FunctionUnderTest:
    """A product of u's, which is its own canonical map: products act per component."""
    return FunctionUnderTest(name, evaluator, canonical_map=evaluator)


FUNCTIONS: dict[str, FunctionUnderTest] = {f.name: f for f in (
    FunctionUnderTest("one", _fn_one, canonical_map=_numpy_map("ones_like")),
    _polynomial("u", lambda u: u),
    _polynomial("u2", lambda u: u * u),
    _polynomial("u3", lambda u: u * u * u),
    *(FunctionUnderTest(name, getattr(elementary, name), canonical_map=_numpy_map(name))
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


def _canonical(x: np.ndarray, planar: bool) -> np.ndarray:
    """Canonical components of each row of x: one complex128 column per component.

    Column j is component ``tr.component_labels(planar)[j]``: the real axes
    first, with zero imaginary part, then the planes vk + i vk~.
    """
    import numpy as np

    c = np.einsum("ij,kj->ik", x, tr.canonical_rows(planar))
    axes = tr.axis_count(planar)
    return np.hstack((c[:, :axes], c[:, axes:].view(np.complex128)))


def _first_label(hits: np.ndarray, planar: bool) -> str | None:
    """Label of the first hit, row by row, in a boolean array with one column per component.

    Components are named v+, v- and pair1, pair2, ... as in ZeroDivisorError.
    """
    import numpy as np

    if not hits.any():
        return None
    return tr.component_labels(planar)[np.argwhere(hits)[0][1]]


def _called(f: Evaluator, x: np.ndarray, variant: Variant) -> np.ndarray:
    """Canonical components of f on each row of a component array, one HexaNumber per row."""
    import numpy as np

    values = np.empty_like(x)
    for i, point in enumerate(x.tolist()):
        value = f(HexaNumber(variant, point))
        if value.variant is not variant:
            raise VariantError(f"integrand returned a {value.variant.value} value "
                               f"on a {variant.value} path")
        values[i] = value.components
    return _canonical(values, variant.is_planar)


def _offsets(path: Path, pole: HexaNumber | None) -> np.ndarray:
    """Canonical offsets of the samples from the pole (or from zero), one row per sample.

    An offset that is not finite raises :class:`DomainError`; with a pole,
    a sample within 1e-6 of it in some canonical component raises
    :class:`DegeneratePathError`.  Both name the first such component.
    """
    import numpy as np

    planar = path.variant.is_planar
    offsets = _canonical(path.points if pole is None else path.points - pole.components, planar)
    label = _first_label(~np.isfinite(offsets), planar)
    if label:
        raise DomainError(f"path overflows: its canonical component {label} is not finite",
                          component=label)
    if pole is not None:
        label = _first_label(np.abs(offsets) < _PATH_CLEARANCE, planar)
        if label:
            raise DegeneratePathError(
                f"path canonical component {label} comes within {_PATH_CLEARANCE} of zero")
    return offsets


def _require_invertible(offsets: np.ndarray, planar: bool) -> None:
    """Raise :class:`ZeroDivisorError` for the first row of canonical offsets
    with a component that is zero relative to the row's modulus."""
    import numpy as np

    # |u| is the hypot (no overflow or underflow) of |v| / sqrt6 on the axes and
    # |v| / sqrt3 on the planes, the norms of the orthogonal canonical rows.
    norms = np.array([tr.SQRT6] * tr.axis_count(planar) + [tr.SQRT3] * tr.pair_count(planar))
    radii = np.abs(offsets)
    # column by column: numpy's hypot.reduce along a row of 3 or 4 is far slower
    moduli = functools.reduce(np.hypot, (radii / norms).T)
    label = _first_label(radii <= ZERO_COMPONENT_RTOL * moduli[:, None], planar)
    if label:
        raise ZeroDivisorError(label)


def _sum_value(variant: Variant, total: np.ndarray, overflowed: np.ndarray) -> HexaNumber:
    """The value with canonical components ``total``, unless a component overflowed.

    :class:`DomainError` names the first canonical component flagged in
    ``overflowed``.
    """
    label = _first_label(overflowed.reshape(1, -1), variant.is_planar)
    if label:
        raise DomainError(f"integrand overflows: canonical component {label} of the sum "
                          f"is not finite", component=label)
    return from_canonical_values(variant, total)


def _midpoint_sum(f: Evaluator, path: Path, pole: HexaNumber | None = None) -> HexaNumber:
    """Midpoint rule on the chords of ``path``, summed in canonical coordinates.

    Each chord contributes F(mid) * delta, divided by mid - pole when a pole
    is given, on one complex column per canonical component.  An f with a
    canonical map is evaluated on whole blocks of canonical midpoints; any
    other f is called on each midpoint.  The offsets of the samples are
    checked by :func:`_offsets` before f is called; with a pole, a chord
    midpoint that is a zero divisor of u - pole raises
    :class:`ZeroDivisorError` before f is called on its block of chords.
    A sum that is not finite, as when f overflows, raises
    :class:`DomainError` naming the first such canonical component.
    """
    import numpy as np

    variant = path.variant
    planar = variant.is_planar
    points = path.points
    mapped = getattr(f, "canonical_map", None) is not None
    # One path-sized array, the canonical offsets of the samples from the
    # pole (or from zero); everything else works in blocks of chords.
    offsets = _offsets(path, pole)
    origin = 0.0 if pole is None else _canonical(np.reshape(pole.components, (1, 6)), planar)
    total = np.zeros(offsets.shape[1], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _blocks(len(offsets) - 1):
            ends = offsets[lo:hi + 1]
            weights = ends[1:] - ends[:-1]
            mids = ends[1:] + ends[:-1]  # canonical chord midpoints, offset from the pole
            mids *= 0.5
            if pole is not None:
                _require_invertible(mids, planar)
                weights /= mids
            if mapped:
                terms = f.canonical_map(mids + origin)
            else:
                x = points[lo:hi] + points[lo + 1:hi + 1]
                x *= 0.5
                terms = _called(f, x, variant)
            total += (terms * weights).sum(axis=0)
    return _sum_value(variant, total, ~np.isfinite(total))


def _trapezoid_residue(f: FunctionUnderTest, path: Path,
                       pole: HexaNumber) -> tuple[HexaNumber, tuple[int, ...]]:
    """Periodic trapezoid rule for f(u)/(u - pole) du on a :func:`circle_path`
    loop, with the loop's winding numbers around the pole.

    Along the loop, the canonical offset z of u from the pole is c + r e^(it)
    in each plane the loop winds in, where c is the centre's offset, and is
    constant in every other component.  So du is i (z - c) dt in a wound
    plane and 0 elsewhere, and a wound plane's integral over the N nodes is
    (2 pi i / N) * sum of F(pole + z) (1 - c / z).  (Not (z - c) / z: numpy's
    complex division of two values near 1e308 overflows.)  F is still
    evaluated once on every constant component, so one that overflows
    raises the :class:`DomainError` of :func:`_midpoint_sum`.  The offsets
    are checked as there, and the zero-divisor test runs at the nodes.  The
    winding numbers are the turns of each plane's offsets around 0.
    """
    import numpy as np

    variant = path.variant
    planar = variant.is_planar
    axes = tr.axis_count(planar)
    center, radii = path._circle
    offsets = _offsets(path, pole)  # the last row repeats the first
    nodes = offsets[:-1]
    _require_invertible(nodes, planar)
    wound = [axes + k - 1 for k, radius in radii if radius]
    origin = _canonical(np.reshape(pole.components, (1, 6)), planar)[0]
    c = _canonical(np.subtract(center.components, pole.components).reshape(1, 6), planar)[0]
    total = np.zeros(len(origin), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        z = nodes[:, wound]
        weights = (1.0 - c[wound] / z) * (tr.TWO_PI / len(nodes))
        total[wound] = 1j * (f.canonical_map(z + origin[wound]) * weights).sum(axis=0)
        at_node = f.canonical_map(nodes[0] + origin)
    numeric = _sum_value(variant, total, ~(np.isfinite(total) & np.isfinite(at_node)))
    return numeric, _turns(np.angle(offsets[:, axes:]))


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
    import numpy as np

    planar = path.variant.is_planar
    rows = tr.rotation_rows(planar)[tr.plane_slice(planar, plane)]
    dx, dy = np.einsum("ij,kj->ki", path.points - u0.components, rows)
    if (np.hypot(dx, dy) < _PROJECTION_CLEARANCE).any():
        raise DegeneratePathError(
            f"projected path touches the projected point in plane {plane}")
    return _turns(np.arctan2(dy, dx)[:, None])[0]


def _turns(angles: np.ndarray) -> tuple[int, ...]:
    """Whole turns in each column of angles along a closed loop's samples,
    the last row repeating the first: each step is wrapped into (-pi, pi]."""
    import numpy as np

    delta = np.diff(angles, axis=0)
    delta[delta > math.pi] -= tr.TWO_PI
    delta[delta <= -math.pi] += tr.TWO_PI
    return tuple(round(float(s) / tr.TWO_PI) for s in delta.sum(axis=0))


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
    every entry of :data:`FUNCTIONS` has) is integrated by the periodic
    trapezoid rule in the planes the loop winds in, and the windings are
    read from the same canonical offsets.  Any other path or f takes the
    midpoint rule on the chords and :func:`winding_number` per plane.
    Every canonical component of u(t) - u0 must stay at least 1e-6 away
    from zero along the sampled path; otherwise the quotient approaches
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
