"""Canonical layout and the trigonometric row tables behind the transforms.

This module owns the canonical decomposition's layout: the row order of
the canonical variables (real axes first, then complex planes), how many
of each a variant has, what each component is called, how a tuple in row
order splits into axes and planes, and when a component counts as zero.

Every linear map used by the library (canonical variables, orthonormal
rotated axes, idempotent basis) has entries drawn from cos/sin of
multiples of pi/6.  Building the rows from one exact lookup table keeps
the matrices bit-identical to their closed forms and keeps round trips
at the double-precision floor.  The row tables are constant per
variant, so each is built once and shared as an immutable tuple.
"""

from __future__ import annotations

import math
from functools import cache

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)
TWO_PI = 2.0 * math.pi

# cos(n*pi/6) for n = 0..11; sin(n*pi/6) = cos((n-3)*pi/6)
_COS_TABLE = (
    1.0, SQRT3 / 2.0, 0.5, 0.0, -0.5, -SQRT3 / 2.0,
    -1.0, -SQRT3 / 2.0, -0.5, 0.0, 0.5, SQRT3 / 2.0,
)


def cos_pi6(n: int) -> float:
    return _COS_TABLE[n % 12]


def sin_pi6(n: int) -> float:
    return _COS_TABLE[(n - 3) % 12]


def pair_angle_step(planar: bool, k: int) -> int:
    """Multiplier m such that pair k projects with angles m*p*pi/6."""
    return (2 * k - 1) if planar else 2 * k


def pair_count(planar: bool) -> int:
    return 3 if planar else 2


def pair_rows(planar: bool, k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Cosine and sine rows of canonical pair k (unnormalized)."""
    m = pair_angle_step(planar, k)
    cos_row = tuple(cos_pi6(m * p) for p in range(6))
    sin_row = tuple(sin_pi6(m * p) for p in range(6))
    return cos_row, sin_row


PLUS_ROW = (1.0,) * 6
MINUS_ROW = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)


def _rows(planar: bool, axis_scale: float, pair_scale: float) -> tuple[tuple[float, ...], ...]:
    rows = [tuple(v * axis_scale for v in row) for row in (PLUS_ROW, MINUS_ROW)]
    del rows[axis_count(planar):]
    for k in range(1, pair_count(planar) + 1):
        rows.extend(tuple(v * pair_scale for v in row) for row in pair_rows(planar, k))
    return tuple(rows)


@cache
def canonical_rows(planar: bool) -> tuple[tuple[float, ...], ...]:
    """Rows mapping components to canonical variables.

    Polar order: v+, v-, v1, v1~, v2, v2~.  Planar order: v1, v1~, ..., v3~.
    """
    return _rows(planar, 1.0, 1.0)


@cache
def basis_rows(planar: bool) -> tuple[tuple[float, ...], ...]:
    """Component tuples of the canonical basis, same ordering as canonical_rows.

    Polar: e+, e-, e1, e1~, e2, e2~ with e+/e- scaled by 1/6 and pairs by 1/3.
    Planar: e1, e1~, e2, e2~, e3, e3~ scaled by 1/3.
    """
    return _rows(planar, 1.0 / 6.0, 1.0 / 3.0)


@cache
def rotation_rows(planar: bool) -> tuple[tuple[float, ...], ...]:
    """Rows of the orthogonal matrix onto the rotated axes.

    Polar order: xi+, xi-, xi1, eta1, xi2, eta2; planar: xi1, eta1, ..., eta3.
    """
    return _rows(planar, 1.0 / SQRT6, 1.0 / SQRT3)


def dot(row: tuple[float, ...], values) -> float:
    return (row[0] * values[0] + row[1] * values[1] + row[2] * values[2]
            + row[3] * values[3] + row[4] * values[4] + row[5] * values[5])


# -- canonical layout: real axes first, then complex planes ---------------------
#
# Every tuple in canonical row order splits into the real axes (polar v+, v-;
# planar none) and the complex planes vk + i vk~ (polar two, planar three).
# The names below are the ones errors, component polynomials and convergence
# reports use; they follow the same order.


def axis_count(planar: bool) -> int:
    """Number of real axes ahead of the planes in canonical row order."""
    return 0 if planar else 2


def _pair_names(planar: bool) -> tuple[str, ...]:
    return tuple(f"pair{k}" for k in range(1, pair_count(planar) + 1))


@cache
def component_labels(planar: bool) -> tuple[str, ...]:
    """Names of the canonical components as errors report them: v+, v-, pair1, ..."""
    return ("v+", "v-")[:axis_count(planar)] + _pair_names(planar)


@cache
def component_tags(planar: bool) -> tuple[str, ...]:
    """Names of the components in series and polynomial reports: plus, minus, pair1, ..."""
    return ("plus", "minus")[:axis_count(planar)] + _pair_names(planar)


def split(planar: bool, values) -> tuple[tuple[float, ...], tuple[complex, ...]]:
    """Canonical values in row order as (real axes, complex planes)."""
    v = values
    if planar:
        return (), (complex(v[0], v[1]), complex(v[2], v[3]), complex(v[4], v[5]))
    return (v[0], v[1]), (complex(v[2], v[3]), complex(v[4], v[5]))


def join(axes, planes) -> list[float]:
    """Inverse of :func:`split`: axis values, then each plane's real and imaginary part."""
    out = list(axes)
    for z in planes:
        out.append(z.real)
        out.append(z.imag)
    return out


def first_zero(planar: bool, values, threshold: float, positive_axes: bool = False) -> str | None:
    """Label of the first canonical component whose magnitude is at most ``threshold``.

    With ``positive_axes`` an axis counts as vanished when its signed value
    is at most ``threshold`` (the domain of ln and the exponential form).
    Plane magnitudes are math.hypot(vk, vk~), which neither overflows nor
    underflows.  Returns None when no component vanishes.
    """
    a = axis_count(planar)
    labels = component_labels(planar)
    for label, v in zip(labels, values[:a]):
        if (v if positive_axes else abs(v)) <= threshold:
            return label
    for label, v, t in zip(labels[a:], values[a::2], values[a + 1::2]):
        if math.hypot(v, t) <= threshold:
            return label
    return None


def vanished(label: str) -> str:
    """How component ``label`` leaves the domain of ln and the exponential form."""
    if label.startswith("pair"):
        return f"plane radius rho{label[4:]} vanishes"
    return f"{label} is not positive"


def component_slices(planar: bool) -> tuple[slice, ...]:
    """Positions of each canonical component in row order: one per axis, two per plane."""
    a = axis_count(planar)
    return tuple(slice(i, i + 1) for i in range(a)) + tuple(slice(i, i + 2) for i in range(a, 6, 2))


def plane_slice(planar: bool, k: int) -> slice:
    """Positions of plane k (1-based) in canonical row order."""
    if not 1 <= k <= pair_count(planar):
        raise ValueError(f"plane index {k} out of range")
    return component_slices(planar)[axis_count(planar) + k - 1]


def radius(z: complex) -> float:
    """Radius of a plane value, by math.hypot (no overflow or underflow)."""
    return math.hypot(z.real, z.imag)


def azimuth(z: complex) -> float:
    """Angle of a plane value in [0, 2*pi).

    math.atan2, not cmath.phase: phase raises OverflowError when the angle
    underflows, as for 1e300 + 1e-300 i.
    """
    return math.atan2(z.imag, z.real) % TWO_PI
