"""Canonical layout and the trigonometric row tables behind the transforms.

This module owns the canonical decomposition's layout: the row order of
the canonical variables (real axes first, then complex planes), how many
of each a variant has, what each component is called, how the flat
tuple in row order maps to the canonical values (one float per axis, one
complex number per plane) and back, and when a component counts as zero.

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
def basis_columns(planar: bool) -> tuple[tuple[float, ...], ...]:
    """Columns of :func:`basis_rows`: entry p of every basis tuple, in row order."""
    # from _rows, not basis_rows, so that calls of basis_rows do not depend on this cache
    return tuple(zip(*_rows(planar, 1.0 / 6.0, 1.0 / 3.0)))


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
# The canonical values of a value have one entry per canonical component in row
# order: a float for each real axis (polar v+, v-; planar none), then the complex
# number vk + i vk~ for each plane (polar two, planar three).  The flat form
# lists the same numbers with each plane as its two real parts.  Axes stay
# floats, so they take the real libm functions.  The names below are the ones
# errors, component polynomials and convergence reports use, in the same order.


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


def as_values(planar: bool, flat) -> tuple:
    """Canonical values from the flat tuple in row order: axes as they are, planes as vk + i vk~."""
    v = flat
    if planar:
        return (complex(v[0], v[1]), complex(v[2], v[3]), complex(v[4], v[5]))
    return (v[0], v[1], complex(v[2], v[3]), complex(v[4], v[5]))


def as_flat(planar: bool, values) -> list[float]:
    """Inverse of :func:`as_values`; an axis keeps the real part of its value."""
    v = values
    if planar:
        return [v[0].real, v[0].imag, v[1].real, v[1].imag, v[2].real, v[2].imag]
    return [v[0].real, v[1].real, v[2].real, v[2].imag, v[3].real, v[3].imag]


def first_zero(planar: bool, values, threshold: float, positive_axes: bool = False) -> str | None:
    """Label of the first canonical value whose magnitude is at most ``threshold``.

    With ``positive_axes`` an axis counts as vanished when its signed value
    is at most ``threshold`` (the domain of ln and the exponential form).
    Magnitudes are :func:`radius`, which neither overflows nor underflows.
    Returns None when no component vanishes.
    """
    signed = axis_count(planar) if positive_axes else 0
    for i, (label, v) in enumerate(zip(component_labels(planar), values)):
        if (v if i < signed else radius(v)) <= threshold:
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
    """|z| of a canonical value, by math.hypot (no overflow or underflow)."""
    return math.hypot(z.real, z.imag)


def quotient(n: complex, d: complex) -> complex:
    """n / d for canonical values, d finite and nonzero, also where Python's division overflows.

    Near the top of the double range Python's complex division overflows in
    its intermediates: 1 / complex(1.5e308, 1.5e308) and
    complex(1e307) / complex(1.5e308, 1e308) are -0j, and
    complex(1.5e308, 1.5e308) / (0.9 + 0.9j) is inf, not 1.67e308.  A finite
    quotient that is nonzero or has n = 0 is kept (an axis stays a float);
    otherwise n and d are each scaled by a power of two to a largest part in
    [0.5, 1), divided there and the quotient scaled back.  A quotient beyond
    the range stays as the plain division gave it.
    """
    q = n / d
    if (q or not n) and math.isfinite(q.real) and math.isfinite(q.imag):
        return q
    en, ed = (math.frexp(max(abs(z.real), abs(z.imag)))[1] for z in (n, d))
    s = (complex(math.ldexp(n.real, -en), math.ldexp(n.imag, -en))
         / complex(math.ldexp(d.real, -ed), math.ldexp(d.imag, -ed)))
    try:
        return complex(math.ldexp(s.real, en - ed), math.ldexp(s.imag, en - ed))
    except OverflowError:
        return q


def azimuth(z: complex) -> float:
    """Angle of a plane value in [0, 2*pi).

    math.atan2, not cmath.phase: phase raises OverflowError when the angle
    underflows, as for 1e300 + 1e-300 i.
    """
    return math.atan2(z.imag, z.real) % TWO_PI
