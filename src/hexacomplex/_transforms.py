"""Trigonometric row tables behind the canonical and rotated transforms.

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


def _scaled(row, s):
    return tuple(v * s for v in row)


@cache
def canonical_rows(planar: bool) -> tuple[tuple[float, ...], ...]:
    """Rows mapping components to canonical variables.

    Polar order: v+, v-, v1, v1~, v2, v2~.  Planar order: v1, v1~, ..., v3~.
    """
    rows: list[tuple[float, ...]] = []
    if not planar:
        rows.append(PLUS_ROW)
        rows.append(MINUS_ROW)
    for k in range(1, pair_count(planar) + 1):
        cos_row, sin_row = pair_rows(planar, k)
        rows.append(cos_row)
        rows.append(sin_row)
    return tuple(rows)


@cache
def basis_rows(planar: bool) -> tuple[tuple[float, ...], ...]:
    """Component tuples of the canonical basis, same ordering as canonical_rows.

    Polar: e+, e-, e1, e1~, e2, e2~ with e+/e- scaled by 1/6 and pairs by 1/3.
    Planar: e1, e1~, e2, e2~, e3, e3~ scaled by 1/3.
    """
    rows: list[tuple[float, ...]] = []
    if not planar:
        rows.append(_scaled(PLUS_ROW, 1.0 / 6.0))
        rows.append(_scaled(MINUS_ROW, 1.0 / 6.0))
    for k in range(1, pair_count(planar) + 1):
        cos_row, sin_row = pair_rows(planar, k)
        rows.append(_scaled(cos_row, 1.0 / 3.0))
        rows.append(_scaled(sin_row, 1.0 / 3.0))
    return tuple(rows)


@cache
def rotation_rows(planar: bool) -> tuple[tuple[float, ...], ...]:
    """Rows of the orthogonal matrix onto the rotated axes.

    Polar order: xi+, xi-, xi1, eta1, xi2, eta2; planar: xi1, eta1, ..., eta3.
    """
    rows: list[tuple[float, ...]] = []
    if not planar:
        rows.append(_scaled(PLUS_ROW, 1.0 / SQRT6))
        rows.append(_scaled(MINUS_ROW, 1.0 / SQRT6))
    for k in range(1, pair_count(planar) + 1):
        cos_row, sin_row = pair_rows(planar, k)
        rows.append(_scaled(cos_row, 1.0 / SQRT3))
        rows.append(_scaled(sin_row, 1.0 / SQRT3))
    return tuple(rows)


def dot(row: tuple[float, ...], values) -> float:
    return (row[0] * values[0] + row[1] * values[1] + row[2] * values[2]
            + row[3] * values[3] + row[4] * values[4] + row[5] * values[5])
