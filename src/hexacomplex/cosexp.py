"""The twelve cosexponential component functions of e^(h1 y).

Each variant splits the scalar exponential series into six component
functions by residue of the power mod 6: the polar family keeps every
term positive, the planar family alternates sign with each wrap.  Every
function is computable three independent ways (truncated series, closed
form in cosh/cos, finite 6-term exponential sum), which the test suite
plays against each other.  A route that overflows raises DomainError naming y.

The closed forms cancel O(1) terms down to a value of size y^k/k! for
k >= 2 near y = 0, so they lose relative accuracy there (up to ~1e-5 for
k = 5 at |y| < 0.25).  Whole rows of six values -- the CSV tables and
``exp_basis`` -- are therefore evaluated by :func:`_row`: a single pass
over the exponential series for |y| < 2, which uses only +, -, * and /
and so gives the same bits on every IEEE-754 machine, and the closed
forms for |y| >= 2, where they are accurate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TextIO

from . import _transforms as tr
from .algebra import HexaNumber, Variant, basis_mul
from .errors import DomainError

__all__ = [
    "g6",
    "g6_series",
    "g6_sumform",
    "f6",
    "f6_series",
    "f6_sumform",
    "exp_basis",
    "emit_table",
    "table_grid",
    "SERIES_MAX_TERMS",
]

SERIES_MAX_TERMS = 300
_SERIES_REL_FLOOR = 1e-17
_ROW_SERIES_BELOW = 2.0


def _check_index(k: int, low: int = 0, name: str = "cosexponential index") -> None:
    if not (isinstance(k, int) or hasattr(k, "__index__")) or not low <= k <= 5:
        raise ValueError(f"{name} must be an integer in {low}..5, got {k!r}")


def _overflow(call: str, y: float) -> DomainError:
    return DomainError(f"{call} at y={y!r} overflows the double range")


# -- polar family: closed forms ------------------------------------------------

def g6(k: int, y: float) -> float:
    """Polar cosexponential of index k, closed form.

    Accurate for |y| >= 2; for k >= 2 near y = 0 the terms cancel and the
    relative error grows (see the module docstring).
    """
    _check_index(k)
    try:
        ch, sh = math.cosh(y) / 3.0, math.sinh(y) / 3.0
        ch2, sh2 = math.cosh(y / 2.0), math.sinh(y / 2.0)
    except OverflowError:
        raise _overflow(f"g6({k}, y)", y) from None
    c, s = math.cos(tr.SQRT3 * y / 2.0), math.sin(tr.SQRT3 * y / 2.0)
    r3 = tr.SQRT3 / 3.0
    if k == 0:
        return ch + 2.0 / 3.0 * ch2 * c
    if k == 1:
        return sh + sh2 * c / 3.0 + r3 * ch2 * s
    if k == 2:
        return ch - ch2 * c / 3.0 + r3 * sh2 * s
    if k == 3:
        return sh - 2.0 / 3.0 * sh2 * c
    if k == 4:
        return ch - ch2 * c / 3.0 - r3 * sh2 * s
    return sh + sh2 * c / 3.0 - r3 * ch2 * s


# -- planar family: closed forms -----------------------------------------------

def f6(k: int, y: float) -> float:
    """Planar cosexponential of index k, closed form.

    Accurate for |y| >= 2; for k >= 2 near y = 0 the terms cancel and the
    relative error grows (see the module docstring).
    """
    _check_index(k)
    c1, s1 = math.cos(y) / 3.0, math.sin(y) / 3.0
    try:
        ch, sh = math.cosh(tr.SQRT3 * y / 2.0), math.sinh(tr.SQRT3 * y / 2.0)
    except OverflowError:
        raise _overflow(f"f6({k}, y)", y) from None
    c, s = math.cos(y / 2.0), math.sin(y / 2.0)
    r3 = tr.SQRT3 / 3.0
    if k == 0:
        return c1 + 2.0 / 3.0 * ch * c
    if k == 1:
        return s1 + r3 * sh * c + ch * s / 3.0
    if k == 2:
        return -c1 + ch * c / 3.0 + r3 * sh * s
    if k == 3:
        return -s1 + 2.0 / 3.0 * ch * s
    if k == 4:
        return c1 - ch * c / 3.0 + r3 * sh * s
    return s1 - r3 * sh * c + ch * s / 3.0


# -- truncated series ----------------------------------------------------------

def _series(k: int, y: float, max_terms: int, alternating: bool) -> float:
    _check_index(k)
    if not hasattr(max_terms, "__index__") or max_terms < 1:
        raise ValueError(f"max_terms must be an integer of at least 1, got {max_terms!r}")
    term = math.prod((y,) * k) / math.factorial(k)  # y^k by multiplication, not libm pow
    total = term
    n = k
    for _ in range(max_terms - 1):
        if abs(term) < _SERIES_REL_FLOOR * abs(total) or term == 0.0:
            break
        for _ in range(6):
            n += 1
            term *= y / n
        if alternating:
            term = -term
        total += term
    if math.isfinite(y) and not math.isfinite(total):
        raise _overflow(f"{'f6' if alternating else 'g6'}_series({k}, y)", y)
    return total


def g6_series(k: int, y: float, max_terms: int = SERIES_MAX_TERMS) -> float:
    """Polar cosexponential via its power series, truncated."""
    return _series(k, y, max_terms, alternating=False)


def f6_series(k: int, y: float, max_terms: int = SERIES_MAX_TERMS) -> float:
    """Planar cosexponential via its alternating power series, truncated."""
    return _series(k, y, max_terms, alternating=True)


# -- finite exponential sums ---------------------------------------------------

def g6_sumform(k: int, y: float) -> float:
    """Polar cosexponential as the 6-term sum over sixth roots of unity."""
    _check_index(k)
    total = 0.0
    try:
        for l in range(6):
            total += (math.exp(y * tr.cos_pi6(2 * l))
                      * math.cos(y * tr.sin_pi6(2 * l) - math.pi * k * l / 3.0))
    except OverflowError:
        raise _overflow(f"g6_sumform({k}, y)", y) from None
    return total / 6.0


def f6_sumform(k: int, y: float) -> float:
    """Planar cosexponential as the 6-term sum over odd twelfth roots of unity."""
    _check_index(k)
    total = 0.0
    try:
        for l in range(1, 7):
            m = 2 * l - 1
            total += (math.exp(y * tr.cos_pi6(m))
                      * math.cos(y * tr.sin_pi6(m) - math.pi * m * k / 6.0))
    except OverflowError:
        raise _overflow(f"f6_sumform({k}, y)", y) from None
    return total / 6.0


# -- whole rows -----------------------------------------------------------------

def _row(family: str, y: float) -> list[float]:
    """The six cosexponentials of one family ('g' polar, 'f' planar) at y.

    For |y| < 2 one pass over the series of e^y adds term n = y^n/n! to
    component n mod 6 (the planar family flips the sign at each wrap), six
    terms at a time, and stops once the next term is below 1e-17 of
    component 5, the smallest component there.  For |y| >= 2 the closed
    forms are used.
    """
    if not abs(y) < _ROW_SERIES_BELOW:     # NaN too: the series would never stop
        fn = g6 if family == "g" else f6
        return [fn(k, y) for k in range(6)]
    sign = -1.0 if family == "f" else 1.0
    c0 = c1 = c2 = c3 = c4 = c5 = 0.0
    term, n = 1.0, 0
    while True:
        c0 += term
        term = term * y / (n + 1)
        c1 += term
        term = term * y / (n + 2)
        c2 += term
        term = term * y / (n + 3)
        c3 += term
        term = term * y / (n + 4)
        c4 += term
        term = term * y / (n + 5)
        c5 += term
        n += 6
        term = sign * (term * y / n)
        if term == 0.0 or abs(term) < _SERIES_REL_FLOOR * abs(c5):
            return [c0, c1, c2, c3, c4, c5]


# -- exponentials of basis multiples --------------------------------------------

def exp_basis(variant: Variant, k: int, y: float) -> HexaNumber:
    """e^(h_k y) written through cosexponential components, k = 1..5.

    Grouping the series of e^(h_k y) by n mod 6 gives the sum of c_j(y) h_k^j
    for j = 0..5, with c the polar family, or the planar one when h_k^6 = -1
    (planar k odd).  A row that overflows raises :class:`DomainError`
    naming y.
    """
    _check_index(k, 1, "basis index")
    try:
        row = _row("f" if variant.is_planar and k % 2 else "g", y)
    except DomainError:
        raise _overflow(f"e^(h{k} y)", y) from None
    comps = [0.0] * 6
    index, sign = 0, 1  # h_k^j = sign * h[index]
    for value in row:
        comps[index] += sign * value
        index, wrap = basis_mul(index, k, variant)
        sign *= wrap
    return HexaNumber(variant, comps)


# -- CSV emission -----------------------------------------------------------------

_CSV_ROW = ",".join(["%.17g"] * 7) + "\n"


class _Grid(Sequence):
    """The points start + i * step for i in range(count), computed on demand."""

    def __init__(self, start: float, step: float, count: int):
        self._start, self._step, self._indices = start, step, range(count)

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, i: int) -> float:
        return self._start + self._indices[i] * self._step


def table_grid(start: float, stop: float, step: float) -> Sequence[float]:
    """Grid points start, start+step, ... up to stop (inclusive, fp-safe).

    The points are computed when read, so a long grid takes no memory.
    """
    if not step > 0.0:
        raise ValueError("step must be positive")
    points = (stop - start) / step + 1e-9
    if not math.isfinite(points):
        raise ValueError(f"grid {start!r}:{stop!r}:{step!r} has no finite number of points")
    return _Grid(start, step, max(int(math.floor(points)) + 1, 1))


def emit_table(family: str, start: float, stop: float, step: float, out: TextIO) -> None:
    """Write the cosexponential table as CSV with 17 significant digits.

    Rows come from :func:`_row`: the series for |y| < 2, the closed forms
    g6/f6 for |y| >= 2.  Rows grow with |y|, so the row at the end of the
    grid farthest from 0 is computed first: if it overflows, DomainError
    names that y before anything is written.  The rows are then streamed
    one at a time.
    """
    if family not in ("g", "f"):
        raise ValueError("family must be 'g' or 'f'")
    grid = table_grid(start, stop, step)
    widest = max(grid[0], grid[-1], key=abs)
    try:
        finite = all(map(math.isfinite, _row(family, widest)))
    except DomainError:
        finite = False
    if not finite:
        raise _overflow("table row", widest)
    out.write("y,c0,c1,c2,c3,c4,c5\n")
    for y in grid:
        out.write(_CSV_ROW % (y, *_row(family, y)))
