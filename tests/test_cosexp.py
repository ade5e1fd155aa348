"""Cosexponential functions: three-route agreement and the identity ledger."""

from __future__ import annotations

import functools
import io
import math
import pathlib
import random
import re
import sys

import pytest

from conftest import assert_hexa_close, max_abs_diff
from hexacomplex import elementary
from hexacomplex.algebra import HexaNumber, Variant
from hexacomplex.cosexp import (
    emit_table,
    exp_basis,
    f6,
    f6_series,
    f6_sumform,
    g6,
    g6_series,
    g6_sumform,
    table_grid,
)
from hexacomplex.errors import DomainError

GRID = [x * 0.25 for x in range(-40, 41)]
GOLDEN = pathlib.Path(__file__).parent / "golden"


def complex_series_g(k: int, y: complex, terms: int = 80) -> complex:
    """Test-side oracle: the polar series evaluated at a complex argument."""
    term = y ** k / math.factorial(k)
    total = term
    n = k
    for _ in range(terms):
        for _ in range(6):
            n += 1
            term *= y / n
        total += term
    return total


def series_3d(k: int, y: float, alternating: bool, terms: int = 60) -> float:
    """Test-side oracle: 3-component cosexponentials (period-3 splitting)."""
    term = y ** k / math.factorial(k)
    total = term
    n = k
    for _ in range(terms):
        for _ in range(3):
            n += 1
            term *= y / n
        if alternating:
            term = -term
        total += term
    return total


def test_values_at_zero():
    for fn in (g6, g6_series, g6_sumform, f6, f6_series, f6_sumform):
        assert fn(0, 0.0) == pytest.approx(1.0, abs=1e-15)
        for k in range(1, 6):
            assert fn(k, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_polar_sum_identities():
    for y in GRID:
        tol = 1e-11 * max(1.0, math.exp(abs(y)))
        assert abs(sum(g6(k, y) for k in range(6)) - math.exp(y)) <= tol
        assert abs(sum((-1) ** k * g6(k, y) for k in range(6)) - math.exp(-y)) <= tol


ROUTES = {"g": (g6_series, g6, g6_sumform), "f": (f6_series, f6, f6_sumform)}


def test_triple_method_agreement():
    for y in GRID:
        tol = 1e-11 * max(1.0, math.exp(abs(y)))
        for k in range(6):
            for routes in ROUTES.values():
                values = [route(k, y) for route in routes]
                assert max(values) - min(values) <= tol


def test_series_first_term():
    for y in (0.0, 0.5, -2.0):
        assert g6_series(1, y, 1) == y
    assert g6_series(2, 3.0, 1) == 4.5


def test_parity():
    for y in (0.3, 1.7, 4.0):
        for k in range(6):
            sign = 1.0 if k % 2 == 0 else -1.0
            assert g6(k, -y) == pytest.approx(sign * g6(k, y), rel=1e-12, abs=1e-14)
            assert f6(k, -y) == pytest.approx(sign * f6(k, y), rel=1e-12, abs=1e-14)
            assert g6_series(k, -y) == pytest.approx(sign * g6_series(k, y), rel=1e-12, abs=1e-14)


def test_sum_of_squares_identities():
    for y in GRID:
        polar = sum(g6(k, y) ** 2 for k in range(6))
        expected = math.cosh(2.0 * y) / 3.0 + 2.0 / 3.0 * math.cosh(y)
        assert abs(polar - expected) <= 1e-11 * max(1.0, expected)

        planar = sum(f6(k, y) ** 2 for k in range(6))
        expected = 1.0 / 3.0 + 2.0 / 3.0 * math.cosh(math.sqrt(3.0) * y)
        assert abs(planar - expected) <= 1e-11 * max(1.0, expected)


def test_sumform_squares_at_one():
    total = sum(g6_sumform(k, 1.0) ** 2 for k in range(6))
    assert total == pytest.approx(math.cosh(2.0) / 3.0 + 2.0 / 3.0 * math.cosh(1.0), rel=1e-12)


def test_addition_theorems():
    grid = [-5.0 + 10.0 * i / 19 for i in range(20)]
    for y in grid:
        gy = [g6(i, y) for i in range(6)]
        fy = [f6(i, y) for i in range(6)]
        for z in grid:
            gz = [g6(j, z) for j in range(6)]
            fz = [f6(j, z) for j in range(6)]
            tol = 1e-11 * max(1.0, math.exp(abs(y)) * math.exp(abs(z)))
            for k in range(6):
                polar = sum(gy[i] * gz[(k - i) % 6] for i in range(6))
                assert abs(polar - g6(k, y + z)) <= tol
                planar = sum((fy[i] * fz[(k - i) % 6]) * (1.0 if i <= k else -1.0)
                             for i in range(6))
                assert abs(planar - f6(k, y + z)) <= tol


def test_derivative_chain_series_shift_exact():
    # d/dy y^n/n! = y^(n-1)/(n-1)! exactly because n! = n (n-1)! over the integers
    for n in range(1, 60):
        assert math.factorial(n) == n * math.factorial(n - 1)
    # partial sums with matched truncation agree exactly, planar signs included
    for y in (0.7, -1.3):
        for terms in (5, 12):
            # d g60 -> g65: sum_{p>=1} y^(6p-1)/(6p-1)! vs g65 partial
            lhs = sum(y ** (6 * p - 1) / math.factorial(6 * p - 1)
                      for p in range(1, terms + 1))
            rhs = sum(y ** (5 + 6 * q) / math.factorial(5 + 6 * q)
                      for q in range(terms))
            assert lhs == rhs
            # d f60 -> -f65 with the (-1)^p alternation shifted by one
            lhs = sum((-1) ** p * y ** (6 * p - 1) / math.factorial(6 * p - 1)
                      for p in range(1, terms + 1))
            rhs = -sum((-1) ** q * y ** (5 + 6 * q) / math.factorial(5 + 6 * q)
                       for q in range(terms))
            assert lhs == rhs


def test_derivative_chain_finite_differences():
    h = 1e-5
    for y in [x * 0.5 for x in range(-8, 9)]:
        for k in range(6):
            dg = (g6(k, y + h) - g6(k, y - h)) / (2.0 * h)
            expected = g6((k - 1) % 6, y) if k >= 1 else g6(5, y)
            assert abs(dg - expected) <= 1e-8 * max(1.0, abs(expected))

            df = (f6(k, y + h) - f6(k, y - h)) / (2.0 * h)
            expected = f6(k - 1, y) if k >= 1 else -f6(5, y)
            assert abs(df - expected) <= 1e-8 * max(1.0, abs(expected))


@pytest.mark.parametrize("variant", (Variant.POLAR, Variant.PLANAR))
def test_power_identities(variant):
    for k in range(1, 6):
        for y in (0.3, 1.0):
            for power in (2, 3, 4):
                lhs = exp_basis(variant, k, y) ** power
                rhs = exp_basis(variant, k, power * y)
                assert max_abs_diff(lhs, rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_exp_basis_h3():
    for y in (0.0, 0.8, -2.0):
        polar = exp_basis(Variant.POLAR, 3, y)
        assert polar.components[0] == pytest.approx(math.cosh(y), rel=1e-12)
        assert polar.components[3] == pytest.approx(math.sinh(y), rel=1e-12, abs=1e-12)
        assert all(abs(polar.components[i]) < 1e-12 for i in (1, 2, 4, 5))

        planar = exp_basis(Variant.PLANAR, 3, y)
        assert planar.components[0] == pytest.approx(math.cos(y), rel=1e-12, abs=1e-12)
        assert planar.components[3] == pytest.approx(math.sin(y), rel=1e-12, abs=1e-12)


def test_exp_basis_at_zero_and_against_exp():
    for variant in (Variant.POLAR, Variant.PLANAR):
        for k in range(1, 6):
            assert_hexa_close(exp_basis(variant, k, 0.0), HexaNumber.one(variant), 1e-15)
            for y in (-1.5, 0.4, 2.0):
                direct = elementary.exp(HexaNumber.basis(variant, k) * y)
                assert max_abs_diff(exp_basis(variant, k, y), direct) <= 1e-11 * max(
                    1.0, abs(direct))


_BAD_INDEX = "index must be an integer in [01]..5"
_BAD_TERMS = "max_terms must be an integer of at least 1"


@pytest.mark.parametrize("call, message", [
    (lambda: g6(2.5, 1.0), _BAD_INDEX), (lambda: f6(4.2, 1.0), _BAD_INDEX),
    (lambda: g6(2.0, 1.0), _BAD_INDEX), (lambda: f6(6, 1.0), _BAD_INDEX),
    (lambda: g6_series(2.5, 1.0), _BAD_INDEX), (lambda: f6_series(-1, 1.0), _BAD_INDEX),
    (lambda: g6_sumform(2.5, 1.0), _BAD_INDEX), (lambda: f6_sumform(4.2, 1.0), _BAD_INDEX),
    (lambda: exp_basis(Variant.POLAR, 2.5, 1.0), _BAD_INDEX),
    (lambda: exp_basis(Variant.PLANAR, 0, 1.0), _BAD_INDEX),
    (lambda: g6_series(1, 1.0, max_terms=2.5), _BAD_TERMS),
    (lambda: f6_series(1, 1.0, max_terms=0), _BAD_TERMS),
    (lambda: table_grid(0.0, 1e300, 1e-300), "has no finite number of points"),
    (lambda: table_grid(math.nan, 1.0, 0.5), "has no finite number of points"),
    (lambda: table_grid(0.0, 1.0, math.nan), "step must be positive"),
], ids=["g6", "f6", "g6-float", "f6-6", "g6_series", "f6_series-neg", "g6_sumform",
        "f6_sumform", "exp_basis", "exp_basis-0", "g6_series-terms-2.5", "f6_series-terms-0",
        "table_grid-1e600-points", "table_grid-nan-start", "table_grid-nan-step"])
def test_index_must_be_an_integer_in_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, y", [
    *(pytest.param(functools.partial(exp_basis, variant, k, y), y, id=f"{variant}-{k}-{y}")
      for variant, k, y in [(Variant.POLAR, 1, 710.6), (Variant.POLAR, 1, -710.6),
                            (Variant.POLAR, 4, 1e300), (Variant.PLANAR, 1, 1e6),
                            (Variant.PLANAR, 2, -800.0)]),
    *(pytest.param(functools.partial(fn, 1, y), y, id=f"{fn.__name__}-{y}")
      for fn in (g6, f6, g6_sumform, f6_sumform, g6_series, f6_series)
      for y in (1e300, -1e300)),
])
def test_exp_basis_overflow_names_y(call, y):
    with pytest.raises(DomainError, match=re.escape(f"at y={y!r} overflows")):
        call()


def test_exp_basis_rejects_nan():
    # a NaN row falls through to the closed forms, and the constructor rejects it
    for variant in (Variant.POLAR, Variant.PLANAR):
        with pytest.raises(ValueError, match="not finite"):
            exp_basis(variant, 1, math.nan)


def test_planar_from_polar_complex_argument():
    for y in [x * 0.5 for x in range(-6, 7)]:
        for k in range(6):
            rotated = cmath_exp_factor(k, 2) * complex_series_g(k, 1j * y)
            assert abs(rotated.imag) <= 1e-10 * max(1.0, abs(rotated))
            assert f6(k, y) == pytest.approx(rotated.real, rel=1e-10, abs=1e-11)


def test_planar_from_polar_rotated_argument():
    # the second bridge: f(y) from g at the argument rotated by a twelfth root
    import cmath
    for y in (0.0, 0.7, -1.4, 2.1):
        for k in range(6):
            rotated = cmath_exp_factor(k, 6) * complex_series_g(k, cmath.exp(1j * math.pi / 6) * y)
            assert abs(rotated.imag) <= 1e-10 * max(1.0, abs(rotated))
            assert f6(k, y) == pytest.approx(rotated.real, rel=1e-10, abs=1e-11)


def cmath_exp_factor(k: int, denominator: int) -> complex:
    import cmath
    return cmath.exp(-1j * math.pi * k / denominator)


def test_three_dimensional_reductions():
    for y in [x * 0.5 for x in range(-6, 7)]:
        g = [g6(i, y) for i in range(6)]
        f = [f6(i, y) for i in range(6)]
        # polar e^(h2 y) lives in the {1, h2, h4} subring with period-3 sums
        for k in range(3):
            assert g[k] + g[k + 3] == pytest.approx(series_3d(k, y, alternating=False),
                                                    rel=1e-11, abs=1e-12)
        # planar e^(h2 y): h2 cubes to -1, giving the alternating period-3 sums
        for k in range(3):
            assert g[k] - g[k + 3] == pytest.approx(series_3d(k, y, alternating=True),
                                                    rel=1e-11, abs=1e-12)
        # polar h3 marginals are cosh/sinh, planar ones cos/sin
        assert g[0] + g[2] + g[4] == pytest.approx(math.cosh(y), rel=1e-12)
        assert g[1] + g[3] + g[5] == pytest.approx(math.sinh(y), rel=1e-12, abs=1e-12)
        assert f[0] - f[2] + f[4] == pytest.approx(math.cos(y), rel=1e-11, abs=1e-12)
        assert f[1] - f[3] + f[5] == pytest.approx(math.sin(y), rel=1e-11, abs=1e-12)


def test_table_grid_and_emission():
    import io

    grid = table_grid(-4.0, 4.0, 0.05)
    assert len(grid) == 161
    assert grid[0] == -4.0
    assert grid[-1] == pytest.approx(4.0, abs=1e-12)

    buffer = io.StringIO()
    emit_table("g", -1.0, 1.0, 0.5, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "y,c0,c1,c2,c3,c4,c5"
    assert len(lines) == 6
    row_zero = lines[3].split(",")
    assert row_zero[0] == "0"
    assert row_zero[1:] == ["1", "0", "0", "0", "0", "0"]

    buffer = io.StringIO()
    emit_table("f", 0.0, 1.0, 1.0, buffer)
    rows = buffer.getvalue().splitlines()
    assert rows[1].split(",")[1:] == ["1", "0", "0", "0", "0", "0"]

    # column sum at y=1 for the polar family equals e
    buffer = io.StringIO()
    emit_table("g", 1.0, 1.0, 1.0, buffer)
    g_row = buffer.getvalue().splitlines()[1].split(",")
    assert sum(float(v) for v in g_row[1:]) == pytest.approx(math.e, rel=1e-13)


# -- high-precision oracle --------------------------------------------------------

ORACLE_DPS = 45
ROW_ULPS = 4                       # |y| < 2: every cell within 4 ulps of the truth
ROW_ABS_EPS = 16                   # |y| >= 2: within 16 eps times the family's scale


def mp_row(mpmath, family: str, y: float) -> list:
    """Test-side oracle: the six cosexponentials from e^y's series in mpmath.

    Term n = y^n/n! goes to component n mod 6 with sign (-1)^(n // 6) for
    the planar family; summation stops once a term falls below 10^-45 of
    component 5, the smallest component near y = 0.
    """
    with mpmath.workdps(ORACLE_DPS):
        yy = mpmath.mpf(y)
        floor = mpmath.mpf(10) ** -ORACLE_DPS
        comps = [mpmath.mpf(0)] * 6
        term, n = mpmath.mpf(1), 0
        while term != 0 and (n < 12 or abs(term) > floor * abs(comps[5])):
            comps[n % 6] += -term if family == "f" and (n // 6) % 2 else term
            n += 1
            term = term * yy / n
        return comps


def row_scale(family: str, y: float) -> float:
    return math.exp(abs(y)) if family == "g" else math.cosh(math.sqrt(3.0) * y / 2.0)


def assert_table_matches_oracle(mpmath, family: str, csv_text: str) -> int:
    """Check every row of a `table` CSV against :func:`mp_row`; count |y| < 2 rows."""
    lines = csv_text.splitlines()
    assert lines[0] == "y,c0,c1,c2,c3,c4,c5"
    near_zero = 0
    for line in lines[1:]:
        y, *cells = (float(v) for v in line.split(","))
        truth = mp_row(mpmath, family, y)
        for k, (value, exact) in enumerate(zip(cells, truth)):
            error = float(abs(mpmath.mpf(value) - exact))
            if abs(y) < 2.0:
                bound = ROW_ULPS * math.ulp(float(exact))
            else:
                bound = ROW_ABS_EPS * sys.float_info.epsilon * row_scale(family, y)
            assert error <= bound, (family, y, k, value, error / bound)
        near_zero += abs(y) < 2.0
    return near_zero


def random_small_ys(seed: int, count: int) -> list[float]:
    """Seeded y with 1e-6 <= |y| < 2, log-uniform in |y|, either sign."""
    rng = random.Random(seed)
    ys = []
    while len(ys) < count:
        y = 10.0 ** rng.uniform(-6.0, math.log10(2.0))
        if y < 2.0:
            ys.append(y if rng.random() < 0.5 else -y)
    return ys


@pytest.mark.parametrize("family", ("g", "f"))
def test_table_rows_against_mpmath_oracle(family):
    mpmath = pytest.importorskip("mpmath")
    buffer = io.StringIO()
    emit_table(family, -4.0, 4.0, 0.05, buffer)
    assert assert_table_matches_oracle(mpmath, family, buffer.getvalue()) == 79

    buffer = io.StringIO()
    buffer.write("y,c0,c1,c2,c3,c4,c5\n")
    for y in random_small_ys(seed=6, count=300):
        row = io.StringIO()
        emit_table(family, y, y, 1.0, row)
        buffer.write(row.getvalue().splitlines()[1] + "\n")
    assert assert_table_matches_oracle(mpmath, family, buffer.getvalue()) == 300

    # past the golden grid: 4 < |y| <= 30, where the rows come from the closed forms
    rng = random.Random(8)
    buffer = io.StringIO()
    buffer.write("y,c0,c1,c2,c3,c4,c5\n")
    for _ in range(150):
        y = (30.0 - 26.0 * rng.random()) * rng.choice((-1.0, 1.0))
        row = io.StringIO()
        emit_table(family, y, y, 1.0, row)
        buffer.write(row.getvalue().splitlines()[1] + "\n")
    assert assert_table_matches_oracle(mpmath, family, buffer.getvalue()) == 0


@pytest.mark.parametrize("family", ("g", "f"))
def test_golden_tables_against_mpmath_oracle(family):
    mpmath = pytest.importorskip("mpmath")
    text = (GOLDEN / f"table_{family}.csv").read_text()
    assert len(text.splitlines()) == 162
    assert assert_table_matches_oracle(mpmath, family, text) == 79


@pytest.mark.parametrize("variant", (Variant.POLAR, Variant.PLANAR))
def test_exp_basis_components_against_mpmath_oracle(variant):
    mpmath = pytest.importorskip("mpmath")
    family = "f" if variant.is_planar else "g"
    sign = -1.0 if variant.is_planar else 1.0
    for y in (0.01, -0.3, 1e-4, 1.9, 2.5, -3.0):
        truth = [float(v) for v in mp_row(mpmath, family, y)]
        # e^(h1 y) holds the row itself, e^(h5 y) = e^(h1^-1 y) reverses it
        expected = {1: truth,
                    5: [truth[0], truth[5], sign * truth[4], truth[3], sign * truth[2], truth[1]]}
        for k, want in expected.items():
            got = exp_basis(variant, k, y).components
            for i in range(6):
                if abs(y) < 2.0:
                    bound = ROW_ULPS * math.ulp(want[i])
                else:
                    bound = ROW_ABS_EPS * sys.float_info.epsilon * row_scale(family, y)
                assert abs(got[i] - want[i]) <= bound, (variant, k, y, i)
