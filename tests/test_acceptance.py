"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every criterion pins its tolerance explicitly.  Identity checks
whose values grow like cosh scale the tolerance by the identity's
magnitude; a flat absolute tolerance is meaningless once the values pass
1e11 times double-precision resolution.
"""

from __future__ import annotations

import math
import pathlib
import random

import numpy as np
import pytest
import scipy.linalg

from conftest import BOTH_VARIANTS, invertible_hexa, max_abs_diff, random_hexa, to_matrix
from hexacomplex import elementary
from hexacomplex.algebra import (
    HexaNumber,
    Variant,
    basis_mul,
    canonical_components,
    canonical_values,
    from_canonical_components,
    from_canonical_values,
)
from hexacomplex.calculus import FUNCTIONS, circle_path, cr_check, line_integral, residue_integral
from hexacomplex.canonical import (
    canonical_basis,
    check_d_rho_relation,
    geometry,
)
from hexacomplex.cli import main
from hexacomplex.cosexp import exp_basis, f6, f6_series, f6_sumform, g6, g6_series, g6_sumform
from hexacomplex.errors import DomainError
from hexacomplex.expressions import evaluate, parse
from hexacomplex.polyfactor import HexaPolynomial, enumerate_factorizations, expand, factor

from test_algebra import PLANAR_PRODUCTS, POLAR_PRODUCTS
from test_polyfactor import (
    PLANAR_SQUARE_ROOTS,
    POLAR_SQUARE_ROOTS,
    u_squared_minus_one,
    u_squared_plus_one,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
GRID = [x * 0.25 for x in range(-40, 41)]


def _announce(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:2d} ({label}): PASS")


def test_criterion_01_algebra_axioms():
    rng = random.Random(101)
    for variant in BOTH_VARIANTS:
        for _ in range(1000):
            u = random_hexa(rng, variant)
            v = random_hexa(rng, variant)
            w = random_hexa(rng, variant)
            tol_uv = 1e-12 * (1.0 + abs(u) * abs(v))
            assert max_abs_diff(u * v, v * u) <= tol_uv
            tol_uvw = 1e-12 * (1.0 + abs(u) * abs(v) * abs(w))
            assert max_abs_diff((u * v) * w, u * (v * w)) <= tol_uvw
            tol_dist = 1e-12 * (1.0 + abs(u) * (abs(v) + abs(w)))
            assert max_abs_diff(u * (v + w), u * v + u * w) <= tol_dist
            lhs = to_matrix(u * v)
            rhs = to_matrix(u) @ to_matrix(v)
            assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + abs(u) * abs(v))
    _announce(1, "algebra axioms, 1000 random samples per variant")


def test_criterion_02_basis_product_tables():
    for variant, table in ((Variant.POLAR, POLAR_PRODUCTS), (Variant.PLANAR, PLANAR_PRODUCTS)):
        assert len(table) == 15
        for (j, k), (index, sign) in table.items():
            assert basis_mul(j, k, variant) == (index, sign)
            product = HexaNumber.basis(variant, j) * HexaNumber.basis(variant, k)
            expected = [0.0] * 6
            expected[index] = float(sign)
            assert product.components == tuple(expected)
    _announce(2, "full basis product tables, h3^2=-1 erratum applied")


def test_criterion_03_canonical_machinery():
    rng = random.Random(103)
    for variant in BOTH_VARIANTS:
        for _ in range(1000):
            u = random_hexa(rng, variant, -5.0, 5.0)
            back = from_canonical_values(variant, canonical_values(u))
            assert max_abs_diff(back, u) <= 1e-13 * (1.0 + abs(u))

    # idempotent relations at 1e-15
    for variant in BOTH_VARIANTS:
        basis = canonical_basis(variant)
        zero = HexaNumber.zero(variant)
        if variant.is_planar:
            es, tildes, axes = [basis[0], basis[2], basis[4]], [basis[1], basis[3], basis[5]], []
        else:
            axes, es, tildes = [basis[0], basis[1]], [basis[2], basis[4]], [basis[3], basis[5]]
        for i, a in enumerate(axes):
            assert max_abs_diff(a * a, a) <= 1e-15
            for b in axes[i + 1:]:
                assert max_abs_diff(a * b, zero) <= 1e-15
            for other in es + tildes:
                assert max_abs_diff(a * other, zero) <= 1e-15
        for k, (e, t) in enumerate(zip(es, tildes)):
            assert max_abs_diff(e * e, e) <= 1e-15
            assert max_abs_diff(t * t, -e) <= 1e-15
            assert max_abs_diff(e * t, t) <= 1e-15
            for j, (e2, t2) in enumerate(zip(es, tildes)):
                if j != k:
                    assert max_abs_diff(e * e2, zero) <= 1e-15
                    assert max_abs_diff(e * t2, zero) <= 1e-15
                    assert max_abs_diff(t * t2, zero) <= 1e-15

    e_plus, e_minus, e1, t1, e2, t2 = canonical_basis(Variant.POLAR)
    assert e_plus + e_minus + e1 + e2 == HexaNumber.one(Variant.POLAR)
    for b in (e_plus, e_minus):
        assert abs(b.modulus() - 1.0 / math.sqrt(6.0)) <= 1e-15
    for b in (e1, t1, e2, t2):
        assert abs(b.modulus() - 1.0 / math.sqrt(3.0)) <= 1e-15
    for b in canonical_basis(Variant.PLANAR):
        assert abs(b.modulus() - 1.0 / math.sqrt(3.0)) <= 1e-15

    for variant in BOTH_VARIANTS:
        for _ in range(200):
            u = random_hexa(rng, variant)
            g = geometry(u)
            if variant.is_planar:
                expected = (g.rho1 ** 2 + g.rho2 ** 2 + g.rho3 ** 2) / 3.0
            else:
                comps = canonical_components(u)
                expected = (comps[0] ** 2 / 6.0 + comps[1] ** 2 / 6.0
                            + (g.rho1 ** 2 + g.rho2 ** 2) / 3.0)
            assert abs(g.d ** 2 - expected) <= 1e-12 * (1.0 + expected)
    _announce(3, "canonical round trip, idempotents, moduli, d^2 decomposition")


def test_criterion_04_cosexponential_triple_agreement():
    for y in GRID:
        tol = 1e-11 * max(1.0, math.exp(abs(y)))
        for k in range(6):
            g_values = (g6_series(k, y), g6(k, y), g6_sumform(k, y))
            assert max(g_values) - min(g_values) <= tol
            f_values = (f6_series(k, y), f6(k, y), f6_sumform(k, y))
            assert max(f_values) - min(f_values) <= tol
    _announce(4, "series/closed/sum agreement for all 12 cosexponentials")


def test_criterion_05_identity_ledger():
    # exponential sums and sums of squares on the criterion-4 grid
    for y in GRID:
        for expected, actual in (
            (math.exp(y), sum(g6(k, y) for k in range(6))),
            (math.exp(-y), sum((-1) ** k * g6(k, y) for k in range(6))),
            (math.cosh(2 * y) / 3 + 2 / 3 * math.cosh(y), sum(g6(k, y) ** 2 for k in range(6))),
            (1 / 3 + 2 / 3 * math.cosh(math.sqrt(3) * y), sum(f6(k, y) ** 2 for k in range(6))),
        ):
            assert abs(actual - expected) <= 1e-11 * max(1.0, abs(expected))

    # all 12 addition theorems on a 20x20 grid
    grid = [-5.0 + 10.0 * i / 19 for i in range(20)]
    for y in grid:
        gy = [g6(i, y) for i in range(6)]
        fy = [f6(i, y) for i in range(6)]
        for z in grid:
            gz = [g6(j, z) for j in range(6)]
            fz = [f6(j, z) for j in range(6)]
            tol = 1e-11 * max(1.0, math.exp(abs(y) + abs(z)))
            for k in range(6):
                assert abs(sum(gy[i] * gz[(k - i) % 6] for i in range(6))
                           - g6(k, y + z)) <= tol
                planar = sum(fy[i] * fz[(k - i) % 6] * (1.0 if i <= k else -1.0)
                             for i in range(6))
                assert abs(planar - f6(k, y + z)) <= tol

    # derivative chains: exact term shift plus finite differences
    for n in range(1, 40):
        assert math.factorial(n) == n * math.factorial(n - 1)
    h = 1e-5
    for y in (-2.0, -0.5, 0.8, 2.5):
        for k in range(6):
            dg = (g6(k, y + h) - g6(k, y - h)) / (2 * h)
            target = g6(k - 1, y) if k else g6(5, y)
            assert abs(dg - target) <= 1e-8 * max(1.0, abs(target))
            df = (f6(k, y + h) - f6(k, y - h)) / (2 * h)
            target = f6(k - 1, y) if k else -f6(5, y)
            assert abs(df - target) <= 1e-8 * max(1.0, abs(target))

    # power identities through ring multiplication
    for variant in BOTH_VARIANTS:
        for k in range(1, 6):
            for y in (0.3, 1.0):
                for power in (2, 3, 4):
                    lhs = exp_basis(variant, k, y) ** power
                    rhs = exp_basis(variant, k, power * y)
                    assert max_abs_diff(lhs, rhs) <= 1e-10 * max(1.0, abs(rhs))
    _announce(5, "cosexponential identity ledger (sums, additions, derivatives, powers)")


def test_criterion_06_elementary_functions():
    rng = random.Random(106)
    for variant in BOTH_VARIANTS:
        for _ in range(100):
            u = random_hexa(rng, variant)
            direct = elementary.exp(u)
            oracle = scipy.linalg.expm(to_matrix(u))[0]
            assert np.abs(np.array(direct.components) - oracle).max() <= 1e-10 * (
                1.0 + abs(direct))

        # ln(exp(w)) = w when every plane angle of w lies in [0, 2*pi)
        for _ in range(100):
            values = []
            if not variant.is_planar:
                values.extend(rng.uniform(-2.0, 2.0) for _ in range(2))
            for _ in range(3 if variant.is_planar else 2):
                values.append(rng.uniform(-2.0, 2.0))
                values.append(rng.uniform(0.05, 2.0 * math.pi - 0.05))
            w = from_canonical_components(variant, values)
            assert max_abs_diff(elementary.ln(elementary.exp(w)), w) <= 1e-10 * (1.0 + abs(w))

        for _ in range(100):
            u = random_hexa(rng, variant)
            assert max_abs_diff(elementary.pow_real(u, 3.0), u * u * u) <= 1e-10 * (
                1.0 + abs(u) ** 3)
            s, c = elementary.sin(u), elementary.cos(u)
            assert max_abs_diff(s * s + c * c, HexaNumber.one(variant)) <= 1e-10 * (
                1.0 + abs(s) ** 2 + abs(c) ** 2)
    _announce(6, "exp vs matrix oracle, ln/exp band, powers, sin^2+cos^2")


def _canonical_pair_key(root):
    plus = tuple(round(c, 7) for c in root.components)
    minus = tuple(round(-c, 7) for c in root.components)
    return min(plus, minus)


def test_criterion_07_factorization():
    factorizations = enumerate_factorizations(u_squared_minus_one(), limit=100)
    assert len(factorizations) == 8
    expected = {min(tuple(round(v, 7) for v in r), tuple(round(-v, 7) for v in r))
                for r in POLAR_SQUARE_ROOTS}
    got = set()
    for f in factorizations:
        r1, r2 = f.roots
        assert max_abs_diff(r1, -r2) <= 1e-9
        got.add(_canonical_pair_key(r1))
    assert got == expected

    factorizations = enumerate_factorizations(u_squared_plus_one(), limit=100)
    assert len(factorizations) == 4
    expected = {min(tuple(round(v, 7) for v in r), tuple(round(-v, 7) for v in r))
                for r in PLANAR_SQUARE_ROOTS}
    assert {_canonical_pair_key(f.roots[0]) for f in factorizations} == expected

    rng = random.Random(107)
    for variant in BOTH_VARIANTS:
        for degree in (1, 2, 3, 4, 5):
            poly = HexaPolynomial(variant, [random_hexa(rng, variant) for _ in range(degree)])
            back = expand(factor(poly))
            for a, b in zip(back.coeffs, poly.coeffs):
                assert max_abs_diff(a, b) <= 1e-7 * poly.scale_estimate()

    quad = factor(u_squared_plus_one(Variant.POLAR))
    assert len(quad.factors) == 1 and quad.factors[0].degree == 2
    _announce(7, "sign-pattern factorization sets, random round trips, irreducible quadratic")


def test_criterion_08_calculus():
    rng = random.Random(108)
    for name in ("exp", "sin", "u2", "u3"):
        f = FUNCTIONS[name]
        for variant in BOTH_VARIANTS:
            for _ in range(20):
                u0 = random_hexa(rng, variant, -0.5, 0.5)
                assert cr_check(f, u0).max_residual <= 1e-6

    for variant in BOTH_VARIANTS:
        center_values = [1.0, 1.0] if not variant.is_planar else []
        center_values += [1.0, 0.0] * (3 if variant.is_planar else 2)
        center = from_canonical_components(variant, center_values)
        loop = circle_path(variant, center, {1: 0.8}, 4096)
        for name in ("exp", "sin", "u2"):
            f = FUNCTIONS[name]
            value = line_integral(f, loop)
            bound = 1e-5 * loop.length() * max(abs(f(s)) for s in loop.samples)
            assert abs(value) <= bound

    def run_case(variant: Variant, radii: dict[int, float], expected: tuple[int, ...]):
        pole = HexaNumber(variant, (0.05, 0.02, -0.04, 0.01, 0.0, 0.03))
        pair_count = 3 if variant.is_planar else 2
        values = [] if variant.is_planar else [1.3, 1.1]
        for k in range(1, pair_count + 1):
            values.extend((0.0, 0.0) if k in radii else (1.2, 0.0))
        center = pole + from_canonical_components(variant, values)
        loop = circle_path(variant, center, radii, 4096)
        comparison = residue_integral(FUNCTIONS["exp"], loop, pole)
        assert comparison.windings == expected
        assert comparison.max_abs_difference <= 1e-5

    run_case(Variant.POLAR, {1: 1.0}, (1, 0))
    run_case(Variant.POLAR, {2: 0.5}, (0, 1))
    run_case(Variant.POLAR, {1: 2.0, 2: 0.7}, (1, 1))
    run_case(Variant.PLANAR, {1: 0.9, 3: 1.4}, (1, 0, 1))
    _announce(8, "derivative chains, vanishing loops, residue formula")


def test_criterion_09_cli(capsys):
    code = main(["eval", "1 + 2h1 - 0.5h3"])
    out = capsys.readouterr()
    assert code == 0 and out.out.strip() == "1 + 2 h1 - 0.5 h3"

    value = evaluate(parse("1 + 2h1 - 0.5h3"), Variant.POLAR)
    assert value.components == (1.0, 2.0, 0.0, -0.5, 0.0, 0.0)
    assert evaluate(parse("h1*h5"), Variant.POLAR) == HexaNumber.one(Variant.POLAR)
    assert evaluate(parse("h1*h5"), Variant.PLANAR) == -HexaNumber.one(Variant.PLANAR)

    # third expression example: the planar round trip is recorded below as an
    # expected failure (1 + h2 is a planar zero divisor); the polar reading
    # round-trips and the planar evaluation reports the vanished component.
    polar_roundtrip = evaluate(parse("exp(ln(1 + h2))"), Variant.POLAR)
    target = evaluate(parse("1 + h2"), Variant.POLAR)
    assert max_abs_diff(polar_roundtrip, target) <= 1e-10
    with pytest.raises(DomainError) as exc:
        evaluate(parse("exp(ln(1 + h2))"), Variant.PLANAR)
    assert exc.value.component == "pair2"

    for family in ("g", "f"):
        code = main(["table", family])
        out = capsys.readouterr()
        assert code == 0
        assert out.out == (GOLDEN / f"table_{family}.csv").read_text()

    assert main(["eval", "1"]) == 0
    capsys.readouterr()
    assert main(["eval", "ln(h3)"]) == 1
    err = capsys.readouterr().err
    assert err and "v-" in err
    assert main(["eval", "1 +"]) == 2
    capsys.readouterr()
    _announce(9, "golden tables bit-exact, parse examples, exit codes")


@pytest.mark.xfail(strict=True,
                   reason="unattainable round trip: planar 1 + h2 annihilates the second "
                          "canonical plane ((1 + h2) e2 = 0), so ln(1 + h2) does not exist "
                          "in the planar ring and exp(ln(1 + h2)) cannot return 1 + h2; "
                          "the polar round trip and the planar DomainError contract are "
                          "asserted in test_criterion_09_cli")
def test_criterion_09_planar_lnexp_roundtrip():
    value = evaluate(parse("exp(ln(1 + h2))"), Variant.PLANAR)
    target = evaluate(parse("1 + h2"), Variant.PLANAR)
    assert max_abs_diff(value, target) <= 1e-10


def test_criterion_10_errata_regressions():
    h3 = HexaNumber.basis(Variant.PLANAR, 3)
    assert (h3 * h3).components == (-1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert basis_mul(3, 3, Variant.PLANAR) == (0, -1)

    rng = random.Random(110)
    for _ in range(200):
        u = invertible_hexa(rng, Variant.PLANAR)
        report = check_d_rho_relation(u)
        assert not report.skipped
        assert abs(report.d - report.rhs) <= 1e-9 * report.d
        assert abs(report.d - report.rhs_quoted_constant) > 0.05 * report.d
    _announce(10, "planar h3^2 = -1 and d-rho constant errata held visible")
