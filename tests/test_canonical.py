"""Canonical variables, idempotent basis, geometry and the product forms."""

from __future__ import annotations

import math
import random

import pytest

from conftest import BOTH_VARIANTS, assert_hexa_close, invertible_hexa, max_abs_diff, random_hexa
from hexacomplex import elementary
from hexacomplex.algebra import HexaNumber, Variant, from_canonical_components, parse_hexa
from hexacomplex.canonical import (
    PlanarCanonical,
    PolarCanonical,
    canonical_basis,
    check_d_rho_relation,
    exp_form,
    from_canonical,
    geometry,
    geometry_record,
    rotated_coords,
    to_canonical,
    trig_form,
)
from hexacomplex.errors import DomainError, ZeroDivisorError

SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)
TWO_PI = 2.0 * math.pi


def test_to_canonical_examples():
    one = to_canonical(HexaNumber.one(Variant.POLAR))
    assert one == PolarCanonical(1.0, 1.0, ((1.0, 0.0), (1.0, 0.0)))

    one_planar = to_canonical(HexaNumber.one(Variant.PLANAR))
    assert one_planar == PlanarCanonical(((1.0, 0.0), (1.0, 0.0), (1.0, 0.0)))

    h3 = to_canonical(HexaNumber.basis(Variant.POLAR, 3))
    assert h3.v_plus == 1.0 and h3.v_minus == -1.0
    assert h3.pairs[0] == (-1.0, 0.0)
    assert h3.pairs[1] == (1.0, 0.0)


def test_from_canonical_examples():
    e_plus = from_canonical(PolarCanonical(1.0, 0.0, ((0.0, 0.0), (0.0, 0.0))))
    assert_hexa_close(e_plus, HexaNumber(Variant.POLAR, (1 / 6,) * 6), 1e-16)

    e1 = from_canonical(PlanarCanonical(((1.0, 0.0), (0.0, 0.0), (0.0, 0.0))))
    expected = HexaNumber(Variant.PLANAR,
                          (1 / 3, SQRT3 / 6, 1 / 6, 0.0, -1 / 6, -SQRT3 / 6))
    assert_hexa_close(e1, expected, 1e-16)

    zero = from_canonical(PlanarCanonical(((0.0, 0.0),) * 3))
    assert zero == HexaNumber.zero(Variant.PLANAR)


def test_roundtrip_random():
    rng = random.Random(20)
    for variant in BOTH_VARIANTS:
        for _ in range(1000):
            u = random_hexa(rng, variant, -10.0, 10.0)
            back = from_canonical(to_canonical(u))
            assert max_abs_diff(back, u) <= 1e-13 * (1.0 + abs(u))


def test_polar_basis_partition_of_unity_is_exact():
    e_plus, e_minus, e1, _, e2, _ = canonical_basis(Variant.POLAR)
    assert e_plus + e_minus + e1 + e2 == HexaNumber.one(Variant.POLAR)


def test_planar_basis_partition_of_unity():
    e1, _, e2, _, e3, _ = canonical_basis(Variant.PLANAR)
    assert_hexa_close(e1 + e2 + e3, HexaNumber.one(Variant.PLANAR), 1e-15)


def _idempotent_table(variant):
    basis = canonical_basis(variant)
    if variant.is_planar:
        es = [basis[0], basis[2], basis[4]]
        tildes = [basis[1], basis[3], basis[5]]
        axes = []
    else:
        axes = [basis[0], basis[1]]
        es = [basis[2], basis[4]]
        tildes = [basis[3], basis[5]]
    return axes, es, tildes


@pytest.mark.parametrize("variant", BOTH_VARIANTS)
def test_idempotent_multiplication_table(variant):
    axes, es, tildes = _idempotent_table(variant)
    zero = HexaNumber.zero(variant)
    tol = 1e-15
    for i, a in enumerate(axes):
        assert_hexa_close(a * a, a, tol)
        for b in axes[i + 1:]:
            assert_hexa_close(a * b, zero, tol)
        for e in es + tildes:
            assert_hexa_close(a * e, zero, tol)
    for k, (e, t) in enumerate(zip(es, tildes)):
        assert_hexa_close(e * e, e, tol)
        assert_hexa_close(t * t, -e, tol)
        assert_hexa_close(e * t, t, tol)
        for j, (e2, t2) in enumerate(zip(es, tildes)):
            if j == k:
                continue
            assert_hexa_close(e * e2, zero, tol)
            assert_hexa_close(e * t2, zero, tol)
            assert_hexa_close(t * t2, zero, tol)


def test_basis_moduli():
    basis = canonical_basis(Variant.POLAR)
    assert abs(basis[0].modulus() - 1 / SQRT6) <= 1e-15
    assert abs(basis[1].modulus() - 1 / SQRT6) <= 1e-15
    for b in basis[2:]:
        assert abs(b.modulus() - 1 / SQRT3) <= 1e-15
    for b in canonical_basis(Variant.PLANAR):
        assert abs(b.modulus() - 1 / SQRT3) <= 1e-15


def test_rotated_coords_of_one():
    xi = rotated_coords(HexaNumber.one(Variant.POLAR)).xi
    expected = (1 / SQRT6, 1 / SQRT6, SQRT3 / 3, 0.0, SQRT3 / 3, 0.0)
    assert all(abs(a - b) <= 1e-15 for a, b in zip(xi, expected))


def test_rotated_coords_norm_and_scaling():
    rng = random.Random(21)
    for variant in BOTH_VARIANTS:
        for _ in range(100):
            u = random_hexa(rng, variant)
            coords = rotated_coords(u)
            norm = math.sqrt(sum(x * x for x in coords.xi))
            assert math.isclose(norm, abs(u), rel_tol=1e-12, abs_tol=1e-14)
            c = to_canonical(u)
            if variant.is_planar:
                for k in range(1, 4):
                    xi_k, eta_k = coords.plane(k)
                    v, t = c.pairs[k - 1]
                    assert math.isclose(v, SQRT3 * xi_k, rel_tol=1e-12, abs_tol=1e-13)
                    assert math.isclose(t, SQRT3 * eta_k, rel_tol=1e-12, abs_tol=1e-13)
            else:
                assert math.isclose(c.v_plus, SQRT6 * coords.xi[0],
                                    rel_tol=1e-12, abs_tol=1e-13)
                assert math.isclose(c.v_minus, SQRT6 * coords.xi[1],
                                    rel_tol=1e-12, abs_tol=1e-13)


def test_geometry_of_one():
    g = geometry(HexaNumber.one(Variant.POLAR))
    assert g.d == 1.0 and g.rho == pytest.approx(1.0, abs=1e-15)
    assert g.theta_plus == pytest.approx(math.atan(math.sqrt(2.0)), abs=1e-15)
    assert g.theta_minus == pytest.approx(math.atan(math.sqrt(2.0)), abs=1e-15)
    assert g.psi1 == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert g.phi1 == 0.0 and g.phi2 == 0.0

    gp = geometry(HexaNumber.one(Variant.PLANAR))
    assert gp.d == 1.0 and gp.rho == pytest.approx(1.0, abs=1e-15)
    assert gp.psi1 == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert gp.psi2 == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert gp.phi1 == gp.phi2 == gp.phi3 == 0.0


def test_geometry_of_zero_divisor():
    e_plus = canonical_basis(Variant.POLAR)[0]
    g = geometry(e_plus)
    assert g.rho == 0.0
    assert g.theta_plus == 0.0        # rho1 = 0, v+ > 0: limiting angle
    assert g.theta_minus is None      # 0/0
    assert g.psi1 is None
    assert g.phi1 is None and g.phi2 is None

    record = geometry_record(g)
    assert "theta_minus" not in record and "phi1" not in record
    assert record.splitlines()[0].startswith("d=")
    assert "rho=0" in record


def test_geometry_where_the_squared_modulus_overflows():
    g = geometry(HexaNumber(Variant.POLAR, (1e200, 0.0, 0.0, 0.0, 0.0, 1e200)))
    assert g.d == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert g.rho1 == pytest.approx(SQRT3 * 1e200, rel=1e-15)
    assert g.rho2 == pytest.approx(1e200, rel=1e-15)
    assert g.phi1 == pytest.approx(11.0 * math.pi / 6.0, rel=1e-15)
    assert g.phi2 == pytest.approx(5.0 * math.pi / 3.0, rel=1e-15)
    assert g.theta_minus == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert g.rho == 0.0  # v- vanishes


# Exact zero divisors and the component each one loses.
ZERO_DIVISORS = [
    (Variant.POLAR, "1 + h3", "v-"),
    (Variant.POLAR, "1 - h1", "v+"),
    (Variant.POLAR, "1 + h2 + h4", "pair1"),
    (Variant.POLAR, "h1 - h4", "v+"),
    (Variant.PLANAR, "1 - h2 + h4", "pair1"),
    (Variant.PLANAR, "1 + h2", "pair2"),
]


@pytest.mark.parametrize("variant, text, component", ZERO_DIVISORS)
def test_every_route_names_the_same_vanished_component(variant, text, component):
    u = parse_hexa(text, variant)
    routes = {
        "inverse": u.inverse,
        "pow -1": lambda: elementary.pow_real(u, -1.0),
        "pow 0.5": lambda: elementary.pow_real(u, 0.5),
        "ln": lambda: elementary.ln(u),
        "exp_form": lambda: exp_form(u),
    }
    named = {}
    for route, call in routes.items():
        with pytest.raises((ZeroDivisorError, DomainError)) as exc:
            call()
        named[route] = exc.value.component
    assert named == dict.fromkeys(routes, component)


def test_geometry_rho_absent_for_mixed_axis_signs():
    g = geometry(HexaNumber.basis(Variant.POLAR, 3))
    assert g.rho is None  # v+ v- = -1 < 0 has no real sixth root
    # tan(theta-) = sqrt(2) rho1 / v- with v- = -1 puts theta- past pi/2
    assert g.theta_minus == pytest.approx(math.pi - math.atan(math.sqrt(2.0)), abs=1e-15)


def test_geometry_d_squared_decomposition():
    rng = random.Random(22)
    for variant in BOTH_VARIANTS:
        for _ in range(200):
            u = random_hexa(rng, variant)
            g = geometry(u)
            if variant.is_planar:
                expected = (g.rho1 ** 2 + g.rho2 ** 2 + g.rho3 ** 2) / 3.0
            else:
                c = to_canonical(u)
                expected = (c.v_plus ** 2 / 6.0 + c.v_minus ** 2 / 6.0
                            + (g.rho1 ** 2 + g.rho2 ** 2) / 3.0)
            assert math.isclose(g.d ** 2, expected, rel_tol=1e-12, abs_tol=1e-14)


def test_multiplicative_parameter_relations():
    rng = random.Random(23)
    for variant in BOTH_VARIANTS:
        for _ in range(100):
            u = random_hexa(rng, variant)
            v = random_hexa(rng, variant)
            cu, cv, cp = to_canonical(u), to_canonical(v), to_canonical(u * v)
            scale = 1e-11 * (1.0 + abs(u) * abs(v))
            if not variant.is_planar:
                assert abs(cp.v_plus - cu.v_plus * cv.v_plus) <= scale
                assert abs(cp.v_minus - cu.v_minus * cv.v_minus) <= scale
            for k in range(len(cp.pairs)):
                zu, zv, zp = cu.pair_complex(k + 1), cv.pair_complex(k + 1), cp.pair_complex(k + 1)
                assert abs(zp - zu * zv) <= scale
                assert abs(abs(zp) - abs(zu) * abs(zv)) <= scale


def test_azimuth_addition_and_amplitude_product():
    rng = random.Random(24)
    for variant in BOTH_VARIANTS:
        for _ in range(100):
            u = invertible_hexa(rng, variant)
            v = invertible_hexa(rng, variant)
            gu, gv, gp = geometry(u), geometry(v), geometry(u * v)
            pair_count = 3 if variant.is_planar else 2
            for k in range(1, pair_count + 1):
                phi_u = getattr(gu, f"phi{k}")
                phi_v = getattr(gv, f"phi{k}")
                phi_p = getattr(gp, f"phi{k}")
                wrapped = (phi_u + phi_v) % TWO_PI
                delta = abs(phi_p - wrapped)
                delta = min(delta, TWO_PI - delta)
                assert delta <= 1e-9
            assert math.isclose(gp.rho, gu.rho * gv.rho, rel_tol=1e-10)


def test_tangent_relations_under_multiplication():
    rng = random.Random(25)
    for _ in range(100):
        u = invertible_hexa(rng, Variant.POLAR)
        v = invertible_hexa(rng, Variant.POLAR)
        gu, gv, gp = geometry(u), geometry(v), geometry(u * v)
        lhs = math.tan(gp.theta_plus)
        rhs = math.tan(gu.theta_plus) * math.tan(gv.theta_plus) / math.sqrt(2.0)
        assert math.isclose(lhs, rhs, rel_tol=1e-9)
        lhs = math.tan(gp.theta_minus)
        rhs = math.tan(gu.theta_minus) * math.tan(gv.theta_minus) / math.sqrt(2.0)
        assert math.isclose(lhs, rhs, rel_tol=1e-9)
        assert math.isclose(math.tan(gp.psi1),
                            math.tan(gu.psi1) * math.tan(gv.psi1), rel_tol=1e-9)
    for _ in range(100):
        u = invertible_hexa(rng, Variant.PLANAR)
        v = invertible_hexa(rng, Variant.PLANAR)
        gu, gv, gp = geometry(u), geometry(v), geometry(u * v)
        for name in ("psi1", "psi2"):
            assert math.isclose(math.tan(getattr(gp, name)),
                                math.tan(getattr(gu, name)) * math.tan(getattr(gv, name)),
                                rel_tol=1e-9)


def test_exp_form_identity():
    for variant in BOTH_VARIANTS:
        form = exp_form(HexaNumber.one(variant))
        assert form.rho == pytest.approx(1.0, abs=1e-15)
        assert max(abs(c) for c in form.exponent.components) <= 1e-15


def test_exp_form_roundtrip_random():
    rng = random.Random(26)
    for variant in BOTH_VARIANTS:
        for _ in range(100):
            u = invertible_hexa(rng, variant)
            form = exp_form(u)
            rebuilt = elementary.exp(form.exponent) * form.rho
            assert max_abs_diff(rebuilt, u) <= 1e-9 * (1.0 + abs(u))


def test_exp_form_domain_error():
    with pytest.raises(DomainError) as exc:
        exp_form(HexaNumber.basis(Variant.POLAR, 3))
    assert exc.value.component == "v-"
    with pytest.raises(DomainError):
        exp_form(HexaNumber.zero(Variant.PLANAR))


def test_trig_form_examples():
    one = HexaNumber.one(Variant.PLANAR)
    form = trig_form(one)
    rebuilt = form.direction * elementary.exp(form.phase) * form.scale
    assert_hexa_close(rebuilt, one, 1e-12)

    # equal radii: the direction collapses to e1 + e2 + e3 (= 1) and scale to d
    basis = canonical_basis(Variant.PLANAR)
    u = (basis[0] + basis[2] + basis[4]) * 2.0
    form = trig_form(u)
    assert_hexa_close(form.direction, HexaNumber.one(Variant.PLANAR), 1e-12)
    rebuilt = form.direction * elementary.exp(form.phase) * form.scale
    assert_hexa_close(rebuilt, u, 1e-10)

    # a vanishing third radius only drops that plane's terms
    u = basis[0] + basis[2] * 2.0
    form = trig_form(u)
    rebuilt = form.direction * elementary.exp(form.phase) * form.scale
    assert_hexa_close(rebuilt, u, 1e-10)


def test_trig_form_roundtrip_random():
    rng = random.Random(27)
    for variant in BOTH_VARIANTS:
        for _ in range(100):
            u = invertible_hexa(rng, variant)
            form = trig_form(u)
            rebuilt = form.direction * elementary.exp(form.phase) * form.scale
            assert max_abs_diff(rebuilt, u) <= 1e-9 * (1.0 + abs(u))


def test_trig_form_polar_allows_negative_axes():
    rng = random.Random(28)
    for _ in range(50):
        base = invertible_hexa(rng, Variant.POLAR)
        u = base * HexaNumber.basis(Variant.POLAR, 3)  # flips v- sign
        form = trig_form(u)
        rebuilt = form.direction * elementary.exp(form.phase) * form.scale
        assert max_abs_diff(rebuilt, u) <= 1e-9 * (1.0 + abs(u))


def test_d_rho_relation_polar_random():
    rng = random.Random(29)
    for _ in range(200):
        u = invertible_hexa(rng, Variant.POLAR)
        report = check_d_rho_relation(u)
        assert not report.skipped
        assert abs(report.d - report.rhs) <= 1e-9 * report.d
        assert report.rhs == report.rhs_quoted_constant


def test_d_rho_relation_planar():
    report = check_d_rho_relation(HexaNumber.one(Variant.PLANAR))
    assert not report.skipped
    assert report.d == pytest.approx(1.0)
    assert report.rho == pytest.approx(1.0)
    assert report.rhs == pytest.approx(1.0, abs=1e-12)

    rng = random.Random(30)
    for _ in range(200):
        u = invertible_hexa(rng, Variant.PLANAR)
        report = check_d_rho_relation(u)
        assert abs(report.d - report.rhs) <= 1e-9 * report.d
        # the commonly quoted constant misses by the factor 2^(1/6) ~ 12%
        assert abs(report.d - report.rhs_quoted_constant) > 0.05 * report.d


def test_d_rho_relation_skipped_for_degenerate():
    e_plus = canonical_basis(Variant.POLAR)[0]
    report = check_d_rho_relation(e_plus)
    assert report.skipped and report.rho == 0.0
    assert "v-" in report.reason


def test_geometry_record_planar_keys():
    record = geometry_record(geometry(HexaNumber.one(Variant.PLANAR)))
    keys = [line.split("=")[0] for line in record.splitlines()]
    assert keys == ["d", "rho", "psi1", "psi2", "phi1", "phi2", "phi3",
                    "rho1", "rho2", "rho3"]
