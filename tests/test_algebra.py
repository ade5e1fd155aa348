"""Ring operations, matrix representations and the text form."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOTH_VARIANTS, assert_hexa_close, max_abs_diff, random_hexa
from hexacomplex import _transforms as tr
from hexacomplex.algebra import (
    HexaNumber,
    Variant,
    basis_mul,
    canonical_components,
    canonical_values,
    format_hexa,
    from_canonical_components,
    from_canonical_values,
    irreducible_form,
    matrix_rows,
)
from hexacomplex.calculus import FunctionUnderTest, circle_path
from hexacomplex.canonical import geometry
from hexacomplex.errors import DomainError, HexaError, VariantError, ZeroDivisorError
from hexacomplex.expressions import evaluate, parse
from hexacomplex.polyfactor import Factorization, HexaPolynomial

# The fifteen nontrivial basis products of each variant.  The planar wrap
# sign makes h3^2 = -1: the product formula term -x3 x3', the identity
# exp(h3 y) = cos y + h3 sin y and the factorization
# u^2 + 1 = (u + h3)(u - h3) all require the minus sign.
POLAR_PRODUCTS = {
    (1, 1): (2, 1), (2, 2): (4, 1), (3, 3): (0, 1), (4, 4): (2, 1), (5, 5): (4, 1),
    (1, 2): (3, 1), (1, 3): (4, 1), (1, 4): (5, 1), (1, 5): (0, 1),
    (2, 3): (5, 1), (2, 4): (0, 1), (2, 5): (1, 1),
    (3, 4): (1, 1), (3, 5): (2, 1), (4, 5): (3, 1),
}
PLANAR_PRODUCTS = {
    (1, 1): (2, 1), (2, 2): (4, 1), (3, 3): (0, -1), (4, 4): (2, -1), (5, 5): (4, -1),
    (1, 2): (3, 1), (1, 3): (4, 1), (1, 4): (5, 1), (1, 5): (0, -1),
    (2, 3): (5, 1), (2, 4): (0, -1), (2, 5): (1, -1),
    (3, 4): (1, -1), (3, 5): (2, -1), (4, 5): (3, -1),
}


@pytest.mark.parametrize("variant,table", [(Variant.POLAR, POLAR_PRODUCTS),
                                           (Variant.PLANAR, PLANAR_PRODUCTS)])
def test_basis_product_tables(variant, table):
    for (j, k), (index, sign) in table.items():
        assert basis_mul(j, k, variant) == (index, sign)
        assert basis_mul(k, j, variant) == (index, sign)
        product = HexaNumber.basis(variant, j) * HexaNumber.basis(variant, k)
        expected = [0.0] * 6
        expected[index] = float(sign)
        assert product.components == tuple(expected)


def test_basis_identity_products():
    for variant in BOTH_VARIANTS:
        for k in range(6):
            assert basis_mul(0, k, variant) == (k, 1)


def test_polar_signs_always_positive():
    for j in range(6):
        for k in range(6):
            assert basis_mul(j, k, Variant.POLAR)[1] == 1


def test_add_examples():
    for variant in BOTH_VARIANTS:
        a = HexaNumber(variant, (1, 0, 0, 0, 0, 0))
        b = HexaNumber(variant, (0, 1, 0, 0, 0, 0))
        assert (a + b).components == (1, 1, 0, 0, 0, 0)
        u = random_hexa(random.Random(1), variant)
        assert u + HexaNumber.zero(variant) == u
        c = HexaNumber(variant, (1, 2, 3, 4, 5, 6)) + HexaNumber(variant, (6, 5, 4, 3, 2, 1))
        assert c.components == (7, 7, 7, 7, 7, 7)


def test_mul_identity_and_scalars():
    rng = random.Random(2)
    for variant in BOTH_VARIANTS:
        u = random_hexa(rng, variant)
        assert u * HexaNumber.one(variant) == u
        assert (2.0 * u).components == tuple(2.0 * c for c in u.components)
        assert (u / 2.0).components == tuple(c / 2.0 for c in u.components)


def test_mul_matches_matrix_representation():
    rng = random.Random(3)
    for variant in BOTH_VARIANTS:
        for _ in range(50):
            u = random_hexa(rng, variant)
            v = random_hexa(rng, variant)
            direct = u * v
            # The first row of a representation matrix is the value itself.
            product_matrix = u.to_matrix() @ v.to_matrix()
            assert np.allclose(product_matrix[0], direct.components, atol=1e-12)


def test_ring_axioms_random():
    rng = random.Random(4)
    for variant in BOTH_VARIANTS:
        for _ in range(200):
            u = random_hexa(rng, variant)
            v = random_hexa(rng, variant)
            w = random_hexa(rng, variant)
            scale_uv = 1e-12 * (1.0 + abs(u) * abs(v))
            assert max_abs_diff(u * v, v * u) <= scale_uv
            scale3 = 1e-12 * (1.0 + abs(u) * abs(v) * abs(w))
            assert max_abs_diff((u * v) * w, u * (v * w)) <= scale3
            assert max_abs_diff(u * (v + w), u * v + u * w) <= scale_uv + 1e-12 * (
                1.0 + abs(u) * abs(w))


def test_matrix_homomorphism_random():
    rng = random.Random(5)
    for variant in BOTH_VARIANTS:
        for _ in range(100):
            u = random_hexa(rng, variant)
            v = random_hexa(rng, variant)
            lhs = (u * v).to_matrix()
            rhs = u.to_matrix() @ v.to_matrix()
            scale = 1e-12 * (1.0 + abs(u) * abs(v))
            assert np.abs(lhs - rhs).max() <= scale


def test_to_matrix_patterns():
    assert np.array_equal(HexaNumber.one(Variant.POLAR).to_matrix(), np.eye(6))
    assert np.array_equal(HexaNumber.one(Variant.PLANAR).to_matrix(), np.eye(6))

    shift = HexaNumber.basis(Variant.POLAR, 1).to_matrix()
    expected = np.zeros((6, 6))
    for i in range(6):
        expected[i, (i + 1) % 6] = 1.0
    assert np.array_equal(shift, expected)

    twisted = HexaNumber.basis(Variant.PLANAR, 1).to_matrix()
    expected[5, 0] = -1.0
    assert np.array_equal(twisted, expected)


def test_matrix_rows_are_shifts_of_row0():
    rng = random.Random(6)
    for variant in BOTH_VARIANTS:
        u = random_hexa(rng, variant)
        m = u.to_matrix()
        for r in range(6):
            for j in range(6):
                source = m[0, (j - r) % 6]
                if variant.is_planar and j < r:
                    source = -source
                assert m[r, j] == source


def test_modulus_examples():
    for variant in BOTH_VARIANTS:
        assert HexaNumber.one(variant).modulus() == 1.0
        ones = HexaNumber(variant, (1,) * 6)
        assert math.isclose(ones.modulus(), math.sqrt(6.0), rel_tol=1e-15)
    e_plus = HexaNumber(Variant.POLAR, (1 / 6,) * 6)
    assert math.isclose(e_plus.modulus(), 1.0 / math.sqrt(6.0), rel_tol=1e-15)


def test_modulus_product_inequality():
    rng = random.Random(7)
    for variant, bound in ((Variant.POLAR, math.sqrt(6.0)), (Variant.PLANAR, math.sqrt(3.0))):
        for _ in range(300):
            u = random_hexa(rng, variant)
            v = random_hexa(rng, variant)
            assert abs(u * v) <= bound * abs(u) * abs(v) * (1.0 + 1e-12)


def test_inverse_examples():
    h3 = HexaNumber.basis(Variant.POLAR, 3)
    assert_hexa_close(h3.inverse(), h3, 1e-15)

    h3p = HexaNumber.basis(Variant.PLANAR, 3)
    inv = h3p.inverse()
    assert_hexa_close(inv, -h3p, 1e-15)
    assert_hexa_close(h3p * inv, HexaNumber.one(Variant.PLANAR), 1e-15)

    e_plus = HexaNumber(Variant.POLAR, (1 / 6,) * 6)
    with pytest.raises(ZeroDivisorError) as exc:
        e_plus.inverse()
    assert exc.value.component in ("v-", "pair1", "pair2")


def test_inverse_at_the_ends_of_the_double_range():
    # |u|^2 overflows here: the zero threshold must stay finite, and the
    # vanished component is v- (x0 - x5 = 0), not v+
    huge = HexaNumber(Variant.POLAR, (1e200, 0.0, 0.0, 0.0, 0.0, 1e200))
    assert huge.modulus() == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    with pytest.raises(ZeroDivisorError) as exc:
        huge.inverse()
    assert exc.value.component == "v-"

    # v^2 + t^2 underflows here: the scalar is invertible, not a zero divisor
    for variant in BOTH_VARIANTS:
        inv = HexaNumber.from_real(variant, 1e-300).inverse()
        assert inv.components[0] == pytest.approx(1e300, rel=1e-15)
        assert max(abs(c) for c in inv.components[1:]) <= 1e-15 * 1e300

    # each plane's reciprocal, about 7e309, is beyond the range: an error, not a value
    with pytest.raises(DomainError):
        HexaNumber(Variant.PLANAR, (1e-310, 0.0, 0.0, 1e-310, 0.0, 0.0)).inverse()


@pytest.mark.parametrize("components, residual_tol", [
    # every canonical plane is 1.5e308 (1 +- i), where 1 / z of each plane value is zero
    ((1.5e308, 0.0, 0.0, 1.5e308, 0.0, 0.0), 1e-14),
    # pair1 is 1.3e308 (1 + i); the other canonical components, near 1e300, are sums
    # of 1e307 terms and carry relative errors near 1e-9, which bound the residual
    ((4.3333334e+307, 5.91944338753172e+307, 5.919443399732567e+307,
      4.3333333333333333e+307, 1.5861100997325675e+307, -1.5861100541983874e+307), 1e-6),
])
def test_planar_inverse_at_the_top_of_the_double_range(components, residual_tol):
    mpmath = pytest.importorskip("mpmath")
    ring_oracle = pytest.importorskip("ring_oracle")
    inv = HexaNumber(Variant.PLANAR, components).inverse().components
    with mpmath.workdps(ring_oracle.DPS):
        x, y = ring_oracle.to_mp(components), ring_oracle.to_mp(inv)
        # u inv(u) - 1 in exact arithmetic
        residual = max(abs(p - (k == 0)) for k, p in enumerate(ring_oracle.mul(x, y, planar=True)))
        if components[1:3] == components[4:] == (0.0, 0.0):
            # a + b h3 with h3^2 = -1 inverts to (a - b h3) / (a^2 + b^2)
            a, b = x[0], x[3]
            expected = [a / (a * a + b * b), 0, 0, -b / (a * a + b * b), 0, 0]
            # the scaled quotient rounds once, then again into the subnormals
            assert all(abs(g - e) <= 2 * 5e-324 for g, e in zip(inv, expected))
    assert residual <= residual_tol


@pytest.mark.parametrize("variant, canonical, label", [
    # every canonical component is 5e-324 or 0: v+ is the first whose reciprocal overflows
    (Variant.POLAR, None, "v+"),
    # 1e-310 + 1e-310 h3: each plane's reciprocal, about 7e309, overflows
    (Variant.PLANAR, None, "pair1"),
    # the other components are 1e-300, so 1e-310 is no zero divisor; only its reciprocal overflows
    (Variant.POLAR, (1e-300, 1e-300, 1e-310, 0.0, 1e-300, 0.0), "pair1"),
    (Variant.PLANAR, (1e-300, 0.0, 1e-300, 0.0, 0.0, 1e-310), "pair3"),
], ids=["polar-5e-324", "planar-1e-310", "polar-pair1", "planar-pair3"])
def test_inverse_beyond_the_double_range_names_the_canonical_component(variant, canonical, label):
    if canonical is not None:
        u = from_canonical_components(variant, canonical)
    elif variant is Variant.POLAR:
        u = HexaNumber.from_real(variant, 5e-324)
    else:
        u = HexaNumber(variant, (1e-310, 0.0, 0.0, 1e-310, 0.0, 0.0))
    with pytest.raises(DomainError) as exc:
        u.inverse()
    assert str(exc.value) == f"canonical component {label} is not finite"
    assert exc.value.component == label


@pytest.mark.parametrize("zero_rtol", [math.nan, -1.0, math.inf])
def test_inverse_rejects_a_tolerance_that_is_not_finite_and_nonnegative(zero_rtol):
    # nan and -1 would let a vanished component through to 1 / 0; inf would reject every value
    with pytest.raises(DomainError, match="tolerance"):
        HexaNumber.basis(Variant.POLAR, 3).inverse(zero_rtol)


def test_inverse_roundtrip_random():
    rng = random.Random(8)
    for variant in BOTH_VARIANTS:
        count = 0
        while count < 100:
            u = random_hexa(rng, variant)
            try:
                inv = u.inverse()
            except ZeroDivisorError:
                continue
            count += 1
            assert_hexa_close(u * inv, HexaNumber.one(variant), 1e-10)


@pytest.mark.parametrize("variant, label", [(Variant.POLAR, "v+"), (Variant.PLANAR, "pair1")])
@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324])
def test_dividing_by_a_float_without_a_finite_reciprocal_names_the_component(variant, label, x):
    # u / x is u times the inverse of the scalar x, whose first canonical component
    # (v+ on polar, pair1 on planar) vanishes or has a reciprocal beyond the range
    u = HexaNumber(variant, (1.0, 2.0, -3.0, 0.5, 0.25, -1.0))
    with pytest.raises(HexaError) as exc:
        u / x
    assert exc.value.component == label
    assert isinstance(exc.value, ZeroDivisorError if x == 0.0 else DomainError)


def test_dividing_by_a_float_with_a_finite_reciprocal_scales():
    rng = random.Random(11)
    for variant in BOTH_VARIANTS:
        u = random_hexa(rng, variant)
        for x in (2.0, -3.0, 1e-300, 1e308, 7):
            assert [c.hex() for c in (u / x).components] == \
                [c.hex() for c in u.scale(1.0 / x).components]
        assert (u / math.inf).components == (0.0,) * 6


# components of the flat canonical tuple that a round trip must keep bit for bit
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                1.5e308, -1.5e308, 1.7976931348623157e308, 1.0, -2.5)


def test_canonical_values_round_trip_bit_for_bit():
    rng = random.Random(12)
    for variant in BOTH_VARIANTS:
        planar = variant.is_planar
        axes = tr.axis_count(planar)
        for _ in range(200):
            flat = tuple(rng.choice(_EDGE_FLOATS) for _ in range(6))
            values = tr.as_values(planar, flat)
            assert len(values) == axes + tr.pair_count(planar)
            assert all(type(v) is float for v in values[:axes])
            assert all(type(z) is complex for z in values[axes:])
            assert [x.hex() for x in tr.as_flat(planar, values)] == [x.hex() for x in flat]
        u = random_hexa(rng, variant)
        assert canonical_values(u) == tr.as_values(planar, canonical_components(u))
        rebuilt = from_canonical_values(variant, canonical_values(u))
        assert rebuilt == from_canonical_components(variant, canonical_components(u))


def test_from_canonical_values_names_a_value_that_is_not_finite():
    with pytest.raises(DomainError) as exc:
        from_canonical_values(Variant.POLAR, (1.0, 2.0, complex(math.inf, 0.0), 1j))
    assert exc.value.component == "pair1"
    with pytest.raises(DomainError) as exc:
        from_canonical_values(Variant.PLANAR, (1j, 1.0, complex(0.0, math.nan)))
    assert exc.value.component == "pair3"


@pytest.mark.parametrize("planar, values, positive_axes, label", [
    (False, (0.0, 1.0, 1 + 1j, 1j), False, "v+"),          # a vanished axis
    (False, (1.0, -1e-20, 1 + 1j, 1j), False, "v-"),       # within the threshold
    (False, (1.0, -2.0, 1 + 1j, 1j), False, None),         # a negative axis has a magnitude
    (False, (1.0, -2.0, 1 + 1j, 1j), True, "v-"),          # but is outside ln's domain
    (False, (1.0, 2.0, 1 + 1j, 0j), True, "pair2"),        # a vanished plane
    (False, (1.0, 2.0, 1 + 1j, -1e-20j), False, "pair2"),
    (False, (1.0, 2.0, -1 - 1j, -1j), True, None),         # planes have no sign
    (True, (1j, 0j, 1.0), False, "pair2"),
    (True, (1e-20 + 1e-20j, 0j, 1.0), True, "pair1"),      # the first that vanishes
    (True, (-1.0, -1j, 1.0), True, None),                  # planar has no signed axis
])
def test_first_zero_labels(planar, values, positive_axes, label):
    assert tr.first_zero(planar, values, 1e-13, positive_axes=positive_axes) == label


def test_determinant_is_product_of_canonical_factors():
    rng = random.Random(9)
    for variant in BOTH_VARIANTS:
        for _ in range(50):
            u = random_hexa(rng, variant)
            det = np.linalg.det(u.to_matrix())
            comps = canonical_components(u)
            if variant.is_planar:
                expected = ((comps[0] ** 2 + comps[1] ** 2)
                            * (comps[2] ** 2 + comps[3] ** 2)
                            * (comps[4] ** 2 + comps[5] ** 2))
            else:
                expected = (comps[0] * comps[1]
                            * (comps[2] ** 2 + comps[3] ** 2)
                            * (comps[4] ** 2 + comps[5] ** 2))
            assert math.isclose(det, expected, rel_tol=1e-9, abs_tol=1e-12)


def test_irreducible_rep_identity_and_random():
    rng = random.Random(10)
    for variant in BOTH_VARIANTS:
        rep = HexaNumber.one(variant).irreducible_rep()
        assert np.allclose(rep.matrix, np.eye(6), atol=1e-14)

        u = random_hexa(rng, variant)
        rep = u.irreducible_rep()
        assert rep.off_block_max < 1e-10
        comps = canonical_components(u)
        idx = 0
        for block in rep.blocks:
            if block.shape == (1, 1):
                assert math.isclose(block[0, 0], comps[idx], abs_tol=1e-12)
                idx += 1
            else:
                v, t = comps[idx], comps[idx + 1]
                assert np.allclose(block, [[v, t], [-t, v]], atol=1e-12)
                idx += 2


def test_irreducible_rep_of_polar_idempotent():
    e_plus = HexaNumber(Variant.POLAR, (1 / 6,) * 6)
    rep = e_plus.irreducible_rep()
    expected = np.zeros((6, 6))
    expected[0, 0] = 1.0
    assert np.allclose(rep.matrix, expected, atol=1e-14)


def test_irreducible_form_in_pure_python_matches_the_arrays():
    """The row tuples ``repr`` prints: U bit for bit, T U T^T to 4 eps max|U| of numpy's product."""
    rng = random.Random(38)
    eps = 2.0 ** -52
    for variant in BOTH_VARIANTS:
        t = np.array(tr.rotation_rows(variant.is_planar))
        for scale in (1.0, 1e-200, 1e200):
            u = random_hexa(rng, variant, -scale, scale)
            rows = matrix_rows(u)
            assert np.array_equal(np.array(rows), u.to_matrix())
            assert all(type(x) is float for row in rows for x in row)
            rep = irreducible_form(u)
            reference = t @ u.to_matrix() @ t.T
            assert np.abs(np.array(rep.matrix) - reference).max() <= 4 * eps * np.abs(rows).max()
            arrays = u.irreducible_rep()
            assert np.array_equal(arrays.matrix, np.array(rep.matrix))
            assert [b.tolist() for b in arrays.blocks] == [list(map(list, b)) for b in rep.blocks]
            assert arrays.off_block_max == rep.off_block_max <= 4 * eps * np.abs(rows).max()


def test_pow_integer():
    rng = random.Random(11)
    for variant in BOTH_VARIANTS:
        u = random_hexa(rng, variant)
        assert u ** 0 == HexaNumber.one(variant)
        assert_hexa_close(u ** 3, u * u * u, 1e-12)
        h3 = HexaNumber.basis(variant, 3)
        inv = h3 ** -1
        assert_hexa_close(h3 * inv, HexaNumber.one(variant), 1e-15)


def test_variant_mixing_is_rejected():
    u = HexaNumber.one(Variant.POLAR)
    v = HexaNumber.one(Variant.PLANAR)
    for op in (lambda: u + v, lambda: u - v, lambda: u * v, lambda: u / v):
        with pytest.raises(VariantError):
            op()


def test_constructor_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            HexaNumber(Variant.POLAR, (bad, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        HexaNumber(Variant.POLAR, (1, 2, 3))


def test_values_are_immutable_and_hashable():
    u = HexaNumber.one(Variant.POLAR)
    with pytest.raises(AttributeError):
        u.components = (0,) * 6  # type: ignore[misc]
    assert hash(u) == hash(HexaNumber.one(Variant.POLAR))
    # equality and hashing go by value: the variant and the six components
    same = HexaNumber(Variant.POLAR, [1, 0, 0, 0, 0, 0])
    assert u == same and u is not same and hash(u) == hash(same)
    assert u != HexaNumber.one(Variant.PLANAR)
    assert u != HexaNumber.basis(Variant.POLAR, 1)
    assert u != u.components
    assert len({u, same, HexaNumber.one(Variant.PLANAR)}) == 2


@pytest.mark.parametrize("make, attribute", [
    (lambda one: one, "components"),
    (lambda one: HexaPolynomial(one.variant, [one]), "coeffs"),
    (lambda one: Factorization(one.variant, (HexaPolynomial(one.variant, [one]),)), "factors"),
    (lambda one: circle_path(one.variant, one, {1: 1.0}, 8), "points"),
    (lambda one: FunctionUnderTest("f", lambda u: u), "evaluator"),
    (geometry, "d"),
], ids=["HexaNumber", "HexaPolynomial", "Factorization", "Path", "FunctionUnderTest", "Geometry"])
def test_attributes_cannot_be_assigned_or_deleted(make, attribute):
    value = make(HexaNumber.one(Variant.POLAR))
    before = getattr(value, attribute)
    with pytest.raises(AttributeError):
        setattr(value, attribute, None)
    with pytest.raises(AttributeError):
        delattr(value, attribute)
    with pytest.raises(AttributeError):
        value.added = None
    assert getattr(value, attribute) is before


def test_text_form_examples():
    u = HexaNumber(Variant.POLAR, (1.0, 2.0, 0.0, -0.5, 0.0, 0.0))
    assert format_hexa(u) == "1.0 + 2.0 h1 - 0.5 h3"
    assert evaluate(parse("1 + 2 h1 - 0.5 h3"), Variant.POLAR) == u
    assert evaluate(parse("1+2h1-0.5h3"), Variant.POLAR) == u
    assert format_hexa(HexaNumber.zero(Variant.POLAR)) == "0"
    assert evaluate(parse("0"), Variant.PLANAR) == HexaNumber.zero(Variant.PLANAR)
    assert format_hexa(HexaNumber.basis(Variant.POLAR, 3)) == "h3"
    assert format_hexa(-HexaNumber.basis(Variant.POLAR, 3)) == "-h3"
    assert evaluate(parse("-h3 + h1"), Variant.POLAR).components == (0, 1, 0, -1, 0, 0)
    with pytest.raises(ValueError):
        parse("1 + bogus")
    with pytest.raises(ValueError):
        parse("")


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6),
       st.sampled_from(BOTH_VARIANTS))
def test_text_form_roundtrip_property(components, variant):
    # every printed term holds one component, so the bits come back over the whole double range
    u = HexaNumber(variant, components)
    assert evaluate(parse(format_hexa(u)), variant) == u


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                min_size=12, max_size=12),
       st.sampled_from(BOTH_VARIANTS))
def test_commutativity_property(values, variant):
    u = HexaNumber(variant, values[:6])
    v = HexaNumber(variant, values[6:])
    assert max_abs_diff(u * v, v * u) <= 1e-12 * (1.0 + abs(u) * abs(v))
