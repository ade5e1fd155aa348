"""Ring operations, matrix representations and the text form."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOTH_VARIANTS, assert_hexa_close, max_abs_diff, random_hexa
from hexacomplex.algebra import (
    BasisProduct,
    HexaNumber,
    Variant,
    basis_mul,
    canonical_components,
    format_hexa,
    parse_hexa,
)
from hexacomplex.errors import VariantError, ZeroDivisorError

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
        assert basis_mul(j, k, variant) == BasisProduct(index, sign)
        assert basis_mul(k, j, variant) == BasisProduct(index, sign)
        product = HexaNumber.basis(variant, j) * HexaNumber.basis(variant, k)
        expected = [0.0] * 6
        expected[index] = float(sign)
        assert product.components == tuple(expected)


def test_basis_identity_products():
    for variant in BOTH_VARIANTS:
        for k in range(6):
            assert basis_mul(0, k, variant) == BasisProduct(k, 1)


def test_polar_signs_always_positive():
    for j in range(6):
        for k in range(6):
            assert basis_mul(j, k, Variant.POLAR).sign == 1


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
    with pytest.raises(Exception):
        u.components = (0,) * 6  # type: ignore[misc]
    assert hash(u) == hash(HexaNumber.one(Variant.POLAR))


def test_text_form_examples():
    u = HexaNumber(Variant.POLAR, (1.0, 2.0, 0.0, -0.5, 0.0, 0.0))
    assert format_hexa(u) == "1.0 + 2.0 h1 - 0.5 h3"
    assert parse_hexa("1 + 2 h1 - 0.5 h3", Variant.POLAR) == u
    assert parse_hexa("1+2h1-0.5h3", Variant.POLAR) == u
    assert format_hexa(HexaNumber.zero(Variant.POLAR)) == "0"
    assert parse_hexa("0", Variant.PLANAR) == HexaNumber.zero(Variant.PLANAR)
    assert format_hexa(HexaNumber.basis(Variant.POLAR, 3)) == "h3"
    assert format_hexa(-HexaNumber.basis(Variant.POLAR, 3)) == "-h3"
    assert parse_hexa("-h3 + h1", Variant.POLAR).components == (0, 1, 0, -1, 0, 0)
    with pytest.raises(ValueError):
        parse_hexa("1 + bogus", Variant.POLAR)
    with pytest.raises(ValueError):
        parse_hexa("", Variant.POLAR)


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False, allow_infinity=False),
                min_size=6, max_size=6),
       st.sampled_from(BOTH_VARIANTS))
def test_text_form_roundtrip_property(components, variant):
    u = HexaNumber(variant, components)
    assert parse_hexa(format_hexa(u), variant) == u


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                min_size=12, max_size=12),
       st.sampled_from(BOTH_VARIANTS))
def test_commutativity_property(values, variant):
    u = HexaNumber(variant, values[:6])
    v = HexaNumber(variant, values[6:])
    assert max_abs_diff(u * v, v * u) <= 1e-12 * (1.0 + abs(u) * abs(v))
