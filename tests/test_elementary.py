"""Elementary functions: componentwise definitions against independent oracles."""

from __future__ import annotations

import cmath
import math
import random
import sys

import numpy as np
import pytest
import scipy.linalg

from conftest import (BOTH_VARIANTS, assert_hexa_close, invertible_hexa, max_abs_diff, random_hexa,
                      to_matrix)
from hexacomplex import algebra, canonical, elementary
from hexacomplex.algebra import HexaNumber, Variant, canonical_components, canonical_values
from hexacomplex.cosexp import exp_basis
from hexacomplex.elementary import (
    ConvergenceReport,
    eval_series,
    ln,
    pow_real,
)
from hexacomplex.errors import DomainError, ZeroDivisorError

TWO_PI = 2.0 * math.pi


def test_exp_at_zero_and_basis_multiples():
    for variant in BOTH_VARIANTS:
        assert_hexa_close(elementary.exp(HexaNumber.zero(variant)),
                          HexaNumber.one(variant), 1e-15)
        for k in range(1, 6):
            for y in (-1.0, 0.3, 2.0):
                lhs = elementary.exp(HexaNumber.basis(variant, k) * y)
                rhs = exp_basis(variant, k, y)
                assert max_abs_diff(lhs, rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_exp_matches_matrix_exponential_oracle():
    rng = random.Random(40)
    for variant in BOTH_VARIANTS:
        for _ in range(100):
            u = random_hexa(rng, variant)
            direct = elementary.exp(u)
            oracle = scipy.linalg.expm(to_matrix(u))[0]
            assert np.abs(np.array(direct.components) - oracle).max() <= 1e-10 * (
                1.0 + abs(direct))


def test_exp_is_a_homomorphism():
    rng = random.Random(41)
    for variant in BOTH_VARIANTS:
        for _ in range(100):
            u = random_hexa(rng, variant)
            v = random_hexa(rng, variant)
            lhs = elementary.exp(u + v)
            rhs = elementary.exp(u) * elementary.exp(v)
            assert max_abs_diff(lhs, rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_ln_basics():
    for variant in BOTH_VARIANTS:
        assert_hexa_close(ln(HexaNumber.one(variant)), HexaNumber.zero(variant), 1e-15)
    rng = random.Random(42)
    for variant in BOTH_VARIANTS:
        for _ in range(200):
            u = invertible_hexa(rng, variant)
            assert max_abs_diff(elementary.exp(ln(u)), u) <= 1e-10 * (1.0 + abs(u))


def test_ln_domain_errors():
    with pytest.raises(DomainError) as exc:
        ln(HexaNumber.basis(Variant.POLAR, 3))
    assert exc.value.component == "v-"

    # planar 1 + h2 annihilates the second canonical plane
    u = HexaNumber.one(Variant.PLANAR) + HexaNumber.basis(Variant.PLANAR, 2)
    with pytest.raises(DomainError) as exc:
        ln(u)
    assert exc.value.component == "pair2"


def test_ln_where_a_plane_angle_underflows():
    # the planes of 1e150 + 1e-180 h3 have angles of about +-1e-330, below
    # the double range: they round to 0 instead of raising OverflowError
    u = HexaNumber(Variant.PLANAR, (1e150, 0.0, 0.0, 1e-180, 0.0, 0.0))
    w = ln(u)
    assert w.components[0] == pytest.approx(150.0 * math.log(10.0), rel=1e-15)
    assert max(abs(c) for c in w.components[1:]) <= 1e-15 * w.components[0]


def test_pow_real_integer_cases():
    rng = random.Random(43)
    for variant in BOTH_VARIANTS:
        for _ in range(100):
            u = random_hexa(rng, variant)
            assert pow_real(u, 0.0) == HexaNumber.one(variant)
            cube = pow_real(u, 3.0)
            assert max_abs_diff(cube, u * u * u) <= 1e-10 * (1.0 + abs(u) ** 3)
    h3 = HexaNumber.basis(Variant.POLAR, 3)
    assert_hexa_close(pow_real(h3, 2.0), HexaNumber.one(Variant.POLAR), 1e-14)


def test_pow_real_negative_one_is_inverse():
    rng = random.Random(44)
    for variant in BOTH_VARIANTS:
        for _ in range(50):
            u = invertible_hexa(rng, variant)
            assert max_abs_diff(pow_real(u, -1.0), u.inverse()) <= 1e-12 * (
                1.0 + abs(u.inverse()))


def test_pow_real_noninteger():
    rng = random.Random(45)
    for variant in BOTH_VARIANTS:
        for _ in range(50):
            u = invertible_hexa(rng, variant)
            root = pow_real(u, 0.5)
            assert max_abs_diff(root * root, u) <= 1e-10 * (1.0 + abs(u))
    # negative axis component refuses a non-integer power
    with pytest.raises(DomainError):
        pow_real(HexaNumber.basis(Variant.POLAR, 3), 0.5)
    with pytest.raises(ZeroDivisorError):
        pow_real(HexaNumber.zero(Variant.POLAR), -2.0)


_POSITIVE_EXPONENTS = (*range(1, 9), 16, 31, 64)


@pytest.mark.parametrize("variant", BOTH_VARIANTS, ids=lambda v: v.value)
def test_integer_powers_match_the_ring_oracle(variant):
    mpmath = pytest.importorskip("mpmath")
    ring_oracle = pytest.importorskip("ring_oracle")
    eps = sys.float_info.epsilon
    planar = variant.is_planar
    rng = random.Random(28)
    for draw in range(24):
        # uniform components, and canonical moduli spread from 1e-3 to 2
        u = random_hexa(rng, variant) if draw % 2 else invertible_hexa(rng, variant, 1e-3, 2.0)
        x = ring_oracle.to_mp(u.components)
        exact = ring_oracle.powers(x, _POSITIVE_EXPONENTS[-1], planar)
        # B = |u|^n, the polar-ring power of the absolute components, bounds
        # the rounding of any product of n factors componentwise
        bound = ring_oracle.powers([abs(c) for c in x], _POSITIVE_EXPONENTS[-1], False)
        for n in _POSITIVE_EXPONENTS:
            got = pow_real(u, n)
            assert [c.hex() for c in got] == [c.hex() for c in u ** n], (n, u)
            for k, (g, e, b) in enumerate(zip(got, exact[n - 1], bound[n - 1])):
                assert abs(g - e) <= 4 * n * eps * b, (n, k, u)

        # a negative power inverts first: normwise, within the inverse's conditioning
        v = invertible_hexa(rng, variant)
        cond = np.linalg.cond(to_matrix(v))
        exact = ring_oracle.powers(ring_oracle.inverse(ring_oracle.to_mp(v.components), planar),
                                   8, planar)
        for n in range(-8, 0):
            got = pow_real(v, n)
            assert [c.hex() for c in got] == [c.hex() for c in v ** n], (n, v)
            error = mpmath.norm([g - e for g, e in zip(got, exact[-n - 1])])
            assert error <= 4 * -n * eps * cond * mpmath.norm(exact[-n - 1]), (n, v)


def test_trig_values_at_zero():
    for variant in BOTH_VARIANTS:
        zero = HexaNumber.zero(variant)
        assert_hexa_close(elementary.cos(zero), HexaNumber.one(variant), 1e-15)
        assert_hexa_close(elementary.sin(zero), zero, 1e-15)
        assert_hexa_close(elementary.cosh(zero), HexaNumber.one(variant), 1e-15)
        assert_hexa_close(elementary.sinh(zero), zero, 1e-15)


def test_pythagorean_and_exponential_identities():
    rng = random.Random(46)
    for variant in BOTH_VARIANTS:
        for _ in range(100):
            u = random_hexa(rng, variant)
            s, c = elementary.sin(u), elementary.cos(u)
            assert max_abs_diff(s * s + c * c, HexaNumber.one(variant)) <= 1e-10 * (
                1.0 + abs(s) ** 2 + abs(c) ** 2)
            total = elementary.cosh(u) + elementary.sinh(u)
            assert max_abs_diff(total, elementary.exp(u)) <= 1e-12 * (1.0 + abs(total))


def test_componentwise_consistency():
    rng = random.Random(47)
    # every name in the table is the math function on the axes, the cmath one on the planes
    cases = [(getattr(elementary, name), getattr(math, name), getattr(cmath, name))
             for name in elementary.COMPONENTWISE]
    for variant in BOTH_VARIANTS:
        for _ in range(50):
            u = random_hexa(rng, variant)
            for hexa_fn, real_fn, complex_fn in cases:
                result = canonical_values(hexa_fn(u))
                source = canonical_values(u)
                a = 0 if variant.is_planar else 2
                assert len(result) == len(source) == (3 if variant.is_planar else 4)
                for v, w in zip(result[:a], source[:a]):
                    assert v == pytest.approx(real_fn(w), rel=1e-11, abs=1e-11)
                for z, w in zip(result[a:], source[a:]):
                    expected = complex_fn(w)
                    assert abs(z - expected) <= 1e-11 * (1.0 + abs(expected))


def test_growth_bound_for_powers():
    rng = random.Random(48)
    for variant, base in ((Variant.POLAR, 6.0), (Variant.PLANAR, 3.0)):
        for _ in range(50):
            a = random_hexa(rng, variant)
            u = random_hexa(rng, variant)
            term = a
            for power in range(1, 9):
                term = term * u
                bound = base ** (power / 2.0) * abs(a) * abs(u) ** power
                assert abs(term) <= bound * (1.0 + 1e-12)


def test_ln_multiplicativity_modulo_angle_wraps():
    rng = random.Random(49)
    for variant in BOTH_VARIANTS:
        for _ in range(100):
            u = invertible_hexa(rng, variant)
            v = invertible_hexa(rng, variant)
            diff = ln(u * v) - ln(u) - ln(v)
            comps = canonical_components(diff)
            idx = 0
            if not variant.is_planar:
                assert abs(comps[0]) <= 1e-9
                assert abs(comps[1]) <= 1e-9
                idx = 2
            while idx < 6:
                assert abs(comps[idx]) <= 1e-9
                wraps = comps[idx + 1] / TWO_PI
                assert abs(wraps - round(wraps)) <= 1e-9
                idx += 2


def test_eval_series_geometric():
    rng = random.Random(50)
    for variant in BOTH_VARIANTS:
        u = invertible_hexa(rng, variant, radius_lo=0.5, radius_hi=0.5)
        one = HexaNumber.one(variant)
        value, report = eval_series([one] * 60, u)
        expected = (one - u).inverse()
        assert max_abs_diff(value, expected) <= 1e-10 * (1.0 + abs(expected))
        for estimate in report.radii.values():
            assert not estimate.indeterminate
            assert estimate.value == pytest.approx(1.0, rel=1e-12)
        assert report.crude_bound.value == pytest.approx(
            1.0 / (math.sqrt(3.0) if variant.is_planar else math.sqrt(6.0)), rel=1e-12)


def test_eval_series_exponential_taylor():
    rng = random.Random(51)
    for variant in BOTH_VARIANTS:
        u = random_hexa(rng, variant)
        one = HexaNumber.one(variant)
        coeffs = [one * (1.0 / math.factorial(l)) for l in range(41)]
        value, report = eval_series(coeffs, u)
        assert max_abs_diff(value, elementary.exp(u)) <= 1e-10 * (1.0 + abs(value))
        assert isinstance(report, ConvergenceReport)
        for estimate in report.radii.values():
            assert not estimate.indeterminate  # factorial ratios grow monotonically


def test_eval_series_single_coefficient_and_projections():
    rng = random.Random(52)
    for variant in BOTH_VARIANTS:
        a0 = random_hexa(rng, variant)
        u = random_hexa(rng, variant)
        value, report = eval_series([a0], u)
        assert max_abs_diff(value, a0) <= 1e-14
        for estimate in report.radii.values():
            assert estimate.indeterminate and estimate.value is None


def test_eval_series_flags_non_monotone_ratios():
    variant = Variant.POLAR
    one = HexaNumber.one(variant)
    terms = [one * m for m in (1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0)]
    _, report = eval_series(terms, one * 0.1)
    assert report.radii["plus"].indeterminate


def test_series_variant_checks():
    one_polar = HexaNumber.one(Variant.POLAR)
    one_planar = HexaNumber.one(Variant.PLANAR)
    with pytest.raises(ValueError):
        eval_series([one_polar, one_planar], one_polar)
    with pytest.raises(ValueError):
        eval_series([one_polar], one_planar)
    with pytest.raises(ValueError):
        eval_series([], one_polar)


_TRANSFORM_COUNTS = [
    ("exp", elementary.exp, 1),
    ("ln", ln, 1),
    ("pow_real 2.5", lambda u: pow_real(u, 2.5), 1),
    # a positive integer power is ring products only; a negative one inverts first
    ("pow_real 3", lambda u: pow_real(u, 3), 0),
    ("pow_real -2", lambda u: pow_real(u, -2), 1),
    ("exp_form", canonical.exp_form, 1),
    ("geometry", canonical.geometry, 1),
    ("inverse", HexaNumber.inverse, 1),
]


@pytest.mark.parametrize("name, fn, transforms", _TRANSFORM_COUNTS,
                         ids=[f"{name}-{fn.__name__}" for name, fn, _ in _TRANSFORM_COUNTS])
def test_one_canonical_transform_per_call(monkeypatch, name, fn, transforms):
    transform = algebra.canonical_components
    calls = []

    def counted(u):
        calls.append(u)
        return transform(u)

    monkeypatch.setattr(algebra, "canonical_components", counted)
    for variant in BOTH_VARIANTS:
        # positive axes and nonzero plane radii: inside ln's domain on both rings
        u = HexaNumber(variant, (2.0, 0.3, -0.2, 0.1, 0.25, -0.15))
        calls.clear()
        fn(u)
        assert len(calls) == transforms, (name, variant)

