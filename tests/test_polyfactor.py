"""Polynomial decomposition, root finding, factorization and enumeration."""

from __future__ import annotations

import cmath
import itertools
import math
import random

import pytest

from conftest import BOTH_VARIANTS, assert_hexa_close, max_abs_diff, random_hexa
from hexacomplex import _transforms as tr
from hexacomplex import polyfactor
from hexacomplex.algebra import HexaNumber, Variant, format_hexa, from_canonical_values
from hexacomplex.canonical import canonical_basis
from hexacomplex.errors import NonConvergenceError, ZeroDivisorError
from hexacomplex.polyfactor import (
    Factorization,
    HexaPolynomial,
    component_roots,
    decompose,
    enumerate_factorizations,
    expand,
    factor,
    format_factorization,
)

SQRT3 = math.sqrt(3.0)

# The eight factorizations of u^2 - 1 (polar): the square roots of one are
# the sixteen sign patterns +/-e+ +/-e- +/-e1 +/-e2, i.e. eight root pairs
# {r, -r}; one representative per line, written out in components.
POLAR_SQUARE_ROOTS = [
    (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    tuple(v / 3.0 for v in (1.0, 1.0, 1.0, -2.0, 1.0, 1.0)),
    tuple(v / 3.0 for v in (1.0, -1.0, 1.0, 2.0, 1.0, -1.0)),
    tuple(v / 3.0 for v in (2.0, 1.0, -1.0, 1.0, -1.0, 1.0)),
    tuple(v / 3.0 for v in (-1.0, 0.0, 2.0, 0.0, 2.0, 0.0)),
    tuple(v / 3.0 for v in (0.0, 2.0, 0.0, -1.0, 0.0, 2.0)),
    (0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
    tuple(v / 3.0 for v in (-2.0, 1.0, 1.0, 1.0, 1.0, 1.0)),
]

# The four factorizations of u^2 + 1 (planar): square roots of -1 are the
# eight sign patterns +/-e1~ +/-e2~ +/-e3~, giving four root pairs.
PLANAR_SQUARE_ROOTS = [
    tuple(v / 3.0 for v in (0.0, 2.0, 0.0, 1.0, 0.0, 2.0)),
    tuple(v / 3.0 for v in (0.0, 1.0, SQRT3, -1.0, SQRT3, 1.0)),
    (0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
    tuple(v / 3.0 for v in (0.0, -1.0, SQRT3, 1.0, SQRT3, -1.0)),
]


def _poly(variant: Variant, *component_tuples) -> HexaPolynomial:
    return HexaPolynomial(variant, [HexaNumber(variant, t) for t in component_tuples])


def u_squared_minus_one(variant=Variant.POLAR) -> HexaPolynomial:
    return _poly(variant, (0.0,) * 6, (-1.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def u_squared_plus_one(variant=Variant.PLANAR) -> HexaPolynomial:
    return _poly(variant, (0.0,) * 6, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def test_decompose_polar_square_minus_one():
    parts = decompose(u_squared_minus_one())
    assert list(parts) == ["plus", "minus", "pair1", "pair2"]
    assert parts["plus"] == (0.0, -1.0)
    assert parts["minus"] == (0.0, -1.0)
    assert parts["pair1"] == (0j, -1 + 0j)
    assert parts["pair2"] == (0j, -1 + 0j)


def test_decompose_planar_square_plus_one():
    parts = decompose(u_squared_plus_one())
    assert list(parts) == ["pair1", "pair2", "pair3"]
    for k in range(1, 4):
        assert parts[f"pair{k}"] == (0j, 1 + 0j)


def test_decompose_linear_shift():
    rng = random.Random(60)
    for variant in BOTH_VARIANTS:
        c = random_hexa(rng, variant)
        from hexacomplex.algebra import canonical_components
        parts = decompose(HexaPolynomial(variant, [-c]))
        flat = []
        for coefficients in parts.values():
            for value in coefficients:
                if isinstance(value, complex):
                    flat.extend((value.real, value.imag))
                else:
                    flat.append(value)
        expected = [-v for v in canonical_components(c)]
        assert flat == pytest.approx(expected, abs=1e-15)


def test_component_roots_simple():
    roots = component_roots((0.0, -1.0))
    assert sorted(z.real for z in roots) == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert all(abs(z.imag) < 1e-12 for z in roots)

    roots = component_roots((0j, 1 + 0j))
    assert sorted(z.imag for z in roots) == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert all(abs(z.real) < 1e-12 for z in roots)


def _sorted_roots(roots) -> list[complex]:
    return sorted(roots, key=_rounded)


def test_component_roots_planted_cubic():
    rng = random.Random(61)
    for _ in range(50):
        planted = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        c1 = -(planted[0] + planted[1] + planted[2])
        c2 = (planted[0] * planted[1] + planted[0] * planted[2] + planted[1] * planted[2])
        c3 = -planted[0] * planted[1] * planted[2]
        found = component_roots((c1, c2, c3))
        assert list(found) == _sorted_roots(found)
        for a, b in zip(found, _sorted_roots(planted)):
            assert abs(a - b) <= 1e-13


def test_component_roots_degree_one_and_double_root():
    assert component_roots((-3.0,)) == (3 + 0j,)
    assert component_roots((0.0, 0.0)) == (0j, 0j)  # z^2


def test_component_roots_near_the_top_of_the_double_range():
    # z^2 + 1e308 z + 1e308: |p(z)| at the root -1e308 is rounding of 1e308-sized
    # terms, small beside the size of p there, so the roots are accepted
    found = component_roots((1e308, 1e308))
    assert found[0] == pytest.approx(-1e308, rel=1e-15)
    assert found[1] == pytest.approx(-1.0, rel=1e-15)


def test_graded_roots_whose_residual_overflows():
    # z^2 + 1e200 z + 1e300 = (z + 1e200)(z + 1e100): by plain Horner p(z) and |p|(|z|)
    # overflow at z = -1e200, where their ratio is 1e300 / (2e400 + 1e300)
    assert polyfactor._backward_error((1e200, 1e300), -1e200 + 0j) == pytest.approx(5e-101, abs=0)
    found = component_roots((1e200, 1e300))
    assert found[0] == pytest.approx(-1e200, rel=1e-15)
    assert found[1] == pytest.approx(-1e100, rel=1e-15)


def test_component_roots_reports_the_residual_it_cannot_meet(monkeypatch):
    with pytest.raises(NonConvergenceError) as exc:
        component_roots((math.inf, 1.0))
    assert exc.value.residual == math.inf
    # a root solver off by a factor 1e6 on both roots of z^2 - 1: each Newton step
    # about halves z, so the capped iteration stops far from +-1
    monkeypatch.setattr(polyfactor, "_eigenvalues", lambda c: [-1e6 + 0j, 1e6 + 0j])
    with pytest.raises(NonConvergenceError) as exc:
        component_roots((0.0, -1.0))
    z = 1e6
    for _ in range(polyfactor._NEWTON_STEPS):
        z -= (z * z - 1) / (2 * z)
    assert exc.value.residual == pytest.approx((z * z - 1) / (z * z + 1))


def _monic_from_roots(roots, real: bool) -> tuple:
    c = [1.0 + 0j]
    for r in roots:
        c = [a - r * b for a, b in zip(c + [0j], [0j] + c)]
    return tuple(x.real for x in c[1:]) if real else tuple(c[1:])


def _spread_polynomial(rng: random.Random, degree: int, spread: float, real: bool) -> tuple:
    """Monic polynomial with roots of modulus 10^U(-spread, spread); real ones pair conjugates."""
    roots: list[complex] = []
    while len(roots) < degree:
        modulus = 10.0 ** rng.uniform(-spread, spread)
        if real and degree - len(roots) >= 2 and rng.random() < 0.5:
            z = cmath.rect(modulus, rng.uniform(0.0, math.pi))
            roots += [z, z.conjugate()]
        elif real:
            roots.append(complex(rng.choice((-modulus, modulus))))
        else:
            roots.append(cmath.rect(modulus, rng.uniform(0.0, 2.0 * math.pi)))
    return _monic_from_roots(roots, real)


@pytest.mark.parametrize("spread", [0.0, 5.0, 30.0])
def test_eigenvalues_against_numpy_roots(spread):
    """The Aberth approximations beside numpy.roots on seeded polynomials of degree 1-8.

    Real coefficients give exact conjugate pairs or exactly real values.
    Every approximation's backward error stays within 16 times the worst of
    numpy's companion eigenvalues (or 16 m eps) for root moduli within
    1e+-5.  Over 1e+-30 numpy's own are often far off, so there the
    Newton-refined roots are compared: :func:`component_roots` fails on no
    more polynomials than the same refinement of numpy's eigenvalues.
    """
    np = pytest.importorskip("numpy")
    rng = random.Random(int(spread) + 39)
    failures = {"solver": 0, "numpy": 0}
    for degree, real, _ in itertools.product(range(1, 9), (True, False), range(30)):
        coeffs = [complex(c) for c in _spread_polynomial(rng, degree, spread, real)]
        if not all(map(cmath.isfinite, coeffs)):
            continue
        found = polyfactor._eigenvalues(coeffs)
        assert len(found) == degree
        if real:
            assert all(not z.imag or z.conjugate() in found for z in found)
        reference = [complex(z) for z in np.roots([1.0, *(c.real if real else c for c in coeffs)])]
        if spread < 30.0:
            bound = max(16 * max(polyfactor._backward_error(coeffs, z) for z in reference),
                        16 * degree * polyfactor._EPS)
            assert max(polyfactor._backward_error(coeffs, z) for z in found) <= bound
            continue
        for route, eigenvalues in (("solver", found), ("numpy", reference)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(polyfactor, "_eigenvalues", lambda c, e=eigenvalues: list(e))
                try:
                    component_roots(coeffs)
                except NonConvergenceError:
                    failures[route] += 1
    assert failures["solver"] <= failures["numpy"]


@pytest.mark.parametrize("spread", [5.0, 30.0])
def test_graded_roots_are_all_found(spread):
    # 480 seeded polynomials of degree 1-8 with root moduli 10^U(-spread, spread)
    rng = random.Random(7000)
    failures = []
    for degree, real, _ in itertools.product(range(1, 9), (True, False), range(30)):
        coeffs = _spread_polynomial(rng, degree, spread, real)
        try:
            component_roots(coeffs)
        except NonConvergenceError as exc:
            failures.append((coeffs, exc.residual))
    assert failures == []


def test_extreme_coefficients_give_roots_or_nonconvergence():
    # parts log-uniform over 1e-310..1e308, with zeros and values near the largest
    # double: every modulus and residual is formed without a raw OverflowError
    rng = random.Random(41)

    def part() -> float:
        u = rng.random()
        magnitude = 0.0 if u < 0.1 else 1.7e308 * rng.uniform(0.5, 1.0) if u < 0.2 else (
            10.0 ** rng.uniform(-310.0, 308.0))
        return rng.choice((-1.0, 1.0)) * magnitude

    solved = 0
    for degree, real, _ in itertools.product(range(1, 7), (True, False), range(50)):
        coeffs = [complex(part(), 0.0 if real else part()) for _ in range(degree)]
        try:
            component_roots(coeffs)
            solved += 1
        except NonConvergenceError:
            pass
    assert solved > 400


def test_separated_simple_roots_are_rounded_once():
    # Newton's method on the exact p(z) leaves each root at its value rounded to
    # doubles, whatever the last bits of the approximation it started from
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(40)
    checked = 0
    with mpmath.workprec(200):
        for degree, real, _ in itertools.product(range(1, 7), (True, False), range(10)):
            coeffs = _spread_polynomial(rng, degree, 1.0, real)
            exact = mpmath.polyroots([1, *map(mpmath.mpc, coeffs)], maxsteps=300, extraprec=300)
            for z in component_roots(coeffs):
                w = min(exact, key=lambda v: abs(v - z))
                if all(v is w or abs(v - w) > 0.05 for v in exact):
                    assert z == complex(w)
                    checked += 1
    assert checked > 400
    # so are simple roots 2e-5 to 1e-3 apart, conditioned only to about 1e-6: each is
    # the 300-bit root of the rounded coefficients rounded once, real or turned off the axis
    checked = 0
    with mpmath.workprec(300):
        for turn, roots in itertools.product((1.0, 0.6 + 0.8j), (
                *_CLOSE_ROOTS.values(), *_CLUSTERED_SIMPLE_ROOTS.values())):
            coeffs = _monic_from_roots([z * turn for z in roots], turn == 1.0)
            exact = mpmath.polyroots([1, *map(mpmath.mpc, coeffs)], maxsteps=500, extraprec=600)
            found = component_roots(coeffs)
            assert len(set(found)) == len(roots)
            for z in found:
                assert z == complex(min(exact, key=lambda v: abs(v - z)))
                checked += 1
    assert checked == 38


@pytest.mark.parametrize("coefficients, roots", [
    ((0.0, 0.0, 0.0), (0j, 0j, 0j)),
    ((-1.0, 0.0, 0.0), (0j, 0j, 1 + 0j)),                  # z^3 - z^2: two exact zero roots
    ((1j, 0.0), (-1j, 0j)),
    ((1e308, 1e308), (-1e308 + 0j, -1 + 0j)),
    ((1e200, 1e300), (-1e200 + 0j, -1e100 + 0j)),
    ((1e308, 1e100), (-1e308 + 0j, -1e-208 + 0j)),           # a scaled c2 would underflow
])
def test_eigenvalues_of_edge_polynomials(coefficients, roots):
    # trailing zero coefficients are exact zero roots, as numpy.roots strips them
    found = sorted(polyfactor._eigenvalues([complex(c) for c in coefficients]), key=abs)
    assert len(found) == len(roots)
    for z, r in zip(found, sorted(roots, key=abs)):
        assert z == r if not r else abs(z - r) <= 4 * polyfactor._EPS * abs(r)


@pytest.mark.parametrize("c6", [1e-3, 1e-3j])
def test_start_circles_that_nearly_coincide(c6):
    # z^6 + z^4 + (1 - 2^-50) z + c6: the hull edges 0-2 and 2-5 give start circles of
    # radii 1 and 1 - 3e-16, with one point of each at the same angle; such edges merge,
    # so no two points start next to each other, where their repulsion would freeze them
    coeffs = [0j, 1 + 0j, 0j, 0j, complex(1 - 2.0 ** -50), complex(c6)]
    found = polyfactor._eigenvalues(coeffs)
    assert max(polyfactor._backward_error(coeffs, z) for z in found) <= 16 * 6 * polyfactor._EPS


# exact roots of real polynomials with repeated roots, and of roots close but distinct
_REPEATED_ROOTS = {
    "(z-1)^2": [1, 1],
    "(z-1)^3": [1, 1, 1],
    "(z-1)^4": [1, 1, 1, 1],
    "(z^2+1)^2": [1j, 1j, -1j, -1j],
    "(z-2)^2(z+1)": [2, 2, -1],
}
_CLOSE_ROOTS = {
    "1e-3 apart": [1, 1 + 1e-3, -2],
    "1e-4 apart": [0.5, 0.5 + 1e-4],
    "two pairs 1e-4 apart": [1, 1 + 1e-4, 2, 2 + 1e-4],
    "2e-4 apart beside 1000": [1, 1.0002, 1000],
}


@pytest.mark.parametrize("tag", ["plus", "pair1"])
@pytest.mark.parametrize("name", list(_REPEATED_ROOTS) + list(_CLOSE_ROOTS))
def test_component_roots_multiplicity(name, tag):
    exact = [complex(z) for z in {**_REPEATED_ROOTS, **_CLOSE_ROOTS}[name]]
    found = component_roots(_monic_from_roots(exact, tag == "plus"))
    assert list(found) == _sorted_roots(found)
    assert len(set(found)) == len(set(exact))
    # a repeated root is the mean of its eigenvalue cluster, good to rounding; close
    # simple roots are conditioned by their gap, about eps / gap^(k-1)
    bound = 1e-13 if name in _REPEATED_ROOTS else 1e-9
    for a, b in zip(found, _sorted_roots(exact)):
        assert abs(a - b) <= bound


def _repeated_real_root_cases(seed: int, count: int) -> list[list[float]]:
    """Roots of (u - a)^m, m = 3 or 4, a = k/16 with |k| <= 64, half of them times
    (u - b) with b = j/16, |j| <= 64, at least 1/2 from a."""
    rng = random.Random(seed)
    cases = [[3.25] * 4 + [3.875]]
    while len(cases) < count:
        a = rng.randint(-64, 64) / 16
        roots = [a] * rng.choice((3, 4))
        if rng.random() < 0.5:
            b = rng.randint(-64, 64) / 16
            if abs(b - a) < 0.5:
                continue
            roots.append(b)
        cases.append(roots)
    return cases


@pytest.mark.parametrize("variant", BOTH_VARIANTS)
def test_repeated_real_roots_have_real_factors(variant):
    # the approximations of a real multiple root come in conjugate pairs whose mean keeps
    # an imaginary residue of about 1e-20, which Newton on p^(m-1) shrinks but never
    # clears: (u - 3.25)^4 (u - 3.875) printed 3.25 - 3.3e-73 h1 + ... four times
    for roots in _repeated_real_root_cases(1, 300):
        coefficients = _monic_from_roots([complex(r) for r in roots], real=True)
        poly = HexaPolynomial.from_coefficient_list(
            [HexaNumber.from_real(variant, c) for c in (1.0, *coefficients)])
        found = factor(poly)
        assert all(f.degree == 1 and not any(f.coeffs[0].components[1:])
                   for f in found.factors), (roots, format_factorization(found))
        got = sorted(-f.coeffs[0].components[0] for f in found.factors)
        assert max(abs(a - b) for a, b in zip(got, sorted(roots))) <= 1e-13, roots


# Simple roots closer than a double root spreads under rounding.  The roots
# themselves are conditioned only to about 1e-6, so the check is that they
# stay distinct and that every factorization expands back to the polynomial.
_CLUSTERED_SIMPLE_ROOTS = {
    "four within 1.5e-3": [1, 1.0005, 1.001, 1.0015],
    "three within 4e-5": [1, 1.00002, 1.00004],
}


@pytest.mark.parametrize("variant", BOTH_VARIANTS)
@pytest.mark.parametrize("name", list(_CLUSTERED_SIMPLE_ROOTS))
def test_close_simple_roots_stay_distinct(name, variant):
    exact = _CLUSTERED_SIMPLE_ROOTS[name]
    coefficients = _monic_from_roots([complex(z) for z in exact], real=True)
    poly = HexaPolynomial.from_coefficient_list(
        [HexaNumber.from_real(variant, c) for c in (1.0, *coefficients)])
    for component in decompose(poly).values():
        assert len(set(component_roots(component))) == len(exact)
    factor(poly)
    for f in enumerate_factorizations(poly, 1000):
        polyfactor._verify_expansion(poly, f)


def test_factor_polar_square_minus_one():
    f = factor(u_squared_minus_one())
    assert all(piece.degree == 1 for piece in f.factors)
    assert len(f.factors) == 2
    assert_hexa_close(f.roots[0], -f.roots[1], 1e-9)
    back = expand(f)
    assert max_abs_diff(back.coeffs[1], HexaNumber(Variant.POLAR, (-1, 0, 0, 0, 0, 0))) <= 1e-9


def test_factor_planar_square_plus_one():
    f = factor(u_squared_plus_one())
    assert len(f.factors) == 2
    assert all(piece.degree == 1 for piece in f.factors)
    poly = u_squared_plus_one()
    for root in f.roots:
        assert abs(poly.evaluate(root)) <= 1e-8


def test_factor_polar_square_plus_one_is_irreducible_quadratic():
    f = factor(u_squared_plus_one(Variant.POLAR))
    assert len(f.factors) == 1
    piece = f.factors[0]
    assert piece.degree == 2
    b, c = piece.coeffs
    assert max(abs(x) for x in b.components) <= 1e-9
    assert_hexa_close(c, HexaNumber.one(Variant.POLAR), 1e-9)


def _root_key(components):
    return tuple(round(c, 7) for c in components)


def _canonical_pair_key(root: HexaNumber):
    a = _root_key(root.components)
    b = _root_key((-root).components)
    return min(a, b)


def test_enumerate_polar_square_minus_one_matches_sign_patterns():
    factorizations = enumerate_factorizations(u_squared_minus_one(), limit=100)
    assert len(factorizations) == 8
    seen = set()
    for f in factorizations:
        assert len(f.factors) == 2
        r1, r2 = f.roots
        assert_hexa_close(r1, -r2, 1e-9)
        seen.add(_canonical_pair_key(r1))
    expected = {min(_root_key(r), _root_key(tuple(-v for v in r)))
                for r in POLAR_SQUARE_ROOTS}
    assert seen == expected


def test_enumerate_planar_square_plus_one_matches_sign_patterns():
    factorizations = enumerate_factorizations(u_squared_plus_one(), limit=100)
    assert len(factorizations) == 4
    seen = {_canonical_pair_key(f.roots[0]) for f in factorizations}
    expected = {min(_root_key(r), _root_key(tuple(-v for v in r)))
                for r in PLANAR_SQUARE_ROOTS}
    assert seen == expected


def test_enumerate_degree_one_is_unique():
    rng = random.Random(62)
    for variant in BOTH_VARIANTS:
        c = random_hexa(rng, variant)
        poly = HexaPolynomial(variant, [-c])
        factorizations = enumerate_factorizations(poly, limit=10)
        assert len(factorizations) == 1
        assert_hexa_close(factorizations[0].roots[0], c, 1e-9)


def test_enumerate_respects_limit():
    factorizations = enumerate_factorizations(u_squared_minus_one(), limit=3)
    assert len(factorizations) == 3


def test_expand_of_sign_pattern_root():
    root = HexaNumber(Variant.POLAR, tuple(v / 3.0 for v in (1, 1, 1, -2, 1, 1)))
    f = Factorization(Variant.POLAR,
                      tuple(HexaPolynomial(Variant.POLAR, [-r]) for r in (root, -root)))
    back = expand(f)
    assert max_abs_diff(back.coeffs[0], HexaNumber.zero(Variant.POLAR)) <= 1e-12
    assert max_abs_diff(back.coeffs[1],
                        HexaNumber(Variant.POLAR, (-1, 0, 0, 0, 0, 0))) <= 1e-12


def test_factor_expand_roundtrip_random():
    rng = random.Random(63)
    for variant in BOTH_VARIANTS:
        for degree in (1, 2, 3, 4, 5):
            poly = HexaPolynomial(variant,
                                  [random_hexa(rng, variant) for _ in range(degree)])
            f = factor(poly)
            assert f.degree == degree
            back = expand(f)
            for a, b in zip(back.coeffs, poly.coeffs):
                assert max_abs_diff(a, b) <= 1e-7 * poly.scale_estimate()
            for root in f.roots:
                assert abs(poly.evaluate(root)) <= 1e-8 * poly.scale_estimate()


def test_square_root_sign_patterns_are_exact():
    e_plus, e_minus, e1, _, e2, _ = canonical_basis(Variant.POLAR)
    one = HexaNumber.one(Variant.POLAR)
    for s0 in (1.0, -1.0):
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                for s3 in (1.0, -1.0):
                    root = e_plus * s0 + e_minus * s1 + e1 * s2 + e2 * s3
                    assert max_abs_diff(root * root, one) <= 1e-14

    basis = canonical_basis(Variant.PLANAR)
    t1, t2, t3 = basis[1], basis[3], basis[5]
    minus_one = -HexaNumber.one(Variant.PLANAR)
    for s0 in (1.0, -1.0):
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                root = t1 * s0 + t2 * s1 + t3 * s2
                assert max_abs_diff(root * root, minus_one) <= 1e-14


def test_non_monic_normalization():
    two = HexaNumber.from_real(Variant.POLAR, 2.0)
    one = HexaNumber.one(Variant.POLAR)
    poly = HexaPolynomial.from_coefficient_list([two, two, -two])
    assert poly.coeffs[0] == one
    assert poly.coeffs[1] == -one

    e_plus = canonical_basis(Variant.POLAR)[0]
    with pytest.raises(ZeroDivisorError):
        HexaPolynomial.from_coefficient_list([e_plus, one])


def test_root_residuals_reported_on_failure():
    # A wildly scaled constant term cannot defeat the residual bound, but a
    # mismatched verification must surface as NonConvergenceError; simulate by
    # a hand-built factorization check instead of a real solver failure.
    poly = u_squared_minus_one()
    good = factor(poly)
    assert isinstance(good, Factorization)
    with pytest.raises(NonConvergenceError):
        from hexacomplex.polyfactor import _verify_expansion
        one = HexaNumber.one(Variant.POLAR)
        bad = Factorization(Variant.POLAR, (HexaPolynomial(Variant.POLAR, [-one]),
                                            HexaPolynomial(Variant.POLAR, [-one])))
        _verify_expansion(poly, bad)


def test_format_factorization_style():
    text = format_factorization(factor(u_squared_minus_one()))
    assert text.count("[") == 2 and text.count("]") == 2
    assert "u - " in text or "u + " in text

    quad = format_factorization(factor(u_squared_plus_one(Variant.POLAR)))
    assert quad.startswith("[u^2")
    assert "(1)" in quad


def test_format_linear_factor_matches_negated_root_rule():
    # reference: format -root; on a leading minus print u - root instead
    def reference(root: HexaNumber) -> str:
        text = format_hexa(-root, 12)
        if text == "0":
            return "[u]"
        if text.startswith("-"):
            return f"[u - {polyfactor._wrap_terms(format_hexa(root, 12))}]"
        return f"[u + {polyfactor._wrap_terms(text)}]"

    rng = random.Random(64)
    roots = [HexaNumber.zero(Variant.POLAR), HexaNumber(Variant.POLAR, (-0.0, 0.0, -0.0, 0, 0, 0)),
             HexaNumber(Variant.PLANAR, (0.0, 0.0, 1e-300, -2.0, 0.0, 1.0)),
             HexaNumber(Variant.PLANAR, (0.0, -1.0, 0.0, 0.0, 0.0, 0.0)),
             HexaNumber(Variant.POLAR, (3.0, 0.0, 0.0, 0.0, 0.0, 0.0))]
    roots += [random_hexa(rng, variant) for variant in BOTH_VARIANTS for _ in range(20)]
    for root in roots:
        f = Factorization(root.variant, (HexaPolynomial(root.variant, [-root]),))
        assert format_factorization(f) == reference(root)


# -- enumeration against the unpruned search ----------------------------------------


def _poly_from_component_roots(variant: Variant, axis_roots, plane_roots) -> HexaPolynomial:
    """Monic polynomial whose canonical components have exactly the given roots."""

    def coefficients(roots):
        c = [1.0]
        for r in roots:
            c = [a - r * b for a, b in zip(c + [0.0], [0.0] + c)]
        return c[1:]

    axis_c = [coefficients(r) for r in axis_roots]
    plane_c = [coefficients(r) for r in plane_roots]
    degree = len(plane_roots[0])
    return HexaPolynomial(variant, [
        from_canonical_values(variant, [c[j].real for c in axis_c]
                              + [complex(c[j]) for c in plane_c])
        for j in range(degree)])


def _rounded(z: complex) -> tuple[float, float]:
    return (round(z.real, polyfactor._DEDUP_DECIMALS), round(z.imag, polyfactor._DEDUP_DECIMALS))


def _every_distinct_ordering(roots):
    """All orderings distinct under the dedup rounding, in lexicographic order of groups."""
    values: list[complex] = []
    ranks: list[int] = []
    for z in sorted(roots, key=_rounded):
        if not values or _rounded(values[-1]) != _rounded(z):
            values.append(z)
        ranks.append(len(values) - 1)
    for perm in sorted(set(itertools.permutations(ranks))):
        yield tuple(values[r] for r in perm)


def _unpruned_enumeration(p: HexaPolynomial, limit: int) -> list[Factorization]:
    """The search without symmetry pruning: every distinct ordering of every
    component, the axis test, then the rounded-key dict."""
    table = {tag: component_roots(c) for tag, c in decompose(p).items()}
    a = tr.axis_count(p.variant.is_planar)
    axis_tags, plane_tags = list(table)[:a], list(table)[a:]
    m = p.degree
    q = max((polyfactor._axis_pair_count(table[t]) for t in axis_tags), default=0)

    def real(z: complex) -> bool:
        return abs(z.imag) <= polyfactor._REAL_SNAP_RTOL * (1 + abs(z))

    def axis_ok(o) -> bool:
        return (all((real(o[2 * i]) and real(o[2 * i + 1]))
                    or abs(o[2 * i + 1] - o[2 * i].conjugate()) <= 1e-6 * (1 + abs(o[2 * i]))
                    for i in range(q))
                and all(real(z) for z in o[2 * q:]))

    choices = []
    for index, tag in enumerate(axis_tags + plane_tags):
        if index == 0 and q == 0:
            choices.append([tuple(table[tag])])
        else:
            choices.append([o for o in _every_distinct_ordering(table[tag])
                            if tag not in axis_tags or axis_ok(o)])
    pieces: dict[tuple, tuple] = {}  # slot contents -> (factor, key); building is pure

    def piece(slot: int, axes, planes) -> tuple:
        end = slot + 2 if slot < 2 * q else slot + 1
        contents = (slot, tuple(o[slot:end] for o in axes), tuple(o[slot:end] for o in planes))
        if contents not in pieces:
            built = polyfactor._slot_factor(p.variant, contents[1] + contents[2])
            pieces[contents] = built, polyfactor._factor_key(built)
        return pieces[contents]

    found: dict[tuple, Factorization] = {}
    for combo in itertools.product(*choices):
        axes, planes = combo[:len(axis_tags)], combo[len(axis_tags):]
        slots = [piece(2 * i, axes, planes) for i in range(q)]
        slots += [piece(j, axes, planes) for j in range(2 * q, m)]
        key = tuple(sorted(k for _, k in slots))
        if key not in found:
            found[key] = Factorization(p.variant, tuple(f for f, _ in slots))
        if len(found) >= limit:
            break
    return list(found.values())


_AXIS_PAIRS = [0.5 + 1.2j, -1.1 + 0.6j]
_AXIS_REALS = [-1.3, 0.4, 1.7, -0.6]
_PLANE_ROOTS = [[1.0 + 0.5j, -0.7 + 1.1j, 0.3 - 1.4j, -1.2 - 0.4j],
                [-0.2 + 0.9j, 1.3 - 0.8j, -1.5 + 0.1j, 0.6 + 0.2j],
                [0.8 + 1.3j, -0.9 - 1.0j, 1.6 + 0.3j, -0.4 - 0.5j]]


def _axis_roots(degree: int, pairs: int, shift: float) -> list[complex]:
    roots = []
    for z in _AXIS_PAIRS[:pairs]:
        roots += [z + shift, (z + shift).conjugate()]
    return roots + [complex(x + shift) for x in _AXIS_REALS[:degree - len(roots)]]


def _enumeration_cases():
    cases = []
    for degree, pairs in ((2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2)):
        axes = [_axis_roots(degree, pairs, 0.0), _axis_roots(degree, pairs, 0.25)]
        planes = [r[:degree] for r in _PLANE_ROOTS[:2]]
        cases.append((f"polar-deg{degree}-pairs{pairs}",
                      _poly_from_component_roots(Variant.POLAR, axes, planes)))
    cases.append(("polar-deg3-pairs1-0", _poly_from_component_roots(
        Variant.POLAR, [_axis_roots(3, 1, 0.0), _axis_roots(3, 0, 0.1)],
        [r[:3] for r in _PLANE_ROOTS[:2]])))
    cases.append(("planar-deg2", _poly_from_component_roots(
        Variant.PLANAR, [], [r[:2] for r in _PLANE_ROOTS])))
    # a root repeated on one plane only, the other roots distinct; and two axes
    # that share a rounded root value
    repeated = [_PLANE_ROOTS[0][:1] * 2 + _PLANE_ROOTS[0][1:2], *(r[:3] for r in _PLANE_ROOTS[1:])]
    cases.append(("planar-deg3-repeated-on-pair1",
                  _poly_from_component_roots(Variant.PLANAR, [], repeated)))
    cases.append(("polar-deg3-repeated-on-pair2", _poly_from_component_roots(
        Variant.POLAR, [_axis_roots(3, 0, 0.0), _axis_roots(3, 0, 0.25)],
        [_PLANE_ROOTS[0][:3], _PLANE_ROOTS[1][1:2] * 2 + _PLANE_ROOTS[1][:1]])))
    cases.append(("polar-deg3-shared-axis-root", _poly_from_component_roots(
        Variant.POLAR, [_axis_roots(3, 0, 0.0), [0.4, -0.6 + 0.25, 1.7 + 0.25]],
        [r[:3] for r in _PLANE_ROOTS[:2]])))
    # repeated component roots, given as leading-first coefficient lists
    for name, variant, coefficients in (("(u-1)^2", Variant.POLAR, (1, -2, 1)),
                                        ("(u-1)^2", Variant.PLANAR, (1, -2, 1)),
                                        ("(u-1)^3", Variant.POLAR, (1, -3, 3, -1)),
                                        ("(u-1)^2(u-2)", Variant.PLANAR, (1, -4, 5, -2)),
                                        ("u^2+1", Variant.POLAR, (1, 0, 1)),
                                        ("(u^2+1)^2", Variant.POLAR, (1, 0, 2, 0, 1)),
                                        ("u^4+1", Variant.POLAR, (1, 0, 0, 0, 1))):
        cases.append((f"{variant.value}-{name}", HexaPolynomial.from_coefficient_list(
            [HexaNumber.from_real(variant, float(c)) for c in coefficients])))
    return cases


@pytest.mark.parametrize("poly", [pytest.param(p, id=name) for name, p in _enumeration_cases()])
def test_enumeration_matches_unpruned_search(poly):
    for limit in (1, 7, 100000):
        expected = [format_factorization(f) for f in _unpruned_enumeration(poly, limit)]
        got = [format_factorization(f) for f in enumerate_factorizations(poly, limit)]
        assert got == expected, f"limit {limit}"


def test_enumeration_builds_one_candidate_per_result(monkeypatch):
    # two conjugate pairs on each axis: 8 * 8 * 24 * 24 orderings, 72 distinct results
    axes = [_axis_roots(4, 2, 0.0), _axis_roots(4, 2, 0.25)]
    poly = _poly_from_component_roots(Variant.POLAR, axes, _PLANE_ROOTS[:2])
    built = []
    init = Factorization.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Factorization, "__init__", counting)
    found = enumerate_factorizations(poly, 100000)
    assert len(found) == 72
    assert len(built) == 72


# Linear and quadratic factors built by a full enumeration: one per distinct
# slot contents (each component's root or root pair), wherever the slot lies.
# Building every slot of every visited ordering would take 2,304, 55,296, 648
# and 144 for the first four; one build per slot index and contents, 3, 18 and
# 12 for the repeated roots of the last three.
_BUILD_COUNTS = [
    ("planar-deg4", 64, 0),
    ("polar-deg4-pairs0", 256, 0),
    ("polar-deg3-pairs0", 81, 0),
    ("polar-deg4-pairs2", 0, 144),
    ("polar-(u-1)^3", 1, 0),
    ("polar-(u^2+1)^2", 0, 9),
    ("planar-(u-1)^2(u-2)", 8, 0),
]


@pytest.mark.parametrize("name, linear, quadratic", _BUILD_COUNTS,
                         ids=[name for name, _, _ in _BUILD_COUNTS])
def test_enumeration_builds_each_slot_contents_once(monkeypatch, name, linear, quadratic):
    if name == "planar-deg4":
        poly = _poly_from_component_roots(Variant.PLANAR, [], _PLANE_ROOTS)
    else:
        poly = dict(_enumeration_cases())[name]
    built = {1: 0, 2: 0}  # slot width (roots per component) -> factors built
    build = polyfactor._slot_factor

    def counting(variant, groups):
        built[len(groups[0])] += 1
        return build(variant, groups)

    monkeypatch.setattr(polyfactor, "_slot_factor", counting)
    enumerate_factorizations(poly, 100000)
    assert built == {1: linear, 2: quadratic}


# Orderings drawn for the product of (u - k), k = 1..8, where each component has
# 8! orderings: one per component down to the last, which draws one per result.
_LAZY_DRAWS = [
    (Variant.PLANAR, 1, 3),
    (Variant.PLANAR, 5, 7),
    (Variant.POLAR, 1, 4),
    (Variant.POLAR, 5, 8),
]


@pytest.mark.parametrize("variant, limit, most", _LAZY_DRAWS,
                         ids=[f"{v.value}-limit{limit}" for v, limit, _ in _LAZY_DRAWS])
def test_low_limits_draw_few_orderings(monkeypatch, variant, limit, most):
    coefficients = [1.0]
    for k in range(1, 9):
        coefficients = [a - k * b for a, b in zip(coefficients + [0.0], [0.0] + coefficients)]
    poly = HexaPolynomial.from_coefficient_list(
        [HexaNumber.from_real(variant, c) for c in coefficients])
    drawn = []
    permutations = polyfactor._distinct_permutations

    def counting(*args):
        for ordering in permutations(*args):
            drawn.append(ordering)
            yield ordering

    monkeypatch.setattr(polyfactor, "_distinct_permutations", counting)
    assert len(enumerate_factorizations(poly, limit)) == limit
    assert len(drawn) <= most


# Repeated component roots: one factorization per distinct assignment of the
# exact roots, not one per rounding of root-finding noise.
_REPEATED_ROOT_COUNTS = [
    (Variant.POLAR, (1, -2, 1), 1),
    (Variant.PLANAR, (1, -2, 1), 1),
    (Variant.POLAR, (1, 0, 2, 0, 1), 5),
]


@pytest.mark.parametrize("variant, coefficients, count", _REPEATED_ROOT_COUNTS,
                         ids=["polar-(u-1)^2", "planar-(u-1)^2", "polar-(u^2+1)^2"])
def test_repeated_roots_are_enumerated_once(variant, coefficients, count):
    poly = HexaPolynomial.from_coefficient_list(
        [HexaNumber.from_real(variant, float(c)) for c in coefficients])
    assert len(enumerate_factorizations(poly, 1000)) == count
    assert len(_unpruned_enumeration(poly, 1000)) == count
