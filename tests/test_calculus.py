"""Derivatives, component-derivative chains, line integrals and residues."""

from __future__ import annotations

import math
import random
import re

import pytest

from conftest import BOTH_VARIANTS, max_abs_diff, random_hexa
from hexacomplex import elementary
from hexacomplex.algebra import HexaNumber, Variant, from_canonical_components
from hexacomplex.calculus import (
    FUNCTIONS,
    FunctionUnderTest,
    Path,
    circle_path,
    cr_check,
    directional_derivative,
    line_integral,
    residue_integral,
    winding_number,
)
from hexacomplex.canonical import canonical_basis
from hexacomplex.errors import DegeneratePathError, DomainError, VariantError, ZeroDivisorError

TWO_PI = 2.0 * math.pi


def _clearance_center(variant: Variant, pole: HexaNumber, plane: int,
                      clearance: float = 1.0) -> HexaNumber:
    """Loop center displaced from the pole along every non-winding direction."""
    values = []
    if not variant.is_planar:
        values.extend((clearance, clearance))
    pair_count = 3 if variant.is_planar else 2
    for k in range(1, pair_count + 1):
        values.extend((0.0, 0.0) if k == plane else (clearance, 0.0))
    return pole + from_canonical_components(variant, values)


def test_directional_derivative_of_exp_at_zero():
    for variant in BOTH_VARIANTS:
        derivative = directional_derivative(elementary.exp, HexaNumber.zero(variant),
                                            HexaNumber.one(variant))
        assert max_abs_diff(derivative, HexaNumber.one(variant)) <= 1e-8


def test_directional_derivative_of_square_is_direction_independent():
    rng = random.Random(70)
    square = FUNCTIONS["u2"]
    for variant in BOTH_VARIANTS:
        for _ in range(20):
            u0 = random_hexa(rng, variant, -0.5, 0.5)
            results = []
            attempts = 0
            while len(results) < 5 and attempts < 50:
                attempts += 1
                direction = random_hexa(rng, variant)
                try:
                    results.append(directional_derivative(square, u0, direction))
                except DomainError:
                    continue
            assert len(results) == 5
            expected = u0 * 2.0
            for value in results:
                assert max_abs_diff(value, expected) <= 1e-6
            spread = max(max_abs_diff(a, b) for a in results for b in results)
            assert spread <= 1e-6


def test_directional_derivative_of_exp_direction_independence():
    u0 = HexaNumber(Variant.POLAR, (0.2, -0.1, 0.3, 0.05, -0.2, 0.1))
    d1 = directional_derivative(elementary.exp, u0, HexaNumber.one(Variant.POLAR))
    d2 = directional_derivative(elementary.exp, u0, HexaNumber.basis(Variant.POLAR, 1))
    assert max_abs_diff(d1, d2) <= 1e-6


def test_directional_derivative_rejects_zero_divisor_direction():
    e_plus = canonical_basis(Variant.POLAR)[0]
    with pytest.raises(DomainError):
        directional_derivative(elementary.exp, HexaNumber.zero(Variant.POLAR), e_plus)


@pytest.mark.parametrize("name", ["exp", "sin", "u2", "u3"])
def test_cr_chains_for_analytic_functions(name):
    rng = random.Random(71)
    f = FUNCTIONS[name]
    for variant in BOTH_VARIANTS:
        for _ in range(20):
            u0 = random_hexa(rng, variant, -0.5, 0.5)
            report = cr_check(f, u0)
            assert report.max_residual <= 1e-6


def test_cr_chains_constant_function():
    constant = FunctionUnderTest("const", lambda u: HexaNumber.one(u.variant))
    for variant in BOTH_VARIANTS:
        report = cr_check(constant, HexaNumber.zero(variant))
        assert report.max_residual <= 1e-12


def test_planar_first_order_sign_pattern_directly():
    # f = u^2 planar: P0 = x0^2 - 2(x1 x5 + x2 x4) - x3^2, P1 = 2(x0 x1 - x2 x5 - x3 x4)
    # so dP1/dx0 = 2 x1 while dP0/dx5 = -2 x1: the wrap term flips sign.
    u0 = HexaNumber(Variant.PLANAR, (0.3, 0.7, -0.2, 0.1, 0.4, -0.5))
    h = 1e-6

    def partial(k: int, p: int) -> float:
        step = [0.0] * 6
        step[p] = h
        up = HexaNumber(Variant.PLANAR, [a + b for a, b in zip(u0.components, step)])
        um = HexaNumber(Variant.PLANAR, [a - b for a, b in zip(u0.components, step)])
        return ((up * up).components[k] - (um * um).components[k]) / (2.0 * h)

    assert partial(1, 0) == pytest.approx(-partial(0, 5), abs=1e-6)
    assert partial(5, 0) == pytest.approx(-partial(0, 1), abs=1e-6)
    assert partial(0, 0) == pytest.approx(partial(1, 1), abs=1e-6)


def test_line_integral_of_constant_over_closed_path_vanishes():
    for variant in BOTH_VARIANTS:
        loop = circle_path(variant, HexaNumber.one(variant), 1.0, 64, plane=1)
        result = line_integral(lambda u: HexaNumber.one(variant), loop)
        assert abs(result) <= 1e-12


def test_line_integral_path_independence():
    variant = Variant.POLAR
    start = HexaNumber.zero(variant)
    end = HexaNumber.one(variant)
    waypoint = HexaNumber(variant, (0.5, 0.4, -0.3, 0.2, 0.1, -0.2))

    def straight(a, b, n):
        return [a + (b - a) * (i / n) for i in range(n + 1)]

    direct = Path(variant, straight(start, end, 400), closed=False)
    detour_samples = straight(start, waypoint, 400) + straight(waypoint, end, 400)[1:]
    detour = Path(variant, detour_samples, closed=False)
    i1 = line_integral(elementary.exp, direct)
    i2 = line_integral(elementary.exp, detour)
    assert max_abs_diff(i1, i2) <= 1e-6


def test_line_integral_antiderivative():
    variant = Variant.PLANAR
    u1 = HexaNumber(variant, (0.8, -0.3, 0.5, 0.2, -0.6, 0.1))
    samples = [u1 * (i / 600) for i in range(601)]
    result = line_integral(lambda u: u, Path(variant, samples, closed=False))
    expected = u1 * u1 * 0.5
    assert max_abs_diff(result, expected) <= 1e-6


def test_closed_path_integral_of_analytic_function_vanishes():
    for variant in BOTH_VARIANTS:
        center = _clearance_center(variant, HexaNumber.zero(variant), plane=1)
        loop = circle_path(variant, center, 0.8, 2048, plane=1)
        for name in ("exp", "sin", "u2"):
            f = FUNCTIONS[name]
            value = line_integral(f, loop)
            max_f = max(abs(f(s)) for s in loop.samples)
            assert abs(value) <= 1e-5 * loop.length() * max_f


def test_winding_numbers():
    variant = Variant.POLAR
    pole = HexaNumber.zero(variant)
    center = _clearance_center(variant, pole, plane=1)
    loop = circle_path(variant, center, 1.0, 256, plane=1)
    assert winding_number(loop, pole, 1) == 1
    assert winding_number(loop, pole, 2) == 0

    # double traversal accumulates 4*pi of angle
    base = loop.samples[:-1]
    double = Path(variant, list(base) + list(base) + [base[0]], closed=True)
    assert winding_number(double, pole, 1) == 2

    for plane in (0, 3):
        with pytest.raises(ValueError, match="plane index"):
            winding_number(loop, pole, plane)


def test_winding_number_requires_clearance():
    variant = Variant.PLANAR
    pole = HexaNumber.zero(variant)
    loop = circle_path(variant, pole, 1.0, 64, plane=1)  # plane-2 projection sits on the pole
    with pytest.raises(DegeneratePathError):
        winding_number(loop, pole, 2)


def test_residue_integral_single_plane():
    for variant in BOTH_VARIANTS:
        pole = HexaNumber.zero(variant)
        basis = canonical_basis(variant)
        tilde1 = basis[1] if variant.is_planar else basis[3]
        center = _clearance_center(variant, pole, plane=1)
        loop = circle_path(variant, center, 1.0, 4096, plane=1)
        comparison = residue_integral(lambda u: HexaNumber.one(variant), loop, pole)
        assert comparison.windings[0] == 1
        assert all(w == 0 for w in comparison.windings[1:])
        expected = tilde1 * TWO_PI
        assert max_abs_diff(comparison.numeric, expected) <= 1e-5
        assert max_abs_diff(comparison.formula, expected) <= 1e-12
        assert comparison.max_abs_difference <= 1e-5


def test_residue_integral_non_enclosing_loop():
    variant = Variant.POLAR
    pole = HexaNumber.zero(variant)
    center = _clearance_center(variant, pole, plane=2, clearance=1.5)
    # loop winds in plane 2 around center, but center's plane-2 projection is
    # shifted 0 here; push it away so the pole projection is outside
    basis_shift = from_canonical_components(variant, (0.0, 0.0, 0.0, 0.0, 3.0, 0.0))
    loop = circle_path(variant, center + basis_shift, 1.0, 2048, plane=2)
    comparison = residue_integral(lambda u: HexaNumber.one(variant), loop, pole)
    assert comparison.windings == (0, 0)
    assert abs(comparison.numeric) <= 1e-5
    assert abs(comparison.formula) <= 1e-15


def test_residue_integral_planar_two_planes():
    variant = Variant.PLANAR
    pole = HexaNumber(variant, (0.1, 0.0, 0.05, 0.0, 0.0, 0.0))
    clearance = 1.2
    values = [0.0, 0.0, clearance, 0.0, 0.0, 0.0]  # offset only in plane 2
    center = pole + from_canonical_components(variant, values)
    loop = circle_path(variant, center, {1: 0.9, 3: 0.7}, 4096)
    f = FUNCTIONS["exp"]
    comparison = residue_integral(f, loop, pole)
    assert comparison.windings == (1, 0, 1)
    assert comparison.max_abs_difference <= 1e-5


def test_residue_integral_rejects_near_degenerate_paths():
    cases = [
        (Variant.POLAR, 1, 0.0, "v+"),     # v+/v- of u - pole vanish
        (Variant.POLAR, 1, 1.0, "pair2"),  # axes cleared, plane 2 still on the pole
        (Variant.PLANAR, 1, 0.0, "pair2"),
        (Variant.PLANAR, 2, 0.0, "pair1"),
    ]
    for variant, plane, axis_offset, label in cases:
        pole = HexaNumber.zero(variant)
        offset = (axis_offset, axis_offset, 0.0, 0.0, 0.0, 0.0)
        center = pole + from_canonical_components(variant, offset)
        loop = circle_path(variant, center, 1.0, 128, plane=plane)
        with pytest.raises(DegeneratePathError, match=re.escape(f"component {label} ")):
            residue_integral(lambda u: HexaNumber.one(variant), loop, pole)

    # 600 samples clear of the pole except sample 400, whose v- vanishes
    variant = Variant.POLAR
    samples = [from_canonical_components(
        variant, (2.0, 0.0 if i == 400 else 2.0, math.cos(t), math.sin(t), 2.0, 0.0))
        for i, t in enumerate(TWO_PI * i / 600 for i in range(600))]
    loop = Path(variant, samples + samples[:1], closed=True)
    with pytest.raises(DegeneratePathError, match=re.escape("component v- ")):
        residue_integral(FUNCTIONS["one"], loop, HexaNumber.zero(variant))


def _half_turn_loop(variant: Variant, count: int) -> Path:
    """``count`` samples on a half circle around the pole in plane 1, closed.

    Every sample keeps a distance of 1 from the pole in plane 1, but the
    closing chord runs through it: its midpoint is a zero divisor in pair1.
    """
    samples = [from_canonical_components(variant, (2.0, 2.0, math.cos(t), math.sin(t), 2.0, 0.0))
               for t in (math.pi * i / (count - 1) for i in range(count))]
    return Path(variant, samples + samples[:1], closed=True)


@pytest.mark.parametrize("count", [2, 600])
def test_residue_integral_rejects_zero_divisor_midpoint(count):
    variant = Variant.POLAR
    pole = HexaNumber.zero(variant)
    loop = _half_turn_loop(variant, count)
    one = FUNCTIONS["one"]
    with pytest.raises(ZeroDivisorError) as batched:
        residue_integral(one, loop, pole)
    with pytest.raises(ZeroDivisorError) as scalar:
        _scalar_midpoint_sum(lambda u: one(u) * (u - pole).inverse(), loop)
    assert batched.value.component == scalar.value.component == "pair1"


def test_quadrature_rejects_integrand_of_the_other_variant():
    loop = circle_path(Variant.POLAR, HexaNumber.one(Variant.POLAR), 0.5, 16, plane=1)
    with pytest.raises(VariantError):
        line_integral(lambda u: HexaNumber.one(Variant.PLANAR), loop)


def _scalar_midpoint_sum(f, path):
    """Reference midpoint rule, one HexaNumber operation at a time.

    Returns the sum and the summed moduli of its terms; the latter is the
    scale of the rounding error of any order of summation.
    """
    total = HexaNumber.zero(path.variant)
    magnitude = 0.0
    for a, b in path.segments():
        mid = (a + b) * 0.5
        term = f(mid) * (b - a)
        total = total + term
        magnitude += abs(term)
    return total, magnitude


def _open_path_text(variant: Variant, count: int) -> str:
    """Serialized open path along a cubic curve that moves all six components."""
    lines = [f"{variant.value} {count} 0"]
    for i in range(count):
        t = i / (count - 1)
        comps = (0.2 + 0.5 * t, -0.3 * t * t, 0.1 + 0.4 * t ** 3, 0.25 * t,
                 -0.1 + 0.2 * t * t, 0.15 * t - 0.3 * t ** 3)
        lines.append(" ".join(f"{c:.17g}" for c in comps))
    return "\n".join(lines) + "\n"


def _multi_plane_loop(variant: Variant, pole: HexaNumber) -> Path:
    """Loop winding once around the pole in two planes, clear of it elsewhere."""
    if variant.is_planar:
        offset, radii = (0.0, 0.0, 1.2, 0.0, 0.0, 0.0), {1: 0.9, 3: 0.7}
    else:
        offset, radii = (1.5, 1.5, 0.0, 0.0, 0.0, 0.0), {1: 0.8, 2: 0.6}
    center = pole + from_canonical_components(variant, offset)
    return circle_path(variant, center, radii, 256)


def _wobbly_loop(variant: Variant, pole: HexaNumber, count: int = 600) -> Path:
    """Non-circular loop moving in every canonical component, winding once in plane 1."""
    samples = []
    for i in range(count):
        t = TWO_PI * i / count
        plane1 = (0.8 * math.cos(t) + 0.1 * math.cos(2 * t), 0.6 * math.sin(t))
        others = (1.5 + 0.3 * math.cos(3 * t), 0.2 * math.sin(t))
        values = plane1 + others + (others if variant.is_planar else ())
        if not variant.is_planar:
            values = (2.0 + 0.5 * math.cos(t) + 0.2 * math.sin(2 * t),
                      -1.5 + 0.3 * math.sin(t) + 0.1 * math.cos(2 * t)) + values
        samples.append(pole + from_canonical_components(variant, values))
    return Path(variant, samples + samples[:1], closed=True)


@pytest.mark.parametrize("f", [*FUNCTIONS.values(), lambda u: elementary.exp(u) * u - u * 0.5],
                         ids=[*FUNCTIONS, "lambda"])
def test_batched_quadrature_matches_scalar_loop(f):
    for variant in BOTH_VARIANTS:
        open_path = Path.from_text(_open_path_text(variant, 97))
        reference, magnitude = _scalar_midpoint_sum(f, open_path)
        assert max_abs_diff(line_integral(f, open_path), reference) <= 1e-12 * magnitude

        pole = HexaNumber(variant, (0.1, -0.2, 0.05, 0.1, 0.0, -0.05))
        for loop, turns in ((_multi_plane_loop(variant, pole), 2), (_wobbly_loop(variant, pole), 1)):
            reference, magnitude = _scalar_midpoint_sum(f, loop)
            assert max_abs_diff(line_integral(f, loop), reference) <= 1e-12 * magnitude

            reference, magnitude = _scalar_midpoint_sum(
                lambda u: f(u) * (u - pole).inverse(), loop)
            comparison = residue_integral(f, loop, pole)
            assert sum(comparison.windings) == turns
            assert max_abs_diff(comparison.numeric, reference) <= 1e-12 * magnitude


def test_path_construction_and_serialization():
    variant = Variant.POLAR
    loop = circle_path(variant, HexaNumber.one(variant), 0.5, 16, plane=2)
    assert loop.closed and loop.samples[0] == loop.samples[-1]
    text = loop.to_text()
    back = Path.from_text(text)
    assert back.variant is variant and back.closed
    assert all(max_abs_diff(a, b) == 0.0 for a, b in zip(back.samples, loop.samples))
    assert text.splitlines()[0] == f"polar {len(loop.samples)} 1"

    with pytest.raises(ValueError):
        Path(variant, [HexaNumber.one(variant)] * 2, closed=False)
    samples = [HexaNumber.one(variant), HexaNumber.zero(variant),
               HexaNumber.basis(variant, 1)]
    with pytest.raises(ValueError):
        Path(variant, samples, closed=True)
