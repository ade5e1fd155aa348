"""Derivatives, component-derivative chains, line integrals and residues."""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
import re

import numpy as np
import pytest

from conftest import BOTH_VARIANTS, max_abs_diff, random_hexa
from hexacomplex import _transforms as tr
from hexacomplex import calculus, cli, elementary
from hexacomplex.algebra import (
    HexaNumber,
    Variant,
    canonical_values,
    from_canonical_components,
    from_canonical_values,
)
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
        loop = circle_path(variant, HexaNumber.one(variant), {1: 1.0}, 64)
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
        loop = circle_path(variant, center, {1: 0.8}, 2048)
        for name in ("exp", "sin", "u2"):
            f = FUNCTIONS[name]
            value = line_integral(f, loop)
            max_f = max(abs(f(s)) for s in loop.samples)
            assert abs(value) <= 1e-5 * loop.length() * max_f


def test_winding_numbers():
    variant = Variant.POLAR
    pole = HexaNumber.zero(variant)
    center = _clearance_center(variant, pole, plane=1)
    loop = circle_path(variant, center, {1: 1.0}, 256)
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
    loop = circle_path(variant, pole, {1: 1.0}, 64)  # plane-2 projection sits on the pole
    with pytest.raises(DegeneratePathError):
        winding_number(loop, pole, 2)


def test_residue_integral_rejects_a_pole_of_the_other_variant():
    loop = circle_path(Variant.POLAR, HexaNumber.one(Variant.POLAR), {1: 0.5}, 16)
    for path in (loop, Path(Variant.POLAR, loop.points, closed=True)):
        with pytest.raises(ValueError, match="variants differ"):
            residue_integral(FUNCTIONS["one"], path, HexaNumber.zero(Variant.PLANAR))


def test_residue_integral_single_plane():
    for variant in BOTH_VARIANTS:
        pole = HexaNumber.zero(variant)
        basis = canonical_basis(variant)
        tilde1 = basis[1] if variant.is_planar else basis[3]
        center = _clearance_center(variant, pole, plane=1)
        loop = circle_path(variant, center, {1: 1.0}, 4096)
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
    loop = circle_path(variant, center + basis_shift, {2: 1.0}, 2048)
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
        loop = circle_path(variant, center, {plane: 1.0}, 128)
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
    loop = circle_path(Variant.POLAR, HexaNumber.one(Variant.POLAR), {1: 0.5}, 16)
    with pytest.raises(VariantError):
        line_integral(lambda u: HexaNumber.one(Variant.PLANAR), loop)


def _scalar_midpoint_sum(f, path):
    """Reference midpoint rule, one HexaNumber operation at a time.

    Returns the sum and the summed moduli of its terms; the latter is the
    scale of the rounding error of any order of summation.
    """
    total = HexaNumber.zero(path.variant)
    magnitude = 0.0
    for a, b in zip(path.samples, path.samples[1:]):
        mid = (a + b) * 0.5
        term = f(mid) * (b - a)
        total = total + term
        magnitude += abs(term)
    return total, magnitude


def _open_path(variant: Variant, count: int) -> Path:
    """Open path along a cubic curve that moves all six components."""
    t = np.linspace(0.0, 1.0, count)[:, None]
    comps = (0.2 + 0.5 * t, -0.3 * t * t, 0.1 + 0.4 * t ** 3, 0.25 * t,
             -0.1 + 0.2 * t * t, 0.15 * t - 0.3 * t ** 3)
    return Path(variant, np.hstack(comps), closed=False)


def _multi_plane_loop(variant: Variant, pole: HexaNumber) -> Path:
    """Loop winding once around the pole in two planes, clear of it elsewhere.

    The samples are those of a :func:`circle_path` loop, in a plain Path, so
    that residue integrals over it take the midpoint rule.
    """
    if variant.is_planar:
        offset, radii = (0.0, 0.0, 1.2, 0.0, 0.0, 0.0), {1: 0.9, 3: 0.7}
    else:
        offset, radii = (1.5, 1.5, 0.0, 0.0, 0.0, 0.0), {1: 0.8, 2: 0.6}
    center = pole + from_canonical_components(variant, offset)
    return Path(variant, circle_path(variant, center, radii, 256).points, closed=True)


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
        open_path = _open_path(variant, 97)
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


def _mp_canonical(mpmath, variant: Variant, components) -> list:
    """Canonical values of a component tuple in mpmath: real axes, then planes vk + i vk~."""
    x = [mpmath.mpf(c) for c in components]
    values = [] if variant.is_planar else [mpmath.fsum(x),
                                           mpmath.fsum((-1) ** p * x[p] for p in range(6))]
    for k in range(1, tr.pair_count(variant.is_planar) + 1):
        m = 2 * k - 1 if variant.is_planar else 2 * k
        values.append(mpmath.fsum(mpmath.expjpi(mpmath.mpf(m * p) / 6) * x[p] for p in range(6)))
    return values


@pytest.mark.parametrize("name", FUNCTIONS)
def test_circle_loop_residue_matches_mpmath(name):
    """The trapezoid rule on a circle_path loop against 2*pi*i F_k(P_k) at 40 digits.

    On the integrate command's loops, centred on the pole in their plane,
    the nested sums stop before all N nodes.  A loop whose centre sits at
    0.9 of its radius from the pole needs more than 64 nodes.
    """
    mpmath = pytest.importorskip("mpmath")
    exact = {"one": lambda z: 1, "u": lambda z: z, "u2": lambda z: z ** 2,
             "u3": lambda z: z ** 3}.get(name) or getattr(mpmath, name)
    f = FUNCTIONS[name]
    calls = []

    def counted(values):
        calls.append(values)
        return f.canonical_map(values)

    counting = FunctionUnderTest(name, f.evaluator, counted)
    rng = random.Random(74)
    for variant in BOTH_VARIANTS:
        planar = variant.is_planar
        axes, planes = tr.axis_count(planar), tr.pair_count(planar)
        for _ in range(6):
            pole = random_hexa(rng, variant)
            plane = rng.randint(1, planes)
            radius = rng.uniform(0.3, 1.2)
            # the loop of the integrate command: clear of the pole off its plane
            clearance = 1.0 + 0.5 * radius
            with mpmath.workdps(40):
                column = axes + plane - 1
                residue = 2j * mpmath.pi * exact(_mp_canonical(mpmath, variant,
                                                               pole.components)[column])
                tol = 1e-13 * max(1.0, float(abs(residue)))
            for shift, samples in ((0.0, 64), (0.0, 1000), (0.0, 1024), (0.0, 4096),
                                   (0.9, 4096)):
                center = pole + from_canonical_values(variant, [clearance] * axes + [
                    complex(shift * tr.SQRT3 * radius) if k == plane else complex(clearance)
                    for k in range(1, planes + 1)])
                loop = circle_path(variant, center, {plane: radius}, samples)
                calls.clear()
                comparison = residue_integral(counting, loop, pole)
                assert comparison.windings == tuple(int(k == plane) for k in range(1, planes + 1))
                if shift:
                    assert len(calls) > 64
                elif samples > 64:
                    assert len(calls) < samples
                with mpmath.workdps(40):
                    got = _mp_canonical(mpmath, variant, comparison.numeric.components)
                    errors = [abs(v - (residue if j == column else 0)) for j, v in enumerate(got)]
                    assert float(max(errors)) <= tol, (variant, pole, plane, radius, samples)


def _outer_product_points(variant: Variant, center: HexaNumber, radii, samples: int):
    """A circle_path loop's samples as np.outer products, the first repeated last."""
    rows = tr.rotation_rows(variant.is_planar)
    t = 2.0 * np.pi * np.arange(samples) / samples
    points = np.empty((samples + 1, 6))
    points[:-1] = center.components
    for k, radius in radii.items():
        xi_row, eta_row = rows[tr.plane_slice(variant.is_planar, k)]
        points[:-1] += np.outer(radius * np.cos(t), xi_row)
        points[:-1] += np.outer(radius * np.sin(t), eta_row)
    points[-1] = points[0]
    return points


def test_circle_path_builds_its_points_when_read():
    rng = random.Random(75)
    for variant in BOTH_VARIANTS:
        planes = tr.pair_count(variant.is_planar)
        for radii, samples in (({1: 0.7}, 8), ({planes: -1.3}, 1000), ({1: 0.9, planes: 2.5}, 4096)):
            center = random_hexa(rng, variant)
            loop = circle_path(variant, center, radii, samples)
            assert loop._points is None
            axes = tr.axis_count(variant.is_planar)
            pole = center - from_canonical_values(variant, [2.0] * axes + [2j] * planes)
            residue_integral(FUNCTIONS["exp"], loop, pole)  # the trapezoid reads no points
            assert loop._points is None
            points = loop.points
            assert loop.points is points and type(points) is tuple
            assert np.array(points).tobytes() == _outer_product_points(variant, center, radii,
                                                                       samples).tobytes()


@pytest.mark.parametrize("variant, center, radii", [
    (Variant.POLAR, 1.5e308, {1: 1e308}),
    (Variant.PLANAR, 0.0, {1: 1.5e308, 2: 1.5e308, 3: 1.5e308}),
    (Variant.PLANAR, 0.0, {2: math.inf}),
    (Variant.POLAR, 0.0, {1: math.nan}),
])
def test_circle_path_rejects_samples_that_overflow(variant, center, radii):
    with pytest.raises(DomainError, match="path samples must be finite"):
        circle_path(variant, HexaNumber.from_real(variant, center), radii, 64)


@pytest.mark.parametrize("variant", BOTH_VARIANTS)
def test_circle_path_bounds_finite_samples_without_forming_them(monkeypatch, variant):
    # a centre component within 2^-40 of the largest double, radius 1: each component's
    # bound, summed as the samples are, stays finite, so no sample is formed to check it
    def fail(*args):
        raise AssertionError("circle_path formed the samples")

    monkeypatch.setattr(calculus, "_circle_rows", fail)
    center = HexaNumber.from_real(variant, 1.7976931348623e308)
    loop = circle_path(variant, center, {1: 1.0, tr.pair_count(variant.is_planar): -1.0}, 4194304)
    assert loop._points is None and loop._circle[2] == 4194304


def _integrate_loop(variant: Variant, pole: HexaNumber, center_offset: complex, radius: float,
                    samples: int) -> Path:
    """The loop of the integrate command in plane 1, its centre ``center_offset``
    from the pole there."""
    planes = tr.pair_count(variant.is_planar)
    clearance = 1.0 + 0.5 * radius
    center = pole + from_canonical_values(variant, [clearance] * tr.axis_count(variant.is_planar)
                                          + [center_offset] + [complex(clearance)] * (planes - 1))
    return circle_path(variant, center, {1: radius}, samples)


@pytest.mark.parametrize("samples", [64, 4096])
def test_circle_loop_near_the_top_of_the_range_matches_the_formula(samples):
    # |c| + rho is 1.7e308, where Python's complex division c / z overflows inside
    for variant in BOTH_VARIANTS:
        pole = HexaNumber.zero(variant)
        loop = _integrate_loop(variant, pole, complex(3e307), 1.4e308 / math.sqrt(3.0), samples)
        comparison = residue_integral(FUNCTIONS["one"], loop, pole)
        assert comparison.windings == (1,) + (0,) * (tr.pair_count(variant.is_planar) - 1)
        assert comparison.max_abs_difference <= 1e-15


def test_circle_integral_stops_once_its_sum_is_not_finite():
    # integrate --samples 4194304 u 1.7976931348e308 1 1.0: a plane's sum overflows on the
    # first nodes and would stay so on all 2^22 of them
    calls = []
    f = FunctionUnderTest("u", lambda u: u, canonical_map=lambda z: calls.append(z) or z)
    for variant in BOTH_VARIANTS:
        pole = HexaNumber.from_real(variant, 1.7976931348e308)
        loop = _integrate_loop(variant, pole, 0j, 1.0, 2 ** 22)
        calls.clear()
        message = "integrand overflows: canonical component pair1 of the sum is not finite"
        with pytest.raises(DomainError, match=re.escape(message)):
            residue_integral(f, loop, pole)
        assert len(calls) <= 64


def test_plain_path_near_the_top_of_the_range_takes_the_midpoint_rule():
    # the samples of integrate one 0 1 1e308: chord midpoints and quotients near DBL_MAX
    count = 64
    for variant in BOTH_VARIANTS:
        pole = HexaNumber.zero(variant)
        loop = Path(variant, _integrate_loop(variant, pole, 0j, 1e308, count).points, closed=True)
        comparison = residue_integral(FUNCTIONS["one"], loop, pole)
        planes = tr.pair_count(variant.is_planar)
        assert comparison.windings == (1,) + (0,) * (planes - 1)
        # on a regular N-gon around the pole, F = 1 sums to N tan(pi / N) / pi of 2 pi i
        plane = tr.axis_count(variant.is_planar)
        got = canonical_values(comparison.numeric)[plane]
        expected = canonical_values(comparison.formula)[plane] * count * math.tan(math.pi / count) \
            / math.pi
        assert abs(got - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("n, d", [
    (complex(1e307), complex(1.5e308, 1e308)),       # Python's division gives -0j
    (1.0, complex(1.5e308, 1.5e308)),                # here too
    (complex(1.5e308, 1.5e308), complex(0.9, 0.9)),  # and inf here
    (complex(-1e308, 3.0), complex(1.7e308, -1e-300)),
    (2.5, 0.5),
])
def test_quotient_holds_near_the_top_of_the_range(n, d):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = mpmath.mpc(n) / mpmath.mpc(d)
        assert abs(mpmath.mpc(tr.quotient(n, d)) - exact) <= 4 * 2.0 ** -52 * abs(exact)


@pytest.mark.parametrize("name", ["exp", "cosh", "sinh"])
def test_plain_path_reports_an_integrand_that_overflows(name):
    f = FUNCTIONS[name]
    for variant in BOTH_VARIANTS:
        label = "pair1" if variant.is_planar else "v+"
        pole = HexaNumber.zero(variant)
        # canonical component v+ (pair1 on planar) near 800, where the map overflows
        if variant.is_planar:
            a, b = [800 + 1j, 1 + 1j, 1 + 1j], [801 + 1j, 1.5 + 1j, 1 + 0.5j]
        else:
            a, b = [800.0, 1.0, 1 + 1j, 1 + 1j], [801.0, 1.5, 1.5 + 1j, 1 + 0.5j]
        loop = Path(variant, [from_canonical_values(variant, v) for v in (a, b, a)], closed=True)
        message = f"integrand overflows: canonical component {label} of the sum is not finite"
        for integral in (lambda: line_integral(f, loop), lambda: residue_integral(f, loop, pole)):
            with pytest.raises(DomainError, match=re.escape(message)) as caught:
                integral()
            assert caught.value.component == label


def test_plain_path_reports_offsets_that_overflow():
    variant = Variant.POLAR
    top = HexaNumber(variant, (1.2e308, 0.0, 0.0, 1.2e308, 0.0, 0.0))
    loop = Path(variant, [top, HexaNumber(variant, (1.2e308, 1.0, 0.0, 1.2e308, 0.0, 0.0)), top],
                closed=True)
    message = "path overflows: its canonical component v+ is not finite"
    for integral in (lambda: line_integral(FUNCTIONS["u"], loop),
                     lambda: residue_integral(FUNCTIONS["u"], loop, HexaNumber.zero(variant))):
        with pytest.raises(DomainError, match=re.escape(message)) as caught:
            integral()
        assert caught.value.component == "v+"


def _rows_of_six_floats(points) -> bool:
    return type(points) is tuple and all(
        type(row) is tuple and len(row) == 6 and all(type(x) is float for x in row)
        for row in points)


def test_path_construction():
    variant = Variant.POLAR
    loop = circle_path(variant, HexaNumber.one(variant), {2: 0.5}, 16)
    assert loop.variant is variant and loop.closed and loop.samples[0] == loop.samples[-1]
    assert len(loop.points) == 17 and _rows_of_six_floats(loop.points)
    rebuilt = Path(variant, list(loop.samples), closed=True)
    assert rebuilt.points == loop.points
    assert rebuilt != loop  # paths compare by identity

    # rows of a 2-D array are read as samples, as the same values as HexaNumbers are
    rng = random.Random(76)
    rows = np.array([random_hexa(rng, variant).components for _ in range(5)])
    from_array = Path(variant, rows, closed=False)
    assert _rows_of_six_floats(from_array.points)
    assert from_array.points == Path(variant, [HexaNumber(variant, r) for r in rows],
                                     closed=False).points
    for width in (5, 7):
        with pytest.raises(ValueError, match="6 components"):
            Path(variant, [[0.0] * 6, [1.0] * width, [0.0] * 6], closed=False)
    with pytest.raises(DomainError, match="must be finite"):
        Path(variant, [[0.0] * 6, [1.0, math.nan, 0.0, 0.0, 0.0, 0.0], [0.0] * 6], closed=False)

    with pytest.raises(ValueError):
        Path(variant, [HexaNumber.one(variant)] * 2, closed=False)
    samples = [HexaNumber.one(variant), HexaNumber.zero(variant),
               HexaNumber.basis(variant, 1)]
    with pytest.raises(ValueError):
        Path(variant, samples, closed=True)
    with pytest.raises(ValueError, match="variant mismatch"):
        Path(Variant.PLANAR, samples, closed=False)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_elementwise_maps_agree_with_the_evaluator(name):
    f = FUNCTIONS[name]
    rng = random.Random(72)
    for variant in BOTH_VARIANTS:
        for _ in range(50):
            u = random_hexa(rng, variant)
            values = canonical_values(u)
            mapped = tr.as_flat(variant.is_planar, [f.canonical_map(complex(v)) for v in values])
            # rounding of the canonical input, carried through f', plus that of the output
            scale = max(map(abs, mapped)) * (1.0 + max(map(abs, values)))
            assert max_abs_diff(from_canonical_components(variant, mapped), f(u)) \
                <= 8 * 2.0 ** -52 * scale


@pytest.mark.parametrize("name", ["one", *elementary.COMPONENTWISE])
def test_canonical_maps_are_cmaths_functions(name):
    mapped = FUNCTIONS[name].canonical_map
    if name == "one":
        assert mapped(2.5) == mapped(-1.5 + 4j) == 1
    else:
        assert mapped is getattr(cmath, name)


@pytest.mark.parametrize("argv", [("exp", "0", "1", "1.0"),
                                  ("--planar", "sin", "h3", "2", "0.5")])
def test_integrate_builds_no_value_per_sample(monkeypatch, argv):
    built = []
    init = HexaNumber.__init__

    def counted(self, *args):
        built[-1] += 1
        init(self, *args)

    monkeypatch.setattr(HexaNumber, "__init__", counted)
    for samples in (1024, 4096):
        built.append(0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["integrate", *argv, "--samples", str(samples)]) == 0
    assert built[0] == built[1]
