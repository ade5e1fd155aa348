"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import random

import numpy as np

from hexacomplex.algebra import HexaNumber, Variant, from_canonical_components, matrix_rows

BOTH_VARIANTS = (Variant.POLAR, Variant.PLANAR)


def random_hexa(rng: random.Random, variant: Variant,
                lo: float = -1.0, hi: float = 1.0) -> HexaNumber:
    return HexaNumber(variant, [rng.uniform(lo, hi) for _ in range(6)])


def to_matrix(u: HexaNumber) -> np.ndarray:
    """The 6x6 matrix representing ``u``, as an array."""
    return np.array(matrix_rows(u))


def max_abs_diff(u: HexaNumber, v: HexaNumber) -> float:
    return max(abs(a - b) for a, b in zip(u.components, v.components))


def assert_hexa_close(u: HexaNumber, v: HexaNumber, tol: float) -> None:
    diff = max_abs_diff(u, v)
    assert diff <= tol, f"components differ by {diff:.3e} > {tol:.3e}: {u} vs {v}"


def invertible_hexa(rng: random.Random, variant: Variant,
                    radius_lo: float = 0.3, radius_hi: float = 2.0) -> HexaNumber:
    """Random element with every canonical component well away from zero.

    Polar axis components come out positive, so the result also lies in
    the domain of ln and of the exponential form.
    """
    values: list[float] = []
    if not variant.is_planar:
        values.append(rng.uniform(radius_lo, radius_hi))
        values.append(rng.uniform(radius_lo, radius_hi))
    pair_count = 3 if variant.is_planar else 2
    for _ in range(pair_count):
        rho = rng.uniform(radius_lo, radius_hi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        values.append(rho * math.cos(phi))
        values.append(rho * math.sin(phi))
    return from_canonical_components(variant, values)
