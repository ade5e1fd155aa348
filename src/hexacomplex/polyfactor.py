"""Factorization of monic polynomials over the 6-dimensional rings.

A monic polynomial splits along the canonical decomposition into one
real polynomial per axis (polar v+, v-) and one complex polynomial per
plane.  Roots of those component polynomials recombine into roots of the
full polynomial; since each component's roots can be matched to factor
slots in any order, the factorization is far from unique and can be
enumerated.  Complex axis roots cannot live on a 1-dimensional component,
so in the polar ring they pair into real quadratic factors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence, Union

from . import _transforms as tr
from .algebra import HexaNumber, Variant, canonical_components, from_canonical_components, format_hexa
from .errors import NonConvergenceError

__all__ = [
    "HexaPolynomial",
    "ComponentPolynomial",
    "LinearFactor",
    "QuadraticFactor",
    "Factorization",
    "decompose",
    "component_roots",
    "durand_kerner",
    "factor",
    "enumerate_factorizations",
    "expand",
    "format_factorization",
]

_DK_MAX_ITERATIONS = 500
_DK_STEP_TOLERANCE = 1e-13
_RESIDUAL_RTOL = 1e-9
_REAL_SNAP_RTOL = 1e-10
_DEDUP_DECIMALS = 9
_EXPANSION_RTOL = 1e-8


@dataclass(frozen=True)
class HexaPolynomial:
    """Monic polynomial u^m + a1 u^(m-1) + ... + am over one variant."""

    variant: Variant
    coeffs: tuple[HexaNumber, ...]

    def __init__(self, variant: Variant, coeffs: Sequence[HexaNumber]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("polynomial degree must be at least 1")
        for a in coeffs:
            if a.variant is not variant:
                raise ValueError("coefficient variant does not match the polynomial")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_coefficient_list(cls, coefficients: Sequence[HexaNumber]) -> "HexaPolynomial":
        """Build from a leading-first coefficient list, normalizing to monic.

        A non-unit leading coefficient must be invertible; dividing by a
        zero divisor raises :class:`ZeroDivisorError`.
        """
        coefficients = tuple(coefficients)
        if len(coefficients) < 2:
            raise ValueError("need a leading coefficient and at least one more")
        leading = coefficients[0]
        variant = leading.variant
        rest = coefficients[1:]
        if leading != HexaNumber.one(variant):
            inv = leading.inverse()
            rest = tuple(a * inv for a in rest)
        return cls(variant, rest)

    def evaluate(self, u: HexaNumber) -> HexaNumber:
        result = HexaNumber.one(self.variant)
        for a in self.coeffs:
            result = result * u + a
        return result

    def scale_estimate(self) -> float:
        return max(1.0, max(a.modulus() for a in self.coeffs))


@dataclass(frozen=True)
class ComponentPolynomial:
    """One canonical component of a monic polynomial.

    Axis components ("plus"/"minus", polar only) carry real coefficients;
    plane components ("pair1"...) carry complex ones.  Coefficients run
    c1..cm below the implied leading 1.
    """

    tag: str
    coefficients: tuple

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    @property
    def is_axis(self) -> bool:
        return self.tag in ("plus", "minus")


LinearOrQuadratic = Union["LinearFactor", "QuadraticFactor"]


@dataclass(frozen=True)
class LinearFactor:
    """Monic factor (u - root)."""

    root: HexaNumber

    @property
    def degree(self) -> int:
        return 1

    def coefficient_list(self) -> tuple[HexaNumber, ...]:
        return (HexaNumber.one(self.root.variant), -self.root)


@dataclass(frozen=True)
class QuadraticFactor:
    """Monic factor (u^2 + b u + c) irreducible over the linear slots."""

    b: HexaNumber
    c: HexaNumber

    @property
    def degree(self) -> int:
        return 2

    def coefficient_list(self) -> tuple[HexaNumber, ...]:
        return (HexaNumber.one(self.b.variant), self.b, self.c)


@dataclass(frozen=True)
class Factorization:
    """Ordered factors whose product reproduces the source polynomial."""

    variant: Variant
    factors: tuple[LinearOrQuadratic, ...]

    @property
    def roots(self) -> tuple[HexaNumber, ...]:
        return tuple(f.root for f in self.factors if isinstance(f, LinearFactor))

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors)


def decompose(p: HexaPolynomial) -> list[ComponentPolynomial]:
    """Component polynomials of ``p`` (4 for polar, 3 for planar)."""
    planar = p.variant.is_planar
    columns = zip(*(chain(*tr.split(planar, canonical_components(a))) for a in p.coeffs))
    return [ComponentPolynomial(tag, column)
            for tag, column in zip(tr.component_tags(planar), columns)]


def durand_kerner(coefficients: Sequence[complex]) -> tuple[complex, ...]:
    """All roots of the monic polynomial z^m + c1 z^(m-1) + ... + cm.

    Simultaneous fixed-point iteration from a circle of starting points at
    non-symmetric angles; raises :class:`NonConvergenceError` if the step
    tolerance or the residual bound cannot be met.
    """
    coeffs = [complex(c) for c in coefficients]
    m = len(coeffs)
    if m == 0:
        raise ValueError("polynomial degree must be at least 1")

    def poly(z: complex) -> complex:
        acc = complex(1.0, 0.0)
        for c in coeffs:
            acc = acc * z + c
        return acc

    radius = 1.0 + max(abs(c) for c in coeffs)
    offset = 0.3967  # keeps starts off the roots of unity
    roots = [radius * cmath.exp(1j * (2.0 * math.pi * p / m + offset)) for p in range(m)]

    converged = False
    for _ in range(_DK_MAX_ITERATIONS):
        max_step = 0.0
        for p in range(m):
            denom = complex(1.0, 0.0)
            for q in range(m):
                if q != p:
                    diff = roots[p] - roots[q]
                    if diff == 0:
                        diff = complex(1e-12, 1e-12)
                    denom *= diff
            step = poly(roots[p]) / denom
            roots[p] -= step
            max_step = max(max_step, abs(step))
        if max_step < _DK_STEP_TOLERANCE:
            converged = True
            break

    bound = _RESIDUAL_RTOL * max(1.0, max(abs(c) for c in coeffs))
    worst = max(abs(poly(z)) for z in roots)
    if worst > bound:
        state = "converged" if converged else "hit the iteration cap"
        raise NonConvergenceError(
            f"root iteration {state} with worst residual {worst:.3e} above {bound:.3e}",
            residual=worst)
    return tuple(roots)


def component_roots(cp: ComponentPolynomial) -> tuple[complex, ...]:
    """All roots (with multiplicity) of one component polynomial."""
    return durand_kerner(tuple(complex(c) for c in cp.coefficients))


def _snap_axis_roots(roots: Sequence[complex]) -> tuple[list[tuple[complex, complex]], list[float]]:
    """Split axis roots into conjugate pairs and (snapped) real roots."""
    reals: list[float] = []
    pool: list[complex] = []
    for z in roots:
        if abs(z.imag) <= _REAL_SNAP_RTOL * (1.0 + abs(z)):
            reals.append(z.real)
        else:
            pool.append(z)
    pairs: list[tuple[complex, complex]] = []
    while pool:
        z = pool.pop(0)
        best = -1
        best_err = math.inf
        for i, w in enumerate(pool):
            err = abs(w - z.conjugate())
            if err < best_err:
                best, best_err = i, err
        if best < 0 or best_err > 1e-6 * (1.0 + abs(z)):
            raise NonConvergenceError(
                "complex axis root has no conjugate partner", residual=best_err)
        pairs.append((z, pool.pop(best)))
    return pairs, reals


def _tags(variant: Variant) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Tags of the axis components and of the plane components."""
    tags = tr.component_tags(variant.is_planar)
    a = tr.axis_count(variant.is_planar)
    return tags[:a], tags[a:]


def _component_root_table(p: HexaPolynomial) -> dict[str, tuple[complex, ...]]:
    return {cp.tag: component_roots(cp) for cp in decompose(p)}


def _linear_factor(variant: Variant, axis_values: Sequence[float],
                   plane_values: Sequence[complex]) -> LinearFactor:
    return LinearFactor(root=from_canonical_components(variant, tr.join(axis_values, plane_values)))


def _quadratic_factor(variant: Variant, axis_pairs: Sequence[tuple[complex, complex]],
                      plane_pairs: Sequence[tuple[complex, complex]]) -> QuadraticFactor:
    """(u - z1)(u - z2) on every component; an axis keeps the real part of b and c."""

    def coefficient(fn) -> HexaNumber:
        return from_canonical_components(variant, tr.join(
            [fn(z1, z2).real for z1, z2 in axis_pairs], [fn(z1, z2) for z1, z2 in plane_pairs]))

    return QuadraticFactor(b=coefficient(lambda z1, z2: -(z1 + z2)),
                           c=coefficient(lambda z1, z2: z1 * z2))


def _verify_expansion(p: HexaPolynomial, f: Factorization) -> None:
    expanded = expand(f)
    tol = _EXPANSION_RTOL * p.scale_estimate()
    worst = max(abs(a - b) for ea, pa in zip(expanded.coeffs, p.coeffs)
                for a, b in zip(ea.components, pa.components))
    if worst > tol:
        raise NonConvergenceError(
            f"factor expansion mismatch: max coefficient error {worst:.3e} exceeds {tol:.3e}",
            residual=worst)


def factor(p: HexaPolynomial) -> Factorization:
    """One factorization of ``p`` into monic linear (and, polar, quadratic) factors.

    Planar polynomials always split into ``degree`` linear factors.  Polar
    polynomials split linearly when every axis root is real; conjugate
    axis roots force real quadratic factors.
    """
    table = _component_root_table(p)
    m = p.degree
    axis_tags, plane_tags = _tags(p.variant)
    snapped = [_snap_axis_roots(table[tag]) for tag in axis_tags]
    plane_lists = [table[tag] for tag in plane_tags]
    q = max((len(pairs) for pairs, _ in snapped), default=0)

    def axis_slots(pairs: list[tuple[complex, complex]], reals: list[float]):
        """Quad slot contents first (pairs, then reals two at a time), then linears."""
        quads: list[tuple[complex, complex]] = list(pairs)
        reals = list(reals)
        while len(quads) < q:
            quads.append((complex(reals.pop(0)), complex(reals.pop(0))))
        return quads, reals

    slots = [axis_slots(pairs, reals) for pairs, reals in snapped]
    factors: list[LinearOrQuadratic] = []
    for i in range(q):
        plane_pairs = [(lst[2 * i], lst[2 * i + 1]) for lst in plane_lists]
        factors.append(_quadratic_factor(
            p.variant, [quads[i] for quads, _ in slots], plane_pairs))
    for j in range(m - 2 * q):
        plane_values = [lst[2 * q + j] for lst in plane_lists]
        factors.append(_linear_factor(p.variant, [lin[j] for _, lin in slots], plane_values))
    result = Factorization(p.variant, tuple(factors))
    _verify_expansion(p, result)
    return result


def expand(f: Factorization) -> HexaPolynomial:
    """Multiply the factors back out (the verification inverse of factor)."""
    variant = f.variant
    acc: list[HexaNumber] = [HexaNumber.one(variant)]
    for piece in f.factors:
        factor_coeffs = piece.coefficient_list()
        out = [HexaNumber.zero(variant) for _ in range(len(acc) + len(factor_coeffs) - 1)]
        for i, a in enumerate(acc):
            for j, b in enumerate(factor_coeffs):
                out[i + j] = out[i + j] + a * b
        acc = out
    return HexaPolynomial(variant, tuple(acc[1:]))


# -- enumeration -----------------------------------------------------------------


def _round_key(values: Sequence[float]) -> tuple[float, ...]:
    return tuple(0.0 if v == 0 else v
                 for v in (round(x, _DEDUP_DECIMALS) for x in values))


def _factor_key(piece: LinearOrQuadratic) -> tuple:
    if isinstance(piece, LinearFactor):
        return ("L", _round_key(piece.root.components))
    return ("Q", _round_key(piece.b.components), _round_key(piece.c.components))


def _distinct_permutations(
        items: Sequence[complex]) -> Iterator[tuple[tuple[int, ...], tuple[complex, ...]]]:
    """Permutations distinct under the dedup rounding of root values.

    Each is yielded as (group indices, values): the roots are grouped by
    their rounded value, groups numbered in sorted order, and the
    permutations come in lexicographic order of their group indices.
    """
    keyed = sorted(items, key=lambda z: (round(z.real, _DEDUP_DECIMALS),
                                         round(z.imag, _DEDUP_DECIMALS)))
    groups: list[list] = []  # [key, remaining count, representative value]
    for z in keyed:
        key = (round(z.real, _DEDUP_DECIMALS), round(z.imag, _DEDUP_DECIMALS))
        if groups and groups[-1][0] == key:
            groups[-1][1] += 1
        else:
            groups.append([key, 1, z])
    n = len(items)
    rank: list[int] = [0] * n
    slot: list[complex] = [0j] * n

    def rec(depth: int) -> Iterator[tuple[tuple[int, ...], tuple[complex, ...]]]:
        if depth == n:
            yield tuple(rank), tuple(slot)
            return
        for index, g in enumerate(groups):
            if g[1] > 0:
                g[1] -= 1
                rank[depth] = index
                slot[depth] = g[2]
                yield from rec(depth + 1)
                g[1] += 1

    return rec(0)


def enumerate_factorizations(p: HexaPolynomial, limit: int) -> list[Factorization]:
    """Distinct factorizations from re-matching component roots, up to ``limit``.

    Distinctness is judged on the multiset of factors with coefficients
    rounded at 1e-9.  Repeated component roots are enumerated as distinct
    assignments only.

    Two kinds of ordering give the same factors: swapping the roots inside
    a quadratic slot of one component, and permuting the slots of all
    components at once.  The search visits orderings in lexicographic
    order of group indices, so the first member of each such class has
    every quadratic pair ascending and, in the first component, ascending
    quadratic slots and ascending linear slots; only those orderings are
    built.  The rounding dedup still catches repeated roots and rounding
    collisions.  Cost therefore follows the number of distinct results
    rather than the number of orderings, though that number itself grows
    factorially with the degree; ``limit`` is the caller's brake.

    The conjugate-pair test scales by the modulus of the pair's first
    root, so it is not exactly symmetric in the pair; the two moduli agree
    to rounding, so keeping only the ascending order could drop a pair
    only within about 1e-19 of the 1e-6 threshold.
    """
    if limit < 1:
        return []
    table = _component_root_table(p)
    m = p.degree
    axis_tags, plane_tags = _tags(p.variant)
    tags = axis_tags + plane_tags
    q = max((len(_snap_axis_roots(table[tag])[0]) for tag in axis_tags), default=0)

    def axis_ok(ordering: tuple[complex, ...]) -> bool:
        for i in range(q):
            z1, z2 = ordering[2 * i], ordering[2 * i + 1]
            both_real = (abs(z1.imag) <= _REAL_SNAP_RTOL * (1 + abs(z1))
                         and abs(z2.imag) <= _REAL_SNAP_RTOL * (1 + abs(z2)))
            conj = abs(z2 - z1.conjugate()) <= 1e-6 * (1 + abs(z1))
            if not (both_real or conj):
                return False
        for j in range(2 * q, m):
            z = ordering[j]
            if abs(z.imag) > _REAL_SNAP_RTOL * (1 + abs(z)):
                return False
        return True

    def build(assignment: dict[str, tuple[complex, ...]]) -> Factorization:
        factors: list[LinearOrQuadratic] = []
        for i in range(q):
            axis_pairs = [(assignment[t][2 * i], assignment[t][2 * i + 1]) for t in axis_tags]
            plane_pairs = [(assignment[t][2 * i], assignment[t][2 * i + 1]) for t in plane_tags]
            factors.append(_quadratic_factor(p.variant, axis_pairs, plane_pairs))
        for j in range(2 * q, m):
            axis_values = [assignment[t][j].real for t in axis_tags]
            plane_values = [assignment[t][j] for t in plane_tags]
            factors.append(_linear_factor(p.variant, axis_values, plane_values))
        return Factorization(p.variant, tuple(factors))

    # With only linear slots the first component's ordering can stay fixed:
    # factor slots are freely permutable, so every multiset is still reached.
    fix_first = q == 0

    def first_of_class(ranks: tuple[int, ...], first: bool) -> bool:
        """Whether the search meets no symmetric twin of this ordering earlier."""
        if any(ranks[2 * i] > ranks[2 * i + 1] for i in range(q)):
            return False
        if not first:
            return True
        quads = [ranks[2 * i:2 * i + 2] for i in range(q)]
        linears = list(ranks[2 * q:])
        return quads == sorted(quads) and linears == sorted(linears)

    def orderings(tag: str, first: bool) -> Iterator[tuple[complex, ...]]:
        roots = table[tag]
        if first and fix_first:
            yield tuple(roots)
            return
        for ranks, ordering in _distinct_permutations(roots):
            if first_of_class(ranks, first):
                yield ordering

    found: dict[tuple, Factorization] = {}

    def search(index: int, assignment: dict[str, tuple[complex, ...]]) -> bool:
        if index == len(tags):
            candidate = build(assignment)
            key = tuple(sorted(_factor_key(f) for f in candidate.factors))
            if key not in found:
                found[key] = candidate
            return len(found) >= limit
        tag = tags[index]
        for ordering in orderings(tag, index == 0):
            if tag in axis_tags and not axis_ok(ordering):
                continue
            assignment[tag] = ordering
            if search(index + 1, assignment):
                return True
        return False

    search(0, {})
    return list(found.values())


def _wrap_terms(text: str) -> str:
    return f"({text})" if (" + " in text or " - " in text or text.startswith("-")) else text


def format_factorization(f: Factorization, digits: int = 12) -> str:
    """Render the factorization in the bracketed one-line style."""
    parts: list[str] = []
    for piece in f.factors:
        if isinstance(piece, LinearFactor):
            # the sign of the leading nonzero component picks u - root or u + (-root)
            root = piece.root
            lead = next((a for a in root.components if a != 0.0), 0.0)
            if lead == 0.0:
                parts.append("[u]")
            elif lead > 0.0:
                parts.append(f"[u - {_wrap_terms(format_hexa(root, digits))}]")
            else:
                parts.append(f"[u + {_wrap_terms(format_hexa(-root, digits))}]")
        else:
            b_text = format_hexa(piece.b, digits)
            c_text = format_hexa(piece.c, digits)
            body = "u^2"
            if b_text != "0":
                body += f" + ({b_text}) u"
            if c_text != "0":
                body += f" + ({c_text})"
            parts.append(f"[{body}]")
    return "".join(parts)
