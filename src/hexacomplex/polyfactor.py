"""Factorization of monic polynomials over the 6-dimensional rings.

A monic polynomial splits along the canonical decomposition into one
real polynomial per axis (polar v+, v-) and one complex polynomial per
plane.  Roots of those component polynomials recombine into roots of the
full polynomial; since each component's roots can be matched to factor
slots in any order, the factorization is far from unique and can be
enumerated.  Complex axis roots cannot live on a 1-dimensional component,
so in the polar ring they pair into real quadratic factors.  A factor is
itself a monic :class:`HexaPolynomial`, of degree 1 or 2, and a component
polynomial is the tuple of its coefficients below the leading 1.

Component roots are the eigenvalues of the companion matrix in the
layout of ``numpy.roots``, found in pure Python: balancing by powers of
two, then shifted complex QR.  Eigenvalues that cluster as tightly as a
root of multiplicity m spreads under rounding (about eps^(1/m)) merge into one
root of that multiplicity at the cluster mean, when the mean is also a
root of the first m-1 derivatives: a repeated root comes out repeated
exactly, while close simple roots stay apart.  A root is accepted when
|p(z)| is small beside the polynomial of |c_i| at |z| (backward error).
Roots are sorted by their rounded value, so the factors printed do not
depend on the order in which the eigensolver returns them.
"""

from __future__ import annotations

import cmath
import math
from itertools import groupby
from typing import Callable, Iterator, Sequence

from . import _transforms as tr
from .algebra import (
    Frozen,
    HexaNumber,
    Variant,
    canonical_values,
    format_hexa,
    from_canonical_values,
)
from .errors import NonConvergenceError

__all__ = [
    "HexaPolynomial",
    "Factorization",
    "decompose",
    "component_roots",
    "factor",
    "enumerate_factorizations",
    "expand",
    "format_factorization",
    "format_factorizations",
]

_RESIDUAL_RTOL = 1e-9
_EPS = 2.0 ** -52
_CLUSTER_FACTOR = 16.0
_NEWTON_NOISE_RTOL = 1e-12
_REAL_SNAP_RTOL = 1e-10
_CONJUGATE_RTOL = 1e-6
_DEDUP_DECIMALS = 9
_EXPANSION_RTOL = 1e-8
_TINY = 2.0 ** -960  # a subdiagonal entry this small is zero (LAPACK's safmin n / ulp at n = 2^10)
_BALANCE_PASSES = 16


class HexaPolynomial(Frozen):
    """Monic polynomial u^m + a1 u^(m-1) + ... + am over one variant, compared by identity."""

    __slots__ = ("variant", "coeffs")
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


class Factorization(Frozen):
    """Ordered monic factors (u + a, or u^2 + b u + c) whose product is the source polynomial.

    Compared by identity.
    """

    __slots__ = ("variant", "factors")
    variant: Variant
    factors: tuple[HexaPolynomial, ...]

    def __init__(self, variant: Variant, factors: tuple[HexaPolynomial, ...]):
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "factors", factors)

    @property
    def roots(self) -> tuple[HexaNumber, ...]:
        return tuple(-f.coeffs[0] for f in self.factors if f.degree == 1)

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors)


def decompose(p: HexaPolynomial) -> dict[str, tuple]:
    """Component polynomials of ``p`` (4 for polar, 3 for planar), by component tag.

    Each is the tuple of coefficients c1..cm below the implied leading 1,
    in component order: real on an axis ("plus"/"minus", polar only),
    complex on a plane ("pair1"...).
    """
    return dict(zip(tr.component_tags(p.variant.is_planar), zip(*map(canonical_values, p.coeffs))))


def _taylor(coeffs: Sequence[complex], z: complex, count: int) -> list[complex]:
    """p(z), p'(z), ..., p^(count-1)(z)/(count-1)! of z^m + c1 z^(m-1) + ... + cm, by Horner."""
    row = [1.0 + 0j, *coeffs]
    taylor = []
    for _ in range(count):
        for i in range(1, len(row)):
            row[i] += row[i - 1] * z
        taylor.append(row.pop())
    return taylor


def _exact_value(coeffs: Sequence[complex], z: complex) -> complex:
    """p(z) of z^m + c1 z^(m-1) + ... + cm rounded once: Horner on the exact binary values.

    Every part of z and the c_i is an integer over a power of two; over the
    largest of those, 2^s, each is an integer, and Horner's rule on them
    gives 2^(s m) p(z) exactly.  A value beyond the double range is inf.
    """
    parts = [x.as_integer_ratio() for c in (z, *coeffs) for x in (c.real, c.imag)]
    s = max(d for _, d in parts).bit_length() - 1
    zr, zi, *ints = [n << (s + 1 - d.bit_length()) for n, d in parts]
    vr, vi = 1, 0
    for k in range(len(coeffs)):
        vr, vi = (vr * zr - vi * zi + (ints[2 * k] << s * k),
                  vr * zi + vi * zr + (ints[2 * k + 1] << s * k))
    scale = 1 << s * len(coeffs)
    try:
        return complex(vr / scale, vi / scale)
    except OverflowError:
        return complex(math.inf)


def _size(coeffs: Sequence[complex], z: complex) -> float:
    """The polynomial of |c_i| at |z|: p(z) is computed to about eps times this."""
    return _taylor([abs(c) for c in coeffs], abs(z), 1)[0].real


def _backward_error(coeffs: Sequence[complex], z: complex) -> float:
    """|p(z)| / :func:`_size`, inf when p(z) is not finite.

    Where p(z) or the size overflows, both are formed again on z = 2^e t
    with |t| in [0.5, 1) and coefficients c_i 2^(-e i), which divides
    each by 2^(e m) and leaves their ratio.
    """
    value, size = _taylor(coeffs, z, 1)[0], _size(coeffs, z)
    if not (cmath.isfinite(value) and size < math.inf):
        e = math.frexp(max(abs(z.real), abs(z.imag)))[1]
        coeffs = [tr.scaled(c, -e * i) for i, c in enumerate(coeffs, 1)]
        z = tr.scaled(z, -e)
        value, size = _taylor(coeffs, z, 1)[0], _size(coeffs, z)
    if not cmath.isfinite(value):
        return math.inf
    return abs(value) / size if value else 0.0


def _split(cluster: list[complex]) -> tuple[list[complex], list[complex]]:
    """Cut the longest edge of the cluster's minimum spanning tree (single linkage)."""
    inside, outside = [0], list(range(1, len(cluster)))
    edges: list[tuple[float, int, int]] = []  # Prim's order: each parent precedes its child
    while outside:
        edges.append(min((abs(cluster[i] - cluster[j]), i, j) for i in inside for j in outside))
        inside.append(edges[-1][2])
        outside.remove(edges[-1][2])
    cut = max(range(len(edges)), key=lambda e: edges[e][0])
    side = {edges[cut][2]}
    for _, i, j in edges[cut + 1:]:
        if i in side:
            side.add(j)
    return ([z for n, z in enumerate(cluster) if n in side],
            [z for n, z in enumerate(cluster) if n not in side])


def _clusters(cluster: list[complex], coeffs: Sequence[complex],
              scale: float) -> Iterator[list[complex]]:
    """Groups of eigenvalues that each stand for one root, split top down.

    Perturbing the coefficients by eps moves an m-fold root by about
    eps^(1/m), symmetrically around it, so a group of m is one root when
    it lies within 16 eps^(1/m) scale and its mean is a root of p and its
    first m-1 derivatives to the 16^m eps that spread stands for: each
    p^(k)(mean)/k! within 16^m eps of the same for the |c_i| polynomial at
    |mean|.  Close simple roots pass the first test but not the second.
    """
    m = len(cluster)
    mean = sum(cluster) / m
    diameter = max(abs(a - b) for a in cluster for b in cluster)
    if m == 1 or (diameter <= _CLUSTER_FACTOR * _EPS ** (1.0 / m) * scale and all(
            abs(t) <= _CLUSTER_FACTOR ** m * _EPS * size.real for t, size in zip(
                _taylor(coeffs, mean, m), _taylor([abs(c) for c in coeffs], abs(mean), m)))):
        yield cluster
        return
    for part in _split(cluster):
        yield from _clusters(part, coeffs, scale)


def _eig2(a: complex, b: complex, c: complex, d: complex) -> tuple[complex, complex]:
    """Eigenvalues of [[a, b], [c, d]]: t + y with y signed along t (no cancellation), then det / it.

    Entries whose largest modulus lies outside [2^-500, 2^500] are first
    scaled by a power of two to a largest part in [0.5, 1), so that no
    square or product overflows or underflows.
    """
    e = 0
    if not 2.0 ** -500 < max(abs(a), abs(b), abs(c), abs(d)) < 2.0 ** 500:
        e = math.frexp(max(abs(x) for z in (a, b, c, d) for x in (z.real, z.imag)))[1]
        a, b, c, d = (tr.scaled(z, -e) for z in (a, b, c, d))
    t = 0.5 * (a + d)
    y = cmath.sqrt((0.5 * (a - d)) ** 2 + b * c)
    if t.real * y.real + t.imag * y.imag < 0.0:
        y = -y
    big = t + y
    small = (a * d - b * c) / big if big else 0j
    return (tr.scaled(big, e), tr.scaled(small, e)) if e else (big, small)


def _negligible(h: list[list[complex]], k: int) -> bool:
    """Whether subdiagonal h[k][k-1] is negligible: Ahues and Tisseur's test, as in LAPACK's lahqr.

    Beside its diagonal neighbours it must also be small against the gap of
    its 2x2 block, which keeps a graded matrix's small eigenvalues accurate.
    """
    sub = abs(h[k][k - 1])
    if sub <= _TINY:
        return True
    hkk = h[k][k]
    if sub > _EPS * (abs(h[k - 1][k - 1]) + abs(hkk)):
        return False
    sup, gap = abs(h[k - 1][k]), abs(h[k - 1][k - 1] - hkk)
    ab, ba = max(sub, sup), min(sub, sup)
    aa, bb = max(abs(hkk), gap), min(abs(hkk), gap)
    s = aa + ab
    return ba * (ab / s) <= max(_TINY, _EPS * (bb * (aa / s)))


def _balance(h: list[list[complex]]) -> None:
    """Scale row and column i by inverse powers of two until their norms agree (Parlett and Reinsch)."""
    n = len(h)
    for _ in range(_BALANCE_PASSES):
        done = True
        for i in range(n):
            col = sum([abs(r[i]) for j, r in enumerate(h) if j != i])
            row = sum([abs(x) for j, x in enumerate(h[i]) if j != i])
            if not (0.0 < col < math.inf and 0.0 < row < math.inf):
                continue
            k = (math.frexp(row)[1] - math.frexp(col)[1]) // 2
            if k and math.ldexp(col, k) + math.ldexp(row, -k) < 0.95 * (col + row):
                for j, r in enumerate(h):
                    if j != i:
                        r[i], h[i][j] = tr.scaled(r[i], k), tr.scaled(h[i][j], -k)
                done = False
        if done:
            return


def _sweep(h: list[list[complex]], lo: int, hi: int, shift: complex) -> None:
    """One implicit single-shift QR step on the active block h[lo..hi], chasing the bulge down."""
    x, y = h[lo][lo] - shift, h[lo + 1][lo]
    for k in range(lo, hi):
        rk, rk1 = h[k], h[k + 1]
        if k > lo:
            x, y = rk[k - 1], rk1[k - 1]
        # the rotation [[c, s], [-conj(s), c]] takes (x, y) to (r, 0)
        ax = abs(x)
        norm = math.hypot(ax, abs(y))
        if not norm:
            continue
        c, s = (ax / norm, x / ax * y.conjugate() / norm) if ax else (0.0, 1.0)
        sc = s.conjugate()
        for j in range(max(lo, k - 1), hi + 1):
            a, b = rk[j], rk1[j]
            rk[j], rk1[j] = c * a + s * b, c * b - sc * a
        if k > lo:
            rk1[k - 1] = 0j
        for row in h[lo:min(k + 2, hi) + 1]:
            a, b = row[k], row[k + 1]
            row[k], row[k + 1] = c * a + sc * b, c * b - s * a


def _eigenvalues(coeffs: Sequence[complex]) -> list[complex]:
    """Eigenvalues of the companion matrix of z^m + c1 z^(m-1) + ... + cm, as numpy.roots lays it out.

    Trailing zero coefficients are exact zero roots.  The rest is the
    matrix with first row -c and ones below the diagonal, balanced, whose
    eigenvalues come from shifted complex QR with deflation (Wilkinson's
    shift, and an exceptional shift every tenth step without deflation);
    a 2x2 block is solved in closed form.  For real coefficients each
    root whose nearest conjugate is itself becomes real, and mutually
    nearest conjugates an exact pair, as a real eigensolver returns them.
    Raises :class:`NonConvergenceError` after 30 max(10, m) steps without
    a deflation, LAPACK's limit.
    """
    m = len(coeffs)
    while m and not coeffs[m - 1]:
        m -= 1
    h = [[0j] * m for _ in range(m)]
    if m:
        h[0] = [-c for c in coeffs[:m]]
    for i in range(1, m):
        h[i][i - 1] = 1.0 + 0j
    _balance(h)
    found = [0j] * (len(coeffs) - m)
    hi, steps = m - 1, 0
    while hi >= 0:
        lo = next((k for k in range(hi, 0, -1) if _negligible(h, k)), 0)
        if lo == hi or lo == hi - 1:
            found += [h[hi][hi]] if lo == hi else _eig2(h[lo][lo], h[lo][hi], h[hi][lo], h[hi][hi])
            hi, steps = lo - 1, 0
            continue
        steps += 1
        if steps > 30 * max(10, m):
            raise NonConvergenceError("companion matrix eigenvalues did not converge",
                                      residual=abs(h[hi][hi - 1]))
        if steps % 10:
            shift = min(_eig2(h[hi - 1][hi - 1], h[hi - 1][hi], h[hi][hi - 1], h[hi][hi]),
                        key=lambda z: abs(z - h[hi][hi]))
        elif steps % 20:
            shift = h[hi][hi] + 0.75 * abs(h[hi][hi - 1])
        else:
            shift = h[lo][lo] + 0.75 * abs(h[lo + 1][lo])
        _sweep(h, lo, hi, shift)
    if any(c.imag for c in coeffs):
        return found
    near = [min(range(len(found)), key=lambda j: abs(found[j] - z.conjugate())) for z in found]
    for i, j in enumerate(near):
        if j == i:
            found[i] = complex(found[i].real)
        elif near[j] == i and i < j:
            mid = 0.5 * (found[i] + found[j].conjugate())
            found[i], found[j] = mid, mid.conjugate()
    return found


def component_roots(coefficients: Sequence[complex]) -> tuple[complex, ...]:
    """All roots (with multiplicity) of z^m + c1 z^(m-1) + ... + cm, sorted by rounded value.

    ``coefficients`` is c1..cm, one value of :func:`decompose`.

    The eigenvalues of the companion matrix (:func:`_eigenvalues`) are
    grouped by :func:`_clusters`.  A
    multiple root of multiplicity m becomes the mean of its group, which
    is well conditioned although each eigenvalue is not, refined by one
    Newton step on p^(m-1), of which it is a simple root; a well
    conditioned simple root gets one Newton step on the exact p(z)
    (:func:`_exact_value`), which rounds it once.  Raises
    :class:`NonConvergenceError` when a root's :func:`_backward_error` is too large.
    """
    coeffs = [complex(c) for c in coefficients]
    if not all(map(cmath.isfinite, coeffs)):
        raise NonConvergenceError("component polynomial has a non-finite coefficient",
                                  residual=math.inf)
    eigenvalues = _eigenvalues(coeffs)
    scale = max(1.0, max(abs(z) for z in eigenvalues))
    roots: list[complex] = []
    for cluster in _clusters(eigenvalues, coeffs, scale):
        m = len(cluster)
        if m > 1:
            z = sum(cluster) / m
            t = _taylor(coeffs, z, m + 1)
            if t[m]:
                z -= t[m - 1] / (m * t[m])
            roots += [z] * m
            continue
        z = cluster[0]
        slope = _taylor(coeffs, z, 2)[1]
        # eps |p|(|z|) / |p'(z)|, the distance rounding of the coefficients moves the root,
        # is independent of the other roots: past _NEWTON_NOISE_RTOL they would no longer
        # multiply back to p.  Below it, the step on the exact p(z) rounds the root once.
        noise = _EPS * _size(coeffs, z)
        if slope and noise <= _NEWTON_NOISE_RTOL * max(1.0, abs(z)) * abs(slope):
            z -= _exact_value(coeffs, z) / slope
        roots.append(z)
    worst = max(_backward_error(coeffs, z) for z in roots)
    if not worst <= _RESIDUAL_RTOL:
        raise NonConvergenceError(
            f"root residual {worst:.3e} above {_RESIDUAL_RTOL:.0e} of the polynomial's size",
            residual=worst)
    return tuple(sorted(roots, key=_root_key))


def _is_real(z: complex) -> bool:
    return abs(z.imag) <= _REAL_SNAP_RTOL * (1.0 + abs(z))


def _are_conjugate(z1: complex, z2: complex) -> bool:
    return abs(z2 - z1.conjugate()) <= _CONJUGATE_RTOL * (1.0 + abs(z1))


def _axis_pair_count(roots: Sequence[complex]) -> int:
    """Number of conjugate pairs among one axis's roots.

    Raises :class:`NonConvergenceError` when a non-real root has no partner.
    """
    pool = [z for z in roots if not _is_real(z)]
    pairs = len(pool) // 2
    while pool:
        z = pool.pop(0)
        best = min(range(len(pool)), key=lambda i: abs(pool[i] - z.conjugate()), default=None)
        if best is None or not _are_conjugate(z, pool[best]):
            gap = math.inf if best is None else abs(pool[best] - z.conjugate())
            raise NonConvergenceError("complex axis root has no conjugate partner", residual=gap)
        del pool[best]
    return pairs


def _slot_factor(variant: Variant, groups: Sequence[Sequence[complex]]) -> HexaPolynomial:
    """The monic factor of one slot: (u - z) or (u - z1)(u - z2) on every component.

    ``groups[j]`` holds the slot's one or two roots on canonical component
    j, axes first; an axis keeps the real part of each coefficient.
    """
    columns = [(-zs[0],) if len(zs) == 1 else (-(zs[0] + zs[1]), zs[0] * zs[1]) for zs in groups]
    return HexaPolynomial(variant, [from_canonical_values(variant, row) for row in zip(*columns)])


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
    axis roots force real quadratic factors.  The result is the first one
    :func:`enumerate_factorizations` finds, checked by expanding it.
    """
    result = enumerate_factorizations(p, 1)[0]
    _verify_expansion(p, result)
    return result


def expand(f: Factorization) -> HexaPolynomial:
    """Multiply the factors back out (the verification inverse of factor)."""
    variant = f.variant
    acc: list[HexaNumber] = [HexaNumber.one(variant)]
    for piece in f.factors:
        factor_coeffs = (HexaNumber.one(variant), *piece.coeffs)
        out = [HexaNumber.zero(variant) for _ in range(len(acc) + len(factor_coeffs) - 1)]
        for i, a in enumerate(acc):
            for j, b in enumerate(factor_coeffs):
                out[i + j] = out[i + j] + a * b
        acc = out
    return HexaPolynomial(variant, tuple(acc[1:]))


# -- enumeration -----------------------------------------------------------------


def _root_key(z: complex) -> tuple[float, float]:
    return (round(z.real, _DEDUP_DECIMALS), round(z.imag, _DEDUP_DECIMALS))


def _round_key(values: Sequence[float]) -> tuple[float, ...]:
    return tuple(0.0 if v == 0 else v
                 for v in (round(x, _DEDUP_DECIMALS) for x in values))


def _factor_key(piece: HexaPolynomial) -> tuple:
    return tuple(_round_key(a.components) for a in piece.coeffs)


def _rank_groups(items: Sequence[complex]) -> tuple[list[complex], list[int]]:
    """Group the items by their rounded value.

    Returns the first value of each group, groups in sorted order, and the
    group index of each item in that order (so nondecreasing).
    """
    values: list[complex] = []
    ranks: list[int] = []
    for _, run in groupby(sorted(items, key=_root_key), key=_root_key):
        run = list(run)
        ranks += [len(values)] * len(run)
        values.append(run[0])
    return values, ranks


def _distinct_permutations(ranks: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The distinct permutations of the nondecreasing ``ranks``, in lexicographic order.

    Each step is the next permutation in place: find the last ascent, swap
    its head with the last larger rank after it, and reverse the tail.
    """
    r = list(ranks)
    n = len(r)
    while True:
        yield tuple(r)
        i = n - 2
        while i >= 0 and r[i] >= r[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while r[j] <= r[i]:
            j -= 1
        r[i], r[j] = r[j], r[i]
        r[i + 1:] = r[:i:-1]


def enumerate_factorizations(p: HexaPolynomial, limit: int) -> list[Factorization]:
    """Distinct factorizations from re-matching component roots, up to ``limit``.

    Distinctness is judged on the multiset of factors with coefficients
    rounded at 1e-9.  Repeated component roots are enumerated as distinct
    assignments only.

    Two kinds of ordering give the same factors: swapping the roots inside
    a quadratic slot of one component, and permuting the slots of all
    components at once.  The search visits orderings in lexicographic
    order of group indices (ranks), so the first member of each such class
    has every quadratic pair ascending and, in the first component,
    ascending quadratic slots and ascending linear slots; only those
    orderings are visited.  The rounding dedup still catches repeated
    roots and rounding collisions.

    A visited ordering costs a few small-integer operations.  Each
    component's accepted orderings are drawn lazily and kept for the next
    parent ordering, as tuples of per-slot integer keys (the slot's rank,
    or its two ranks combined).  Each slot's contents so far get an integer
    node id level by level, interned by (parent node, slot key); at the
    last component the lookup gives the integer id of the factor's rounded
    key, and results are deduplicated on the sorted tuple of those ids.
    Each slot's factor is built, and its rounded key given an id, once per
    slot contents (the slot index and each component's root or root pair),
    and a :class:`Factorization` only for a new result.  The number of
    distinct results still grows factorially with the degree; ``limit`` is
    the caller's brake.  :func:`format_factorizations` likewise renders
    each distinct factor once.

    The conjugate-pair test scales by the modulus of the pair's first
    root, so it is not exactly symmetric in the pair; the two moduli agree
    to rounding, so keeping only the ascending order could drop a pair
    only within about 1e-19 of the 1e-6 threshold.
    """
    if limit < 1:
        return []
    table = {tag: component_roots(c) for tag, c in decompose(p).items()}
    m = p.degree
    tags = list(table)  # component order: axes first
    axes = tr.axis_count(p.variant.is_planar)
    q = max((_axis_pair_count(table[tag]) for tag in tags[:axes]), default=0)
    groups = [_rank_groups(table[tag]) for tag in tags]
    last = len(tags) - 1

    def axis_ok(ordering: Sequence[complex]) -> bool:
        """Quadratic slots hold two real roots or a conjugate pair, linear slots a real root."""
        pairs = zip(ordering[0:2 * q:2], ordering[1:2 * q:2])
        return (all((_is_real(z1) and _is_real(z2)) or _are_conjugate(z1, z2) for z1, z2 in pairs)
                and all(map(_is_real, ordering[2 * q:])))

    def first_of_class(ranks: tuple[int, ...], first: bool) -> bool:
        """Whether the search meets no symmetric twin of this ordering earlier."""
        if any(ranks[2 * i] > ranks[2 * i + 1] for i in range(q)):
            return False
        if not first:
            return True
        quads = [ranks[2 * i:2 * i + 2] for i in range(q)]
        linears = list(ranks[2 * q:])
        return quads == sorted(quads) and linears == sorted(linears)

    def accepted(level: int) -> Callable[[], Iterator[tuple[int, ...]]]:
        """Component ``level``'s visited orderings as slot keys, drawn once and kept."""
        values, ranks = groups[level]
        kept: list[tuple[int, ...]] = []
        source = _distinct_permutations(ranks)

        def orderings() -> Iterator[tuple[int, ...]]:
            yield from kept
            for ordering in source:
                if not (first_of_class(ordering, level == 0) and (
                        level >= axes or axis_ok([values[r] for r in ordering]))):
                    continue
                if q:
                    ordering = (*(ordering[2 * i] * m + ordering[2 * i + 1] for i in range(q)),
                                *ordering[2 * q:])
                kept.append(ordering)
                yield ordering
        return orderings

    orderings = [accepted(level) for level in range(len(tags))]
    # node -> {slot key: child}; the slots are the roots, and a child at the last
    # level is a leaf: one slot contents, with its factor and its key's id
    children: list[dict[int, int]] = [{} for _ in range(m - q)]
    leaf_factor: list[HexaPolynomial] = []
    leaf_id: list[int] = []
    ids: dict[tuple, int] = {}  # rounded factor key -> its integer id
    path: list[tuple[int, ...]] = [()] * len(tags)  # each level's slot keys so far

    def slot_roots(level: int, slot: int) -> tuple[complex, ...]:
        values, key = groups[level][0], path[level][slot]
        return (values[key // m], values[key % m]) if slot < q else (values[key],)

    def grow(level: int, rows: list[dict[int, int]], keys: tuple[int, ...]) -> None:
        """Intern the children that ``keys`` reaches and ``rows`` do not hold yet."""
        for slot, (row, key) in enumerate(zip(rows, keys)):
            if key in row:
                continue
            if level < last:
                row[key] = len(children)
                children.append({})
                continue
            built = _slot_factor(p.variant, [slot_roots(j, slot) for j in range(len(tags))])
            row[key] = len(leaf_factor)
            leaf_factor.append(built)
            leaf_id.append(ids.setdefault(_factor_key(built), len(ids)))

    found: dict[tuple[int, ...], Factorization] = {}

    def search(level: int, parents: list[int]) -> bool:
        rows = [children[n] for n in parents]
        for keys in orderings[level]():
            path[level] = keys
            try:
                nodes = list(map(dict.__getitem__, rows, keys))
            except KeyError:
                grow(level, rows, keys)
                nodes = list(map(dict.__getitem__, rows, keys))
            if level < last:
                if search(level + 1, nodes):
                    return True
                continue
            key = tuple(sorted(map(leaf_id.__getitem__, nodes)))
            if key not in found:
                found[key] = Factorization(p.variant, tuple(map(leaf_factor.__getitem__, nodes)))
                if len(found) >= limit:
                    return True
        return False

    search(0, list(range(m - q)))
    if not found:
        raise NonConvergenceError("no assignment of component roots to factor slots")
    return list(found.values())


def _wrap_terms(text: str) -> str:
    return f"({text})" if (" + " in text or " - " in text or text.startswith("-")) else text


def _format_factor(piece: HexaPolynomial, digits: int = 12) -> str:
    """Render one factor in brackets: ``[u - root]``, ``[u + a]`` or ``[u^2 + (b) u + (c)]``."""
    if piece.degree == 1:
        # the sign of the leading nonzero component of a picks u - (-a) or u + a
        a = piece.coeffs[0]
        lead = next((x for x in a.components if x != 0.0), 0.0)
        if lead == 0.0:
            return "[u]"
        if lead < 0.0:
            return f"[u - {_wrap_terms(format_hexa(-a, digits))}]"
        return f"[u + {_wrap_terms(format_hexa(a, digits))}]"
    b_text, c_text = (format_hexa(x, digits) for x in piece.coeffs)
    body = "u^2"
    if b_text != "0":
        body += f" + ({b_text}) u"
    if c_text != "0":
        body += f" + ({c_text})"
    return f"[{body}]"


def format_factorization(f: Factorization, digits: int = 12) -> str:
    """Render the factorization in the bracketed one-line style."""
    return "".join(_format_factor(piece, digits) for piece in f.factors)


def format_factorizations(fs: Sequence[Factorization], digits: int = 12) -> list[str]:
    """:func:`format_factorization` of each, rendering every distinct factor once.

    :func:`enumerate_factorizations` shares one factor object among the
    results with the same slot contents, so the text is kept per object
    (all of them stay alive in ``fs``) for the length of this call.
    """
    pieces = {id(piece): piece for f in fs for piece in f.factors}
    texts = {key: _format_factor(piece, digits) for key, piece in pieces.items()}
    return ["".join(map(texts.__getitem__, map(id, f.factors))) for f in fs]
