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

Component roots come from Aberth-Ehrlich iteration in pure Python (a
quadratic by its closed form), each simple root then refined by Newton's
method on the exact p(z), so that it is the root of the given
coefficients rounded once.  Approximations that cluster as tightly as a
root of multiplicity m spreads under rounding (about eps^(1/m)) merge into
one root of that multiplicity, when their mean, refined on p^(m-1), is
also a root of the first m-1 derivatives: a repeated root comes out
repeated exactly, while close simple roots stay apart.  A root is
accepted when |p(z)| is small beside the polynomial of |c_i| at |z|
(backward error).  Roots are sorted by their rounded value, so the
factors printed do not depend on the order in which they were found.
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
_REAL_SNAP_RTOL = 1e-10
_CONJUGATE_RTOL = 1e-6
_DEDUP_DECIMALS = 9
_EXPANSION_RTOL = 1e-8
_ABERTH_SWEEPS = 50
_ABERTH_STOP = 2.0 ** -40
_NEWTON_STEPS = 8


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
    return _taylor(list(map(tr.radius, coeffs)), tr.radius(z), 1)[0].real


def _backward_error(coeffs: Sequence[complex], z: complex) -> float:
    """|p(z)| / :func:`_size`, inf when p(z) is not finite.

    Where p(z) or the size overflows, both are formed again on z = 2^e t
    and coefficients c_i 2^(-e i), which divides each by 2^(e m) and leaves
    their ratio; 2^e is the least power of two above the parts of z and of
    every c_i^(1/i), so that no part of t or of a scaled c_i reaches 1.
    """
    value, size = _taylor(coeffs, z, 1)[0], _size(coeffs, z)
    if not (cmath.isfinite(value) and size < math.inf):
        e = max(-(-math.frexp(max(abs(x.real), abs(x.imag)))[1] // i)
                for i, x in ((1, z), *enumerate(coeffs, 1)))
        coeffs = [tr.scaled(c, -e * i) for i, c in enumerate(coeffs, 1)]
        z = tr.scaled(z, -e)
        value, size = _taylor(coeffs, z, 1)[0], _size(coeffs, z)
    if not cmath.isfinite(value):
        return math.inf
    return tr.radius(value) / size if value else 0.0


def _split(cluster: list[complex]) -> tuple[list[complex], list[complex]]:
    """Cut the longest edge of the cluster's minimum spanning tree (single linkage)."""
    inside, outside = [0], list(range(1, len(cluster)))
    edges: list[tuple[float, int, int]] = []  # Prim's order: each parent precedes its child
    while outside:
        edges.append(min((tr.radius(cluster[i] - cluster[j]), i, j)
                         for i in inside for j in outside))
        inside.append(edges[-1][2])
        outside.remove(edges[-1][2])
    cut = max(range(len(edges)), key=lambda e: edges[e][0])
    side = {edges[cut][2]}
    for _, i, j in edges[cut + 1:]:
        if i in side:
            side.add(j)
    return ([z for n, z in enumerate(cluster) if n in side],
            [z for n, z in enumerate(cluster) if n not in side])


def _newton(coeffs: Sequence[complex], z: complex, k: int) -> complex:
    """z after at most _NEWTON_STEPS Newton steps on p^(k), p(z) by :func:`_exact_value` when k = 0.

    It stops after a step within eps |z|, which leaves a root rounded once,
    or before a step that is not finite.
    """
    for _ in range(_NEWTON_STEPS):
        t = _taylor(coeffs, z, k + 2)
        slope = (k + 1) * t[k + 1]
        if not (slope and cmath.isfinite(slope)):
            break
        step = tr.quotient(_exact_value(coeffs, z) if k == 0 else t[k], slope)
        if not cmath.isfinite(step):
            break
        z -= step
        if tr.radius(step) <= _EPS * tr.radius(z):
            break
    return z


def _clusters(cluster: list[complex], coeffs: Sequence[complex],
              scale: float) -> Iterator[tuple[complex, int]]:
    """Each root and its multiplicity, from groups of approximations split top down.

    Perturbing the coefficients by eps moves an m-fold root by about
    eps^(1/m), symmetrically around it, so a group of m is one root when
    it lies within 16 eps^(1/m) scale and its mean, refined by
    :func:`_newton` on p^(m-1), is a root of p and its first m-1
    derivatives to the 16^m eps that spread stands for: each
    p^(k)(z)/k! within 16^m eps of the same for the |c_i| polynomial at
    |z|.  Close simple roots pass the first test but not the second.  A
    single approximation is refined on the exact p(z).
    """
    m = len(cluster)
    if m == 1 or max(tr.radius(a - b) for a in cluster for b in cluster) <= (
            _CLUSTER_FACTOR * _EPS ** (1.0 / m) * scale):
        z = _newton(coeffs, sum(cluster) / m, m - 1)
        if m == 1 or all(tr.radius(t) <= _CLUSTER_FACTOR ** m * _EPS * size.real for t, size in zip(
                _taylor(coeffs, z, m), _taylor(list(map(tr.radius, coeffs)), tr.radius(z), m))):
            yield z, m
            return
    for part in _split(cluster):
        yield from _clusters(part, coeffs, scale)


def _quadratic(c1: complex, c2: complex) -> list[complex]:
    """Roots of z^2 + c1 z + c2, c2 nonzero: big = t + y, y signed along t = -c1/2, and c2 / big.

    big is formed on z = 2^e w, 2^e about max(|t|, |c2|^(1/2)), so no square
    overflows; c2 / big is not, which keeps the root -1 of z^2 + 1e308 z + 1e308.
    """
    t = -0.5 * c1
    e = max(math.frexp(max(abs(t.real), abs(t.imag)))[1],
            (math.frexp(max(abs(c2.real), abs(c2.imag)))[1] + 1) // 2)
    ts = tr.scaled(t, -e)
    y = cmath.sqrt(ts * ts - tr.scaled(c2, -2 * e))
    if ts.real * y.real + ts.imag * y.imag < 0.0:
        y = -y
    big = tr.scaled(ts + y, e)
    return [big, tr.quotient(c2, big)]


def _aberth(c: list[complex]) -> list[complex]:
    """Roots of z^m + c1 z^(m-1) + ... + cm, cm nonzero, by Aberth-Ehrlich iteration.

    Start points lie on one circle per edge of the upper convex hull of
    (i, log2 |c_i|), c_0 = 1, as many as the edge is long, at the radius its
    slope gives (Bini, Numer. Algorithms 13, 1996).  Past a coefficient of
    2^500 it runs on z = 2^e w, e the least that brings every c_i 2^(-e i)
    within 2^500, so Horner cannot overflow.  A sweep moves each point in
    turn (Gauss-Seidel) by N / (1 - N S): N = p/p' by Horner, on the reversed
    polynomial where |z| > 1, S the sum of 1 / (z - z_j) over the others.  A
    point stops once its step is within 2^-40 of |z|, or once |p(z)| is
    within eps of the |c_i| polynomial at |z|, as rounding hides any more.
    """
    def slope(a: tuple[int, float], b: tuple[int, float]) -> float:
        return (b[1] - a[1]) / (b[0] - a[0])

    m = len(c)
    hull = [(0, 0.0)]
    for i, x in enumerate(c, 1):
        if x:
            point = (i, math.log2(max(abs(x.real), abs(x.imag))))
            # edges whose slopes differ by less than 2^-6 merge, so no two circles nearly coincide
            while len(hull) > 1 and slope(hull[-1], point) > slope(hull[-2], hull[-1]) - 2.0 ** -6:
                hull.pop()
            hull.append(point)
    e = max(0, *(math.ceil((b - 500.0) / i) for i, b in hull[1:]))
    z = [cmath.rect(2.0 ** (slope(a, b) - e), tr.TWO_PI * (k / (b[0] - a[0]) + j / m) + 0.7)
         for j, (a, b) in enumerate(zip(hull, hull[1:])) for k in range(b[0] - a[0])]
    c = [tr.scaled(x, -e * i) for i, x in enumerate(c, 1)]
    forward = [(1.0 + 0j, 1.0), *((x, abs(x)) for x in c)]
    backward = forward[::-1]
    moving = list(range(m))
    for _ in range(_ABERTH_SWEEPS):
        still = []
        for k in moving:
            zk = z[k]
            r = tr.radius(zk)
            x, rx = (zk, r) if r <= 1.0 else (1.0 / zk, 1.0 / r)
            v, d, size = 0j, 0j, 0.0
            for a, abs_a in forward if r <= 1.0 else backward:
                d = d * x + v
                v = v * x + a
                size = size * rx + abs_a
            if abs(v) <= _EPS * size:
                continue
            s = sum([1.0 / (zk - zj) for zj in z if zj != zk])
            den = d - v * s if r <= 1.0 else x * (m * v - x * d) - v * s
            step = v / den if den else 0j
            if cmath.isfinite(step):
                z[k] = zk - step
                if tr.radius(step) > _ABERTH_STOP * r:
                    still.append(k)
        moving = still
        if not moving:
            break
    return [tr.scaled(x, e) for x in z]


def _eigenvalues(coeffs: Sequence[complex]) -> list[complex]:
    """All roots of z^m + c1 z^(m-1) + ... + cm (the eigenvalues of its companion matrix).

    Trailing zero coefficients are exact zero roots; of the rest, degree 1
    is -c1, degree 2 :func:`_quadratic` and higher degrees :func:`_aberth`.
    For real coefficients the roots are matched to conjugates closest
    first: a root matched to itself becomes real, and a matched pair
    becomes an exact conjugate pair at the mean of one and the conjugate
    of the other, as a real eigensolver returns them.
    """
    m = len(coeffs)
    while m and not coeffs[m - 1]:
        m -= 1
    c = list(coeffs[:m])
    found = [0j] * (len(coeffs) - m) + (_aberth(c) if m > 2 else _quadratic(*c) if m == 2
                                        else [-x for x in c])
    if any(x.imag for x in coeffs):
        return found
    matched: set[int] = set()
    for _, i, j in sorted((tr.radius(a - found[j].conjugate()), i, j)
                          for i, a in enumerate(found) for j in range(i, len(found))):
        if i not in matched and j not in matched:
            matched |= {i, j}
            mid = complex(found[i].real) if i == j else 0.5 * found[i] + 0.5 * found[j].conjugate()
            found[i], found[j] = mid, mid.conjugate()
    return found


def component_roots(coefficients: Sequence[complex]) -> tuple[complex, ...]:
    """All roots (with multiplicity) of z^m + c1 z^(m-1) + ... + cm, sorted by rounded value.

    ``coefficients`` is c1..cm, one value of :func:`decompose`.

    The approximations of :func:`_eigenvalues` are grouped and refined by
    :func:`_clusters`: a root of multiplicity m > 1 is the mean of its
    group, which is well conditioned although each approximation is not,
    refined by Newton's method on p^(m-1), of which it is a simple root; a
    simple root is refined by Newton's method on the exact p(z), so it
    comes out as the root of the given coefficients rounded once.  Raises
    :class:`NonConvergenceError` when a root's :func:`_backward_error` is too large.
    """
    coeffs = [complex(c) for c in coefficients]
    if not all(map(cmath.isfinite, coeffs)):
        raise NonConvergenceError("component polynomial has a non-finite coefficient",
                                  residual=math.inf)
    found = _eigenvalues(coeffs)
    scale = max(1.0, max(map(tr.radius, found)))
    roots = [z for z, m in _clusters(found, coeffs, scale) for _ in range(m)]
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
