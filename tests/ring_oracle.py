"""Independent ring arithmetic in 40-digit mpmath, for accuracy tests.

A value is a list of six mpmath numbers, the components x0..x5 of
x0 + x1 h1 + ... + x5 h5.  The product is the convolution
hj hk = h[(j+k) % 6], with h6 = 1 on the polar ring and h6 = -1 on the
planar one.  Nothing here calls the library, so a test can hold the
library's results against it.  Every function computes at ``DPS``
digits; mpmath rounds each difference of its results to the precision
in force where it is taken, so a test may compare outside ``workdps``.
"""

from __future__ import annotations

import mpmath

DPS = 40


def to_mp(components) -> list:
    """The components of a value (or any six floats) as exact mpmath numbers."""
    return [mpmath.mpf(c) for c in components]


def mul(x, y, planar: bool) -> list:
    """Ring product x y; component k sums x_i y_(k-i), negated on the planar wrap i > k."""
    with mpmath.workdps(DPS):
        return [mpmath.fsum((-1 if planar and i > k else 1) * x[i] * y[(k - i) % 6]
                            for i in range(6)) for k in range(6)]


def inverse(x, planar: bool) -> list:
    """The y with x y = 1, by an LU solve of the 6x6 matrix of multiplication by x."""
    with mpmath.workdps(DPS):
        matrix = mpmath.matrix(6, 6)
        for j in range(6):
            column = mul(x, [int(i == j) for i in range(6)], planar)  # x hj
            for k in range(6):
                matrix[k, j] = column[k]
        return list(mpmath.lu_solve(matrix, mpmath.matrix([1, 0, 0, 0, 0, 0])))


def powers(x, count: int, planar: bool) -> list:
    """The integer powers [x^1, ..., x^count], each one product from the one before."""
    result = [x]
    while len(result) < count:
        result.append(mul(result[-1], x, planar))
    return result
