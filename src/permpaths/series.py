"""Exact integer polynomial and power-series arithmetic.

Polynomials are tuples of Python ints, index = degree, trailing zeros
trimmed, so ``(1, -3, 1)`` is 1 - 3x + x^2.  All arithmetic is exact.

The polynomials ``q_h`` and ``p_h`` defined by

    q_0 = q_1 = 1,  q_{h+1} = q_h - x q_{h-1}
    p_0 = 2,  p_1 = 1,  p_{h+1} = p_h - x p_{h-1}

are rescaled Chebyshev polynomials of the second and first kind.  The
rational series q_h / q_{h+1} generates Dyck paths of height <= h, and
q_r q_s / q_{r+s+h} generates paths in a corridor; both expansions have
nonnegative integer coefficients, extracted here by exact long division
(the divisors have constant term 1).
"""

import functools
from typing import Sequence

from .errors import InvalidInputError
from .paths import ballot, binomial

IntPolynomial = tuple[int, ...]


def trim(coeffs: Sequence[int]) -> IntPolynomial:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a: Sequence[int], b: Sequence[int]) -> IntPolynomial:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_sub(a: Sequence[int], b: Sequence[int]) -> IntPolynomial:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def poly_mul(a: Sequence[int], b: Sequence[int]) -> IntPolynomial:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim(out)


def poly_shift(a: Sequence[int], k: int = 1) -> IntPolynomial:
    """Multiply by x^k."""
    return trim((0,) * k + tuple(a))


def series_div(num: Sequence[int], den: Sequence[int], nterms: int) -> tuple[int, ...]:
    """First ``nterms`` power-series coefficients of num/den.

    Requires den to have constant term +1 or -1 so the expansion stays
    in the integers.
    """
    den = tuple(den)
    if not den or den[0] not in (1, -1):
        raise InvalidInputError("series division needs constant term 1 or -1")
    out = []
    for n in range(nterms):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc // den[0])
    return tuple(out)


@functools.lru_cache(maxsize=None)
def chebyshev_q(h: int) -> IntPolynomial:
    """q_0 = q_1 = 1, q_{h+1} = q_h - x q_{h-1}.

    >>> chebyshev_q(4)
    (1, -3, 1)
    """
    if h < 0:
        raise InvalidInputError("q_h needs h >= 0")
    a, b = (1,), (1,)  # q_0, q_1
    for _ in range(h):
        a, b = b, poly_sub(b, poly_shift(a))
    return a


@functools.lru_cache(maxsize=None)
def chebyshev_p(h: int) -> IntPolynomial:
    """p_0 = 2, p_1 = 1, p_{h+1} = p_h - x p_{h-1}.

    >>> chebyshev_p(2)
    (1, -2)
    """
    if h < 0:
        raise InvalidInputError("p_h needs h >= 0")
    a, b = (2,), (1,)
    for _ in range(h):
        a, b = b, poly_sub(b, poly_shift(a))
    return a


def bounded_height_count(n: int, h: int) -> int:
    """Number of Dyck n-paths of height <= h: [x^n] q_h / q_{h+1}.

    >>> bounded_height_count(3, 2)
    4
    """
    if h < 0 or n < 0:
        raise InvalidInputError("need n, h >= 0")
    return series_div(chebyshev_q(h), chebyshev_q(h + 1), n + 1)[n]


def corridor_count(n: int, h: int, r: int, s: int) -> int:
    """Number of paths with n+h-1 ups and n downs that stay weakly
    between y = -r and y = s+h-1: [x^n] q_r q_s / q_{r+s+h}.

    >>> corridor_count(5, 1, 1, 0)
    1
    """
    if h < 1 or r < 0 or s < 0 or n < 0:
        raise InvalidInputError("need h >= 1 and n, r, s >= 0")
    num = poly_mul(chebyshev_q(r), chebyshev_q(s))
    return series_div(num, chebyshev_q(r + s + h), n + 1)[n]


def catalan_triangle(nmax: int) -> list[list[int]]:
    """Square matrix T with T[n][k] = ballot(k, n-k), 0 <= n, k <= nmax.

    Row n lists the coefficient of x^n in C(x)^k for each power k; the
    matrix is lower triangular with unit diagonal.
    """
    return [[ballot(k, n - k) for k in range(nmax + 1)] for n in range(nmax + 1)]


def catalan_triangle_inverse(nmax: int) -> list[list[int]]:
    """Inverse of ``catalan_triangle(nmax)`` in closed form:
    entry (n, k) is (-1)^(n-k) * binomial(k, n-k).

    The nonzero entries of row n, read right to left, are exactly the
    coefficients of q_n.
    """
    return [
        [(-1) ** (n - k) * binomial(k, n - k) if k <= n else 0
         for k in range(nmax + 1)]
        for n in range(nmax + 1)
    ]
