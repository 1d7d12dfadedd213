"""Closed-form counts for pattern-restricted permutation families.

Each public family name maps to an exact integer formula built from
ballot numbers, binomial coefficients and powers of two.  The zero
conventions of :mod:`permpaths.paths` (vanishing binomials outside
their range, vanishing ballot numbers at negative subscripts) make
every formula total over n >= 1 with no small-n special cases.

The same family names key the exhaustive-search table in
:mod:`permpaths.oracle`, and the verification suite insists the two
agree wherever the oracle can reach.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from .errors import InvalidInputError, UnsupportedClassError
from .paths import ballot, binomial

__all__ = [
    "FORMULAS",
    "count",
    "FirstEntryEq",
    "FirstEntryGe",
    "OneNotBeforePos",
    "MaxNotAfterPosFromEnd",
    "LastEntryLe",
    "FirstGe2AndLastLeNminus1",
    "LastIIncreasing",
    "AvoiderClassConstraint",
    "count_avoider_class",
]


def _pow2_term(coeff: int, top: int, choose: int, exponent: int) -> int:
    """coeff * binom(top, choose) * 2**exponent, with the convention that
    a vanishing binomial kills the whole term before the power is formed.
    Whenever the binomial survives, the exponent is nonnegative."""
    b = binomial(top, choose)
    if b == 0:
        return 0
    assert exponent >= 0
    return coeff * b * (1 << exponent)


def _p132_1(n: int) -> int:
    return binomial(2 * n - 3, n - 3)


def _p321_1(n: int) -> int:
    return ballot(6, n - 3)


def _p321_2(n: int) -> int:
    return 3 * ballot(8, n - 4) + ballot(11, n - 6)


def _p321_3(n: int) -> int:
    return 7 * ballot(10, n - 5) + 6 * ballot(13, n - 7) + ballot(16, n - 9)


def _p321_4(n: int) -> int:
    return (
        13 * ballot(12, n - 6)
        + 19 * ballot(15, n - 8)
        + 9 * ballot(18, n - 10)
        + ballot(21, n - 12)
        + 4 * ballot(14, n - 7)
        + 5 * ballot(10, n - 5)
        + ballot(6, n - 4)
        - 2 * ballot(8, n - 5)
    )


def _p321_1_last2up(n: int) -> int:
    return 2 * ballot(6, n - 4) + ballot(9, n - 6)


def _p321_2_last2up(n: int) -> int:
    return (
        4 * ballot(8, n - 5)
        + 3 * ballot(11, n - 7)
        + ballot(14, n - 9)
        + 2 * ballot(10, n - 6)
        + 2 * ballot(6, n - 4)
        - ballot(4, n - 4)
    )


def _simion_schmidt(n: int) -> int:
    return 1 << (n - 1)


def _p123avoid132_1(n: int) -> int:
    return _pow2_term(1, n - 2, 1, n - 3)


def _p123avoid132_2(n: int) -> int:
    return _pow2_term(1, n - 3, 1, n - 4) + _pow2_term(1, n - 3, 2, n - 5)


def _p123avoid132_3(n: int) -> int:
    return _p123avoid132_2(n) + _pow2_term(1, n - 4, 3, n - 7)


def _p123avoid132_4(n: int) -> int:
    return (
        _pow2_term(2, n - 4, 1, n - 5)
        + _pow2_term(3, n - 4, 2, n - 6)
        + _pow2_term(1, n - 4, 3, n - 7)
        + _pow2_term(1, n - 5, 3, n - 8)
        + _pow2_term(1, n - 5, 4, n - 9)
    )


# Family name -> (formula, one-line description). The names double as the
# stable strings accepted by the command-line interface.
FORMULAS: dict[str, tuple[Callable[[int], int], str]] = {
    "p132-1": (_p132_1, "exactly one 132: binom(2n-3, n-3)"),
    "p321-1": (_p321_1, "exactly one 321: ballot(6, n-3)"),
    "p321-2": (_p321_2, "exactly two 321s: 3*ballot(8, n-4) + ballot(11, n-6)"),
    "p321-3": (
        _p321_3,
        "exactly three 321s: 7*ballot(10, n-5) + 6*ballot(13, n-7) + ballot(16, n-9)",
    ),
    "p321-4": (
        _p321_4,
        "exactly four 321s: a signed combination of eight ballot terms",
    ),
    "p321-1-last2up": (
        _p321_1_last2up,
        "one 321, last two letters increasing: 2*ballot(6, n-4) + ballot(9, n-6)",
    ),
    "p321-2-last2up": (
        _p321_2_last2up,
        "two 321s, last two letters increasing: six ballot terms",
    ),
    "simion-schmidt": (_simion_schmidt, "avoiding both 123 and 132: 2^(n-1)"),
    "p123avoid-132-1": (_p123avoid132_1, "123-avoiding with one 132: (n-2)*2^(n-3)"),
    "p123avoid-132-2": (
        _p123avoid132_2,
        "123-avoiding with two 132s: binom(n-3,1)*2^(n-4) + binom(n-3,2)*2^(n-5)",
    ),
    "p123avoid-132-3": (
        _p123avoid132_3,
        "123-avoiding with three 132s: the two-occurrence form plus binom(n-4,3)*2^(n-7)",
    ),
    "p123avoid-132-4": (
        _p123avoid132_4,
        "123-avoiding with four 132s: five binomial-times-power terms",
    ),
}


def count(family: str, n: int) -> int:
    """Exact count of the named family among permutations of [n].

    >>> count("p321-1", 5)
    27
    >>> count("p321-2", 6)
    133
    >>> count("simion-schmidt", 3)
    4
    >>> count("p132-1", 20) == binomial(37, 17)
    True
    """
    if family not in FORMULAS:
        raise UnsupportedClassError(
            f"unknown family {family!r}; known: {', '.join(sorted(FORMULAS))}"
        )
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidInputError(f"n must be a positive integer: {n!r}")
    return FORMULAS[family][0](n)


# ---------------------------------------------------------------------------
# Counted subclasses of the 321-avoiders


@dataclasses.dataclass(frozen=True)
class FirstEntryEq:
    k: int


@dataclasses.dataclass(frozen=True)
class FirstEntryGe:
    k: int


@dataclasses.dataclass(frozen=True)
class OneNotBeforePos:
    m: int


@dataclasses.dataclass(frozen=True)
class MaxNotAfterPosFromEnd:
    m: int


@dataclasses.dataclass(frozen=True)
class LastEntryLe:
    v: int


@dataclasses.dataclass(frozen=True)
class FirstGe2AndLastLeNminus1:
    pass


@dataclasses.dataclass(frozen=True)
class LastIIncreasing:
    i: int


AvoiderClassConstraint = (
    FirstEntryEq
    | FirstEntryGe
    | OneNotBeforePos
    | MaxNotAfterPosFromEnd
    | LastEntryLe
    | FirstGe2AndLastLeNminus1
    | LastIIncreasing
)


def count_avoider_class(n: int, c: AvoiderClassConstraint) -> int:
    """Count 321-avoiding permutations of [n] in one constrained class.

    A fixed first entry k leaves ballot(k, n-k) avoiders.  The four
    equinumerous classes parametrised by m (first entry >= m, the letter
    1 no earlier than position m, the letter n no later than the m-th
    position from the end, last entry <= n+1-m) and the class with the
    last i letters increasing are all counted by ballot(m+1, n-m).

    >>> count_avoider_class(3, FirstEntryEq(2))
    2
    >>> count_avoider_class(4, FirstGe2AndLastLeNminus1())
    6
    >>> count_avoider_class(6, FirstEntryGe(1))
    132
    >>> count_avoider_class(5, LastIIncreasing(5))
    1
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidInputError(f"n must be a positive integer: {n!r}")
    match c:
        case FirstEntryEq(k=k) if k >= 1:
            return ballot(k, n - k)
        case FirstEntryGe(k=k) if k >= 0:
            return ballot(k + 1, n - k)
        case OneNotBeforePos(m=m) if 1 <= m <= n:
            return ballot(m + 1, n - m)
        case MaxNotAfterPosFromEnd(m=m) if 1 <= m <= n:
            return ballot(m + 1, n - m)
        case LastEntryLe(v=v) if 1 <= v <= n:
            m = n + 1 - v
            return ballot(m + 1, n - m)
        case FirstGe2AndLastLeNminus1():
            return ballot(2, n - 2) + ballot(5, n - 4)
        case LastIIncreasing(i=i) if 1 <= i <= n:
            return ballot(i + 1, n - i)
        case FirstEntryEq() | FirstEntryGe() | OneNotBeforePos() | MaxNotAfterPosFromEnd() | LastEntryLe() | LastIIncreasing():
            raise InvalidInputError(f"constraint parameter out of range for n={n}: {c}")
        case _:
            raise UnsupportedClassError(f"unsupported avoider class constraint: {c!r}")
