"""Closed-form counts for pattern-restricted permutation families.

Each public family name maps to an exact integer formula, stored as
data: a kind and a tuple of rows, whose terms are summed.

* ``"ballot"`` row ``(c, k, s)``: c * ballot(k, n - s).
* ``"pow2"`` row ``(c, a, j, e)``: c * binom(n + a, j) * 2**(n + e),
  and 0 whenever the binomial is 0.
* ``"central"`` row ``(c, a, b)``: c * binom(2n + a, n + b).

The zero conventions of :mod:`permpaths.paths` (vanishing binomials
outside their range, vanishing ballot numbers at negative subscripts)
make every formula total over n >= 1 with no small-n special cases.
A ``pow2`` row is accepted only if its power of 2 is whole at every
n >= 1 where its binomial is nonzero; the rows are checked on import.

The same family names key the exhaustive-search table in
:mod:`permpaths.oracle`, and the verification suite insists the two
agree wherever the oracle can reach.
"""

from __future__ import annotations

import dataclasses

from .errors import InvalidInputError, UnsupportedClassError, VerificationError
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

Formula = tuple[str, tuple[tuple[int, ...], ...]]  # (kind, rows)

# The family names double as the stable strings accepted by the
# command-line interface.
FORMULAS: dict[str, Formula] = {
    "p132-1": ("central", ((1, -3, -3),)),
    "p321-1": ("ballot", ((1, 6, 3),)),
    "p321-2": ("ballot", ((3, 8, 4), (1, 11, 6))),
    "p321-3": ("ballot", ((7, 10, 5), (6, 13, 7), (1, 16, 9))),
    "p321-4": (
        "ballot",
        (
            (13, 12, 6), (19, 15, 8), (9, 18, 10), (1, 21, 12),
            (4, 14, 7), (5, 10, 5), (1, 6, 4), (-2, 8, 5),
        ),
    ),
    "p321-1-last2up": ("ballot", ((2, 6, 4), (1, 9, 6))),
    "p321-2-last2up": (
        "ballot",
        ((4, 8, 5), (3, 11, 7), (1, 14, 9), (2, 10, 6), (2, 6, 4), (-1, 4, 4)),
    ),
    "simion-schmidt": ("pow2", ((1, 0, 0, -1),)),
    "p123avoid-132-1": ("pow2", ((1, -2, 1, -3),)),
    "p123avoid-132-2": ("pow2", ((1, -3, 1, -4), (1, -3, 2, -5))),
    "p123avoid-132-3": ("pow2", ((1, -3, 1, -4), (1, -3, 2, -5), (1, -4, 3, -7))),
    "p123avoid-132-4": (
        "pow2",
        ((2, -4, 1, -5), (3, -4, 2, -6), (1, -4, 3, -7), (1, -5, 3, -8), (1, -5, 4, -9)),
    ),
}


def _check_rows(table: dict[str, Formula]) -> None:
    """Raise VerificationError if a ``pow2`` row could form a negative
    power of 2 where its binomial is nonzero: binom(n + a, j) first
    becomes nonzero at n = max(1, j - a)."""
    for family, (kind, rows) in table.items():
        if kind != "pow2":
            continue
        for c, a, j, e in rows:
            if max(1, j - a) + e < 0:
                raise VerificationError(
                    f"{family}: pow2 row {(c, a, j, e)} has a negative exponent"
                )


_check_rows(FORMULAS)


def _term(kind: str, row: tuple[int, ...], n: int) -> int:
    if kind == "ballot":
        c, k, s = row
        return c * ballot(k, n - s)
    if kind == "central":
        c, a, b = row
        return c * binomial(2 * n + a, n + b)
    c, a, j, e = row
    b = binomial(n + a, j)
    return (c * b) << (n + e) if b else 0


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
    kind, rows = FORMULAS[family]
    return sum(_term(kind, row, n) for row in rows)


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
