"""Closed-form counting families against frozen tables and the oracle.

The tables below were generated once by exhaustive enumeration (n <= 9)
plus the closed forms themselves at n = 10, then frozen. A change in
either route that breaks agreement shows up here without recomputing
anything heavy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpaths.errors import InvalidInputError, UnsupportedClassError
from permpaths.formulas import (
    FORMULAS,
    FirstEntryEq,
    FirstEntryGe,
    FirstGe2AndLastLeNminus1,
    LastEntryLe,
    LastIIncreasing,
    MaxNotAfterPosFromEnd,
    OneNotBeforePos,
    count,
    count_avoider_class,
)
from permpaths.oracle import FAMILY_CONDITIONS, count_perms
from permpaths.paths import ballot, binomial, catalan

# values for n = 1 .. 10
FROZEN = {
    "p132-1": [0, 0, 1, 5, 21, 84, 330, 1287, 5005, 19448],
    "p321-1": [0, 0, 1, 6, 27, 110, 429, 1638, 6188, 23256],
    "p321-2": [0, 0, 0, 3, 24, 133, 635, 2807, 11864, 48756],
    "p321-3": [0, 0, 0, 0, 7, 70, 461, 2528, 12525, 58258],
    "p321-4": [0, 0, 0, 1, 9, 74, 507, 3008, 16151, 80889],
    "p321-1-last2up": [0, 0, 0, 2, 12, 55, 229, 912, 3549, 13636],
    "p321-2-last2up": [0, 0, 0, 1, 12, 74, 371, 1688, 7276, 30340],
    "simion-schmidt": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
    "p123avoid-132-1": [0, 0, 1, 4, 12, 32, 80, 192, 448, 1024],
    "p123avoid-132-2": [0, 0, 0, 1, 5, 18, 56, 160, 432, 1120],
    "p123avoid-132-3": [0, 0, 0, 1, 5, 18, 57, 168, 472, 1280],
    "p123avoid-132-4": [0, 0, 0, 0, 2, 11, 43, 145, 449, 1314],
}


def test_frozen_covers_all_families():
    assert set(FROZEN) == set(FORMULAS)


@pytest.mark.parametrize("family", sorted(FROZEN))
def test_family_matches_frozen_table(family):
    got = [count(family, n) for n in range(1, 11)]
    assert got == FROZEN[family]


@pytest.mark.parametrize("family", sorted(FROZEN))
def test_family_matches_oracle_small(family):
    for n in range(1, 8):
        assert count(family, n) == count_perms(n, FAMILY_CONDITIONS[family])


def test_spot_values():
    assert count("p321-2", 6) == 133
    assert count("p132-1", 10) == 19448
    assert count("p321-1", 9) == 6188 == ballot(6, 6)
    assert count("p321-3", 4) == 0
    assert count("p321-4", 4) == 1
    assert count("simion-schmidt", 3) == 4
    assert count("p123avoid-132-1", 4) == 4


def test_p132_1_is_central_binomial_shift():
    for n in range(3, 30):
        assert count("p132-1", n) == binomial(2 * n - 3, n - 3)


def test_unknown_family():
    with pytest.raises(UnsupportedClassError):
        count("p321-5", 6)


def test_bad_size():
    with pytest.raises(InvalidInputError):
        count("p321-1", 0)
    with pytest.raises(InvalidInputError):
        count("p321-1", -3)


@pytest.mark.parametrize("n", [True, False])
def test_bool_size_rejected(n):
    with pytest.raises(InvalidInputError):
        count("p321-1", n)
    with pytest.raises(InvalidInputError):
        count_avoider_class(n, FirstEntryEq(1))


# -- avoider classes ---------------------------------------------------------


def test_avoider_class_values():
    assert count_avoider_class(3, FirstEntryEq(2)) == 2
    assert count_avoider_class(4, FirstGe2AndLastLeNminus1()) == 6
    assert count_avoider_class(6, FirstEntryGe(1)) == 132
    assert count_avoider_class(5, LastIIncreasing(5)) == 1
    assert count_avoider_class(5, OneNotBeforePos(2)) == ballot(3, 3)
    assert count_avoider_class(5, MaxNotAfterPosFromEnd(2)) == ballot(3, 3)
    assert count_avoider_class(6, LastEntryLe(4)) == ballot(4, 3)


def test_avoider_class_param_range():
    with pytest.raises(InvalidInputError):
        count_avoider_class(4, FirstEntryEq(0))
    with pytest.raises(InvalidInputError):
        count_avoider_class(4, LastIIncreasing(0))
    with pytest.raises(InvalidInputError):
        count_avoider_class(4, LastIIncreasing(5))
    with pytest.raises(InvalidInputError):
        count_avoider_class(4, LastEntryLe(5))
    # a first letter beyond n is an empty class, not a malformed query
    assert count_avoider_class(4, FirstEntryEq(5)) == 0


@given(n=st.integers(1, 9))
@settings(max_examples=30, deadline=None)
def test_first_entry_partition(n):
    """Fixing the first letter partitions the avoiders, so the class
    sizes across all first letters add back up to the Catalan number."""
    total = sum(count_avoider_class(n, FirstEntryEq(k)) for k in range(1, n + 1))
    assert total == catalan(n)


@given(n=st.integers(2, 40), k=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_first_entry_tail_sums(n, k):
    """FirstEntryGe(k) accumulates the FirstEntryEq classes above it."""
    if k <= n:
        lhs = count_avoider_class(n, FirstEntryGe(k))
        rhs = sum(count_avoider_class(n, FirstEntryEq(j)) for j in range(k, n + 1))
        assert lhs == rhs


@given(n=st.integers(1, 80))
@settings(max_examples=40, deadline=None)
def test_one132_recurrence(n):
    """Adjacent counts in the one-132 family obey the hypergeometric
    ratio of their binomial closed form, an independent cross-light that
    needs no enumeration."""
    a, b = count("p132-1", n), count("p132-1", n + 1)
    assert a * (2 * n - 1) * (2 * n - 2) == b * (n - 2) * (n + 1)
