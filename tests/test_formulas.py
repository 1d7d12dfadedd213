"""Closed-form counting families against frozen tables and the oracle.

The tables below were generated once by exhaustive enumeration (n <= 9),
the closed forms themselves at n = 10 and ``oracle_count(family, 11)``
(under 20 s for all twelve families on two cores; each value equals the
closed form), then frozen. A change in either route that breaks
agreement shows up here without recomputing anything heavy.
"""

import hashlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpaths.errors import InvalidInputError, UnsupportedClassError, VerificationError
from permpaths.formulas import (
    FORMULAS,
    FirstEntryEq,
    FirstEntryGe,
    FirstGe2AndLastLeNminus1,
    LastEntryLe,
    LastIIncreasing,
    MaxNotAfterPosFromEnd,
    OneNotBeforePos,
    _check_rows,
    count,
    count_avoider_class,
)
from permpaths.oracle import FAMILY_CONDITIONS, PatternCount, count_perms
from permpaths.paths import ballot, binomial, catalan

# values for n = 1 .. 11
FROZEN = {
    "p132-1": [0, 0, 1, 5, 21, 84, 330, 1287, 5005, 19448, 75582],
    "p321-1": [0, 0, 1, 6, 27, 110, 429, 1638, 6188, 23256, 87210],
    "p321-2": [0, 0, 0, 3, 24, 133, 635, 2807, 11864, 48756, 196707],
    "p321-3": [0, 0, 0, 0, 7, 70, 461, 2528, 12525, 58258, 259787],
    "p321-4": [0, 0, 0, 1, 9, 74, 507, 3008, 16151, 80889, 385387],
    "p321-1-last2up": [0, 0, 0, 2, 12, 55, 229, 912, 3549, 13636, 52020],
    "p321-2-last2up": [0, 0, 0, 1, 12, 74, 371, 1688, 7276, 30340, 123811],
    "simion-schmidt": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
    "p123avoid-132-1": [0, 0, 1, 4, 12, 32, 80, 192, 448, 1024, 2304],
    "p123avoid-132-2": [0, 0, 0, 1, 5, 18, 56, 160, 432, 1120, 2816],
    "p123avoid-132-3": [0, 0, 0, 1, 5, 18, 57, 168, 472, 1280, 3376],
    "p123avoid-132-4": [0, 0, 0, 0, 2, 11, 43, 145, 449, 1314, 3692],
}


def test_frozen_covers_all_families():
    assert set(FROZEN) == set(FORMULAS)


@pytest.mark.parametrize("family", sorted(FROZEN))
def test_family_matches_frozen_table(family):
    got = [count(family, n) for n in range(1, 12)]
    assert got == FROZEN[family]


@pytest.mark.parametrize("family", sorted(FROZEN))
def test_family_matches_oracle_small(family):
    for n in range(1, 11):
        assert count(family, n) == count_perms(n, FAMILY_CONDITIONS[family])


# sha256 of "family n count" lines for every family and 1 <= n <= 300: it
# pins the terms the frozen oracle sizes (n <= 11) cannot see
COUNTS_TO_300_SHA256 = "bd440fa40761154f50422a8e01d09bd440ef3b7e2e2c4fa0bc73d46d6dcac613"


def test_counts_to_300_golden():
    text = "".join(f"{f} {n} {count(f, n)}\n" for f in sorted(FORMULAS) for n in range(1, 301))
    assert hashlib.sha256(text.encode()).hexdigest() == COUNTS_TO_300_SHA256


# Single-field mutants no check at n <= 11 can kill, as (family, row index,
# field index, edit). Row 3 of p321-4, ballot(21, n - 12), is zero for
# n < 12, so only its s - 1 edit, nonzero at n = 11, dies. For
# simion-schmidt, binom(n + a, 0) = 1 for a = -1, 0, 1, so those two edits
# give the same formula.
SURVIVING_MUTANTS = {
    *(("p321-4", 3, field, edit) for field in range(2) for edit in (-1, 1)),
    ("p321-4", 3, 2, 1),
    ("simion-schmidt", 0, 1, -1),
    ("simion-schmidt", 0, 1, 1),
}


def test_row_mutants_against_frozen(monkeypatch):
    """Every +-1 edit of one field of one row either breaks the row rule
    or changes some value at n <= 11, except the known survivors."""
    survivors, rejected = set(), 0
    for family, (kind, rows) in FORMULAS.items():
        for r, row in enumerate(rows):
            for field in range(len(row)):
                for edit in (-1, 1):
                    bad = row[:field] + (row[field] + edit,) + row[field + 1 :]
                    mutant = (kind, rows[:r] + (bad,) + rows[r + 1 :])
                    try:
                        _check_rows({family: mutant})
                    except VerificationError:
                        rejected += 1
                        continue
                    monkeypatch.setitem(FORMULAS, family, mutant)
                    if [count(family, n) for n in range(1, 12)] == FROZEN[family]:
                        survivors.add((family, r, field, edit))
    assert survivors == SURVIVING_MUTANTS
    assert rejected == 34


def test_row_rule_rejects_negative_exponent():
    """binom(n - 2, 1) is first nonzero at n = 3, where 2**(n - 4) is not
    whole."""
    with pytest.raises(VerificationError, match="negative exponent"):
        _check_rows({"bad": ("pow2", ((1, -3, 1, -3), (1, -2, 1, -4)))})
    _check_rows({"good": ("pow2", ((1, -2, 1, -3),))})


def test_formulas_tests_under_python_O():
    """The row rule and every check here hold with asserts stripped."""
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         __file__, "-k", "not under_python_O"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr


def test_noonan_one_123_form():
    """Noonan: 3/n * binom(2n, n + 3) permutations of [n] have exactly
    one 123, and so, by reversal, exactly one 321."""
    for n in range(3, 301):
        assert 3 * binomial(2 * n, n + 3) == n * count("p321-1", n)


def test_exactly_k_123s_are_the_p321_families():
    """Reversal swaps 123 and 321, so exactly k 123s are counted by
    p321-k (the abstract's ballot-number claim for k <= 4)."""
    for k in range(1, 5):
        for n in range(1, 9):
            assert count_perms(n, (PatternCount((1, 2, 3), k),)) == count(f"p321-{k}", n)


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
