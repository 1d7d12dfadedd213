"""Tests for permutation words, patterns, and occurrence counting."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permpaths.errors import InvalidInputError
from permpaths.permutations import (
    Occurrence,
    _count_by_subsets,
    _occurrences_by_subsets,
    avoids,
    complement,
    count_occurrences,
    format_permutation,
    occurrences,
    parse_permutation,
    record_highs,
    reduce,
    reverse,
)

perms = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)
SHORT_PATTERNS = [
    t for k in (1, 2, 3) for t in itertools.permutations(range(1, k + 1))
]


def test_reduce():
    assert reduce((4, 9, 2)) == (2, 3, 1)
    assert reduce((2, 4, 1)) == (2, 3, 1)
    assert reduce(()) == ()


def test_reduce_rejects_ties():
    with pytest.raises(InvalidInputError):
        reduce((1, 1, 2))


def test_occurrence_positions_and_letters():
    occs = list(occurrences((2, 4, 3, 1), (1, 3, 2)))
    assert occs == [Occurrence(positions=(0, 1, 2), letters=(2, 4, 3))]


def test_count_occurrences_known_values():
    assert count_occurrences((4, 6, 1, 2, 5, 3), (3, 2, 1)) == 1
    assert count_occurrences((2, 4, 3, 1), (1, 3, 2)) == 1
    assert count_occurrences((2, 1, 4, 3), (2, 1)) == 2
    assert count_occurrences((1, 2, 3, 4, 5, 6), (1, 2, 3, 4)) == 15
    assert count_occurrences((3, 2, 1), (1, 2)) == 0


def test_count_occurrences_cap_saturates():
    """cap + 1 signals "more than cap" and stops the scan early."""
    ident = tuple(range(1, 9))
    assert count_occurrences(ident, (1, 2)) == 28
    assert count_occurrences(ident, (1, 2), cap=3) == 4
    assert count_occurrences(ident, (1, 2), cap=0) == 1
    assert count_occurrences(ident, (2, 1), cap=0) == 0


def test_avoids():
    assert avoids((5, 4, 3, 2, 1), (1, 2))
    assert not avoids((2, 1, 3), (2, 1))


@given(p=perms)
def test_reverse_and_complement_are_involutions(p):
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p


@given(p=perms)
def test_reverse_complement_swaps_increasing_patterns(p):
    """Reversal turns 123 occurrences into 321 occurrences exactly."""
    assert count_occurrences(p, (1, 2, 3)) == count_occurrences(
        reverse(p), (3, 2, 1)
    )


@given(p=perms)
def test_occurrences_match_brute_force(p):
    pattern = (1, 3, 2)
    naive = sum(
        1
        for c in itertools.combinations(p, 3)
        if reduce(c) == pattern
    )
    assert count_occurrences(p, pattern) == naive


def test_short_patterns_match_subset_scan_exhaustively():
    """Corner-count counting and locating agree with the C(n, k) scan on
    all of S_0..S_7, for every pattern of length 1 to 3 and every cap."""
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            for t in SHORT_PATTERNS:
                for cap in (None, 0, 1, 2):
                    expected = _count_by_subsets(p, t, cap)
                    assert count_occurrences(p, t, cap=cap) == expected, (p, t, cap)
                assert avoids(p, t) == (_count_by_subsets(p, t, 0) == 0)
                assert list(occurrences(p, t)) == list(_occurrences_by_subsets(p, t)), (p, t)


@given(
    word=st.lists(st.integers(-60, 60), unique=True, max_size=40).map(tuple),
    pattern=st.sampled_from(SHORT_PATTERNS),
)
def test_short_patterns_match_subset_scan_on_words(word, pattern):
    """Words of distinct, non-contiguous letters, as slices such as
    ``sigma[2:-1]`` are, give the scan's counts and occurrence lists."""
    assert count_occurrences(word, pattern) == _count_by_subsets(word, pattern)
    assert count_occurrences(word, pattern, cap=1) == _count_by_subsets(word, pattern, 1)
    assert list(occurrences(word, pattern)) == list(_occurrences_by_subsets(word, pattern))


@pytest.mark.parametrize("pattern", [(1,), (2, 1), (1, 3, 2), (3, 2, 1), (2, 4, 1, 3)])
def test_repeated_letters_rejected(pattern):
    word = (3, 1, 3, 2, 4)
    with pytest.raises(InvalidInputError):
        count_occurrences(word, pattern)
    with pytest.raises(InvalidInputError):
        avoids(word, pattern)
    with pytest.raises(InvalidInputError):
        list(occurrences(word, pattern))


def test_negative_cap_rejected():
    with pytest.raises(InvalidInputError):
        count_occurrences((3, 2, 1), (3, 2, 1), cap=-1)


def test_record_highs():
    assert record_highs((2, 1, 4, 7, 3, 5, 6)) == (0, 2, 3)
    assert record_highs((1, 2, 3)) == (0, 1, 2)


def test_parse_and_format_round_trip():
    assert parse_permutation("2 1 4 7 3 5 6") == (2, 1, 4, 7, 3, 5, 6)
    assert parse_permutation("2,1,3") == (2, 1, 3)
    assert format_permutation((2, 1, 3)) == "2 1 3"


def test_parse_rejects_non_permutations():
    with pytest.raises(InvalidInputError):
        parse_permutation("2 1 99")
    with pytest.raises(InvalidInputError):
        parse_permutation("hello")
    with pytest.raises(InvalidInputError):
        parse_permutation("1 1 2")


def test_pattern_length_limit():
    with pytest.raises(InvalidInputError):
        count_occurrences((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
