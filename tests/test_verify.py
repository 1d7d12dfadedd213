"""Tests for the enumeration helpers behind the verification suites."""

import itertools

import pytest

from permpaths.permutations import count_occurrences
from permpaths.verify import _pattern_census


@pytest.mark.parametrize("pattern", [(1, 3, 2), (3, 2, 1), (1, 2, 3), (2, 1)])
def test_pattern_census_equals_count_occurrences_grouping(pattern):
    for n in range(8):
        kmax = 2
        want = [[] for _ in range(kmax + 1)]
        for p in itertools.permutations(range(1, n + 1)):
            c = count_occurrences(p, pattern)
            if c <= kmax:
                want[c].append(p)
        assert _pattern_census(n, pattern, kmax) == tuple(map(tuple, want)), n
