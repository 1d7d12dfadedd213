"""Tests for the exhaustive-search oracle.

The oracle is the ground truth everything else is measured against, so
its own tests stick to definitions: tiny hand-checked cases, the scan
against each condition's definition (``_definition``, filtered over
``itertools.permutations`` by ``brute``), and determinism across worker
counts.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpaths.errors import InvalidInputError, ResourceLimitError
from permpaths.formulas import FORMULAS
from permpaths.oracle import (
    FAMILY_CONDITIONS,
    FirstEq,
    FirstGe,
    LastLe,
    LastRunIncreasing,
    MaxPosLe,
    OnePosGe,
    PatternCount,
    _filtered_blocks,
    _perm_table,
    _table_counts,
    count_perms,
    enumerate_dyck,
    enumerate_paths,
    marked_highpoint_histogram,
    oracle_count,
    stream_perms,
)
from permpaths.paths import binomial, catalan, is_dyck
from permpaths.permutations import count_occurrences

ALL_CONDITIONS = [
    PatternCount((3, 2, 1), 1),
    PatternCount((1, 3, 2), 0),
    PatternCount((2, 1), 3),
    FirstEq(2),
    FirstGe(3),
    LastLe(2),
    LastRunIncreasing(2),
    OnePosGe(2),
    MaxPosLe(3),
]


def _definition(p, c):
    """Whether the word ``p`` satisfies condition ``c``, from its
    definition; the letter and position conditions are false on ``()``."""
    n = len(p)
    if isinstance(c, PatternCount):
        return count_occurrences(p, c.pattern) == c.count
    if isinstance(c, LastRunIncreasing):
        i = c.length
        return n >= i and all(p[j] < p[j + 1] for j in range(n - i, n - 1))
    if n == 0:
        return False
    if isinstance(c, FirstEq):
        return p[0] == c.value
    if isinstance(c, FirstGe):
        return p[0] >= c.value
    if isinstance(c, LastLe):
        return p[-1] <= c.value
    if isinstance(c, OnePosGe):
        return p.index(1) + 1 >= c.position
    if isinstance(c, MaxPosLe):
        return p.index(n) + 1 <= c.position
    raise AssertionError(c)


def brute(n, conds):
    perms = itertools.permutations(range(1, n + 1))
    return [p for p in perms if all(_definition(p, c) for c in conds)]


def test_enumerate_perms_is_lexicographic():
    got = list(stream_perms(3))
    assert got == sorted(got)
    assert len(got) == 6


def test_enumerate_perms_filters():
    got = list(stream_perms(3, [PatternCount((2, 1), 1)]))
    assert got == [(1, 3, 2), (2, 1, 3)]


@pytest.mark.parametrize("condition", ALL_CONDITIONS)
def test_vectorized_mask_matches_definition(condition):
    import numpy as np

    rows = list(itertools.permutations(range(1, 7)))
    arr = np.array(rows, dtype=np.int8)
    mask = condition.mask(arr)
    for row, bit in zip(rows, mask):
        assert bool(bit) == _definition(row, condition), (row, condition)


def _assert_blocks_equal_itertools(n):
    for first in [None, *range(1, n + 1)]:
        got = [tuple(row) for block in _filtered_blocks(n, first, ()) for row in block.tolist()]
        want = [
            p for p in itertools.permutations(range(1, n + 1)) if first is None or p[0] == first
        ]
        assert got == want, first


@pytest.mark.parametrize("n", range(9))
def test_perm_blocks_equal_itertools_row_for_row(n):
    _assert_blocks_equal_itertools(n)


@pytest.mark.parametrize("n", range(8))
def test_perm_blocks_with_prefixes_equal_itertools(n, monkeypatch):
    """A small table and small chunks make every block a prefix plus a
    relabelled slice, cut mid-table; the stream must not change."""
    import permpaths.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "_TABLE_MAX_M", 3)
    monkeypatch.setattr(oracle_mod, "_CHUNK_ROWS", 4)
    _assert_blocks_equal_itertools(n)
    assert max(len(b) for b in _filtered_blocks(n, None, ())) <= 4


def test_perm_blocks_past_the_table():
    rows = 0
    for block in _filtered_blocks(11, 4, ()):
        if rows == 0:
            assert tuple(block[0].tolist()) == (4, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11)
        assert len(block) <= 131072
        rows += len(block)
    assert rows == 3628800
    assert tuple(block[-1].tolist()) == (4, 11, 10, 9, 8, 7, 6, 5, 3, 2, 1)


def test_pattern_counts_match_count_occurrences():
    import numpy as np

    rows = list(itertools.permutations(range(1, 7)))
    arr = np.array(rows, dtype=np.int8)
    for k in (1, 2, 3):
        for pattern in itertools.permutations(range(1, k + 1)):
            counts = PatternCount(pattern, 0).counts(arr)
            assert counts.tolist() == [count_occurrences(r, pattern) for r in rows], pattern
    assert PatternCount((1,), 6).mask(arr).all()


@pytest.mark.parametrize("m", range(10))
def test_table_counts_equal_definitional_counts(m):
    """Each S_m table row's counts, built level by level from S_{m-1},
    equal every index set tried on the row itself; at m = 9 only the
    3-letter patterns of the families."""
    if m < 9:
        patterns = [p for k in range(1, 5) for p in itertools.permutations(range(1, k + 1))]
    else:
        patterns = [(1, 2, 3), (1, 3, 2), (3, 2, 1)]
    for pattern in patterns:
        got = _table_counts(m, pattern)
        assert not got.flags.writeable
        want = PatternCount(pattern, 0).counts(_perm_table(m).T)
        assert got.tolist() == want.tolist(), pattern


def _rows_starting_with(n, first):
    """The permutations of 1..n starting with ``first``, one row each,
    built from ``itertools.permutations`` rather than the oracle's table."""
    import numpy as np

    rest = [v for v in range(1, n + 1) if v != first]
    rows = itertools.chain.from_iterable((first, *p) for p in itertools.permutations(rest))
    return np.fromiter(rows, dtype=np.int8).reshape(-1, n)


@pytest.mark.parametrize("first", [1, 6])
def test_pruned_lead_scan_equals_census(first):
    """A fixed first letter makes every block's lead non-empty, so the
    table rows over a count are cut and the rest lead-counted; each count
    0..4 of each 3-letter pattern must equal a census of all 9! rows."""
    import numpy as np

    rows = _rows_starting_with(10, first)
    for pattern in itertools.permutations((1, 2, 3)):
        census = np.bincount(PatternCount(pattern, 0).counts(rows), minlength=5)
        for c in range(5):
            got = count_perms(10, (FirstEq(first), PatternCount(pattern, c)))
            assert got == census[c], (pattern, c)


def test_counts_past_the_table_counts_range():
    """``_table_counts`` holds uint8, so a count of 300 must not wrap to
    the 44 that some rows of S_9 have."""
    assert count_perms(9, (PatternCount((3, 2, 1), 44),)) > 0
    for n in (9, 10):
        assert count_perms(n, (PatternCount((3, 2, 1), 300),)) == 0


def test_count_perms_equals_streaming_filter():
    for conds in [(), (FirstEq(3),), (PatternCount((3, 2, 1), 1), LastRunIncreasing(2))]:
        assert count_perms(6, conds) == len(brute(6, conds))


def test_count_perms_worker_invariance():
    conds = (PatternCount((3, 2, 1), 1),)
    serial = count_perms(7, conds, workers=1)
    assert count_perms(7, conds, workers=2) == serial
    assert count_perms(7, conds, workers=5) == serial
    for n in (0, 1):
        assert count_perms(n, (), workers=2) == count_perms(n, (), workers=1) == 1


@pytest.mark.parametrize("n", [9, 10])
def test_pooled_count_equals_serial(n):
    for conds in [FAMILY_CONDITIONS["p321-2"], (PatternCount((3, 2, 1), 0), LastLe(n - 2))]:
        assert count_perms(n, conds, workers=2) == count_perms(n, conds, workers=1)


def test_pool_failure_falls_back_with_warning(monkeypatch, capsys):
    import permpaths.oracle as oracle_mod

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no processes")

    conds = (PatternCount((3, 2, 1), 1),)
    serial = count_perms(7, conds, workers=1)
    monkeypatch.setattr(oracle_mod, "ProcessPoolExecutor", NoPool)
    assert count_perms(7, conds, workers=2) == serial
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "serial" in err and "no processes" in err


def test_pool_starts_from_n_11(monkeypatch):
    """With two workers allowed, a default count starts no pool at n = 10,
    where the scan is faster than the pool's start-up, and one at n = 11."""
    import permpaths.oracle as oracle_mod

    started = []

    class CountingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    monkeypatch.setenv("PERMPATHS_WORKERS", "2")
    monkeypatch.setattr(oracle_mod, "ProcessPoolExecutor", CountingPool)
    conds = FAMILY_CONDITIONS["simion-schmidt"]
    assert count_perms(10, conds) == 512
    assert started == []
    assert count_perms(11, conds) == 1024
    assert started == [2]


def test_workers_env_var(monkeypatch):
    monkeypatch.setenv("PERMPATHS_WORKERS", "2")
    assert count_perms(6, (FirstGe(2),)) == count_perms(6, (FirstGe(2),), workers=1)
    monkeypatch.setenv("PERMPATHS_WORKERS", "zero")
    with pytest.raises(InvalidInputError):
        count_perms(9, ())


def test_first_letter_pruning_matches_full_scan():
    """Conditions that pin the first letter let the scan skip blocks;
    the answer must not change."""
    for conds in [
        (FirstEq(4),),
        (FirstEq(1), PatternCount((3, 2, 1), 0)),
        (FirstGe(5), LastLe(3)),
        (FirstEq(2), FirstGe(4)),
        (FirstEq(9),),
    ]:
        assert count_perms(7, conds) == len(brute(7, conds)), conds


# the condition kinds the CLI filter atoms compile to, with values past 1..n
STREAM_CONDITIONS = [
    *ALL_CONDITIONS,
    PatternCount((1,), 5),
    PatternCount((1, 3, 2, 4), 1),
    PatternCount((2, 4, 1, 3), 0),
    PatternCount((4, 3, 2, 1), 2),
    FirstGe(0),
    FirstGe(1),
    FirstGe(7),
    FirstGe(9),
    FirstEq(0),
    LastRunIncreasing(0),
    LastRunIncreasing(1),
    LastRunIncreasing(8),
    MaxPosLe(-1),
    MaxPosLe(0),
    MaxPosLe(1),
    MaxPosLe(9),
    OnePosGe(-1),
    OnePosGe(0),
    OnePosGe(9),
]


@pytest.mark.parametrize("n", range(8))
def test_stream_perms_equals_enumerate_perms_per_condition(n):
    assert list(stream_perms(n)) == brute(n, ())
    for c in STREAM_CONDITIONS:
        assert list(stream_perms(n, [c])) == brute(n, [c]), c


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 7),
    conds=st.lists(st.sampled_from(STREAM_CONDITIONS), min_size=2, max_size=4).map(tuple),
)
def test_stream_perms_equals_enumerate_perms_conjunctions(n, conds):
    assert list(stream_perms(n, conds)) == brute(n, conds)


def test_stream_perms_across_small_blocks(monkeypatch):
    import permpaths.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "_TABLE_MAX_M", 3)
    monkeypatch.setattr(oracle_mod, "_CHUNK_ROWS", 4)
    # every block is a lead of three letters and 4 or 2 of the 6 table rows
    for conds in [
        (),
        (PatternCount((3, 2, 1), 1),),
        (FirstGe(3), LastRunIncreasing(2)),
        (PatternCount((1, 2, 3), 0), PatternCount((1, 3, 2), 1)),
        (LastLe(3), PatternCount((1, 3, 2), 2)),
        (PatternCount((3, 2, 1), 2), LastRunIncreasing(2), OnePosGe(2)),
        (PatternCount((2, 4, 1, 3), 1), MaxPosLe(4), LastLe(5)),
        (FirstEq(2), PatternCount((1, 3, 2, 4), 1), PatternCount((3, 2, 1), 1)),
    ]:
        want = brute(6, conds)
        assert list(stream_perms(6, conds)) == want, conds
        assert count_perms(6, conds, workers=1) == len(want), conds
        assert count_perms(6, conds, workers=2) == len(want), conds


def test_stream_perms_skips_ruled_out_first_letters(monkeypatch):
    import permpaths.oracle as oracle_mod

    built = []
    real = oracle_mod._filtered_blocks

    def spy(n, first, conditions):
        built.append(first)
        return real(n, first, conditions)

    monkeypatch.setattr(oracle_mod, "_filtered_blocks", spy)
    rows = list(stream_perms(6, [FirstGe(5), PatternCount((3, 2, 1), 1)]))
    assert built == [5, 6]
    assert rows == brute(6, [FirstGe(5), PatternCount((3, 2, 1), 1)])


def test_perm_cap():
    with pytest.raises(ResourceLimitError):
        count_perms(12, ())
    with pytest.raises(InvalidInputError):
        count_perms(-1, ())
    with pytest.raises(InvalidInputError):
        count_perms(True, ())
    with pytest.raises(ResourceLimitError):
        list(stream_perms(12))
    with pytest.raises(InvalidInputError):
        list(stream_perms(True))


def test_enumerate_dyck_counts_and_order():
    for n in range(7):
        paths = list(enumerate_dyck(n))
        assert len(paths) == catalan(n)
        assert paths == sorted(paths)
        assert all(is_dyck(d) for d in paths)
    assert list(enumerate_dyck(2)) == ["UDUD", "UUDD"]


def test_enumerate_paths_unconstrained_count():
    # without bounds, every interleaving of steps appears
    assert sum(1 for _ in enumerate_paths(3, 2, lo=None, hi=None)) == binomial(5, 3)
    # corridor [0, 1] of odd length: just the zigzag prefix
    assert list(enumerate_paths(3, 2, lo=0, hi=1)) == ["UDUDU"]


def test_enumerate_paths_rejects_negative():
    with pytest.raises(InvalidInputError):
        list(enumerate_paths(-1, 2))


def test_path_enumerators_reject_bool_sizes():
    with pytest.raises(InvalidInputError):
        enumerate_dyck(True)
    with pytest.raises(InvalidInputError):
        enumerate_paths(True, 1)
    with pytest.raises(InvalidInputError):
        enumerate_paths(1, False)


def test_enumerate_paths_equals_brute_force(monkeypatch):
    """Every step string of length <= 12, filtered by its step counts and
    the heights after each step; the bands include ones that exclude the
    start height, ones the end height cannot reach and the corridor
    check's.  With suffix tables of 12, 3 and 0 steps, each path is read
    from the table alone, from prefix stack and table, and from the
    stack alone."""
    import permpaths.oracle as oracle_mod

    for length in range(13):
        words = []  # (word, ups, lowest and highest height after a step)
        for steps in itertools.product("DU", repeat=length):
            h, low, high = 0, None, None
            for step in steps:
                h += 1 if step == "U" else -1
                low = h if low is None else min(low, h)
                high = h if high is None else max(high, h)
            words.append(("".join(steps), steps.count("U"), low, high))
        for ups in range(length + 1):
            for lo in (None, -3, -2, -1, 0, 1):
                for hi in (None, -1, 0, 1, 2, 3, 4, 5, 6):
                    want = [
                        w for w, u, low, high in words
                        if u == ups
                        and (lo is None or low is None or low >= lo)
                        and (hi is None or high is None or high <= hi)
                    ]
                    for suffix_steps in (12, 3, 0):
                        monkeypatch.setattr(oracle_mod, "_SUFFIX_STEPS", suffix_steps)
                        got = list(enumerate_paths(ups, length - ups, lo=lo, hi=hi))
                        assert got == want, (ups, length - ups, lo, hi, suffix_steps)


def test_enumerate_paths_long_corridor():
    # one path of 2,600 steps: no recursion depth grows with the length;
    # a second path, if the band let one through, would fail at once
    got = list(itertools.islice(enumerate_paths(1300, 1300, lo=0, hi=1, allow_large=True), 2))
    assert got == ["UD" * 1300]


def test_marked_histogram_small():
    assert marked_highpoint_histogram(2, 2) == [5, 5, 5, 5, 5, 5]
    assert marked_highpoint_histogram(3, 1) == [5, 5, 5, 5, 5, 5, 5]
    assert marked_highpoint_histogram(0, 1) == [1]
    with pytest.raises(InvalidInputError):
        marked_highpoint_histogram(2, 0)
    with pytest.raises(ResourceLimitError):
        marked_highpoint_histogram(12, 1)


def test_marked_histogram_total_mass():
    # k marks per path, binomial(2n+k, n) paths, spread over 2n+k slots
    for n, k in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        hist = marked_highpoint_histogram(n, k)
        assert sum(hist) == k * binomial(2 * n + k, n)


def test_family_tables_share_keys():
    assert set(FAMILY_CONDITIONS) == set(FORMULAS)


def test_oracle_count_rejects_unknown_family():
    with pytest.raises(InvalidInputError):
        oracle_count("p999-1", 5)

