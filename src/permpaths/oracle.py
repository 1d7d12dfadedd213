"""Brute-force enumeration oracle.

Everything here counts by exhaustive enumeration, independently of the
closed forms elsewhere in the package, so the two routes can be checked
against each other.  Permutations stream in lexicographic order and
paths in lexicographic order of their step strings (``D`` < ``U``);
the order is deterministic and does not depend on the worker count.

Counting sweeps over S_n are vectorized with numpy in chunks (and can
be partitioned by first letter across worker processes, by default
only from n = ``_PARALLEL_MIN_N``; partial counts are summed in
first-letter order, so results are identical for any worker count).
The rows are built in numpy, never as Python tuples: a lexicographic
table of S_m (m <= 9) is built on first use and cached per process,
and each block is a lead of fixed letters followed by a slice of that
table relabelled onto the letters the lead leaves unused.  Each
condition's ``mask`` tests its definition directly (a pattern count
tries all C(n, k) index sets), so the scan does not share the counting
method of ``permutations``; as relabelling keeps order, an index set
inside the table is tried once per table row (``_table_counts``).  A
lead only adds occurrences, so a table row with more occurrences
inside the table than a pattern count allows fails under every lead;
such rows are dropped from the table before any block is built (the
partial-count cut of Noonan and Zeilberger, 1996).  One generator
builds and masks the blocks, copying one only when a mask drops rows:
``count_perms`` sums what survives, and ``stream_perms`` hands the
surviving rows out in lexicographic order (this is what ``permpaths
enumerate`` prints, its filter atoms compiled to these conditions).
The tests check the scan against each condition's definition.

Paths are generated without recursion, pruned at the height band
rather than filtered after the fact: prefixes grow on an explicit
stack and end in suffixes read from a small per-height table.  A Dyck
class is tested by ``in_dyck_class`` on a path's ``paths.path_stats``,
so a caller that keeps each path's statistics can test many classes.

Sizes are capped because the state spaces explode; pass
``allow_large=True`` to override a cap deliberately.
"""

import dataclasses
import functools
import itertools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator

import numpy as np

from . import paths as pathmod
from .errors import InvalidInputError, ResourceLimitError
from .permutations import check_pattern

MAX_PERM_N = 11
MAX_DYCK_SEMILENGTH = 14
MAX_MARKED_SIZE = 12  # cap on n + k for marked-path histograms

WORKERS_ENV_VAR = "PERMPATHS_WORKERS"

_CHUNK_ROWS = 131072
_PARALLEL_MIN_N = 11  # pool from here: p321-4 at n = 11 in 0.18 s, 0.29 serial; 50/24 ms at 10


# ---------------------------------------------------------------------------
# permutation conditions (conjunctions of these form a filter)


@dataclasses.dataclass(frozen=True)
class PatternCount:
    """Exactly ``count`` occurrences of ``pattern``."""

    pattern: tuple[int, ...]
    count: int

    def __post_init__(self):
        check_pattern(self.pattern)
        if self.count < 0:
            raise InvalidInputError("occurrence count must be >= 0")

    def counts(self, arr: np.ndarray) -> np.ndarray:
        """Occurrences of ``pattern`` in each row, by trying every one of the
        C(n, k) index sets (the scan tries those in the table once per row)."""
        return _lead_counts(np.ascontiguousarray(arr.T), self.pattern, arr.shape[1])

    def mask(self, arr: np.ndarray) -> np.ndarray:
        return self.counts(arr) == self.count


def _lead_counts(cols: np.ndarray, pattern: tuple[int, ...], lead: int) -> np.ndarray:
    """Occurrences of ``pattern`` in each row of ``cols`` (one row per position)
    at the index sets whose first index is below ``lead``; n tries them all."""
    n, k = cols.shape[0], len(pattern)
    if k == 1:
        return np.full(cols.shape[1], min(lead, n), dtype=np.int16)
    counts = np.zeros(cols.shape[1], dtype=np.int16)
    less = {}  # only comparisons with a lead column recur across index sets

    def is_less(i, j):
        if min(i, j) >= lead:
            return cols[i] < cols[j]
        if (i, j) not in less:
            less[i, j] = cols[i] < cols[j]
        return less[i, j]

    chain = sorted(range(k), key=lambda i: pattern[i])
    combos = itertools.combinations(range(n), k)  # lexicographic: lead index sets first
    for combo in itertools.takewhile(lambda c: c[0] < lead, combos):
        m = is_less(combo[chain[0]], combo[chain[1]])
        for t in range(1, k - 1):
            m = m & is_less(combo[chain[t]], combo[chain[t + 1]])
        counts += m
    return counts


@dataclasses.dataclass(frozen=True)
class FirstEq:
    value: int

    def mask(self, arr: np.ndarray) -> np.ndarray:
        if arr.shape[1] == 0:
            return np.zeros(arr.shape[0], dtype=bool)
        return arr[:, 0] == self.value


@dataclasses.dataclass(frozen=True)
class FirstGe:
    value: int

    def mask(self, arr: np.ndarray) -> np.ndarray:
        if arr.shape[1] == 0:
            return np.zeros(arr.shape[0], dtype=bool)
        return arr[:, 0] >= self.value


@dataclasses.dataclass(frozen=True)
class LastLe:
    value: int

    def mask(self, arr: np.ndarray) -> np.ndarray:
        if arr.shape[1] == 0:
            return np.zeros(arr.shape[0], dtype=bool)
        return arr[:, -1] <= self.value


@dataclasses.dataclass(frozen=True)
class LastRunIncreasing:
    """The final ``length`` letters are increasing (false when the word is
    shorter than ``length``)."""

    length: int

    def mask(self, arr: np.ndarray) -> np.ndarray:
        n = arr.shape[1]
        if n < self.length:
            return np.zeros(arr.shape[0], dtype=bool)
        m = np.ones(arr.shape[0], dtype=bool)
        for t in range(n - self.length, n - 1):
            m &= arr[:, t] < arr[:, t + 1]
        return m


@dataclasses.dataclass(frozen=True)
class OnePosGe:
    """The letter 1 sits at 1-based position >= ``position``."""

    position: int

    def mask(self, arr: np.ndarray) -> np.ndarray:
        return (arr[:, max(self.position - 1, 0) :] == 1).any(axis=1)


@dataclasses.dataclass(frozen=True)
class MaxPosLe:
    """The letter n sits at 1-based position <= ``position``."""

    position: int

    def mask(self, arr: np.ndarray) -> np.ndarray:
        return (arr[:, : max(self.position, 0)] == arr.shape[1]).any(axis=1)


PermCondition = (
    PatternCount | FirstEq | FirstGe | LastLe | LastRunIncreasing | OnePosGe | MaxPosLe
)

PermFilter = tuple[PermCondition, ...]


# ---------------------------------------------------------------------------
# permutation enumeration and counting


def _check_size(n: int, what: str = "n") -> None:
    if isinstance(n, bool):
        raise InvalidInputError(f"{what} must be an integer, not {n!r}")
    if n < 0:
        raise InvalidInputError(f"{what} must be >= 0")


def _check_perm_size(n: int, allow_large: bool) -> None:
    _check_size(n)
    if n > MAX_PERM_N and not allow_large:
        raise ResourceLimitError(
            f"refusing to enumerate S_{n} (cap {MAX_PERM_N}); pass allow_large to force"
        )


_TABLE_MAX_M = 9  # S_9 is 362,880 rows, 3.3 MB as int8


@functools.lru_cache(maxsize=None)
def _perm_table(m: int) -> np.ndarray:
    """All permutations of 0..m-1 in lexicographic order, read-only and
    transposed: entry [i, r] is letter i of permutation r."""
    if m == 0:
        table = np.zeros((0, 1), dtype=np.int8)
    else:
        sub = _perm_table(m - 1)
        width = sub.shape[1]
        table = np.empty((m, m * width), dtype=np.int8)
        for i in range(m):
            table[0, i * width : (i + 1) * width] = i
            table[1:, i * width : (i + 1) * width] = sub + (sub >= i)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _table_counts(m: int, pattern: tuple[int, ...]) -> np.ndarray:
    """Occurrences of ``pattern`` in each row of ``_perm_table(m)``, read-only
    (at most C(9, 4) = 126).  Row r is its first letter, then row r mod
    (m-1)! of S_{m-1} relabelled in order, so only the index sets through
    the first letter are tried here."""
    counts = np.zeros(math.factorial(m), dtype=np.uint8)
    if m >= len(pattern):
        lead = _lead_counts(_perm_table(m), pattern, 1).reshape(m, -1)
        counts += (lead + _table_counts(m - 1, pattern)).astype(np.uint8).reshape(-1)
    counts.flags.writeable = False
    return counts


def _filtered_blocks(n: int, first: int | None, conditions: PermFilter) -> Iterator[np.ndarray]:
    """The permutations of 1..n, or only those starting with ``first``,
    that satisfy every condition, in lexicographic order, as int8 arrays
    of at most ``_CHUNK_ROWS`` rows (column-major, so each position is
    one contiguous column).

    A block is a lead (``first``, then a prefix of the letters left after
    it, in lexicographic order) followed by a slice of the table of S_m,
    m = min(letters left, ``_TABLE_MAX_M``), relabelled onto the letters
    the lead leaves unused.  A lead only adds occurrences, so before the
    lead loop the table rows with more occurrences of a pattern inside
    the table than its count allows are dropped (the partial-count cut of
    Noonan and Zeilberger); only the rows left are built, relabelled and
    masked.  With no lead (no first letter fixed and n <= ``_TABLE_MAX_M``)
    the table holds every index set, so the cut tests equality and is the
    whole pattern-count test.  Cheap positional masks run first and the
    remaining pattern counts on their survivors; a block is copied only
    when a mask drops rows.
    """
    head = () if first is None else (first,)
    free = [v for v in range(1, n + 1) if v not in head]
    m = min(len(free), _TABLE_MAX_M)
    leadless = first is None and m == n  # the table is all of S_n
    table = _perm_table(m)
    counted = [c for c in conditions if isinstance(c, PatternCount)]
    inside = [_table_counts(m, c.pattern) for c in counted]
    if counted:
        keep = functools.reduce(
            np.logical_and,
            (t == c.count if leadless else t <= c.count for c, t in zip(counted, inside)),
        )
        if not keep.all():
            kept = np.flatnonzero(keep)
            table = table[:, kept]
            inside = [t[kept] for t in inside]
    ordered = [(c, None) for c in conditions if not isinstance(c, PatternCount)]
    if not leadless:
        ordered += zip(counted, inside)
    for prefix in itertools.permutations(free, len(free) - m):
        lead = head + prefix
        for start in range(0, table.shape[1], _CHUNK_ROWS):
            part = table[:, start : start + _CHUNK_ROWS]
            cols = np.empty((n, part.shape[1]), dtype=np.int8)
            cols[: len(lead)] = np.array(lead, dtype=np.int8).reshape(-1, 1)
            rest = cols[len(lead) :]
            np.add(part, 1, out=rest)
            for letter in sorted(lead):  # skip over the letters the lead uses
                rest += rest >= letter
            rows = slice(start, start + part.shape[1])  # the table rows left in cols
            for c, t in ordered:
                if t is None:
                    keep = c.mask(cols.T)
                else:
                    keep = _lead_counts(cols, c.pattern, len(lead)) + t[rows] == c.count
                if not keep.all():
                    kept = np.flatnonzero(keep)
                    cols = np.take(cols, kept, axis=1)
                    rows = kept + rows.start if isinstance(rows, slice) else rows[kept]
            yield cols.T


def _count_block(n: int, first: int | None, conditions: PermFilter) -> int:
    return sum(len(arr) for arr in _filtered_blocks(n, first, conditions))


def _scan_firsts(n: int, conditions: PermFilter) -> list[int | None]:
    """The first letters the first-letter conditions allow, in increasing
    order; ``[None]`` scans all of S_n when they rule out no letter."""
    ok = set(range(1, n + 1))
    for c in conditions:
        if isinstance(c, FirstEq):
            ok &= {c.value}
        elif isinstance(c, FirstGe):
            ok &= set(range(c.value, n + 1))
    return sorted(ok) if len(ok) < n else [None]


def stream_perms(
    n: int, conditions: Iterable[PermCondition] = (), allow_large: bool = False
) -> Iterator[tuple[int, ...]]:
    """All permutations of 1..n satisfying every condition, in
    lexicographic order, from the vectorized scan: each block of S_n is
    masked in numpy and only its survivors become tuples.  Blocks whose
    first letter a first-letter condition rules out are never built.
    """
    _check_perm_size(n, allow_large)
    conditions = tuple(conditions)
    for first in _scan_firsts(n, conditions):
        for arr in _filtered_blocks(n, first, conditions):
            yield from map(tuple, arr.tolist())


def _default_workers() -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvalidInputError(f"{WORKERS_ENV_VAR} must be an integer: {env!r}")
    return os.cpu_count() or 1


def count_perms(
    n: int,
    conditions: Iterable[PermCondition] = (),
    workers: int | None = None,
    allow_large: bool = False,
) -> int:
    """Number of permutations of 1..n satisfying every condition.

    The answer is independent of ``workers``; parallelism only splits
    the scan by first letter.
    """
    _check_perm_size(n, allow_large)
    conditions = tuple(conditions)
    if workers is None:
        workers = _default_workers()  # read even when unused: a bad setting fails loudly
        if n < _PARALLEL_MIN_N:
            workers = 1
    firsts = _scan_firsts(n, conditions)
    split = range(1, n + 1) if firsts == [None] else firsts  # one task per first letter
    if workers > 1 and len(split) > 1:
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(split))) as pool:
                return sum(pool.map(_count_block, [n] * len(split), split, [conditions] * len(split)))
        except OSError as e:
            print(f"permpaths: worker pool unavailable ({e}); counting serially", file=sys.stderr)
    return sum(_count_block(n, f, conditions) for f in firsts)


# ---------------------------------------------------------------------------
# path enumeration


_SUFFIX_STEPS = 12  # the last steps come from a table of at most 2**12 strings


def enumerate_paths(
    ups: int,
    downs: int,
    lo: int | None = 0,
    hi: int | None = None,
    allow_large: bool = False,
) -> Iterator[str]:
    """All paths with the given step counts whose running height stays in
    [lo, hi], in lexicographic order of the step string ('D' < 'U').
    ``lo=None`` or ``hi=None`` leaves that side unbounded.  The start
    height 0 is not tested, only the height after each step.

    Steps that would leave the band are never taken, and there is no
    recursion: prefixes grow on an explicit stack, and each full-length
    prefix is followed by every in-band suffix of the last
    ``_SUFFIX_STEPS`` steps from its height, read from a table built
    bottom-up.  Memory is bounded by that table and the path length.
    """
    _check_size(ups, "ups")
    _check_size(downs, "downs")
    if (ups + downs) // 2 > MAX_DYCK_SEMILENGTH and not allow_large:
        raise ResourceLimitError(
            f"path length {ups + downs} over cap; pass allow_large to force"
        )
    return _banded_paths(ups, downs, lo, hi)


def _banded_paths(ups: int, downs: int, lo: int | None, hi: int | None) -> Iterator[str]:
    def inside(h: int) -> bool:
        return (lo is None or lo <= h) and (hi is None or h <= hi)

    length, end = ups + downs, ups - downs
    if length and not inside(end):
        return  # no path ends in the band, so skip searching every prefix
    tail = min(length, _SUFFIX_STEPS)
    # suffixes[h]: the in-band step strings of the current suffix length t
    # from height h to ``end``, in lexicographic order; only the heights
    # the length - t steps before the suffix can reach from 0 are kept
    suffixes = {end: [""]}
    for t in range(1, tail + 1):
        after = {h: group for h, group in suffixes.items() if inside(h)}
        suffixes = {
            h: ["D" + s for s in after.get(h - 1, ())] + ["U" + s for s in after.get(h + 1, ())]
            for h in {g + step for g in after for step in (-1, 1)}
            if abs(h) <= length - t
        }
    head_len = length - tail
    head = [""] * head_len
    stack = [(0, 0, 0, "")]  # (steps taken, height, ups taken, last step)
    while stack:
        t, h, u, step = stack.pop()
        if t:
            head[t - 1] = step
        if t == head_len:
            yield from map("".join(head).__add__, suffixes.get(h, ()))
            continue
        # pushed U first so that D, the smaller step, comes out first
        if u < ups and (hi is None or h < hi):
            stack.append((t + 1, h + 1, u + 1, "U"))
        if t - u < downs and (lo is None or h > lo):
            stack.append((t + 1, h - 1, u, "D"))


def enumerate_dyck(n: int, allow_large: bool = False) -> Iterator[str]:
    """All Dyck n-paths in lexicographic order.

    >>> list(enumerate_dyck(2))
    ['UDUD', 'UUDD']
    """
    _check_size(n)
    return enumerate_paths(n, n, lo=0, allow_large=allow_large)


def in_dyck_class(st: pathmod.PathStats, constraint: pathmod.DyckClassConstraint) -> bool:
    """Whether a Dyck path with statistics ``st`` (from
    ``paths.path_stats``) lies in the class ``constraint`` names.

    This is the definitional counterpart of ``paths.count_dyck_class``;
    the two are checked against each other in the verification suite.
    """
    match constraint:
        case pathmod.FirstAscentEq(k=k):
            return st.first_ascent == k
        case pathmod.FirstAscentGe(k=k):
            return st.first_ascent >= k
        case pathmod.FirstAscentLastDescent(r=r, s=s, require_interior_return=req):
            return (
                st.first_ascent >= r
                and st.last_descent >= s
                and (st.interior_returns >= 1 or not req)
            )
        case pathmod.FirstAscentNonfinalDescentsOne(r=r, s=s):
            nonfinal = st.descents[:-1]
            return (
                st.first_ascent >= r
                and len(nonfinal) >= s
                and all(d == 1 for d in nonfinal[:s])
            )
        case pathmod.FirstAscentLastAscentsOne(r=r, s=s):
            noninitial = st.ascents[1:]
            return (
                st.first_ascent >= r
                and len(noninitial) >= s - 1
                and all(a == 1 for a in noninitial[len(noninitial) - (s - 1) :])
            )
    raise InvalidInputError(f"unknown constraint {constraint!r}")


# ---------------------------------------------------------------------------
# marked high points


def marked_highpoint_histogram(n: int, k: int, allow_large: bool = False) -> list[int]:
    """Histogram, by x-coordinate 1..2n+k, of the marked high points of
    all paths with n+k ups and n downs (not restricted to the first
    quadrant).

    A path of height h gets k marks: the leftmost points at heights
    h, h-1, ..., h-k+1.  The returned list has 2n+k entries; entry i
    counts marks at x-coordinate i+1.
    """
    if k < 1 or n < 0:
        raise InvalidInputError("need n >= 0 and k >= 1")
    if n + k > MAX_MARKED_SIZE and not allow_large:
        raise ResourceLimitError(
            f"n + k = {n + k} over cap {MAX_MARKED_SIZE}; pass allow_large to force"
        )
    hist = [0] * (2 * n + k)
    for path in enumerate_paths(n + k, n, lo=None, hi=None, allow_large=allow_large):
        h = 0
        first_at = {}
        for x, step in enumerate(path, 1):
            h += 1 if step == "U" else -1
            if h not in first_at:
                first_at[h] = x
        top = max(first_at)
        for level in range(top - k + 1, top + 1):
            hist[first_at[level] - 1] += 1
    return hist


# ---------------------------------------------------------------------------
# oracle counts for the named formula families

# Keyed by the same family names as formulas.FORMULAS; the test suite
# asserts the two key sets match.
FAMILY_CONDITIONS: dict[str, PermFilter] = {
    "p132-1": (PatternCount((1, 3, 2), 1),),
    "p321-1": (PatternCount((3, 2, 1), 1),),
    "p321-2": (PatternCount((3, 2, 1), 2),),
    "p321-3": (PatternCount((3, 2, 1), 3),),
    "p321-4": (PatternCount((3, 2, 1), 4),),
    "p321-1-last2up": (PatternCount((3, 2, 1), 1), LastRunIncreasing(2)),
    "p321-2-last2up": (PatternCount((3, 2, 1), 2), LastRunIncreasing(2)),
    "simion-schmidt": (PatternCount((1, 2, 3), 0), PatternCount((1, 3, 2), 0)),
    "p123avoid-132-1": (PatternCount((1, 2, 3), 0), PatternCount((1, 3, 2), 1)),
    "p123avoid-132-2": (PatternCount((1, 2, 3), 0), PatternCount((1, 3, 2), 2)),
    "p123avoid-132-3": (PatternCount((1, 2, 3), 0), PatternCount((1, 3, 2), 3)),
    "p123avoid-132-4": (PatternCount((1, 2, 3), 0), PatternCount((1, 3, 2), 4)),
}


def oracle_count(family: str, n: int) -> int:
    """Count one of the named families by exhaustive enumeration."""
    try:
        conditions = FAMILY_CONDITIONS[family]
    except KeyError:
        raise InvalidInputError(f"unknown family {family!r}") from None
    return count_perms(n, conditions)
