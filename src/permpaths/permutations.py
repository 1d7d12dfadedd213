"""Words, patterns, and pattern occurrences.

A permutation is a tuple of the letters 1..n in some order, e.g.
``(2, 1, 4, 7, 3, 5, 6)``.  More generally a *word* is any sequence of
distinct integers; ``reduce`` maps a word to the permutation with the
same relative order.  Positions in return values are 0-based; letters
are the values themselves (1-based by construction).

A *pattern* is a short permutation (length 1 to 4).  A word ``w``
contains the pattern ``t`` at positions ``i1 < i2 < ... < ik`` when
``reduce(w[i1], ..., w[ik]) == t``; such an index set is an
*occurrence*.  ``w`` *avoids* ``t`` when there is no occurrence.
"""

import itertools
import operator
from bisect import bisect_left
from typing import NamedTuple, Sequence

from .errors import InvalidInputError

MAX_PATTERN_LENGTH = 4


class Occurrence(NamedTuple):
    positions: tuple[int, ...]  # strictly increasing, 0-based
    letters: tuple[int, ...]  # word values at those positions


def reduce(word: Sequence[int]) -> tuple[int, ...]:
    """The permutation order-isomorphic to ``word``.

    Each letter is replaced by its rank among the letters of the word,
    smallest letter becoming 1.

    >>> reduce((9, 8, 2, 4, 6))
    (5, 4, 1, 2, 3)
    >>> reduce(())
    ()
    """
    ranked = sorted(word)
    rank = {v: i + 1 for i, v in enumerate(ranked)}
    if len(rank) != len(word):
        raise InvalidInputError(f"letters are not distinct: {tuple(word)}")
    return tuple(rank[v] for v in word)


def is_permutation(word: Sequence[int]) -> bool:
    """True when ``word`` uses each letter 1..n exactly once."""
    return sorted(word) == list(range(1, len(word) + 1))


def check_permutation(word: Sequence[int]) -> tuple[int, ...]:
    p = tuple(word)
    if not is_permutation(p):
        raise InvalidInputError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def check_pattern(pattern: Sequence[int]) -> tuple[int, ...]:
    t = tuple(pattern)
    if not is_permutation(t) or not 1 <= len(t) <= MAX_PATTERN_LENGTH:
        raise InvalidInputError(
            f"pattern must be a permutation of 1..k with k <= {MAX_PATTERN_LENGTH}: {t}"
        )
    return t


def reverse(p: Sequence[int]) -> tuple[int, ...]:
    """Reverse the positions: (p1, ..., pn) -> (pn, ..., p1)."""
    return tuple(p[::-1])


def complement(p: Sequence[int]) -> tuple[int, ...]:
    """Complement the letters: each letter v becomes n+1-v.

    >>> complement((2, 1, 4, 3))
    (3, 4, 1, 2)
    """
    n = len(p)
    return tuple(n + 1 - v for v in p)


def _rank_chain(pattern: tuple[int, ...]) -> tuple[int, ...]:
    # Pattern slots ordered by letter value; an index set is an occurrence
    # iff the word values climb along this chain.
    return tuple(sorted(range(len(pattern)), key=lambda i: pattern[i]))


def _occurrences_by_subsets(w: tuple[int, ...], t: tuple[int, ...]):
    # Reference scan over all C(n, k) index sets, in lexicographic order.
    chain = _rank_chain(t)
    for combo in itertools.combinations(range(len(w)), len(t)):
        if all(w[combo[chain[i]]] < w[combo[chain[i + 1]]] for i in range(len(t) - 1)):
            yield Occurrence(combo, tuple(w[i] for i in combo))


def _count_by_subsets(w: tuple[int, ...], t: tuple[int, ...], cap: int | None = None) -> int:
    # Reference scan; stops once the count exceeds ``cap``.
    found = _occurrences_by_subsets(w, t)
    return sum(1 for _ in (found if cap is None else itertools.islice(found, cap + 1)))


def _distinct(word: Sequence[int]) -> tuple[int, ...]:
    w = tuple(word)
    if len(set(w)) != len(w):
        raise InvalidInputError(f"letters are not distinct: {w}")
    return w


def _corners(w: tuple[int, ...]) -> tuple[list[int], list[int], list[int], list[int]]:
    """Per-position corner counts (Ll, Lg, Rl, Rg) of a word of distinct
    letters: how many letters left of position j are less or greater
    than ``w[j]``, and how many right of it are less or greater.

    One sweep inserting each letter into the sorted prefix by binary
    search: O(n log n) comparisons, plus list insertions whose memmove
    grows quadratically.  Up to n = 10^4 this beats a Fenwick tree
    (by 1.4x on all of S_8, equal at 10^4); at n = 10^5 the memmove
    dominates (1.9 s against 0.45 s, one core of a 2-core x86 host).
    """
    n = len(w)
    rank = {v: r for r, v in enumerate(sorted(w))}
    prefix: list[int] = []
    ll, lg, rl, rg = [], [], [], []
    for j, v in enumerate(w):
        less_left = bisect_left(prefix, v)
        prefix.insert(less_left, v)
        less_right = rank[v] - less_left
        ll.append(less_left)
        lg.append(j - less_left)
        rl.append(less_right)
        rg.append(n - 1 - j - less_right)
    return ll, lg, rl, rg


# For the four length-3 patterns that are not monotone: the corner count
# whose pairs C(x, 2) are this pattern's occurrences plus the monotone
# pattern's, with the corner letter as the pattern's 1 or 3.
_PAIR_CORNER = {(1, 3, 2): 3, (2, 1, 3): 0, (2, 3, 1): 1, (3, 1, 2): 2}


def _count_short(w: tuple[int, ...], t: tuple[int, ...]) -> int:
    """Occurrences of a pattern of length 1 to 3, from the corner counts."""
    if len(t) == 1:
        return len(w)
    corners = _corners(w)
    ll, lg, rl, rg = corners
    if len(t) == 2:
        return sum(ll) if t == (1, 2) else sum(lg)
    # 123, 132 and 213 put their 1 before their 3; 231, 312 and 321 do not.
    if t.index(1) < t.index(3):
        monotone = sum(map(operator.mul, ll, rg))  # middle slot of a 123
    else:
        monotone = sum(map(operator.mul, lg, rl))  # middle slot of a 321
    if t in ((1, 2, 3), (3, 2, 1)):
        return monotone
    return sum(x * (x - 1) for x in corners[_PAIR_CORNER[t]]) // 2 - monotone


def _occurrences_short(w: tuple[int, ...], t: tuple[int, ...]) -> list[Occurrence]:
    """Occurrences of a pattern of length 1 to 3, in lexicographic order.

    Every such pattern has a corner slot: an end position holding its
    smallest or largest letter.  Reversing and/or complementing the word
    moves that slot to the front and makes its letter the smallest, so
    the pattern reads 1, 12, 123 or 132.  An occurrence is then a
    position i followed by letters above ``v[i]`` on its right, forming
    the rest of the pattern.  Their number at each i comes from the
    corner counts and one Fenwick sweep, and only positions where it is
    nonzero are expanded.
    """
    n, k = len(w), len(t)
    if k == 1:
        return [Occurrence((i,), (x,)) for i, x in enumerate(w)]
    flip = t[0] not in (1, k)  # the corner is the last slot
    if flip:
        t = t[::-1]
    negate = t[0] == k
    if negate:
        t = tuple(k + 1 - x for x in t)
    v = [-x if negate else x for x in (w[::-1] if flip else w)]
    rg = _corners(tuple(v))[3]
    if k == 2:
        starts = rg
    else:
        # rising[i]: pairs j < l right of i with v[i] < v[j] < v[l],
        # summed over j as Rg[j] with a Fenwick tree keyed by descending rank.
        order = {x: n - r for r, x in enumerate(sorted(v))}
        tree = [0] * (n + 1)
        rising = [0] * n
        for i in range(n - 1, -1, -1):
            r = order[v[i]] - 1
            total = 0
            while r > 0:
                total += tree[r]
                r -= r & -r
            rising[i] = total
            r = order[v[i]]
            while r <= n:
                tree[r] += rg[i]
                r += r & -r
        if t == (1, 2, 3):
            starts = rising
        else:
            starts = [x * (x - 1) // 2 - y for x, y in zip(rg, rising)]
    found = []
    for i, number in enumerate(starts):
        if not number:
            continue
        above = [j for j in range(i + 1, n) if v[j] > v[i]]
        if k == 2:
            found.extend((i, j) for j in above)
        else:
            # Sweep the letters above v[i]; earlier ones, kept sorted by
            # value, split at v[l] into the rising and the falling partners.
            values: list[int] = []
            places: list[int] = []
            for l in above:
                cut = bisect_left(values, v[l])
                partners = places[:cut] if t == (1, 2, 3) else places[cut:]
                found.extend((i, j, l) for j in partners)
                values.insert(cut, v[l])
                places.insert(cut, l)
    if flip:
        found = [tuple(n - 1 - p for p in reversed(f)) for f in found]
    found.sort()
    return [Occurrence(f, tuple(w[p] for p in f)) for f in found]


def occurrences(word: Sequence[int], pattern: Sequence[int]):
    """Yield every occurrence of ``pattern`` in ``word``.

    Occurrences come out in lexicographic order of their position tuples.
    For patterns of length 1 to 3 the cost is O(n log n), plus
    O(n log n) for each position that holds the corner slot (the first
    or last slot, whichever holds an extreme letter of the pattern) of
    some occurrence, plus sorting the occurrences: locating the one or
    two occurrences the bijections look for is O(n log n).  Length-4
    patterns are found by the scan over all C(n, 4) index sets.

    >>> [o.positions for o in occurrences((4, 3, 1, 2), (3, 2, 1))]
    [(0, 1, 2), (0, 1, 3)]
    """
    t = check_pattern(pattern)
    w = _distinct(word)
    if len(t) <= 3:
        yield from _occurrences_short(w, t)
    else:
        yield from _occurrences_by_subsets(w, t)


def count_occurrences(word: Sequence[int], pattern: Sequence[int], cap: int | None = None) -> int:
    """Number of occurrences of ``pattern`` in ``word``.

    With ``cap`` given the result is ``min(count, cap + 1)``; a return
    value of ``cap + 1`` then means "more than cap".  Patterns of length
    1 to 3 cost O(n log n) by the corner counts (Even-Zohar & Leng,
    "Counting small permutation patterns"); length-4 patterns scan the
    C(n, 4) index sets, stopping once the count exceeds ``cap``.

    >>> count_occurrences((4, 3, 1, 2), (3, 2, 1))
    2
    >>> count_occurrences((1, 3, 2), (1, 3, 2))
    1
    """
    t = check_pattern(pattern)
    w = _distinct(word)
    if cap is not None and cap < 0:
        raise InvalidInputError(f"cap must be >= 0: {cap}")
    if len(t) > 3:
        return _count_by_subsets(w, t, cap)
    count = _count_short(w, t)
    return count if cap is None else min(count, cap + 1)


def avoids(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """True when ``word`` has no occurrence of ``pattern``.

    >>> avoids((4, 3, 1, 2), (1, 3, 2))
    True
    """
    return count_occurrences(word, pattern, cap=0) == 0


def record_highs(p: Sequence[int]) -> tuple[int, ...]:
    """Positions (0-based) of the record highs, i.e. letters exceeding
    everything before them.  The first letter is always a record high;
    for a 321-avoiding permutation the records end with the letter n.

    >>> record_highs((2, 1, 4, 7, 3, 5, 6))
    (0, 2, 3)
    """
    best = 0
    out = []
    for i, v in enumerate(p):
        if v > best:
            out.append(i)
            best = v
    return tuple(out)


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse ``"2 1 4 7 3 5 6"`` (spaces and/or commas) into a tuple."""
    parts = text.replace(",", " ").split()
    try:
        word = tuple(int(s) for s in parts)
    except ValueError:
        raise InvalidInputError(f"cannot parse permutation from {text!r}") from None
    return check_permutation(word)


def format_permutation(p: Sequence[int]) -> str:
    return " ".join(str(v) for v in p)
