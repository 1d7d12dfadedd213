"""Seeded input generators for the benchmark.

Everything here is written from the definitions and never calls the
package functions the benchmark measures, so a bug in a bijection or a
pattern primitive cannot shape its own inputs.  Each generator takes a
``random.Random`` and returns a member of the named class.
"""

from __future__ import annotations

import itertools
import random


def dyck_path(rng: random.Random, n: int) -> str:
    """A uniform Dyck path of semilength n, by the cycle lemma.

    Of the 2n+1 rotations of a word with n ups and n+1 downs exactly one
    keeps every proper prefix sum >= 0; it ends in D, which is dropped.
    """
    steps = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(steps)
    h, low, cut = 0, 1, 0
    for i, s in enumerate(steps):
        h += 1 if s == "U" else -1
        if h < low:
            low, cut = h, i + 1
    rotated = steps[cut:] + steps[:cut]
    return "".join(rotated[:-1])


def runs(path: str) -> tuple[list[int], list[int]]:
    """Ascent and descent run lengths, in order."""
    ascents, descents = [], []
    for step, group in itertools.groupby(path):
        (ascents if step == "U" else descents).append(len(list(group)))
    return ascents, descents


def returns(path: str) -> int:
    """Downsteps that land on the x-axis."""
    h = count = 0
    for s in path:
        h += 1 if s == "U" else -1
        count += s == "D" and h == 0
    return count


def avoider321(rng: random.Random, n: int) -> tuple[int, ...]:
    """A 321-avoider of length n: two interleaved increasing sequences.

    A random half of the positions receives a random half of the
    letters in increasing order, the rest of the letters fill the rest
    of the positions in increasing order.  Any union of two increasing
    subsequences avoids 321.
    """
    k = n // 2
    positions = set(rng.sample(range(n), k))
    letters = sorted(rng.sample(range(1, n + 1), k))
    rest = sorted(set(range(1, n + 1)) - set(letters))
    a, b = iter(letters), iter(rest)
    return tuple(next(a) if i in positions else next(b) for i in range(n))


def avoider132(rng: random.Random, n: int) -> tuple[int, ...]:
    """A 132-avoider of length n, built as L n R with every letter of L
    above every letter of R and both parts 132-avoiding."""
    if n == 0:
        return ()
    k = rng.randrange(n)  # letters before the maximum
    right = avoider132(rng, n - 1 - k)
    left = tuple(v + (n - 1 - k) for v in avoider132(rng, k))
    return left + (n,) + right


def direct_sum(*parts: tuple[int, ...]) -> tuple[int, ...]:
    """Each part shifted above the ones before it.  Occurrences of 321
    in a direct sum are the occurrences inside its parts."""
    out: list[int] = []
    for part in parts:
        below = len(out)
        out.extend(v + below for v in part)
    return tuple(out)


def skew_sum(*parts: tuple[int, ...]) -> tuple[int, ...]:
    """Each part shifted below the ones before it.  Occurrences of 132
    in a skew sum are the occurrences inside its parts."""
    total = sum(len(p) for p in parts)
    out: list[int] = []
    above = total
    for part in parts:
        above -= len(part)
        out.extend(v + above for v in part)
    return tuple(out)


def occurrences3(word: tuple[int, ...], pattern: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Letter triples of every occurrence of a length-3 pattern, by brute
    force; used only on words of a few letters."""
    found = []
    for i, j, k in itertools.combinations(range(len(word)), 3):
        triple = (word[i], word[j], word[k])
        ranks = tuple(sorted(triple).index(v) + 1 for v in triple)
        if ranks == pattern:
            found.append(triple)
    return found


def _small(rng: random.Random, pattern, accept) -> tuple[int, ...]:
    """A random permutation of 3 to 7 letters whose occurrences of
    ``pattern`` satisfy ``accept``, by rejection."""
    while True:
        word = list(range(1, rng.randint(3, 7) + 1))
        rng.shuffle(word)
        word = tuple(word)
        if accept(occurrences3(word, pattern)):
            return word


def one132(rng: random.Random, n: int) -> tuple[int, ...]:
    """Exactly one 132: a small one-132 core skew-summed between two
    132-avoiders."""
    core = _small(rng, (1, 3, 2), lambda occ: len(occ) == 1)
    left = rng.randint(0, n - len(core))
    return skew_sum(
        avoider132(rng, left), core, avoider132(rng, n - len(core) - left)
    )


def _shared_bottom(occ) -> bool:
    # two 321s (c, b, a) sharing their middle and last letters
    return len(occ) == 2 and occ[0][1:] == occ[1][1:]


def _distinct_middle(occ) -> bool:
    return len(occ) == 2 and occ[0][1] != occ[1][1]


def with_321s(rng: random.Random, n: int, kind: str) -> tuple[int, ...]:
    """A small core with the wanted 321 occurrences direct-summed
    between two 321-avoiders.  ``kind`` is "one", "shared" (two 321s
    sharing middle and last letter) or "distinct" (two 321s with
    different middle letters)."""
    accept = {
        "one": lambda occ: len(occ) == 1,
        "shared": _shared_bottom,
        "distinct": _distinct_middle,
    }[kind]
    core = _small(rng, (3, 2, 1), accept)
    left = rng.randint(0, n - len(core))
    return direct_sum(
        avoider321(rng, left), core, avoider321(rng, n - len(core) - left)
    )


def transfer_input(rng: random.Random, n: int) -> tuple[str, int]:
    """A Dyck path and a count i in 1..3 inside the domain of the upstep
    transfer: the first i descents have length 1, there are at least
    i+1 descents, and not exactly i+1 of them with a final single
    ascent.  Uniform Dyck paths are drawn until one qualifies."""
    i = rng.randint(1, 3)
    while True:
        d = dyck_path(rng, n)
        ascents, descents = runs(d)
        if (
            len(descents) >= i + 1
            and all(run == 1 for run in descents[:i])
            and not (len(descents) == i + 1 and ascents[-1] == 1)
        ):
            return d, i


def rotation_input(rng: random.Random, n: int) -> tuple[tuple[int, ...], int]:
    """A 321-avoider ending in its maximum, and a tail width i whose last
    i letters increase (1 <= i < n)."""
    p = avoider321(rng, n - 1) + (n,)
    tail = 1
    while tail < n - 1 and p[n - 1 - tail] < p[n - tail]:
        tail += 1
    return p, rng.randint(1, tail)
