"""Explicit bijections between pattern-restricted permutation classes
and lattice-path classes.

Every map here comes as a forward/inverse pair.  The forward direction
validates its domain eagerly and raises :class:`DomainError` naming the
violated predicate; the inverse validates the declared codomain the same
way.  Round-trip identity on exhaustively enumerated domains is the
correctness contract, exercised by the test suite.

Conventions: permutations are tuples of 1-based letters, lattice paths
are strings over ``U``/``D``, and positions reported in parameters (the
``k`` of a decomposition, say) are 1-based to match the usual way these
classes are described.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DomainError, VerificationError
from .paths import check_path, dyck_path_from_runs, heights, is_dyck, is_first_quadrant, path_stats
from .permutations import (
    Occurrence,
    avoids,
    check_permutation,
    count_occurrences,
    occurrences,
    record_highs,
    reduce,
)

__all__ = [
    "records_to_dyck",
    "dyck_to_records",
    "delete_returns",
    "insert_returns",
    "transfer_upsteps",
    "transfer_upsteps_inverse",
    "tail_rotate",
    "tail_rotate_inverse",
    "split_adjacent_132",
    "join_adjacent_132",
    "split_boundary_132",
    "join_boundary_132",
    "split_one132",
    "join_one132",
    "split_one321",
    "join_one321",
    "split_two321_shared",
    "join_two321_shared",
    "split_two321_distinct",
    "join_two321_distinct",
]


def _require(condition: bool, predicate: str, message: str) -> None:
    if not condition:
        raise DomainError(predicate, message)


def _ensure(condition: bool, message: str) -> None:
    # A postcondition that must hold under ``python -O`` too.
    if not condition:
        raise VerificationError(message)


def _deltas(points: Sequence[int]) -> tuple[int, ...]:
    return tuple(b - a for a, b in zip(points, points[1:]))


# ---------------------------------------------------------------------------
# 321-avoiders <-> Dyck paths via record highs


def records_to_dyck(p: Sequence[int]) -> str:
    """Encode a 321-avoiding permutation as a Dyck path.

    The ascent run lengths are the gaps between consecutive record-high
    values (starting from 0), the descent run lengths the gaps between
    consecutive record-high positions (ending at n+1).  The first ascent
    always equals the first letter.

    >>> records_to_dyck((2, 1, 4, 7, 3, 5, 6))
    'UUDDUUDUUUDDDD'
    >>> records_to_dyck((1, 2, 3))
    'UDUDUD'
    """
    p = check_permutation(p)
    _require(avoids(p, (3, 2, 1)), "avoids-321", f"permutation contains a 321 pattern: {p}")
    n = len(p)
    if n == 0:
        return ""
    recs = record_highs(p)
    values = (0,) + tuple(p[i] for i in recs)
    positions = tuple(i + 1 for i in recs) + (n + 1,)
    return dyck_path_from_runs(_deltas(values), _deltas(positions))


def dyck_to_records(path: str) -> tuple[int, ...]:
    """Invert :func:`records_to_dyck`.

    Record values are partial sums of the ascent runs, record positions
    partial sums of the descent runs shifted to start at 1.  Non-record
    letters fill the remaining positions in increasing order, the unique
    completion that avoids 321.

    >>> dyck_to_records("UUDDUUDUUUDDDD")
    (2, 1, 4, 7, 3, 5, 6)
    >>> dyck_to_records("UDUD")
    (1, 2)
    """
    path = check_path(path)
    _require(is_dyck(path), "dyck", f"not a Dyck path: {path!r}")
    n = path.count("D")
    if n == 0:
        return ()
    st = path_stats(path)
    value = 0
    position = 1
    out: list[int | None] = [None] * n
    for asc, desc in zip(st.ascents, st.descents):
        value += asc
        out[position - 1] = value
        position += desc
    rest = sorted(set(range(1, n + 1)) - {v for v in out if v is not None})
    it = iter(rest)
    p = tuple(v if v is not None else next(it) for v in out)
    _ensure(
        avoids(p, (3, 2, 1)) and records_to_dyck(p) == path,
        f"records completion of {path!r} is not its 321-avoiding preimage: {p}",
    )
    return p


# ---------------------------------------------------------------------------
# Return deletion on first-quadrant paths


def delete_returns(p: str) -> str:
    """Remove the initial upstep and every downstep landing on the x-axis.

    A first-quadrant path with u upsteps, d downsteps and j returns maps
    to one with u-1 upsteps and d-j downsteps; j is recoverable as the
    number of downsteps lost.

    >>> delete_returns("UUDD")
    'UD'
    >>> delete_returns("UDUUDD")
    'UUD'
    >>> delete_returns("UD")
    ''
    """
    p = check_path(p)
    _require(p != "", "nonempty", "the empty path has no initial upstep to delete")
    _require(p[0] == "U", "starts-with-upstep", f"path must start with an upstep: {p!r}")
    _require(is_first_quadrant(p), "first-quadrant", f"path dips below the x-axis: {p!r}")
    out = []
    h = 0
    for i, step in enumerate(p):
        h += 1 if step == "U" else -1
        if i == 0:
            continue
        if step == "D" and h == 0:
            continue
        out.append(step)
    return "".join(out)


def insert_returns(q: str, j: int) -> str:
    """Invert :func:`delete_returns`, reinstating exactly ``j`` returns.

    Prepend an upstep, then for each level l = 1..j insert a downstep at
    the last lattice point of height l; each insertion lands on the
    x-axis of the final path.  Requires j <= ups(q) - downs(q) + 1 so
    that every needed level is reached.

    >>> insert_returns("UD", 1)
    'UUDD'
    >>> insert_returns("", 1)
    'UD'
    >>> insert_returns(delete_returns("UDUUDD"), 2)
    'UDUUDD'
    """
    q = check_path(q)
    _require(is_first_quadrant(q), "first-quadrant", f"path dips below the x-axis: {q!r}")
    _require(j >= 0, "nonnegative-returns", f"return count must be >= 0: {j}")
    surplus = 1 + q.count("U") - q.count("D")
    _require(
        j <= surplus,
        "insertable-returns",
        f"cannot create {j} returns: at most ups-downs+1 = {surplus} levels are available",
    )
    steps = list("U" + q)
    points = (0,) + heights("U" + q)
    slots = []
    for level in range(1, j + 1):
        slots.append(max(t for t, h in enumerate(points) if h == level))
    for t in reversed(slots):
        steps.insert(t, "D")
    out = "".join(steps)
    _ensure(delete_returns(out) == q and path_stats(out).returns == j, "deletion does not undo it")
    return out


# ---------------------------------------------------------------------------
# Upstep transfer on Dyck paths (trading short early descents for first-ascent length)


def transfer_upsteps(d: str, i: int) -> str:
    """Move the upstep after each of the first ``i`` downsteps to the front.

    Maps Dyck paths whose first i nonfinal descents all equal 1 to Dyck
    paths with first ascent larger by i and the same last descent.  One
    shape is excluded: a path with exactly i+1 descents whose final
    ascent is a single upstep, since deleting that upstep would merge an
    early descent into the final one and change the last descent.

    >>> transfer_upsteps("UUDUDUDD", 1)
    'UUUDDUDD'
    >>> transfer_upsteps("UDUD", 0)
    'UDUD'
    """
    d = check_path(d)
    _require(is_dyck(d), "dyck", f"not a Dyck path: {d!r}")
    _require(i >= 0, "nonnegative-count", f"transfer count must be >= 0: {i}")
    if i == 0:
        return d
    st = path_stats(d)
    _require(
        len(st.descents) >= i + 1,
        "enough-nonfinal-descents",
        f"need at least {i} nonfinal descents, found {max(len(st.descents) - 1, 0)}",
    )
    _require(
        all(run == 1 for run in st.descents[:i]),
        "first-descents-single",
        f"the first {i} descents must all have length 1: {st.descents[:i]}",
    )
    _require(
        not (len(st.descents) == i + 1 and st.ascents[-1] == 1),
        "transfer-headroom",
        "the final ascent is a single upstep directly after the i-th downstep; "
        "transferring it would merge an early descent into the final descent",
    )
    down_positions = [t for t, c in enumerate(d) if c == "D"]
    drop = {down_positions[t] + 1 for t in range(i)}
    out = "U" * i + "".join(c for t, c in enumerate(d) if t not in drop)
    _ensure(is_dyck(out), "transfer left the Dyck paths")
    return out


def transfer_upsteps_inverse(d: str, i: int) -> str:
    """Invert :func:`transfer_upsteps`: strip ``i`` leading upsteps and
    reinsert one after each of the first ``i`` downsteps.

    >>> transfer_upsteps_inverse("UUUDDUDD", 1)
    'UUDUDUDD'
    """
    d = check_path(d)
    _require(is_dyck(d), "dyck", f"not a Dyck path: {d!r}")
    _require(i >= 0, "nonnegative-count", f"transfer count must be >= 0: {i}")
    if i == 0:
        return d
    st = path_stats(d)
    _require(
        st.first_ascent >= i + 1,
        "first-ascent-headroom",
        f"need first ascent >= i + 1 = {i + 1}, got {st.first_ascent}",
    )
    _require(
        st.downs - st.last_descent >= i,
        "enough-early-downsteps",
        f"need at least {i} downsteps before the final descent, found {st.downs - st.last_descent}",
    )
    steps = list(d[i:])
    down_positions = [t for t, c in enumerate(steps) if c == "D"]
    for t in reversed(down_positions[:i]):
        steps.insert(t + 1, "U")
    out = "".join(steps)
    _ensure(is_dyck(out), "inverse transfer left the Dyck paths")
    return out


# ---------------------------------------------------------------------------
# Moving the maximum within a 321-avoider's tail


def tail_rotate(p: Sequence[int], i: int) -> tuple[int, ...]:
    """Send 321-avoiders with the last ``i`` letters increasing to those
    whose maximum avoids the last ``i-1`` positions.

    Identity unless n sits at the last position, in which case n cycles
    to position n-i+1 and the displaced letters shift right.  The first
    letter is preserved, so the map restricts to each first-letter class.

    >>> tail_rotate((2, 1, 3, 4, 5), 2)
    (2, 1, 3, 5, 4)
    >>> tail_rotate((2, 1, 3, 4), 3)
    (2, 4, 1, 3)
    """
    p = check_permutation(p)
    n = len(p)
    _require(avoids(p, (3, 2, 1)), "avoids-321", f"permutation contains a 321 pattern: {p}")
    _require(1 <= i < n, "rotation-width-in-range", f"need 1 <= i < n, got i={i}, n={n}")
    tail = p[n - i:]
    _require(
        all(a < b for a, b in zip(tail, tail[1:])),
        "last-entries-increasing",
        f"the last {i} letters must increase: {tail}",
    )
    j = p.index(n)
    if j < n - i:
        return p
    return p[: n - i] + (n,) + p[n - i : n - 1]


def tail_rotate_inverse(p: Sequence[int], i: int) -> tuple[int, ...]:
    """Invert :func:`tail_rotate`: a maximum at position n-i+1 cycles
    back to the end.

    >>> tail_rotate_inverse((2, 4, 1, 3), 3)
    (2, 1, 3, 4)
    """
    p = check_permutation(p)
    n = len(p)
    _require(avoids(p, (3, 2, 1)), "avoids-321", f"permutation contains a 321 pattern: {p}")
    _require(1 <= i < n, "rotation-width-in-range", f"need 1 <= i < n, got i={i}, n={n}")
    j = p.index(n)
    _require(
        j <= n - i,
        "max-not-in-tail",
        f"the maximum must not occupy the last {i - 1} positions, found it at position {j + 1}",
    )
    if j < n - i:
        return p
    out = p[: n - i] + p[n - i + 1 :] + (n,)
    _ensure(all(a < b for a, b in zip(out[n - i:], out[n - i + 1:])), "tail not increasing")
    return out


# ---------------------------------------------------------------------------
# One 132, pattern in consecutive positions


def _the_occurrence(p: tuple[int, ...], pattern: tuple[int, ...], how_many: int) -> list[Occurrence]:
    word = "".join(str(x) for x in pattern)
    found = count_occurrences(p, pattern)
    _require(
        found == how_many,
        f"exactly-{how_many}-{word}",
        f"expected exactly {how_many} occurrence(s) of {word}, found {found} in {p}",
    )
    return list(occurrences(p, pattern))


def split_adjacent_132(p: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Decompose a permutation whose unique 132 sits in consecutive
    positions k, k+1, k+2 into (rho, k) with rho 132-avoiding.

    rho drops the smallest and middle pattern letters and keeps the
    largest in place.  Exactly-one-ness forces the middle letter to be
    one more than the smallest, which is how the inverse restores both.

    >>> split_adjacent_132((1, 3, 2))
    ((1,), 1)
    >>> split_adjacent_132((2, 4, 3, 1))
    ((2, 1), 1)
    """
    p = check_permutation(p)
    occ = _the_occurrence(p, (1, 3, 2), 1)[0]
    i1, i2, i3 = occ.positions
    _require(
        i2 == i1 + 1 and i3 == i2 + 1,
        "pattern-consecutive",
        f"the 132 must occupy consecutive positions, found {(i1 + 1, i2 + 1, i3 + 1)}",
    )
    a, c, b = occ.letters
    _ensure(b == a + 1, "the adjacent 132's outer letters are not consecutive")
    rho = reduce(p[:i1] + (c,) + p[i3 + 1 :])
    return rho, i1 + 1


def join_adjacent_132(rho: Sequence[int], k: int) -> tuple[int, ...]:
    """Invert :func:`split_adjacent_132`.

    The letter c' = rho[k-1] pins down the removed letters: the smallest
    is one more than the number of successors of c' below it.

    >>> join_adjacent_132((1,), 1)
    (1, 3, 2)
    >>> join_adjacent_132((2, 1), 1)
    (2, 4, 3, 1)
    """
    rho = check_permutation(rho)
    m = len(rho)
    _require(avoids(rho, (1, 3, 2)), "avoids-132", f"permutation contains a 132 pattern: {rho}")
    _require(1 <= k <= m, "position-in-range", f"need 1 <= k <= {m}, got {k}")
    c_prime = rho[k - 1]
    a = 1 + sum(1 for x in rho[k:] if x < c_prime)
    lifted = [x + 2 if x >= a else x for x in rho]
    out = tuple(lifted[: k - 1] + [a, lifted[k - 1], a + 1] + lifted[k:])
    _ensure(count_occurrences(out, (1, 3, 2), cap=1) == 1, f"{out} lacks a unique 132")
    return out


# ---------------------------------------------------------------------------
# One 132, pattern at the first, second and last positions


def split_boundary_132(p: Sequence[int]) -> tuple[int, ...]:
    """Strip a permutation whose unique 132 occupies positions 1, 2, n
    down to its interior, a 132-avoider on n-3 letters.

    The pattern letters are forced to be (n-2, n, n-1), so the interior
    is already reduced.

    >>> split_boundary_132((1, 3, 2))
    ()
    >>> split_boundary_132((2, 4, 1, 3))
    (1,)
    """
    p = check_permutation(p)
    n = len(p)
    occ = _the_occurrence(p, (1, 3, 2), 1)[0]
    _require(
        occ.positions == (0, 1, n - 1),
        "pattern-at-boundary",
        f"the 132 must occupy the first, second and last positions, found "
        f"{tuple(q + 1 for q in occ.positions)}",
    )
    _ensure(occ.letters == (n - 2, n, n - 1), "the boundary 132 is not (n-2, n, n-1)")
    w2 = p[2:-1]
    _ensure(avoids(w2, (1, 3, 2)), f"boundary interior contains a 132: {w2}")
    return w2


def join_boundary_132(w2: Sequence[int]) -> tuple[int, ...]:
    """Invert :func:`split_boundary_132` by wrapping (n-2, n) ... (n-1)
    around a 132-avoider of n-3 letters.

    >>> join_boundary_132(())
    (1, 3, 2)
    >>> join_boundary_132((1,))
    (2, 4, 1, 3)
    """
    w2 = check_permutation(w2)
    _require(avoids(w2, (1, 3, 2)), "avoids-132", f"permutation contains a 132 pattern: {w2}")
    n = len(w2) + 3
    out = (n - 2, n) + w2 + (n - 1,)
    _ensure(count_occurrences(out, (1, 3, 2), cap=1) == 1, f"{out} lacks a unique 132")
    return out


# ---------------------------------------------------------------------------
# One 132, general position: split off the letters between c and b


def split_one132(p: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a permutation with exactly one 132 into (rho, sigma).

    With the pattern letters a, c, b and k letters strictly between c
    and b, rho = reduce(W1 a c b W3) lands in the consecutive-pattern
    class on n-k letters and sigma = reduce(a c W2 b) in the boundary
    class on k+3 letters.  k is recoverable as len(sigma) - 3.

    >>> split_one132((2, 4, 1, 3))
    ((1, 3, 2), (2, 4, 1, 3))
    >>> split_one132((1, 3, 2))
    ((1, 3, 2), (1, 3, 2))
    """
    p = check_permutation(p)
    occ = _the_occurrence(p, (1, 3, 2), 1)[0]
    i1, i2, i3 = occ.positions
    a, c, b = occ.letters
    rho = reduce(p[:i1] + (a, c, b) + p[i3 + 1 :])
    sigma = reduce((a, c) + p[i2 + 1 : i3] + (b,))
    _ensure(count_occurrences(rho, (1, 3, 2), cap=1) == 1, f"rho lacks a unique 132: {rho}")
    _ensure(count_occurrences(sigma, (1, 3, 2), cap=1) == 1, f"sigma lacks a unique 132: {sigma}")
    return rho, sigma


def join_one132(rho: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    """Invert :func:`split_one132`.

    rho must lie in the consecutive-pattern class and sigma in the
    boundary class; the interior of sigma reinstates the k letters that
    sat between c and b.

    >>> join_one132((1, 3, 2), (2, 4, 1, 3))
    (2, 4, 1, 3)
    >>> join_one132((1, 3, 2), (1, 3, 2))
    (1, 3, 2)
    """
    rho = check_permutation(rho)
    sigma = check_permutation(sigma)
    m = len(sigma)
    _require(m >= 3, "sigma-length", f"sigma needs at least 3 letters, got {m}")
    _require(
        m >= 3 and sigma[0] == m - 2 and sigma[1] == m and sigma[-1] == m - 1
        and avoids(sigma[2:-1], (1, 3, 2)),
        "sigma-in-boundary-class",
        f"sigma must be (m-2, m, ..., m-1) with 132-avoiding interior: {sigma}",
    )
    occ = _the_occurrence(rho, (1, 3, 2), 1)
    j1, j2, j3 = occ[0].positions
    _require(
        j2 == j1 + 1 and j3 == j2 + 1,
        "rho-pattern-consecutive",
        f"rho's 132 must occupy consecutive positions, found {(j1 + 1, j2 + 1, j3 + 1)}",
    )
    k = m - 3
    a_prime = rho[j1]
    a = a_prime + k
    w2 = [v + (a - k - 1) for v in sigma[2:-1]]
    lifted = [v + k if v >= a_prime else v for v in rho]
    out = tuple(lifted[: j1 + 2] + w2 + lifted[j1 + 2 :])
    _ensure(count_occurrences(out, (1, 3, 2), cap=1) == 1, f"{out} lacks a unique 132")
    return out


# ---------------------------------------------------------------------------
# One 321, or two sharing the middle and the last letter: cut at the middle
#
# With j 321s c_i b a through one middle letter b and one last letter a
# (j = 1 or 2), the tops c_i are exactly the letters before b that are
# larger than it, so b sits at position b + j - 1.  Cutting there gives
# rho = reduce(W1 a), a 321-avoider on b + j - 1 letters ending at most
# b - 1, and sigma = reduce(tops W2), a 321-avoider on n - b + 1 letters
# whose letter 1 (the image of a) comes after the j tops.


def _split_shared(p: Sequence[int], j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    p = check_permutation(p)
    occs = _the_occurrence(p, (3, 2, 1), j)
    triples = [o.letters for o in occs]
    _require(len({t[1] for t in triples}) == 1, "shared-middle-letter",
             f"the 321s {triples} must share their middle letter")
    _require(len({t[2] for t in triples}) == 1, "shared-last-letter",
             f"the 321s {triples} share their first letter; apply reverse-complement to reach "
             "the shared-last-letter class")
    _, b, a = triples[0]
    pos_b = occs[0].positions[1]
    _ensure(pos_b == b + j - 2, "the shared middle letter is off its position")
    w1 = p[:pos_b]
    rho = reduce(w1 + (a,))
    sigma = reduce(tuple(x for x in w1 if x > b) + p[pos_b + 1 :])
    _ensure(avoids(rho, (3, 2, 1)) and rho[-1] <= b - 1, f"rho outside its class: {rho}")
    _ensure(avoids(sigma, (3, 2, 1)) and sigma.index(1) >= j, f"sigma outside its class: {sigma}")
    return rho, sigma


def _join_shared(rho: Sequence[int], sigma: Sequence[int], j: int) -> tuple[int, ...]:
    rho = check_permutation(rho)
    sigma = check_permutation(sigma)
    b = len(rho) - j + 1
    _require(len(rho) > j, "rho-length", f"rho needs more than {j} letters, got {len(rho)}")
    _require(len(sigma) > j, "sigma-length", f"sigma needs more than {j} letters, got {len(sigma)}")
    _require(avoids(rho, (3, 2, 1)), "rho-avoids-321", f"rho contains a 321: {rho}")
    _require(avoids(sigma, (3, 2, 1)), "sigma-avoids-321", f"sigma contains a 321: {sigma}")
    _require(rho[-1] <= b - 1, "rho-last-small", f"rho must end at most {b - 1}: {rho}")
    _require(sigma.index(1) >= j, "sigma-one-late",
             f"sigma must not place 1 in its first {j} positions: {sigma}")
    a = rho[-1]
    tops = [v + b - 1 for v in sigma[:j]]
    w1 = [tops[v - b] if v >= b else v for v in rho[:-1]]
    w2 = [a if v == 1 else v + b - 1 for v in sigma[j:]]
    out = tuple(w1 + [b] + w2)
    # exactly j 321s, j tops before b and one letter below b after it:
    # every 321 is a top, b, a
    _ensure(count_occurrences(out, (3, 2, 1), cap=j) == j and sum(v > b for v in w1) == j
            and sum(v < b for v in w2) == 1, "the joined 321s do not all pass through b and a")
    return out


def split_one321(p: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a permutation with exactly one 321 at its middle letter b,
    a fixed point, into (rho, sigma) = (reduce(W1 a), reduce(c W2)).

    rho is a 321-avoider on b letters with last letter <= b-1; sigma a
    321-avoider on n-b+1 letters with first letter >= 2.

    >>> split_one321((3, 2, 1))
    ((2, 1), (2, 1))
    """
    return _split_shared(p, 1)


def join_one321(rho: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    """Invert :func:`split_one321`: b = len(rho), a = rho's last letter,
    c = sigma's first letter shifted up by b-1.

    >>> join_one321((2, 1), (2, 1))
    (3, 2, 1)
    """
    return _join_shared(rho, sigma, 1)


def split_two321_shared(p: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a permutation with exactly two 321s sharing their middle
    and last letters into (reduce(W1 a), reduce(c1 c2 W2)).

    rho is a 321-avoider on b+1 letters ending at most two below its
    maximum; sigma a 321-avoider on n-b+1 letters with 1 no earlier than
    position 3.  Instances sharing the first letter instead belong to
    the mirror class under reverse-complement.

    >>> split_two321_shared((3, 4, 2, 1, 5))
    ((2, 3, 1), (2, 3, 1, 4))
    """
    return _split_shared(p, 2)


def join_two321_shared(rho: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    """Invert :func:`split_two321_shared`: b = len(rho) - 1, a = rho's
    last letter, c1 and c2 = sigma's first two letters shifted by b-1.

    >>> join_two321_shared((2, 3, 1), (2, 3, 1, 4))
    (3, 4, 2, 1, 5)
    """
    return _join_shared(rho, sigma, 2)


# ---------------------------------------------------------------------------
# Two 321s with distinct middle letters


def _two321_sorted(p: tuple[int, ...]) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The two occurrences as (c, b, a) letter triples, ordered primarily
    by middle letter, then first, then last."""
    occs = _the_occurrence(p, (3, 2, 1), 2)
    triples = sorted((o.letters[1], o.letters[0], o.letters[2]) for o in occs)
    (b1, c1, a1), (b2, c2, a2) = triples
    return (c1, b1, a1), (c2, b2, a2)


def split_two321_distinct(p: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a permutation with exactly two 321s whose middle letters
    differ (b1 < b2, k = b2 - b1 - 1 letters between them) into
    (rho, sigma) = (reduce(W1' b1 W3'), reduce(c1 W2 a2)).

    W1' replaces c1's letter by c2 and W3' replaces a2's letter by a1,
    so rho keeps exactly one 321 and records both positions; sigma
    records both values.  rho has n-k-1 letters; sigma has k+2, starts
    above its minimum and ends below its maximum.

    >>> split_two321_distinct((4, 2, 3, 1))
    ((3, 2, 1), (2, 1))
    """
    p = check_permutation(p)
    (c1, b1, a1), (c2, b2, a2) = _two321_sorted(p)
    _require(
        b1 != b2,
        "distinct-middle-letters",
        f"the two 321s share their middle letter {b1}; use the shared-middle split",
    )
    _ensure(c1 <= c2 and a1 <= a2, "the two 321s cross")
    pb1, pb2 = p.index(b1), p.index(b2)
    _ensure(pb1 == b1 - 1 and pb1 < pb2, "middle letters misplaced")
    w1 = list(p[:pb1])
    w2 = list(p[pb1 + 1 : pb2])
    w3 = list(p[pb2 + 1 :])
    w1[w1.index(c1)] = c2
    w3[w3.index(a2)] = a1
    rho = reduce(tuple(w1) + (b1,) + tuple(w3))
    sigma = reduce((c1,) + tuple(w2) + (a2,))
    _ensure(count_occurrences(rho, (3, 2, 1), cap=1) == 1, f"rho lacks a unique 321: {rho}")
    _ensure(
        avoids(sigma, (3, 2, 1)) and sigma[0] >= 2 and sigma[-1] <= len(sigma) - 1,
        f"sigma outside its class: {sigma}",
    )
    return rho, sigma


def join_two321_distinct(rho: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    """Invert :func:`split_two321_distinct`.

    rho's unique 321 recovers b1, a1 and (shifted by k+1) c2 along with
    the positions of c1 and a2; sigma's end letters tell whether c1 = c2
    and a2 = a1 or sit strictly between the two middles.

    >>> join_two321_distinct((3, 2, 1), (2, 1))
    (4, 2, 3, 1)
    """
    rho = check_permutation(rho)
    sigma = check_permutation(sigma)
    k = len(sigma) - 2
    _require(k >= 0, "sigma-length", f"sigma needs at least 2 letters, got {len(sigma)}")
    _require(avoids(sigma, (3, 2, 1)), "sigma-avoids-321", f"sigma contains a 321: {sigma}")
    _require(sigma[0] >= 2, "sigma-first-large", f"sigma must not start with its minimum: {sigma}")
    _require(
        sigma[-1] <= k + 1,
        "sigma-last-small",
        f"sigma must not end with its maximum: {sigma}",
    )
    occ = _the_occurrence(rho, (3, 2, 1), 1)[0]
    qc, qb, qa = occ.positions
    cv, bv, av = occ.letters
    b1, a1 = bv, av
    b2 = b1 + k + 1
    c2 = cv + k + 1
    _ensure(qb == b1 - 1, "rho's middle letter is not a fixed point")
    c1 = c2 if sigma[0] == k + 2 else sigma[0] + b1 - 1
    a2 = a1 if sigma[-1] == 1 else sigma[-1] + b1 - 1
    w2 = [a1 if v == 1 else c2 if v == k + 2 else v + b1 - 1 for v in sigma[1:-1]]
    lifted = [v if v <= b1 else v + k + 1 for v in rho]
    lifted[qc] = c1
    lifted[qa] = a2
    out = tuple(lifted[: qb + 1] + w2 + [b2] + lifted[qb + 1 :])
    occ1, occ2 = _two321_sorted(out)
    _ensure(occ1[1] != occ2[1], f"the two 321s of {out} share their middle letter")
    return out
