"""Round-trip and domain tests for the bijections.

Exhaustive sweeps at the full published sizes live in the acceptance
suite; here the sizes stay small so the file runs in seconds, with
hypothesis picking random elements of the right classes.
"""

import hashlib
import itertools
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permpaths.bijections import (
    delete_returns,
    dyck_to_records,
    insert_returns,
    join_adjacent_132,
    join_boundary_132,
    join_one132,
    join_one321,
    join_two321_distinct,
    join_two321_shared,
    records_to_dyck,
    split_adjacent_132,
    split_boundary_132,
    split_one132,
    split_one321,
    split_two321_distinct,
    split_two321_shared,
    tail_rotate,
    tail_rotate_inverse,
    transfer_upsteps,
    transfer_upsteps_inverse,
)
from permpaths.errors import DomainError
from permpaths.oracle import enumerate_dyck, enumerate_paths
from permpaths.paths import path_stats
from permpaths.permutations import _occurrences_by_subsets, avoids, count_occurrences, occurrences


def _class_members(n, pattern, k):
    return [
        p
        for p in itertools.permutations(range(1, n + 1))
        if count_occurrences(p, pattern, cap=k + 1) == k
    ]


avoiders_321 = st.integers(1, 7).flatmap(
    lambda n: st.sampled_from(_class_members(n, (3, 2, 1), 0))
)
one_132 = st.integers(3, 7).flatmap(
    lambda n: st.sampled_from(_class_members(n, (1, 3, 2), 1))
)
one_321 = st.integers(3, 7).flatmap(
    lambda n: st.sampled_from(_class_members(n, (3, 2, 1), 1))
)
two_321 = st.integers(4, 7).flatmap(
    lambda n: st.sampled_from(_class_members(n, (3, 2, 1), 2))
)
dyck_paths = st.integers(0, 7).flatmap(
    lambda n: st.sampled_from(list(enumerate_dyck(n)))
)


# -- records <-> Dyck ------------------------------------------------------


def test_records_example():
    assert records_to_dyck((2, 1, 4, 7, 3, 5, 6)) == "UUDDUUDUUUDDDD"
    assert dyck_to_records("UUDDUUDUUUDDDD") == (2, 1, 4, 7, 3, 5, 6)


def test_records_rejects_321():
    with pytest.raises(DomainError) as exc:
        records_to_dyck((3, 2, 1))
    assert exc.value.predicate == "avoids-321"


@given(p=avoiders_321)
def test_records_round_trip(p):
    d = records_to_dyck(p)
    assert dyck_to_records(d) == p
    assert path_stats(d).first_ascent == p[0]


@given(d=dyck_paths)
def test_records_round_trip_from_paths(d):
    if d:
        assert records_to_dyck(dyck_to_records(d)) == d


# -- return deletion / insertion -------------------------------------------


def test_returns_examples():
    assert delete_returns("UUDD") == "UD"
    assert delete_returns("UDUUDD") == "UUD"
    assert delete_returns("UD") == ""
    assert insert_returns("", 1) == "UD"
    assert insert_returns("UUD", 1) == "UDUUD"
    assert insert_returns("UUD", 2) == "UDUUDD"


def test_insert_returns_round_trips():
    assert insert_returns("UD", 1) == "UUDD"
    r = insert_returns("UUD", 2)
    assert delete_returns(r) == "UUD"
    assert path_stats(r).returns == 2


def test_returns_domain_errors():
    with pytest.raises(DomainError):
        delete_returns("")
    with pytest.raises(DomainError):
        delete_returns("DU")
    with pytest.raises(DomainError) as exc:
        insert_returns("UD", 5)
    assert exc.value.predicate == "insertable-returns"


def test_returns_exhaustive_small():
    for length in range(1, 9):
        for u in range(length // 2, length + 1):
            for r in enumerate_paths(u, length - u, lo=0):
                if not r.startswith("U"):
                    continue
                q = delete_returns(r)
                assert insert_returns(q, path_stats(r).returns) == r


# -- upstep transfer --------------------------------------------------------


def test_transfer_example():
    d = "UDUDUUDD"  # descents (1, 1, 2), two single nonfinal descents
    moved = transfer_upsteps(d, 2)
    assert moved == "UUUDDUDD"
    assert transfer_upsteps_inverse(moved, 2) == d
    assert path_stats(moved).first_ascent >= 3


def test_transfer_single_step():
    assert transfer_upsteps("UDUUDD", 1) == "UUDUDD"
    assert transfer_upsteps_inverse("UUDUDD", 1) == "UDUUDD"


def test_transfer_domain_errors():
    with pytest.raises(DomainError) as exc:
        transfer_upsteps("UUDD", 2)
    assert exc.value.predicate == "enough-nonfinal-descents"
    with pytest.raises(DomainError) as exc:
        transfer_upsteps_inverse("UDUD", 1)
    assert exc.value.predicate == "first-ascent-headroom"


@given(d=dyck_paths, i=st.integers(1, 3))
def test_transfer_round_trip_when_applicable(d, i):
    stats = path_stats(d)
    nonfinal = stats.descents[:-1]
    applicable = (
        len(nonfinal) >= i
        and all(v == 1 for v in nonfinal[:i])
        and not (len(stats.descents) == i + 1 and stats.ascents[-1] == 1)
    )
    if applicable:
        assert transfer_upsteps_inverse(transfer_upsteps(d, i), i) == d


# -- tail rotation ----------------------------------------------------------


def test_tail_rotate_examples():
    assert tail_rotate((2, 1, 3, 4, 5), 2) == (2, 1, 3, 5, 4)
    assert tail_rotate((2, 1, 3, 4), 3) == (2, 4, 1, 3)
    assert tail_rotate_inverse((2, 4, 1, 3), 3) == (2, 1, 3, 4)


def test_tail_rotate_identity_when_max_is_early():
    assert tail_rotate((3, 1, 2), 1) == (3, 1, 2)


def test_tail_rotate_domain():
    with pytest.raises(DomainError) as exc:
        tail_rotate((3, 2, 1), 1)
    assert exc.value.predicate == "avoids-321"
    with pytest.raises(DomainError) as exc:
        tail_rotate((1, 2, 3), 3)
    assert exc.value.predicate == "rotation-width-in-range"
    assert tail_rotate((2, 1, 3, 4), 2) == (2, 1, 4, 3)


# -- the 132 family ---------------------------------------------------------


def test_adjacent_132_examples():
    assert split_adjacent_132((1, 3, 2)) == ((1,), 1)
    assert split_adjacent_132((2, 4, 3, 1)) == ((2, 1), 1)
    assert join_adjacent_132((2, 1), 1) == (2, 4, 3, 1)


def test_boundary_132_round_trip_small():
    from permpaths.permutations import occurrences

    hits = 0
    for n in range(3, 8):
        for p in _class_members(n, (1, 3, 2), 1):
            occ = next(iter(occurrences(p, (1, 3, 2))))
            if occ.positions == (0, 1, n - 1) and occ.letters == (n - 2, n, n - 1):
                w2 = split_boundary_132(p)
                assert join_boundary_132(w2) == p
                hits += 1
    assert hits > 0


@given(p=one_132)
def test_one132_round_trip(p):
    rho, sigma = split_one132(p)
    assert join_one132(rho, sigma) == p
    assert count_occurrences(rho, (1, 3, 2)) == 1
    assert count_occurrences(sigma, (1, 3, 2)) == 1


# -- the 321 family ---------------------------------------------------------


def test_one321_example():
    assert split_one321((3, 2, 1)) == ((2, 1), (2, 1))
    assert join_one321((2, 1), (2, 1)) == (3, 2, 1)


@given(p=one_321)
def test_one321_round_trip(p):
    rho, sigma = split_one321(p)
    assert join_one321(rho, sigma) == p
    assert avoids(rho, (3, 2, 1)) and avoids(sigma, (3, 2, 1))


def test_two321_examples():
    assert split_two321_shared((3, 4, 2, 1, 5)) == ((2, 3, 1), (2, 3, 1, 4))
    assert split_two321_distinct((4, 2, 3, 1)) == ((3, 2, 1), (2, 1))
    assert join_two321_distinct((3, 2, 1), (2, 1)) == (4, 2, 3, 1)


def test_two321_shared_redirects_mirror_instances():
    """A pair sharing the top letter belongs to the mirrored class and
    the direct decomposition refuses it."""
    candidates = [
        p
        for p in _class_members(5, (3, 2, 1), 2)
        if _shares_top_not_bottom(p)
    ]
    assert candidates, "expected mirrored instances at n=5"
    for p in candidates:
        with pytest.raises(DomainError):
            split_two321_shared(p)


def _shares_top_not_bottom(p):
    from permpaths.permutations import occurrences

    occs = [o.letters for o in occurrences(p, (3, 2, 1))]
    (c1, b1, a1), (c2, b2, a2) = sorted(occs, key=lambda t: (t[1], t[0], t[2]))
    return b1 == b2 and a1 != a2


@given(p=two_321)
def test_two321_round_trip(p):
    from permpaths.permutations import occurrences

    occs = [o.letters for o in occurrences(p, (3, 2, 1))]
    (c1, b1, a1), (c2, b2, a2) = sorted(occs, key=lambda t: (t[1], t[0], t[2]))
    if b1 != b2:
        rho, sigma = split_two321_distinct(p)
        assert join_two321_distinct(rho, sigma) == p
    elif a1 == a2:
        rho, sigma = split_two321_shared(p)
        assert join_two321_shared(rho, sigma) == p


def _shares_middle_and_last(p):
    (_, b1, a1), (_, b2, a2) = (o.letters for o in occurrences(p, (3, 2, 1)))
    return b1 == b2 and a1 == a2


# sha256 of one repr((p, split(p), join(*split(p)))) line per domain
# element, n <= 8 in lexicographic order. The verify checks compare
# images with their codomain as a set, so another bijection onto the
# same codomain would pass them; these pins would not.
SHARED_CUT_PINS = [
    (1, lambda p: True, split_one321, join_one321, 2211,
     "2fbcc226d58052a10857f6330d6731dfa59dddb4faea724051c027ee3765bc7d"),
    (2, _shares_middle_and_last, split_two321_shared, join_two321_shared, 1171,
     "7a1a40581f404a2429a720af96cd4d9a875d40a1be1f0c777066b289f1ff19cd"),
]


@pytest.mark.parametrize("k, keep, split, join, size, digest", SHARED_CUT_PINS,
                         ids=["one321", "two321-shared"])
def test_shared_cut_values_pinned(k, keep, split, join, size, digest):
    domain = [
        p
        for n in range(1, 9)
        for p in itertools.permutations(range(1, n + 1))
        if count_occurrences(p, (3, 2, 1), cap=k) == k and keep(p)
    ]
    text = "\n".join(repr((p, split(p), join(*split(p)))) for p in domain)
    assert len(domain) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_postconditions_survive_python_O():
    """Pattern postconditions are explicit checks, not asserts that
    ``python -O`` strips: with the counter broken, the join refuses."""
    code = (
        "import permpaths.bijections as b\n"
        "b.count_occurrences = lambda *args, **kwargs: 0\n"
        "try:\n"
        "    b.join_boundary_132((1,))\n"
        "except b.VerificationError:\n"
        "    print('refused')\n"
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert run.stdout.strip() == "refused", run.stderr


# -- every pair at n = 1000 ------------------------------------------------
#
# Inputs are built from the class definitions with a seeded generator;
# small cores are picked by the subset-scan reference, never by the maps
# under test.

LARGE = 1000


def _dyck(rng, n):
    """A Dyck path of semilength n by the cycle lemma: of the rotations
    of a shuffled word with n ups and n+1 downs, the one cut after the
    first lowest point stays nonnegative until its final D."""
    steps = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(steps)
    h = low = cut = 0
    for t, s in enumerate(steps):
        h += 1 if s == "U" else -1
        if h < low:
            low, cut = h, t + 1
    return "".join(steps[cut:] + steps[:cut])[:-1]


def _avoider321(rng, n):
    """A shuffle of two increasing sequences, which avoids 321."""
    slots = set(rng.sample(range(n), n // 2))
    low = sorted(rng.sample(range(1, n + 1), n // 2))
    high = iter(sorted(set(range(1, n + 1)) - set(low)))
    low = iter(low)
    return tuple(next(low) if t in slots else next(high) for t in range(n))


def _avoider132(rng, n):
    """L n R with L above R and both 132-avoiding, which avoids 132."""
    if n == 0:
        return ()
    k = rng.randrange(n)
    left = tuple(v + n - 1 - k for v in _avoider132(rng, k))
    return left + (n,) + _avoider132(rng, n - 1 - k)



def _direct_sum(*parts):
    """Each part above the ones before it; its 321s are those of the parts."""
    out = []
    for part in parts:
        below = len(out)
        out.extend(v + below for v in part)
    return tuple(out)


def _skew_sum(*parts):
    """Each part below the ones before it; its 132s are those of the parts."""
    out = []
    above = sum(map(len, parts))
    for part in parts:
        above -= len(part)
        out.extend(v + above for v in part)
    return tuple(out)


def _core(rng, pattern, accept):
    """A permutation of 3 to 7 letters whose occurrence letter triples
    satisfy ``accept``, by rejection with the subset scan."""
    while True:
        n = rng.randint(3, 7)
        word = tuple(rng.sample(range(1, n + 1), n))
        if accept([o.letters for o in _occurrences_by_subsets(word, pattern)]):
            return word


def _around(rng, core, avoider, join):
    left = rng.randint(0, LARGE - len(core))
    return join(avoider(rng, left), core, avoider(rng, LARGE - len(core) - left))


def _one321(rng):
    return _around(rng, _core(rng, (3, 2, 1), lambda o: len(o) == 1), _avoider321, _direct_sum)


def _two321(rng, accept):
    core = _core(rng, (3, 2, 1), lambda o: len(o) == 2 and accept(*o))
    return _around(rng, core, _avoider321, _direct_sum)


def _boundary132(rng, m):
    """(m-2, m) W (m-1) with W a 132-avoider: the one 132 sits at the
    first, second and last positions."""
    return (m - 2, m) + _avoider132(rng, m - 3) + (m - 1,)


def _returns(path):
    h = count = 0
    for s in path:
        h += 1 if s == "U" else -1
        count += s == "D" and h == 0
    return count


def _transfer_input(rng):
    """A Dyck path whose first i descents have length 1, with more than
    i + 1 descents, by rejection."""
    i = rng.randint(1, 3)
    while True:
        d = _dyck(rng, LARGE)
        descents = [len(run) for run in d.split("U") if run]
        if len(descents) > i + 1 and descents[:i] == [1] * i:
            return d, i


def _rotation_input(rng):
    """A 321-avoider ending in its maximum and a width whose tail rises."""
    p = _avoider321(rng, LARGE - 1) + (LARGE,)
    rise = 1
    while rise < LARGE - 1 and p[-rise - 1] < p[-rise]:
        rise += 1
    return p, rng.randint(1, rise)


def _records(rng):
    p = _avoider321(rng, LARGE)
    assert dyck_to_records(records_to_dyck(p)) == p
    d = _dyck(rng, LARGE)
    assert records_to_dyck(dyck_to_records(d)) == d


def _returns_pair(rng):
    for path in (_dyck(rng, LARGE), _dyck(rng, LARGE)[: LARGE + LARGE // 2]):
        assert insert_returns(delete_returns(path), _returns(path)) == path


def _transfer(rng):
    d, i = _transfer_input(rng)
    assert transfer_upsteps_inverse(transfer_upsteps(d, i), i) == d


def _rotation(rng):
    p, i = _rotation_input(rng)
    assert tail_rotate_inverse(tail_rotate(p, i), i) == p


def _adjacent(rng):
    p = _around(rng, (1, 3, 2), _avoider132, _skew_sum)
    assert join_adjacent_132(*split_adjacent_132(p)) == p


def _boundary(rng):
    p = _boundary132(rng, LARGE)
    assert join_boundary_132(split_boundary_132(p)) == p


def _one132(rng):
    core = _boundary132(rng, rng.randint(3, LARGE // 2))
    p = _around(rng, core, _avoider132, _skew_sum)
    assert join_one132(*split_one132(p)) == p


def _one321_pair(rng):
    p = _one321(rng)
    assert join_one321(*split_one321(p)) == p


def _shared(rng):
    p = _two321(rng, lambda x, y: x[1:] == y[1:])
    assert join_two321_shared(*split_two321_shared(p)) == p


def _distinct(rng):
    p = _two321(rng, lambda x, y: x[1] != y[1])
    assert join_two321_distinct(*split_two321_distinct(p)) == p


@pytest.mark.parametrize(
    "round_trip",
    [_records, _returns_pair, _transfer, _rotation, _adjacent, _boundary, _one132,
     _one321_pair, _shared, _distinct],
    ids=lambda f: f.__name__.strip("_"),
)
@pytest.mark.parametrize("seed", [1, 2])
def test_round_trip_at_n_1000(round_trip, seed):
    round_trip(random.Random(seed))
