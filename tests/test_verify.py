"""Tests for the enumeration helpers behind the verification suites, and
mutants showing that each bijection check can fail."""

import itertools

import pytest

from permpaths import bijections, verify
from permpaths.errors import VerificationError
from permpaths.oracle import PatternCount
from permpaths.permutations import count_occurrences
from permpaths.verify import _perms


@pytest.mark.parametrize("pattern", [(1, 3, 2), (3, 2, 1), (1, 2, 3), (2, 1)])
def test_perms_equals_count_occurrences_grouping(pattern):
    for n in range(8):
        kmax = 2
        want = [[] for _ in range(kmax + 1)]
        for p in itertools.permutations(range(1, n + 1)):
            c = count_occurrences(p, pattern)
            if c <= kmax:
                want[c].append(p)
        for k in range(kmax + 1):
            assert _perms(n, PatternCount(pattern, k)) == tuple(want[k]), (n, k)


# -- bijection mutants --------------------------------------------------------

# Each bijection the bijections suite checks: the check, then the names of
# the forward map and its inverse in permpaths.bijections.
BIJECTION_PAIRS = {
    "records": (verify._check_records_bijection, "records_to_dyck", "dyck_to_records"),
    "returns": (verify._check_returns_bijection, "delete_returns", "insert_returns"),
    "transfer": (verify._check_transfer_bijection, "transfer_upsteps", "transfer_upsteps_inverse"),
    "rotation": (verify._check_rotate_bijection, "tail_rotate", "tail_rotate_inverse"),
    "adjacent-132": (verify._check_adjacent_132, "split_adjacent_132", "join_adjacent_132"),
    "boundary-132": (verify._check_boundary_132, "split_boundary_132", "join_boundary_132"),
    "one-132": (verify._check_one132_decomposition, "split_one132", "join_one132"),
    "one-321": (verify._check_one321_decomposition, "split_one321", "join_one321"),
    "two-321-shared": (verify._check_two321_decompositions, "split_two321_shared", "join_two321_shared"),
    "two-321-distinct": (verify._check_two321_decompositions, "split_two321_distinct", "join_two321_distinct"),
}

# Mutants that no check catches; none at present.
SURVIVING_MUTANTS = set()


def _swap(w):
    """w with its last two letters or steps exchanged."""
    return w[:-2] + w[:-3:-1]


def _swap_output(y):
    """``_swap`` on a map's output, or on rho when the output is a pair."""
    if isinstance(y, tuple) and y and isinstance(y[0], tuple):
        return (_swap(y[0]),) + y[1:]
    return _swap(y)


class _Mutated:
    """permpaths.bijections with some maps replaced; the module itself is
    untouched, so the maps that call each other inside it stay intact."""

    def __init__(self, **maps):
        self.__dict__.update(maps)

    def __getattr__(self, name):
        return getattr(bijections, name)


def _mutant(kind, forward, inverse):
    """The replaced maps: the forward map followed by the swap, and for
    the conjugated mutant the inverse preceded by it, which keeps every
    round trip intact."""
    f, g = getattr(bijections, forward), getattr(bijections, inverse)
    maps = {forward: lambda *args: _swap_output(f(*args))}
    if kind == "conjugated":
        maps[inverse] = lambda first, *rest: g(_swap(first), *rest)
    return _Mutated(**maps)


@pytest.mark.parametrize("kind", ["forward-only", "conjugated"])
@pytest.mark.parametrize("pair", sorted(BIJECTION_PAIRS))
def test_bijection_mutant_fails_its_check(pair, kind, monkeypatch):
    """A forward map that is not the inverse's mate must fail the check;
    a conjugated one passes every round trip, so it must fail the image
    comparison."""
    check, forward, inverse = BIJECTION_PAIRS[pair]
    monkeypatch.setattr(verify, "bij", _mutant(kind, forward, inverse))
    if (pair, kind) in SURVIVING_MUTANTS:
        check(6)
    else:
        with pytest.raises(VerificationError if kind == "conjugated" else Exception):
            check(6)

