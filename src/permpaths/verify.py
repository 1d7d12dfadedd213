"""Named verification suites: every closed form against the oracle.

Each check cross-validates one claim the package makes: a counting
formula against exhaustive enumeration, a bijection against a full
round-trip and image sweep, or an algebraic identity over a numeric
grid.  Checks are grouped into suites ("formulas", "bijections",
"identities", "series"); "all" runs every suite.  The command-line
``verify`` subcommand and the acceptance tests both drive this module.

A bijection check is a domain, a forward map, its inverse and a
codomain, run through one helper, ``_matched_pair``: every element
round-trips and the images are exactly the codomain.  Every class the
oracle has a condition for comes from the oracle: permutation classes
from one cached scan query (``_perms``), Dyck classes from
``oracle.in_dyck_class`` on the cached statistics of each path, and
height bands from ``enumerate_paths``.  Only the shapes the oracle has
no condition for are spelled here: where a lone 132 sits
(``_adjacent``, ``_boundary``), how two 321s meet (``_two321_kind``)
and the upstep transfer's headroom.

``nmax`` scales the work: enumeration sweeps run up to
``min(nmax, cap)`` where the cap keeps state spaces finite, and pure
arithmetic grids run up to ``max(nmax, default)`` so their standard
ranges are always covered.  A failed check reports its first
counterexample.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable, Iterable

from . import bijections as bij
from . import formulas, oracle, series
from . import paths as pathmod
from .errors import InvalidInputError, ResourceLimitError, VerificationError
from .oracle import (
    FirstEq,
    FirstGe,
    LastLe,
    LastRunIncreasing,
    MaxPosLe,
    OnePosGe,
    PatternCount,
    PermCondition,
    count_perms,
    enumerate_dyck,
    enumerate_paths,
    in_dyck_class,
    stream_perms,
)
from .paths import ballot, ballot_quotient_form, binomial, catalan, path_stats
from .permutations import complement, occurrences, reverse

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "format_results"]

SUITE_NAMES = ("formulas", "bijections", "identities", "series")

# The arithmetic grids run up to max(nmax, default) and the triangle
# checks grow as nmax**3: about 1.4 s at this cap, minutes past 1000.
MAX_NMAX = 100


@dataclasses.dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _fail(message: str) -> None:
    raise VerificationError(message)


def _eq(actual, expected, context: str) -> None:
    if actual != expected:
        _fail(f"{context}: got {actual}, expected {expected}")


# ---------------------------------------------------------------------------
# enumeration helpers (cached; these back several checks)


_AVOID_321 = PatternCount((3, 2, 1), 0)
_AVOID_132 = PatternCount((1, 3, 2), 0)


@functools.lru_cache(maxsize=None)
def _perms(n: int, *conditions: PermCondition) -> tuple[tuple[int, ...], ...]:
    """The permutations of [n] passing every oracle condition, in
    lexicographic order, from the oracle's scan."""
    return tuple(stream_perms(n, conditions))


@functools.lru_cache(maxsize=None)
def _dyck_list(n: int) -> tuple[str, ...]:
    return tuple(enumerate_dyck(n))


@functools.lru_cache(maxsize=None)
def _dyck_stats(n: int) -> tuple[pathmod.PathStats, ...]:
    """``path_stats`` of each path of ``_dyck_list(n)``, in the same order."""
    return tuple(map(path_stats, _dyck_list(n)))


def _matched_pair(
    what: str, domain: Iterable, forward: Callable, inverse: Callable, codomain: Iterable
) -> list:
    """Check that ``inverse`` undoes ``forward`` on every element of
    ``domain`` and that the images are exactly ``codomain`` (no repeats,
    any order), which makes ``forward`` a bijection onto it.  Returns
    the images in domain order."""
    images = []
    for x in domain:
        y = forward(x)
        _eq(inverse(y), x, f"{what} round-trip at {x!r}")
        images.append(y)
    _eq(sorted(images), sorted(codomain), f"{what} image")
    return images


# ---------------------------------------------------------------------------
# formulas suite


def _check_family_vs_oracle(family: str, nmax: int) -> str:
    top = min(nmax, 10)
    for n in range(1, top + 1):
        _eq(formulas.count(family, n), oracle.oracle_count(family, n), f"{family} at n={n}")
    return f"formula = oracle for 1 <= n <= {top}"


def _check_recombination(nmax: int) -> str:
    top = max(nmax, 20)
    for n in range(1, top + 1):
        lhs = formulas.count("p321-2", n)
        rhs = 2 * ballot(8, n - 4) + (ballot(8, n - 4) + ballot(11, n - 6))
        _eq(lhs, rhs, f"two-321 recombination at n={n}")
    return f"split form matches for n <= {top}"


def _check_totals_sanity(nmax: int) -> str:
    top = min(nmax, 10)
    for n in range(1, top + 1):
        parts = [catalan(n)] + [formulas.count(f"p321-{k}", n) for k in range(1, 5)]
        if any(v < 0 for v in parts):
            _fail(f"negative count at n={n}: {parts}")
        if sum(parts) > math.factorial(n):
            _fail(f"occurrence counts exceed n! at n={n}")
    return f"0 <= sum over k <= 4 of counts <= n! for n <= {top}"


def _check_binomial_reassembly(nmax: int) -> str:
    top = max(nmax, 15)
    for n in range(3, top + 1):
        lhs = sum(
            binomial(2 * n - 2 * k - 4, n - k - 3) * catalan(k) for k in range(n - 2)
        )
        _eq(lhs, binomial(2 * n - 3, n - 3), f"reassembly at n={n}")
    return f"binomial-Catalan sum collapses for n <= {top}"


def _check_first_letter_six(nmax: int) -> str:
    top = min(nmax, 9)
    for n in range(3, top + 1):
        scan = count_perms(n + 3, (_AVOID_321, FirstEq(6)), allow_large=True)
        _eq(formulas.count("p321-1", n), scan, f"first-letter-6 avoiders at n={n}")
    return f"one-321 count = avoiders of [n+3] starting 6, for n <= {top}"


def _avoider_class_pairs(n: int):
    """Each ``formulas`` constraint at size n, with the oracle conditions
    that define it."""
    yield from ((formulas.FirstEntryEq(k), (FirstEq(k),)) for k in range(1, n + 1))
    yield from ((formulas.FirstEntryGe(k), (FirstGe(k),)) for k in range(0, n + 1))
    for m in range(1, n + 1):
        yield formulas.OneNotBeforePos(m), (OnePosGe(m),)
        yield formulas.MaxNotAfterPosFromEnd(m), (MaxPosLe(n + 1 - m),)
    yield from ((formulas.LastEntryLe(v), (LastLe(v),)) for v in range(1, n + 1))
    yield from ((formulas.LastIIncreasing(i), (LastRunIncreasing(i),)) for i in range(1, n + 1))
    yield formulas.FirstGe2AndLastLeNminus1(), (FirstGe(2), LastLe(n - 1))


def _check_avoider_classes(nmax: int) -> str:
    top = min(nmax, 8)
    checked = 0
    for n in range(1, top + 1):
        for constraint, conditions in _avoider_class_pairs(n):
            _eq(
                formulas.count_avoider_class(n, constraint),
                count_perms(n, (_AVOID_321, *conditions)),
                f"{constraint} at n={n}",
            )
            checked += 1
    return f"{checked} constrained-class counts match scans for n <= {top}"


# ---------------------------------------------------------------------------
# bijections suite


def _check_records_bijection(nmax: int) -> str:
    top = min(nmax, 9)
    for n in range(1, top + 1):
        av = _perms(n, _AVOID_321)
        images = _matched_pair(f"records n={n}", av, bij.records_to_dyck, bij.dyck_to_records,
                               _dyck_list(n))
        for p, d in zip(av, images):
            st = path_stats(d)
            _eq(st.first_ascent, p[0], f"first ascent vs first letter at {p}")
            _eq(st.last_descent, n - p.index(n), f"last descent vs position of max at {p}")
    return f"avoiders <-> Dyck paths with matched statistics, n <= {top}"


def _check_returns_bijection(nmax: int) -> str:
    cap = min(nmax, 10)
    by_len: dict[int, list[str]] = {0: [""]}
    for length in range(1, cap + 1):
        by_len[length] = [
            q
            for u in range(length // 2, length + 1)
            for q in enumerate_paths(u, length - u, lo=0)
        ]
    # forward: every nonempty first-quadrant path starting U; backward:
    # every (path, level) pair whose insertion stays within the cap
    domain = [r for length in range(1, cap + 1) for r in by_len[length] if r.startswith("U")]
    codomain = [
        (q, j)
        for length in range(0, cap)
        for q in by_len[length]
        for j in range(min(q.count("U") - q.count("D") + 2, cap - length))
    ]
    _matched_pair("returns", domain, lambda r: (bij.delete_returns(r), path_stats(r).returns),
                  lambda qj: bij.insert_returns(*qj), codomain)
    return f"deletion <-> insertion over all paths with <= {cap} steps"


def _check_transfer_bijection(nmax: int) -> str:
    top = min(nmax, 10)
    imax = 3
    for n in range(1, top + 1):
        paths = list(zip(_dyck_list(n), _dyck_stats(n)))
        for i in range(1, imax + 1):
            # i early downsteps of length 1, less the shape with no headroom
            domain = [
                d
                for d, st in paths
                if in_dyck_class(st, pathmod.FirstAscentNonfinalDescentsOne(1, i))
                and not (len(st.descents) == i + 1 and st.ascents[-1] == 1)
            ]
            codomain = [
                d
                for d, st in paths
                if in_dyck_class(st, pathmod.FirstAscentGe(i + 1))
                and st.downs - st.last_descent >= i
            ]
            _matched_pair(f"transfer n={n} i={i}", domain, lambda d: bij.transfer_upsteps(d, i),
                          lambda e: bij.transfer_upsteps_inverse(e, i), codomain)
    return f"upstep transfer is a matched pair for semilength <= {top}, i <= {imax}"


def _check_rotate_bijection(nmax: int) -> str:
    top = min(nmax, 8)
    for n in range(2, top + 1):
        for i in range(1, n):
            _matched_pair(f"rotation n={n} i={i}", _perms(n, _AVOID_321, LastRunIncreasing(i)),
                          lambda p: bij.tail_rotate(p, i), lambda q: bij.tail_rotate_inverse(q, i),
                          _perms(n, _AVOID_321, MaxPosLe(n - i + 1)))
    return f"tail rotation matches increasing-tail and max-position classes, n <= {top}"


def _adjacent(occ, m: int) -> bool:
    """The 132 a c b sits in consecutive positions, with b = a + 1."""
    (i1, i2, i3), (a, _, b) = occ.positions, occ.letters
    return i2 == i1 + 1 and i3 == i2 + 1 and b == a + 1


def _boundary(occ, m: int) -> bool:
    """The 132 is (m-2, m, m-1) at the first two positions and the last."""
    return occ.positions == (0, 1, m - 1) and occ.letters == (m - 2, m, m - 1)


def _one132_class(m: int, keep: Callable) -> list[tuple[int, ...]]:
    """The permutations of [m] with exactly one 132, an occurrence that
    ``keep(occurrence, m)`` accepts."""
    one = _perms(m, PatternCount((1, 3, 2), 1))
    return [p for p in one if keep(next(occurrences(p, (1, 3, 2))), m)]


def _check_adjacent_132(nmax: int) -> str:
    top = min(nmax, 8)
    for n in range(3, top + 1):
        _matched_pair(f"adjacent n={n}", _one132_class(n, _adjacent), bij.split_adjacent_132,
                      lambda rk: bij.join_adjacent_132(*rk),
                      itertools.product(_perms(n - 2, _AVOID_132), range(1, n - 1)))
    return f"adjacent-132 class <-> (avoider, position) pairs, n <= {top}"


def _check_boundary_132(nmax: int) -> str:
    top = min(nmax, 8)
    for n in range(3, top + 1):
        _matched_pair(f"boundary n={n}", _one132_class(n, _boundary), bij.split_boundary_132,
                      bij.join_boundary_132, _perms(n - 3, _AVOID_132))
    return f"boundary-132 class <-> avoiders three sizes down, n <= {top}"


def _check_one132_decomposition(nmax: int) -> str:
    top = min(nmax, 8)
    for n in range(3, top + 1):
        codomain = [
            pair
            for m in range(3, n + 1)
            for pair in itertools.product(_one132_class(m, _adjacent),
                                          _one132_class(n + 3 - m, _boundary))
        ]
        _matched_pair(f"one-132 n={n}", _perms(n, PatternCount((1, 3, 2), 1)), bij.split_one132,
                      lambda rs: bij.join_one132(*rs), codomain)
    return f"one-132 permutations <-> (adjacent, boundary) pairs, n <= {top}"


def _shared_codomain(n: int, j: int) -> list:
    """The (rho, sigma) pairs of the shared-middle cut of [n] with j
    tops: rho ends at most b - 1 and sigma places 1 after position j,
    for each middle letter b = 2..n-1."""
    return [
        pair
        for b in range(2, n)
        for pair in itertools.product(_perms(b + j - 1, _AVOID_321, LastLe(b - 1)),
                                      _perms(n - b + 1, _AVOID_321, OnePosGe(j + 1)))
    ]


def _check_one321_decomposition(nmax: int) -> str:
    top = min(nmax, 8)
    for n in range(3, top + 1):
        _matched_pair(f"one-321 n={n}", _perms(n, PatternCount((3, 2, 1), 1)), bij.split_one321,
                      lambda rs: bij.join_one321(*rs), _shared_codomain(n, 1))
    return f"one-321 permutations <-> avoider pairs, n <= {top}"


def _reverse_complement(p: tuple[int, ...]) -> tuple[int, ...]:
    return reverse(complement(p))


def _two321_kind(p: tuple[int, ...]) -> str:
    occs = list(occurrences(p, (3, 2, 1)))
    (c1, b1, a1), (c2, b2, a2) = sorted(
        (o.letters for o in occs), key=lambda t: (t[1], t[0], t[2])
    )
    if b1 != b2:
        return "distinct"
    return "shared-bottom" if a1 == a2 else "shared-top"


def _check_two321_decompositions(nmax: int) -> str:
    top = min(nmax, 8)
    for n in range(4, top + 1):
        kinds: dict[str, list] = {"shared-bottom": [], "shared-top": [], "distinct": []}
        for p in _perms(n, PatternCount((3, 2, 1), 2)):
            kinds[_two321_kind(p)].append(p)
        shared, mirrored, distinct = kinds.values()
        # shared bottom letter: direct decomposition
        _matched_pair(f"shared n={n}", shared, bij.split_two321_shared,
                      lambda rs: bij.join_two321_shared(*rs), _shared_codomain(n, 2))
        # shared top letter: reverse-complement carries it onto the first kind
        _matched_pair(f"mirrored n={n}", mirrored, _reverse_complement, _reverse_complement, shared)
        # distinct middle letters
        codomain = [
            pair
            for k in range(0, n - 3)
            for pair in itertools.product(
                _perms(n - k - 1, PatternCount((3, 2, 1), 1)),
                _perms(k + 2, _AVOID_321, FirstGe(2), LastLe(k + 1)),
            )
        ]
        _matched_pair(f"distinct n={n}", distinct, bij.split_two321_distinct,
                      lambda rs: bij.join_two321_distinct(*rs), codomain)
        total = len(shared) + len(mirrored) + len(distinct)
        _eq(total, formulas.count("p321-2", n), f"two-321 class partition at n={n}")
    return f"both two-321 decompositions cover their classes, n <= {top}"


# ---------------------------------------------------------------------------
# identities suite


def _check_ballot_dual_forms(nmax: int) -> str:
    ntop, ktop = max(nmax, 50), 25
    for k in range(1, ktop + 1):
        for n in range(0, ntop + 1):
            lhs = ballot(k, n)
            _eq(
                lhs,
                binomial(2 * n + k - 1, n) - binomial(2 * n + k - 1, n - 1),
                f"difference form at k={k}, n={n}",
            )
            _eq(lhs, ballot_quotient_form(k, n), f"quotient form at k={k}, n={n}")
    for n in range(0, ntop + 1):
        _eq(catalan(n), ballot(1, n), f"catalan as first column at n={n}")
        if n >= 1:
            _eq(catalan(n), ballot(2, n - 1), f"catalan as second column at n={n}")
    return f"both closed forms agree for n <= {ntop}, k <= {ktop}"


def _check_convolution(nmax: int) -> str:
    ntop = max(nmax, 20)
    for r in range(1, 12):
        for s in range(1, 13 - r):
            for n in range(0, ntop + 1):
                lhs = sum(ballot(r, k) * ballot(s, n - k) for k in range(n + 1))
                _eq(lhs, ballot(r + s, n), f"convolution at r={r}, s={s}, n={n}")
    return f"power convolution for r+s <= 12, n <= {ntop}"


def _check_alternating_sum(nmax: int) -> str:
    ktop = max(nmax, 25)
    for k in range(1, ktop + 1):
        for m in range(0, k):
            lhs = sum(ballot(k - 2 * j, j) for j in range(min(m, k - m - 1) + 1))
            _eq(lhs, binomial(k - 1, m), f"diagonal sum at k={k}, m={m}")
    return f"diagonal sums give binomials for k <= {ktop}"


def _check_contiguous_recurrences(nmax: int) -> str:
    ntop, ktop = max(nmax, 20), 25
    for k in range(1, ktop + 1):
        for n in range(0, ntop + 1):
            _eq(
                ballot(k, n) - ballot(k - 1, n),
                ballot(k + 1, n - 1),
                f"column difference at k={k}, n={n}",
            )
            if k >= 2:
                _eq(
                    ballot(k, n) - ballot(k, n - 1),
                    ballot(k - 2, n) + ballot(k + 1, n - 1),
                    f"row difference at k={k}, n={n}",
                )
            _eq(
                sum(ballot(k + j, n - j) for j in range(n + 1)),
                ballot(k + 1, n),
                f"diagonal accumulation at k={k}, n={n}",
            )
    return f"three contiguous recurrences for n <= {ntop}, k <= {ktop}"


def _check_catalan_binomial_sum(nmax: int) -> str:
    mtop = max(nmax, 15)
    for m in range(1, mtop + 1):
        lhs = sum(
            binomial(2 * m - 2 * k, m - 1 - k) * catalan(k) for k in range(m)
        )
        _eq(lhs, binomial(2 * m + 1, m - 1), f"catalan-binomial sum at m={m}")
    return f"catalan-binomial sum for m <= {mtop}"


def _check_lastascents_forms(nmax: int) -> str:
    ntop = max(nmax, 12)
    for n in range(0, ntop + 1):
        for r in range(1, 6):
            for s in range(1, 6):
                _eq(
                    pathmod.count_lastascents_F(n, r, s),
                    pathmod.count_lastascents_G(n, r, s),
                    f"two closed forms at n={n}, r={r}, s={s}",
                )
    return f"both last-ascents forms agree for n <= {ntop}, r, s <= 5"


def _check_dyck_class_counts(nmax: int) -> str:
    top = min(nmax, 8)
    pmax = 4
    constraints: list[pathmod.DyckClassConstraint] = []
    for k in range(1, pmax + 1):
        constraints.append(pathmod.FirstAscentEq(k))
    for k in range(0, pmax + 1):
        constraints.append(pathmod.FirstAscentGe(k))
    for r in range(1, pmax + 1):
        for s in range(1, pmax + 1):
            constraints.append(pathmod.FirstAscentLastDescent(r, s, True))
            constraints.append(pathmod.FirstAscentLastDescent(r, s, False))
            constraints.append(pathmod.FirstAscentNonfinalDescentsOne(r, s))
            constraints.append(pathmod.FirstAscentLastAscentsOne(r, s))
    for n in range(0, top + 1):
        for c in constraints:
            _eq(
                pathmod.count_dyck_class(n, c),
                sum(in_dyck_class(st, c) for st in _dyck_stats(n)),
                f"class count at n={n}, {c}",
            )
    return f"{len(constraints)} constrained classes match enumeration for n <= {top}"


# ---------------------------------------------------------------------------
# series suite


def _check_bounded_height(nmax: int) -> str:
    top = min(nmax, 12)
    hmax = 6
    for n in range(0, top + 1):
        for h in range(0, hmax + 1):
            _eq(
                series.bounded_height_count(n, h),
                sum(1 for _ in enumerate_paths(n, n, lo=0, hi=h)),
                f"bounded height at n={n}, h={h}",
            )
    return f"height-bounded counts match enumeration for n <= {top}, h <= {hmax}"


def _check_corridor(nmax: int) -> str:
    top = min(nmax, 8)
    hmax, rsmax = 4, 3
    for n in range(0, top + 1):
        for h in range(1, hmax + 1):
            for r in range(0, rsmax + 1):
                for s in range(0, rsmax + 1):
                    _eq(
                        series.corridor_count(n, h, r, s),
                        sum(1 for _ in enumerate_paths(n + h - 1, n, lo=-r, hi=s + h - 1)),
                        f"corridor at n={n}, h={h}, r={r}, s={s}",
                    )
    return f"corridor counts match enumeration for n <= {top}, h <= {hmax}, r, s <= {rsmax}"


def _check_triangle_inverse(nmax: int) -> str:
    size = max(nmax, 10)
    t = series.catalan_triangle(size)
    inv = series.catalan_triangle_inverse(size)
    for i in range(size + 1):
        for j in range(size + 1):
            dot = sum(t[i][k] * inv[k][j] for k in range(size + 1))
            _eq(dot, int(i == j), f"product entry ({i}, {j})")
    return f"triangle times closed-form inverse is the identity, size {size + 1}"


def _check_inverse_rows_vs_q(nmax: int) -> str:
    size = max(nmax, 10)
    inv = series.catalan_triangle_inverse(size)
    for n in range(size + 1):
        q = series.chebyshev_q(n)
        for j, coeff in enumerate(q):
            _eq(inv[n][n - j], coeff, f"row {n}, power {j}")
        for k in range(n - len(q) + 1):
            _eq(inv[n][k], 0, f"row {n}, column {k} should vanish")
    return f"inverse rows hold the q coefficients for n <= {size}"


def _check_q_factorization(nmax: int) -> str:
    htop = max(nmax, 8)
    for h in range(1, htop + 1):
        _eq(
            series.chebyshev_q(2 * h - 1),
            series.poly_mul(series.chebyshev_p(h), series.chebyshev_q(h - 1)),
            f"factorization at h={h}",
        )
    return f"q(2h-1) = p(h) q(h-1) for h <= {htop}"


def _check_marked_uniformity(nmax: int) -> str:
    cap = min(nmax, 10)
    pairs = 0
    for total in range(1, cap + 1):
        for k in range(1, total + 1):
            n = total - k
            hist = oracle.marked_highpoint_histogram(n, k)
            if len(set(hist)) != 1:
                _fail(f"nonuniform histogram at n={n}, k={k}: {hist}")
            pairs += 1
    return f"{pairs} mark histograms uniform for n + k <= {cap}"


# ---------------------------------------------------------------------------
# suite registry and runner

_CHECKS: dict[str, list[tuple[str, Callable[[int], str]]]] = {
    "formulas": [
        *[
            (f"family-{family}", functools.partial(_check_family_vs_oracle, family))
            for family in formulas.FORMULAS
        ],
        ("two321-recombination", _check_recombination),
        ("occurrence-totals-sanity", _check_totals_sanity),
        ("binomial-reassembly", _check_binomial_reassembly),
        ("first-letter-six", _check_first_letter_six),
        ("avoider-classes", _check_avoider_classes),
    ],
    "bijections": [
        ("records-to-dyck", _check_records_bijection),
        ("return-deletion", _check_returns_bijection),
        ("upstep-transfer", _check_transfer_bijection),
        ("tail-rotation", _check_rotate_bijection),
        ("adjacent-132", _check_adjacent_132),
        ("boundary-132", _check_boundary_132),
        ("one-132-decomposition", _check_one132_decomposition),
        ("one-321-decomposition", _check_one321_decomposition),
        ("two-321-decompositions", _check_two321_decompositions),
    ],
    "identities": [
        ("ballot-dual-forms", _check_ballot_dual_forms),
        ("ballot-convolution", _check_convolution),
        ("ballot-diagonal-sums", _check_alternating_sum),
        ("ballot-recurrences", _check_contiguous_recurrences),
        ("catalan-binomial-sum", _check_catalan_binomial_sum),
        ("lastascents-two-forms", _check_lastascents_forms),
        ("dyck-class-counts", _check_dyck_class_counts),
    ],
    "series": [
        ("bounded-height", _check_bounded_height),
        ("corridor-counts", _check_corridor),
        ("triangle-inverse", _check_triangle_inverse),
        ("inverse-rows-coefficients", _check_inverse_rows_vs_q),
        ("chebyshev-factorization", _check_q_factorization),
        ("marked-uniformity", _check_marked_uniformity),
    ],
}


def run_suite(suite: str, nmax: int) -> list[CheckResult]:
    """Run one named suite (or "all") up to size nmax; never raises on a
    failed check, only on an unknown suite, an invalid nmax, or nmax
    over ``MAX_NMAX``."""
    if suite != "all" and suite not in _CHECKS:
        raise InvalidInputError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    if isinstance(nmax, bool):
        raise InvalidInputError(f"nmax must be an integer, not {nmax!r}")
    if nmax < 1:
        raise InvalidInputError("nmax must be >= 1")
    if nmax > MAX_NMAX:
        raise ResourceLimitError(f"nmax {nmax} over cap {MAX_NMAX}")
    names = SUITE_NAMES if suite == "all" else (suite,)
    results = []
    for group in names:
        for name, check in _CHECKS[group]:
            try:
                detail = check(nmax)
                results.append(CheckResult(group, name, True, detail))
            except VerificationError as e:
                results.append(CheckResult(group, name, False, str(e)))
            except Exception as e:  # pragma: no cover - defensive
                results.append(CheckResult(group, name, False, f"{type(e).__name__}: {e}"))
    return results


def format_results(results: Iterable[CheckResult]) -> str:
    lines = []
    passed = failed = 0
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.suite}/{r.name}: {r.detail}")
        if r.passed:
            passed += 1
        else:
            failed += 1
    lines.append(f"{passed} passed, {failed} failed")
    return "\n".join(lines)
