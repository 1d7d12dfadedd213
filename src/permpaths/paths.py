"""Lattice paths of up/down steps and the ballot numbers that count them.

A path is a string over ``U`` (step (1,1)) and ``D`` (step (1,-1))
starting at the origin.  A *first-quadrant* path never goes below the
x-axis; a *Dyck n-path* is a balanced first-quadrant path with n ups
and n downs.  Ascents and descents are the lengths of maximal runs of
equal steps, in order; a *return* is a downstep landing on the x-axis,
*interior* if it is not the last step.

``ballot(k, n)`` counts first-quadrant paths with n+k-1 ups and n downs
(k >= 1); equivalently it is the coefficient of x^n in C(x)^k where
C(x) is the Catalan number generating function.  The closed-form class
counters at the bottom of this module all reduce to ballot numbers.
"""

import dataclasses
import itertools
import math
from typing import Sequence

from .errors import InvalidInputError, UnsupportedClassError, VerificationError

# ---------------------------------------------------------------------------
# path words


def check_path(path: str) -> str:
    if not isinstance(path, str) or any(c not in "UD" for c in path):
        raise InvalidInputError(f"path must be a string of U and D steps: {path!r}")
    return path


def heights(path: str) -> tuple[int, ...]:
    """Running height after each step.

    >>> heights("UUDUDD")
    (1, 2, 1, 2, 1, 0)
    """
    out = []
    h = 0
    for c in check_path(path):
        h += 1 if c == "U" else -1
        out.append(h)
    return tuple(out)


def is_first_quadrant(path: str) -> bool:
    return all(h >= 0 for h in heights(path))


def is_dyck(path: str) -> bool:
    """Balanced and never below the x-axis.

    >>> is_dyck("UUDUDD"), is_dyck("UDDU"), is_dyck("")
    (True, False, True)
    """
    h = 0
    for c in check_path(path):
        h += 1 if c == "U" else -1
        if h < 0:
            return False
    return h == 0


def runs(path: str) -> tuple[tuple[str, int], ...]:
    """Maximal runs as (step, length) pairs, in order."""
    return tuple((c, len(list(g))) for c, g in itertools.groupby(check_path(path)))


@dataclasses.dataclass(frozen=True)
class PathStats:
    ups: int
    downs: int
    height: int
    returns: int  # downsteps landing on the x-axis
    interior_returns: int  # returns before the final step
    ascents: tuple[int, ...]  # U-run lengths in order
    descents: tuple[int, ...]  # D-run lengths in order
    first_ascent: int  # 0 if the path is empty or starts with D
    last_descent: int  # 0 if the path is empty or ends with U


def path_stats(path: str) -> PathStats:
    """
    >>> s = path_stats("UUUDDUDUDD")
    >>> s.ascents, s.descents, s.height, s.returns, s.interior_returns
    ((3, 1, 1), (2, 1, 2), 3, 1, 0)
    """
    path = check_path(path)
    hs = heights(path)
    ups = path.count("U")
    downs = len(path) - ups
    rs = [i for i, (c, h) in enumerate(zip(path, hs)) if c == "D" and h == 0]
    rr = runs(path)
    ascents = tuple(length for c, length in rr if c == "U")
    descents = tuple(length for c, length in rr if c == "D")
    return PathStats(
        ups=ups,
        downs=downs,
        height=max(hs, default=0),
        returns=len(rs),
        interior_returns=sum(1 for i in rs if i < len(path) - 1),
        ascents=ascents,
        descents=descents,
        first_ascent=ascents[0] if path.startswith("U") else 0,
        last_descent=descents[-1] if path.endswith("D") else 0,
    )


def valid_dyck_runs(ascents: Sequence[int], descents: Sequence[int]) -> bool:
    """Whether the two sequences are the ascents and descents of some
    Dyck path: positive entries, same length, same sum, and every
    partial sum of ascents weakly exceeds the matching partial sum of
    descents.

    >>> valid_dyck_runs((2, 2, 3), (2, 1, 4))
    True
    >>> valid_dyck_runs((1, 3), (2, 2))
    False
    """
    if len(ascents) != len(descents):
        return False
    if any(a < 1 for a in ascents) or any(d < 1 for d in descents):
        return False
    sa = sd = 0
    for a, d in zip(ascents, descents):
        sa += a
        sd += d
        if sa < sd:
            return False
    return sa == sd


def dyck_path_from_runs(ascents: Sequence[int], descents: Sequence[int]) -> str:
    """Assemble U^a1 D^d1 U^a2 D^d2 ... after validating the pair."""
    if not valid_dyck_runs(ascents, descents):
        raise InvalidInputError(
            f"not a valid ascent/descent pair: {tuple(ascents)} / {tuple(descents)}"
        )
    return "".join("U" * a + "D" * d for a, d in zip(ascents, descents))


def parse_path(text: str) -> str:
    return check_path(text.strip().upper())


# ---------------------------------------------------------------------------
# ballot numbers


def binomial(a: int, b: int) -> int:
    """Binomial coefficient, zero outside 0 <= b <= a."""
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def ballot(k: int, n: int) -> int:
    """Number of first-quadrant paths with n+k-1 ups and n downs (k >= 1),
    i.e. the coefficient of x^n in C(x)^k.  Total in n: zero for n < 0,
    and ballot(0, n) is 1 exactly when n = 0.

    >>> [ballot(1, n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    >>> ballot(6, 2)
    27
    """
    if k < 0:
        raise InvalidInputError(f"ballot number needs k >= 0, got {k}")
    if n < 0:
        return 0
    if k == 0:
        return 1 if n == 0 else 0
    return binomial(2 * n + k - 1, n) - binomial(2 * n + k - 1, n - 1)


def ballot_quotient_form(k: int, n: int) -> int:
    """Same value as ``ballot`` via k/(2n+k) * binomial(2n+k, n), computed
    with exact integer division (the division is checked to be exact).
    """
    if k < 0:
        raise InvalidInputError(f"ballot number needs k >= 0, got {k}")
    if n < 0:
        return 0
    if k == 0:
        return 1 if n == 0 else 0
    q, r = divmod(k * math.comb(2 * n + k, n), 2 * n + k)
    if r:
        raise VerificationError(f"k*binom(2n+k, n) not divisible by 2n+k at k={k}, n={n}")
    return q


def catalan(n: int) -> int:
    """Catalan number; counts Dyck n-paths.  Zero for n < 0."""
    return ballot(1, n)


# ---------------------------------------------------------------------------
# closed-form counts of constrained Dyck path classes


@dataclasses.dataclass(frozen=True)
class FirstAscentEq:
    k: int  # first ascent exactly k, k >= 1


@dataclasses.dataclass(frozen=True)
class FirstAscentGe:
    k: int  # first ascent at least k, k >= 0


@dataclasses.dataclass(frozen=True)
class FirstAscentLastDescent:
    r: int  # first ascent >= r
    s: int  # last descent >= s
    require_interior_return: bool = False


@dataclasses.dataclass(frozen=True)
class FirstAscentNonfinalDescentsOne:
    r: int  # first ascent >= r, r >= 1
    s: int  # first s nonfinal descents all = 1


@dataclasses.dataclass(frozen=True)
class FirstAscentLastAscentsOne:
    r: int  # first ascent >= r, r >= 1
    s: int  # last s-1 noninitial ascents all = 1, s >= 1


DyckClassConstraint = (
    FirstAscentEq
    | FirstAscentGe
    | FirstAscentLastDescent
    | FirstAscentNonfinalDescentsOne
    | FirstAscentLastAscentsOne
)


def count_dyck_class(n: int, constraint: DyckClassConstraint) -> int:
    """Closed-form count of Dyck n-paths satisfying ``constraint``.

    >>> count_dyck_class(4, FirstAscentGe(1))
    14
    >>> count_dyck_class(3, FirstAscentLastDescent(1, 1, require_interior_return=True))
    3
    >>> count_dyck_class(3, FirstAscentLastDescent(1, 1))
    5
    """
    if n < 0:
        return 0
    match constraint:
        case FirstAscentEq(k=k) if k >= 1:
            return ballot(k, n - k)
        case FirstAscentGe(k=k) if k >= 0:
            return ballot(k + 1, n - k)
        case FirstAscentLastDescent(r=r, s=s, require_interior_return=True) if (
            r >= 1 and s >= 1
        ):
            return ballot(r + s + 1, n - r - s)
        case FirstAscentLastDescent(r=r, s=s, require_interior_return=False) if (
            r >= 0 and s >= 0
        ):
            return sum(
                ballot(r + s + 1 - 2 * j, n - r - s + j) for j in range(min(r, s) + 1)
            )
        case FirstAscentNonfinalDescentsOne(r=r, s=s) if r >= 1 and s >= 0:
            return ballot(r + s + 1, n - r - s)
        case FirstAscentLastAscentsOne(r=r, s=s) if r >= 1 and s >= 1:
            return count_lastascents_G(n, r, s)
    raise UnsupportedClassError(f"no closed form for {constraint!r}")


def count_lastascents_G(n: int, r: int, s: int) -> int:
    """Dyck n-paths with first ascent >= r whose last s-1 noninitial
    ascents all equal 1, as an alternating ballot-number sum.

    A path qualifies only if it has at least s-1 noninitial ascents
    (vacuously for s = 1).
    """
    if r < 1 or s < 1:
        raise InvalidInputError(f"need r, s >= 1, got r={r}, s={s}")
    if n < 0:
        return 0
    m = min(r, s)
    total = sum(ballot(r + s + 1 - 2 * j, n - r - s + j) for j in range(m + 1))
    total -= sum(
        binomial(r + s - 2 * j, r - j) * ballot(0, n - r - s + j)
        for j in range(2, m + 1)
    )
    return total


def count_lastascents_F(n: int, r: int, s: int) -> int:
    """The same count as ``count_lastascents_G`` written without
    subtraction: a leading ballot term plus a double sum of weighted
    ballot numbers.
    """
    if r < 1 or s < 1:
        raise InvalidInputError(f"need r, s >= 1, got r={r}, s={s}")
    if n < 0:
        return 0
    total = ballot(r + s, n + 1 - r - s)
    for k in range(r + s - 3):
        for j in range(r + s - 3 - k):
            total += binomial(k, r - 2 - j) * ballot(r + s - 2 - k, n - r - s + 1)
    return total
