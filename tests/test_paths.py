"""Tests for path geometry, ballot numbers, and Dyck class counts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permpaths.errors import InvalidInputError, UnsupportedClassError
from permpaths.oracle import enumerate_dyck, enumerate_paths, in_dyck_class
from permpaths.paths import (
    FirstAscentEq,
    FirstAscentGe,
    FirstAscentLastAscentsOne,
    FirstAscentLastDescent,
    FirstAscentNonfinalDescentsOne,
    ballot,
    ballot_quotient_form,
    binomial,
    catalan,
    count_dyck_class,
    count_lastascents_F,
    count_lastascents_G,
    dyck_path_from_runs,
    heights,
    is_dyck,
    is_first_quadrant,
    parse_path,
    path_stats,
    runs,
    valid_dyck_runs,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]

BALLOT_ROWS = {
    1: [1, 1, 2, 5, 14, 42, 132],
    2: [1, 2, 5, 14, 42, 132, 429],
    3: [1, 3, 9, 28, 90, 297, 1001],
    4: [1, 4, 14, 48, 165, 572, 2002],
    5: [1, 5, 20, 75, 275, 1001, 3640],
    6: [1, 6, 27, 110, 429, 1638, 6188],
}


def test_heights():
    assert heights("UUDD") == (1, 2, 1, 0)
    assert heights("UDUD") == (1, 0, 1, 0)
    assert heights("") == ()


def test_dyck_recognition():
    assert is_dyck("")
    assert is_dyck("UUDUDD")
    assert not is_dyck("UD" + "D" + "U")
    assert not is_dyck("UUD")
    assert is_first_quadrant("UUD")
    assert not is_first_quadrant("DU")


def test_parse_path_normalizes_case():
    assert parse_path(" uudd ") == "UUDD"
    with pytest.raises(InvalidInputError):
        parse_path("UXDD")


def test_runs_and_stats():
    """The seven-letter example from the records bijection: ascent runs
    (2,2,3) and descent runs (2,1,4)."""
    d = "UUDDUUDUUUDDDD"
    assert runs(d) == (("U", 2), ("D", 2), ("U", 2), ("D", 1), ("U", 3), ("D", 4))
    st_ = path_stats(d)
    assert st_.ascents == (2, 2, 3)
    assert st_.descents == (2, 1, 4)
    assert st_.first_ascent == 2
    assert st_.last_descent == 4
    assert st_.returns == 2
    assert st_.interior_returns == 1
    assert st_.height == 4


def test_empty_path_stats():
    st_ = path_stats("")
    assert st_.ups == 0 and st_.downs == 0 and st_.returns == 0
    assert st_.ascents == () and st_.descents == ()


def test_binomial_values():
    assert binomial(17, 7) == 19448
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_boundary_convention():
    assert binomial(-1, -1) == 0


def test_catalan_values():
    assert [catalan(n) for n in range(11)] == CATALAN


def test_ballot_table():
    for k, row in BALLOT_ROWS.items():
        assert [ballot(k, n) for n in range(7)] == row


def test_ballot_edge_conventions():
    assert ballot(0, 0) == 1
    assert ballot(0, 3) == 0
    assert ballot(4, -1) == 0
    with pytest.raises(InvalidInputError):
        ballot(-1, 2)


def test_ballot_counts_first_quadrant_paths():
    """ballot(k, n) counts first-quadrant paths with n+k-1 ups, n downs."""
    for k in range(1, 5):
        for n in range(5):
            assert ballot(k, n) == sum(1 for _ in enumerate_paths(n + k - 1, n, lo=0))


@given(k=st.integers(1, 20), n=st.integers(0, 40))
def test_ballot_two_closed_forms_agree(k, n):
    lhs = ballot(k, n)
    assert lhs == binomial(2 * n + k - 1, n) - binomial(2 * n + k - 1, n - 1)
    assert lhs == ballot_quotient_form(k, n)


@given(k=st.integers(1, 15), n=st.integers(0, 25))
def test_ballot_column_difference(k, n):
    assert ballot(k, n) - ballot(k - 1, n) == ballot(k + 1, n - 1)


def test_runs_round_trip():
    for n in range(7):
        for d in enumerate_dyck(n):
            st_ = path_stats(d)
            assert valid_dyck_runs(st_.ascents, st_.descents)
            assert dyck_path_from_runs(st_.ascents, st_.descents) == d


def test_invalid_run_profiles():
    assert not valid_dyck_runs((1, 1), (3,))  # unbalanced
    assert not valid_dyck_runs((1, 3), (3, 1))  # dips below zero


def test_dyck_class_known_values():
    assert count_dyck_class(4, FirstAscentEq(2)) == ballot(2, 2) == 5
    assert count_dyck_class(4, FirstAscentGe(0)) == catalan(4)
    assert count_dyck_class(5, FirstAscentGe(2)) == ballot(3, 3) == 28
    # first ascent >= 1 and last descent >= 1 with an interior return
    assert count_dyck_class(4, FirstAscentLastDescent(1, 1, True)) == ballot(3, 2)


def test_dyck_class_against_enumeration():
    constraints = [
        FirstAscentEq(1),
        FirstAscentEq(3),
        FirstAscentGe(0),
        FirstAscentGe(2),
        FirstAscentLastDescent(1, 2, True),
        FirstAscentLastDescent(2, 2, False),
        FirstAscentNonfinalDescentsOne(2, 1),
        FirstAscentLastAscentsOne(1, 2),
    ]
    for n in range(7):
        for c in constraints:
            brute = sum(in_dyck_class(path_stats(d), c) for d in enumerate_dyck(n))
            assert count_dyck_class(n, c) == brute, (n, c)


def test_dyck_class_rejects_bad_parameters():
    with pytest.raises(UnsupportedClassError):
        count_dyck_class(4, FirstAscentEq(0))
    with pytest.raises(UnsupportedClassError):
        count_dyck_class(4, FirstAscentLastDescent(0, 1, True))


@given(n=st.integers(0, 10), r=st.integers(1, 4), s=st.integers(1, 4))
def test_lastascents_forms_agree(n, r, s):
    """Two closed forms for the same doubly constrained class."""
    assert count_lastascents_F(n, r, s) == count_lastascents_G(n, r, s)


def test_lastascents_example():
    # with s=1 the trailing-ascents condition is vacuous, so the count
    # collapses to all paths with first ascent >= 1
    assert count_lastascents_G(4, 1, 1) == 14
    assert count_lastascents_G(4, 1, 1) == ballot(3, 2) + ballot(1, 3)
    assert count_lastascents_G(4, 1, 1) == count_dyck_class(4, FirstAscentGe(1))
