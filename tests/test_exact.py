"""Exact rows by the recurrence, its window cross-check and the enumeration oracle."""
from fractions import Fraction
from types import SimpleNamespace

import pytest
from enumeration import EnumerationCapExceeded, multinomial_direct
from hypothesis import given, settings
from hypothesis import strategies as st

from cnomial import Params, coefficient, expand_power
from cnomial.exact import _recurrence_prefix, _times_ones


def window_row(p):
    """The row by n running-window passes, the recurrence's cross-check."""
    row = [1]
    for _ in range(p.n):
        row = _times_ones(row, p.width)
    return tuple(row)


def test_power_one_is_the_polynomial_itself():
    assert expand_power(Params(1, 1)) == (1, 1, 1)


def test_trinomial_square_row():
    # [1,1,1] * [1,1,1] by hand
    assert expand_power(Params(1, 2)) == (1, 2, 3, 2, 1)


def test_pentanomial_square_row():
    # two all-ones rows of length 5 by hand
    assert expand_power(Params(2, 2)) == (1, 2, 3, 4, 5, 4, 3, 2, 1)


def test_power_zero_collapses_to_unit_row():
    assert expand_power(Params(3, 0)) == (1,)


def test_central_trinomial_square():
    assert coefficient(Params(1, 2), 2) == 3


def test_central_any_first_power_is_one():
    for k in range(1, 5):
        assert coefficient(Params(k, 1), k) == 1


def test_central_trinomial_fifth_power():
    # prefix of the central trinomial sequence: 1, 1, 3, 7, 19, 51
    assert coefficient(Params(1, 5), 5) == 51


def test_row_structure_on_grid():
    for k in range(1, 5):
        for n in range(0, 13):
            p = Params(k, n)
            row = expand_power(p)
            assert len(row) == p.degree + 1
            assert row[0] == row[p.degree] == 1
            assert row == row[::-1]
            assert sum(row) == p.width**n
            if n >= 1:
                assert row[1] == n


def test_strategies_produce_identical_rows():
    for k in range(1, 11):
        for n in range(0, 31):
            p = Params(k, n)
            assert expand_power(p) == window_row(p), (k, n)


def test_single_coefficient_matches_the_row():
    # One entry by the recurrence stopped at min(l, 2kn - l): the row's
    # symmetry lets no entry take more than kn steps.
    for k in range(1, 6):
        for n in range(0, 31):
            p = Params(k, n)
            row = expand_power(p)
            assert [coefficient(p, l) for l in range(p.degree + 1)] == list(row), (k, n)
    for l in (-1, 5):
        with pytest.raises(ValueError, match="l must be in"):
            coefficient(Params(1, 2), l)


def test_recurrence_guard_raises_on_inexact_step():
    # (1 + x + x^2)^(1/2) has p_1 = 1/2: the first division by l + 1 leaves
    # a remainder, which the guard must report rather than floor away.
    half = SimpleNamespace(k=1, n=Fraction(1, 2), width=3)
    with pytest.raises(ArithmeticError, match="l=0"):
        _recurrence_prefix(half, 2)


def test_multinomial_central_tuples():
    # (n0,n1,n2) = (1,0,1) contributes 2!/(1!0!1!) = 2, (0,2,0) contributes 1
    assert multinomial_direct(Params(1, 2), 2) == 3


def test_multinomial_leading_tuple():
    assert multinomial_direct(Params(1, 2), 0) == 1


def test_multinomial_matches_hand_convolution():
    assert multinomial_direct(Params(2, 2), 4) == 5


def test_multinomial_equals_convolution_everywhere():
    # full oracle-equivalence grid; the enumeration prunes enough to stay fast
    for k in range(1, 5):
        for n in range(1, 13):
            p = Params(k, n)
            row = expand_power(p)
            for l in range(p.degree + 1):
                assert multinomial_direct(p, l) == row[l], (k, n, l)


def test_multinomial_range_errors():
    with pytest.raises(ValueError):
        multinomial_direct(Params(1, 2), -1)
    with pytest.raises(ValueError):
        multinomial_direct(Params(1, 2), 5)


def test_enumeration_cap_trips():
    with pytest.raises(EnumerationCapExceeded):
        multinomial_direct(Params(3, 8), 24, cap=50)


@given(k=st.integers(1, 4), n=st.integers(0, 25))
@settings(max_examples=40, deadline=None)
def test_row_invariants_fuzzed(k, n):
    p = Params(k, n)
    row = expand_power(p)
    assert row == row[::-1]
    assert sum(row) == p.width**n
    assert all(c >= 1 for c in row)


@given(k=st.integers(1, 10), n=st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_recurrence_matches_window_fuzzed(k, n):
    p = Params(k, n)
    assert expand_power(p) == window_row(p)
