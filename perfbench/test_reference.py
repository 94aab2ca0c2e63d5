"""Checks of the benchmark's independent reference.

Run with ``python -m pytest perfbench/test_reference.py`` from the
repository root.  The OEIS prefixes are typed in from the sequence
entries, not generated by the package.
"""
import pytest

from reference import central, coefficient

OEIS_PREFIXES = {
    1: (1, 1, 3, 7, 19, 51, 141, 393, 1107, 3139),  # A002426
    2: (1, 1, 5, 19, 85, 381, 1751, 8135, 38165, 180325),  # A005191
    3: (1, 1, 7, 37, 231, 1451, 9331, 60691, 398567, 2636263),  # A025012
}

CASES = [(1, 1), (1, 7), (2, 5), (3, 4), (5, 13), (10, 3), (4, 40)]


@pytest.mark.parametrize("k", sorted(OEIS_PREFIXES))
def test_central_matches_oeis_prefix(k):
    assert tuple(central(k, n) for n in range(10)) == OEIS_PREFIXES[k]


@pytest.mark.parametrize("k,n", CASES)
def test_row_sums_to_width_power(k, n):
    assert sum(coefficient(k, n, l) for l in range(2 * k * n + 1)) == (2 * k + 1) ** n


@pytest.mark.parametrize("k,n", CASES)
def test_row_is_symmetric(k, n):
    degree = 2 * k * n
    assert all(
        coefficient(k, n, l) == coefficient(k, n, degree - l) for l in range(degree + 1)
    )


def test_outside_the_row_is_zero():
    assert coefficient(2, 3, -1) == 0
    assert coefficient(2, 3, 13) == 0
    assert coefficient(2, 0, 0) == 1
