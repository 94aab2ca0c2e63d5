"""Exact coefficient rows of (1 + x + ... + x^{2k})^n.

This module is the ground truth the other routes are checked against.  The
row is built by the four-term recurrence that P = (1 + x + ... + x^{2k})^n
satisfies, one exact division per coefficient; the running window, n
multiplications by the all-ones row, builds the same row with no division
and is the recurrence's cross-check.
"""
from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import sub

from .params import Params


def expand_power(params: Params) -> tuple[int, ...]:
    """Expand ``(1 + x + ... + x^{2k})^n`` into its exact coefficient row.

    Entry l of the row p_0..p_{2kn} is the coefficient of x^l.  The row is
    symmetric, sums to (2k+1)^n, and its entry kn is the central
    (2k+1)-nomial coefficient.  It comes from the four-term recurrence (see
    :func:`_recurrence_prefix`), O(kn) big-int steps.  Its cross-check,
    n multiplications by the all-ones row as a running-window sum (see
    :func:`_times_ones`), O(kn²) big-int additions, shares no arithmetic
    with it.
    """
    return tuple(_recurrence_prefix(params, params.degree))


def _recurrence_prefix(params: Params, last: int) -> list[int]:
    """``[p_0, ..., p_last]`` by the recurrence P = Sⁿ satisfies.

    With m = 2k+1, S = (1 − xᵐ)/(1 − x), and P′/P = n·S′/S gives
    (1 − x)(1 − xᵐ)·P′ = n·[(1 − xᵐ) − m·x^{m−1}(1 − x)]·P, whose
    coefficient of x^l reads

        (l+1)·p_{l+1} = (l+n)·p_l + (l+1−m−nm)·p_{l+1−m} + (n(m−1)−l+m)·p_{l−m}

    with p_j = 0 for j < 0.  The row is kept behind m leading zeros, so
    p_j sits at index j + m and the two back terms need no bounds test.
    The division by l+1 is exact; a remainder means the recurrence is
    wrong and raises :class:`ArithmeticError`.
    """
    n, m = params.n, params.width
    back1 = 1 - m - n * m  # + l: the factor of p_{l+1-m}
    back2 = n * (m - 1) + m  # - l: the factor of p_{l-m}
    row = [0] * m + [1]
    for l in range(last):
        total = (l + n) * row[l + m] + (l + back1) * row[l + 1] + (back2 - l) * row[l]
        value, remainder = divmod(total, l + 1)
        if remainder:
            raise ArithmeticError(
                f"recurrence step l={l} is not exact for k={params.k}, n={n}"
            )
        row.append(value)
    return row[m:]


def _times_ones(row: list[int], width: int) -> list[int]:
    """``row`` times ``1 + x + ... + x^{width-1}``, as a running-window sum.

    Entry j of the product is the sum of the ``width`` entries of ``row``
    ending at j, i.e. ``P[j+1] - P[j+1-width]`` over the prefix sums P of
    ``row`` padded with ``width - 1`` zeros (P at a negative index is 0).
    Both passes run in ``accumulate`` and ``map``, so no per-entry loop is
    interpreted; each entry costs one big-int addition and one subtraction
    whatever the width.
    """
    prefix = list(accumulate(chain(row, repeat(0, width - 1)), initial=0))
    return list(map(sub, prefix[1:], chain(repeat(0, width - 1), prefix[: len(row)])))


def coefficient(params: Params, l: int) -> int:
    """The entry p_l, by the recurrence stopped at min(l, 2kn − l).

    The row is symmetric, p_l = p_{2kn−l}, so no entry takes more than kn
    steps and the rest of the row is never built; the central coefficient
    is l = kn, the recurrence stopped there.
    """
    if not 0 <= l <= params.degree:
        raise ValueError(f"l must be in [0, {params.degree}], got {l}")
    return _recurrence_prefix(params, min(l, params.degree - l))[-1]
