"""Exact coefficients of (1 + x + ... + x^{2k})^n.

This module is the ground truth the other routes are checked against, and
it holds two exact algorithms with no arithmetic in common.  The row is
built by the four-term recurrence that P = (1 + x + ... + x^{2k})^n
satisfies, one exact division per coefficient; the running window, n
multiplications by the all-ones row, builds the same row with no division
and is the recurrence's cross-check.  A run of consecutive n
(:func:`central_run`) takes the recurrence at its first n only: each later
row is one pass of the running window over the row before.  One entry
(:func:`coefficient`) comes from neither: it is the classical
inclusion–exclusion sum over binomial coefficients, one exact step per
2k+1 entries.
"""
from __future__ import annotations

from itertools import accumulate, chain, repeat
from math import comb, perm
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
    """The entry p_l, by inclusion–exclusion at l′ = min(l, 2kn − l).

    With m = 2k+1, P = (1 − xᵐ)ⁿ·(1 − x)⁻ⁿ, and the coefficient of x^l of
    that product is

        p_l = Σ_j (−1)^j·C(n, j)·C(l − mj + n − 1, n − 1),   0 ≤ j ≤ ⌊l/m⌋.

    The row is symmetric, p_l = p_{2kn−l}, so the sum is taken at l′ and
    has ⌊l′/m⌋ < n steps after its first term; the central coefficient is
    l = kn.  Term j+1 is term j times (n − j)/(j + 1) times the ratio of
    two runs of m consecutive integers, b(b−1)…(b−m+1) over
    a(a−1)…(a−m+1) with b = l′ − mj and a = b + n − 1: one product and
    one exact division per step.  A remainder means a factor is wrong and
    raises :class:`ArithmeticError`.  No row is built, and no arithmetic
    is shared with the recurrence.
    """
    if not 0 <= l <= params.degree:
        raise ValueError(f"l must be in [0, {params.degree}], got {l}")
    n, m = params.n, params.width
    if n == 0:
        return 1
    b = min(l, params.degree - l)
    a = b + n - 1
    term = total = comb(a, n - 1)
    for j in range(1, b // m + 1):
        term, remainder = divmod(term * ((n - j + 1) * perm(b, m)), j * perm(a, m))
        if remainder:
            raise ArithmeticError(
                f"inclusion-exclusion step j={j} is not exact for k={params.k}, n={n}"
            )
        total = total - term if j & 1 else total + term
        b -= m
        a -= m
    return total


def central_run(k: int, first: int, last: int) -> list[int]:
    """M^(2k,n) for n = first..last (none when ``first > last``): the
    recurrence at ``first``, then one running-window pass per n.

    The first n is the recurrence stopped at the centre, p_0..p_kn.  Each
    later row is the row before times the row of ones
    (:func:`_times_ones`).  The rows are palindromes, so only the half
    p_0..p_kn is kept: the new half, entries 0..k(n+1) of the product,
    reads the old row up to k past its centre, which is the old half with
    its k entries before the centre mirrored on.  Each later n is one pass
    over about half a row, and its centre is the last entry of the new
    half.  A run of one is the recurrence alone.
    """
    params = Params(k, first)  # refuses k < 1 and n < 0, as every route does
    if first > last:
        return []
    width = 2 * k + 1
    half = _recurrence_prefix(params, k * first)
    values = [half[-1]]
    for n in range(first + 1, last + 1):
        half = _times_ones(half + half[-2 : -k - 2 : -1], width)[: k * n + 1]
        values.append(half[-1])
    return values
