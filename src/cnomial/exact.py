"""Exact coefficient rows of (1 + x + ... + x^{2k})^n.

This module is the ground truth the other routes are checked against: the
full row of coefficients is built by exact integer convolution, and a
brute-force enumeration over multinomial compositions provides an
independent oracle for small cases.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import factorial
from operator import sub

from .params import Params

#: Hard ceiling on composition tuples visited by :func:`multinomial_direct`;
#: the enumeration space grows exponentially in k and this keeps the oracle
#: from hanging a test run.
ENUMERATION_CAP = 10_000_000


class EnumerationCapExceeded(RuntimeError):
    """Raised when the composition enumeration would visit too many tuples."""


@dataclass(frozen=True)
class CoefficientTable:
    """Full coefficient row of ``(1 + x + ... + x^{2k})^n``.

    ``coeffs[l]`` is the exact integer coefficient of ``x^l`` for
    ``l in [0, 2kn]``.  The row is symmetric, sums to ``(2k+1)^n``, and its
    central entry ``coeffs[kn]`` is the central (2k+1)-nomial coefficient.
    """

    params: Params
    coeffs: tuple[int, ...]

    @property
    def central(self) -> int:
        return self.coeffs[self.params.k * self.params.n]


def expand_power(params: Params, strategy: str = "iterative") -> CoefficientTable:
    """Expand ``(1 + x + ... + x^{2k})^n`` into its exact coefficient row.

    ``strategy="iterative"`` multiplies by the all-ones factor n times, each
    time as a running-window sum over prefix sums (see
    :func:`_times_ones`); ``strategy="binary"`` squares rows by schoolbook
    convolution instead.  Both are exact and produce identical tables; the
    binary form shares no arithmetic with the default and serves as its
    cross-check.
    """
    width = params.width
    if strategy == "iterative":
        row = [1]
        for _ in range(params.n):
            row = _times_ones(row, width)
    elif strategy == "binary":
        ones = [1] * width
        row = [1]
        base = ones
        e = params.n
        while e:
            if e & 1:
                row = _convolve_linear(row, base)
            e >>= 1
            if e:
                base = _convolve_linear(base, base)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return CoefficientTable(params=params, coeffs=tuple(row))


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


def _convolve_linear(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook linear convolution of two exact integer coefficient rows."""
    na = len(a)
    nb = len(b)
    out = [0] * (na + nb - 1)
    for i in range(na):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(nb):
            out[i + j] = out[i + j] + ai * b[j]
    return out


def central_coefficient(params: Params) -> int:
    """The central entry ``coeffs[kn]`` of the expanded power."""
    return expand_power(params).central


def multinomial_direct(params: Params, l: int, cap: int = ENUMERATION_CAP) -> int:
    """Coefficient of ``x^l`` by direct multinomial enumeration.

    Sums ``n! / (n_0! ... n_{2k}!)`` over all tuples with
    ``sum n_i = n`` and ``sum i*n_i = l``.  Exponential in k; intended as an
    independent cross-check of :func:`expand_power` at small sizes.  Raises
    :class:`EnumerationCapExceeded` once more than ``cap`` tuples are
    visited.
    """
    if not 0 <= l <= params.degree:
        raise ValueError(f"l must be in [0, {params.degree}], got {l}")
    top = 2 * params.k
    n_fact = factorial(params.n)
    visited = 0
    total = 0

    # counts[i] for positions 0..i-1 are fixed; s items and weight w remain.
    def descend(i: int, s: int, w: int, denom: int) -> None:
        nonlocal visited, total
        visited += 1
        if visited > cap:
            raise EnumerationCapExceeded(
                f"more than {cap} composition tuples for k={params.k}, n={params.n}, l={l}"
            )
        if i == top:
            # remaining items all land on the last position
            if w == top * s:
                total += n_fact // (denom * factorial(s))
            return
        for ni in range(s + 1):
            rest = s - ni
            rem_w = w - i * ni
            # the remaining positions i+1..top can absorb weights in
            # [(i+1)*rest, top*rest] only
            if rem_w < (i + 1) * rest or rem_w > top * rest:
                continue
            descend(i + 1, rest, rem_w, denom * factorial(ni))

    descend(0, params.n, l, 1)
    return total
