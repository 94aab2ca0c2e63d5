"""The small-case oracle: coefficients by direct multinomial enumeration.

Exponential in k and used only by the tests, as a check of the exact row
that shares no arithmetic with either of its builders.
"""
from math import factorial

from cnomial.params import Params

#: Hard ceiling on composition tuples visited by :func:`multinomial_direct`;
#: the enumeration space grows exponentially in k and this keeps the oracle
#: from hanging a test run.
ENUMERATION_CAP = 10_000_000


class EnumerationCapExceeded(RuntimeError):
    """Raised when the composition enumeration would visit too many tuples."""


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
