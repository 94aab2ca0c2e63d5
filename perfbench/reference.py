"""Independent reference for coefficients of (1 + x + ... + x^{2k})^n.

Inclusion-exclusion over the number j of parts that exceed 2k gives the
alternating binomial sum

    p_l = sum_j (-1)^j C(n, j) C(l - j(2k+1) + n - 1, n - 1),

evaluated with ``math.comb``.  It shares no code and no algorithm with the
three routes of the package (convolution, circulant powers, spectral sum),
so a value the package prints is checked against something it could not
have got wrong the same way.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def coefficient(k: int, n: int, l: int) -> int:
    """Coefficient of x^l in (1 + x + ... + x^{2k})^n."""
    if k < 1 or n < 0:
        raise ValueError(f"need k >= 1 and n >= 0, got k={k}, n={n}")
    if not 0 <= l <= 2 * k * n:
        return 0
    if n == 0:
        return 1
    width = 2 * k + 1
    total = 0
    for j in range(min(n, l // width) + 1):
        term = comb(n, j) * comb(l - j * width + n - 1, n - 1)
        total += -term if j & 1 else term
    return total


def central(k: int, n: int) -> int:
    """The central (2k+1)-nomial coefficient, p_{kn}."""
    return coefficient(k, n, k * n)
