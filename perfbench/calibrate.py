"""Host-speed calibration.

On a shared host the same Python work can take 1.5 times as long from one
minute to the next, as neighbours come and go on the same cores.  The
benchmark times a fixed unit of pure-Python work next to the requests and
scales every time it reports to a host on which that unit takes
``NOMINAL_NS``, so that a slow stretch of the host does not read as a slow
program.

The unit imitates what the package's routes spend their time on:
interpreter loops over Python integers that grow to a few hundred digits
(the convolution), cyclic products of 2048-bit integers (the circulant
squaring), and fixed-point arithmetic on 1536-bit integers with small
function calls (what mpmath's pure-Python backend does).  It uses only
the standard library, so no change to the package can change its speed.
"""
from __future__ import annotations

import statistics
import time

#: What one unit of calibration work takes on the reference host, in ns.
#: Times are reported as they would read on a host this fast.
NOMINAL_NS = 25_000_000

_PREC = 1536
_CYCLIC_PREC = 2048


def _mul(a: int, b: int) -> int:
    return (a * b) >> _PREC


def _cos(x: int) -> int:
    """cos(x) in fixed point by its Taylor series."""
    one = 1 << _PREC
    x2 = _mul(x, x)
    term, total = one, one
    for m in range(1, 30):
        term = -_mul(term, x2) // ((2 * m - 1) * (2 * m))
        total += term
    return total


def _cyclic_square(v: list[int]) -> list[int]:
    n = len(v)
    return [sum(v[i] * v[(j - i) % n] for i in range(n)) >> _CYCLIC_PREC for j in range(n)]


def _work() -> int:
    row = [1]
    for _ in range(64):
        new = [0] * (len(row) + 6)
        for i, a in enumerate(row):
            for j in range(7):
                new[i + j] += a
        row = new
    wide = [1]
    for _ in range(150):
        new = [0] * (len(wide) + 2)
        for i, a in enumerate(wide):
            new[i] += a
            new[i + 1] += a
            new[i + 2] += a
        wide = new
    v = [3 ** 1300 + 7 * i for i in range(24)]
    for _ in range(2):
        v = _cyclic_square(v)
    one = 1 << _PREC
    total = 0
    for j in range(64):
        c = _cos(one * j // 65)
        total += _mul(_mul(c, c), c)
    return row[len(row) // 2] + wide[len(wide) // 2] + v[0] + total


def unit_ns() -> int:
    """Time one unit of calibration work, in ns."""
    begin = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - begin


def factor(units_ns: list[int]) -> float:
    """Scale for a time measured among these calibration units."""
    return NOMINAL_NS / statistics.median(units_ns)
