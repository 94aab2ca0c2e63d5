"""Decimal conversion of integers beyond CPython's digit limit.

CPython refuses ``str(i)`` and ``int(s)`` for integers over
``sys.get_int_max_str_digits()`` decimal digits (4300 by default), a guard
against quadratic-time conversion of untrusted input.  Coefficients of this
package pass that size at modest n (k = 1, n of about 9100), and they are
computed, not untrusted, so their conversions lift the limit for the
duration only.
"""
from __future__ import annotations

import sys
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from functools import lru_cache

# Serializes lift/restore pairs so that overlapping lifts in two threads
# cannot restore each other's saved limit out of order.
_LOCK = threading.Lock()


@contextmanager
def unlimited_digits() -> Iterator[None]:
    """Lift the int/str digit limit in this block, then restore the old one.

    A no-op on Pythons without the limit (no ``sys.set_int_max_str_digits``).
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    with _LOCK:
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(previous)


@lru_cache(maxsize=4)
def _admitted_bits(limit: int) -> int:
    """The largest b with every b-bit integer within ``limit`` decimal digits.

    2^b <= 10^limit exactly when every b-bit integer is below 10^limit, so
    b = floor(log2 10^limit), in integers: 10^limit is no power of two
    for limit >= 1.
    """
    return (10**limit).bit_length() - 1


def decimal(value: int) -> str:
    """``str(value)`` with no digit limit.

    A value the current limit admits converts directly; a larger one lifts
    the limit for its conversion.  A limit of 0 may be another thread's
    lift, which it can restore before ``str`` runs, so it takes the lift
    too: under the lock it is the limit's real value.
    """
    if not hasattr(sys, "get_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    if limit and value.bit_length() <= _admitted_bits(limit):
        return str(value)
    with unlimited_digits():
        return str(value)
