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


def decimal(value: int) -> str:
    """``str(value)`` with no digit limit."""
    with unlimited_digits():
        return str(value)
