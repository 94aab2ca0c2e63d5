"""Decimal conversion past CPython's int/str digit limit."""
import sys
from contextlib import contextmanager

import pytest

from cnomial import _digits
from cnomial._digits import decimal

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no digit limit"
)

#: The lowest limit CPython accepts other than 0.
LIMIT = 640


@pytest.fixture
def lifts(monkeypatch):
    """The values ``decimal`` lifted the limit for, at a limit of ``LIMIT``."""
    lifted = []
    real = _digits.unlimited_digits

    @contextmanager
    def recorded():
        lifted.append(sys.get_int_max_str_digits())
        with real():
            yield

    monkeypatch.setattr(_digits, "unlimited_digits", recorded)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(LIMIT)
    try:
        yield lifted
    finally:
        sys.set_int_max_str_digits(previous)


def test_admitted_bits_is_the_exact_threshold():
    sys_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for limit in (1, 2, 3, 4, LIMIT, 4300):
            bits = _digits._admitted_bits(limit)
            assert len(str(2**bits - 1)) <= limit < len(str(2 ** (bits + 1) - 1))
    finally:
        sys.set_int_max_str_digits(sys_limit)


def test_a_value_within_the_limit_converts_directly(lifts):
    top = 2 ** _digits._admitted_bits(LIMIT) - 1
    for value in (0, 7, -top, top):
        assert decimal(value) == str(value)
    assert lifts == []


def test_a_value_past_the_threshold_lifts_the_limit(lifts):
    # 2^b is within the limit but not within the bound; 10^LIMIT is past both.
    bound = 2 ** _digits._admitted_bits(LIMIT)
    assert decimal(bound) == str(bound)
    with pytest.raises(ValueError):
        str(10**LIMIT)
    assert decimal(-(10**LIMIT)) == "-1" + "0" * LIMIT
    assert lifts == [LIMIT, LIMIT]
    assert sys.get_int_max_str_digits() == LIMIT


def test_a_limit_of_zero_lifts_under_the_lock(lifts):
    sys.set_int_max_str_digits(0)
    assert decimal(10**LIMIT) == "1" + "0" * LIMIT
    assert lifts == [0]
    assert sys.get_int_max_str_digits() == 0
