"""Decimal conversion past CPython's int/str digit limit."""
import sys
from contextlib import contextmanager

import pytest

from cnomial import _digits
from cnomial._digits import decimal, integer

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


def test_a_value_within_the_limit_converts_directly(lifts):
    # LIMIT digits are within the limit; LIMIT + 1 are past it (below).
    top = 10**LIMIT - 1
    for value in (0, 7, -top, top):
        assert decimal(value) == str(value)
    assert lifts == []


def test_a_value_past_the_threshold_lifts_the_limit(lifts):
    with pytest.raises(ValueError):
        str(10**LIMIT)
    assert decimal(-(10**LIMIT)) == "-1" + "0" * LIMIT
    assert lifts == [LIMIT]
    assert sys.get_int_max_str_digits() == LIMIT


def test_a_limit_of_zero_converts_without_a_lift(lifts):
    # No limit is read: 0 admits every value, so str converts it directly.
    sys.set_int_max_str_digits(0)
    assert decimal(10**LIMIT) == "1" + "0" * LIMIT
    assert lifts == []
    assert sys.get_int_max_str_digits() == 0


def test_text_within_the_limit_parses_directly(lifts):
    for text in ("0", "-7", "9" * LIMIT):
        assert integer(text) == int(text)
    assert lifts == []


def test_text_past_the_limit_lifts_it_once(lifts):
    assert integer("-1" + "0" * LIMIT) == -(10**LIMIT)
    assert lifts == [LIMIT]
    assert sys.get_int_max_str_digits() == LIMIT
    with pytest.raises(ValueError):
        integer("1.5")
