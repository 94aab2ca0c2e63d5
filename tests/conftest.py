"""Shared fixtures: network gating and cold package caches."""
import os

import pytest

from cnomial.cli import _clear_route_caches


@pytest.fixture(autouse=True)
def cold_caches():
    """Start each test with the routes' functools caches empty; call the fixture to empty them again.

    A row or table cached by an earlier test (``_phase_form``'s one row of
    the ball rung, ``_double_spectrum``'s of the double rung, a sine
    half-table) would bypass a later test's monkeypatch of what builds it
    (``_row_spectrum``, ``_power_radius``, ``_ball_div``,
    ``required_bits``).  The ball rung's rotation and cosine tables are
    built per sum and never cached.
    """
    _clear_route_caches()
    return _clear_route_caches


def pytest_collection_modifyitems(config, items):
    if os.environ.get("CNOMIAL_NETWORK_TESTS") == "1":
        return
    skip = pytest.mark.skip(
        reason="network tests disabled; set CNOMIAL_NETWORK_TESTS=1 to enable"
    )
    for item in items:
        if "network" in item.keywords:
            item.add_marker(skip)
