"""Shared fixtures: network gating."""
import os

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("CNOMIAL_NETWORK_TESTS") == "1":
        return
    skip = pytest.mark.skip(
        reason="network tests disabled; set CNOMIAL_NETWORK_TESTS=1 to enable"
    )
    for item in items:
        if "network" in item.keywords:
            item.add_marker(skip)
