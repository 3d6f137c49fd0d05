import os
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long exhaustive runs, enabled via BINWORDS_SLOW_TESTS=1"
    )


def pytest_collection_modifyitems(config, items):
    if os.environ.get("BINWORDS_SLOW_TESTS") == "1":
        return
    skip = pytest.mark.skip(reason="set BINWORDS_SLOW_TESTS=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
