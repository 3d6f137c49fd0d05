import __future__
import inspect
import os
import sys
import textwrap

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


@pytest.fixture
def mutate(monkeypatch):
    """mutate(module, name, old, new, *more) replaces the function
    module.name by a copy whose source reads new for old, and for each
    further (old, new) pair in more likewise: a negative control's mutant of
    a few lines inside a function, undone after the test."""

    def apply(module, name, old, new, *more):
        source = textwrap.dedent(inspect.getsource(getattr(module, name)))
        for old, new in ((old, new), *more):
            assert source.count(old) == 1, f"{old!r} is not in {name} once"
            source = source.replace(old, new)
        code = compile(
            source,
            module.__file__,
            "exec",
            flags=__future__.annotations.compiler_flag,
            dont_inherit=True,
        )
        namespace = dict(vars(module))
        exec(code, namespace)
        monkeypatch.setattr(module, name, namespace[name])

    return apply
