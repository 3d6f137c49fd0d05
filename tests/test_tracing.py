"""perfbench's tracing contract, run against the package as it is.

perfbench/spans.py patches bindings by name (class attributes such as
PrefixIndex.blocks_equivalent, module copies such as search.is_power_free).
A refactor that renames or bypasses one of them breaks `--trace 1` without
failing any other test, so this module loads spans.py by path, unedited,
and checks that every row resolves, that a traced search still counts its
python suffix tests through the class attribute, and that every binding
is restored afterwards.
"""

import importlib.util
from pathlib import Path

import pytest

import binwords

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # spans.py imports workloads
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(spans):
    return [getattr(owner, attr) for owner, attr, *_ in spans.patch_table(binwords)]


def test_every_patched_binding_resolves(spans):
    for owner, attr, *_ in spans.patch_table(binwords):
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)


def test_traced_search_counts_and_restores(spans):
    before = bindings(spans)
    tracer = spans.Tracer()
    # cap 300 passes search._NUMPY_DEPTH, so both suffix tests run
    with spans.tracing(binwords, tracer):
        cert = binwords.search.longest_avoiding(3, 2, 2, 300)
    assert cert.outcome == "cap_reached"
    metrics = spans.pass_metrics(tracer.names, tracer.drain())
    assert metrics["words.blocks_equivalent.calls"] == 10_493
    assert metrics["search.nodes"] == 666
    assert all(a is b for a, b in zip(bindings(spans), before, strict=True))
