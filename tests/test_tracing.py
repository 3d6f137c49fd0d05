"""perfbench's tracing contract, run against the package as it is.

perfbench/spans.py patches bindings by name (class attributes such as
PrefixIndex.blocks_equivalent, module copies such as search.is_power_free).
A refactor that renames or bypasses one of them breaks `--trace 1` without
failing any other test, so this module loads spans.py by path, unedited,
and checks that every row resolves, that a traced order-3 search still
counts its python suffix tests through the class attribute, that the
battery's scans go through checks.find_power, and that every binding is
restored afterwards.  The package loads detect, search and
checks on first use, which this process did long ago; one case runs in a
fresh interpreter, where patch_table itself loads them.
"""

import importlib.util
from pathlib import Path

import pytest
from test_imports import fresh

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
    # an order-2 search tests children on int64 keys, with no block test;
    # an order-3 search asks PrefixIndex.blocks_equivalent at every period
    # for each child, of a letter the word holds, of every word it expands
    before = bindings(spans)
    tracer = spans.Tracer()
    with spans.tracing(binwords, tracer):
        cert = binwords.search.longest_avoiding(3, 2, 2, 300)
    assert cert.outcome == "cap_reached"
    metrics = spans.pass_metrics(tracer.names, tracer.drain())
    assert metrics["words.blocks_equivalent.calls"] == 0
    assert metrics["search.nodes"] == 666
    with spans.tracing(binwords, tracer):
        cert = binwords.search.longest_avoiding(3, 3, 2, 40)
    assert cert.outcome == "cap_reached"
    metrics = spans.pass_metrics(tracer.names, tracer.drain())
    assert metrics["words.blocks_equivalent.calls"] == 1072
    assert metrics["search.nodes"] == 82
    assert all(a is b for a, b in zip(bindings(spans), before, strict=True))


def test_traced_count_records_nodes_and_survivors(spans):
    # the batched count runs no block tests; its span still carries the
    # nodes and survivors that perfbench's search metrics read
    tracer = spans.Tracer()
    with spans.tracing(binwords, tracer):
        table = binwords.search.count_avoiding(2, 2, 3, 12)
    rec = tracer.drain()
    metas = [s[5] for s in rec["spans"] if tracer.names[s[0]] == "search.count_avoiding"]
    assert metas == [[table.nodes, sum(table.counts)]]
    metrics = spans.pass_metrics(tracer.names, rec)
    assert metrics["search.nodes"] == table.nodes
    assert metrics["search.survivor_ratio"] == sum(table.counts) / table.nodes
    assert metrics["words.blocks_equivalent.calls"] == 0


def test_traced_battery_scans_through_the_checks_binding(spans):
    # image-cube-free reads checks.find_power, which checks binds on first
    # use, so the wrapper set in its place sees every scan of the check
    cfg = binwords.CheckConfig(image_trials=5, image_max_len=12, image_exhaustive_len=4)
    before = bindings(spans)
    tracer = spans.Tracer()
    with spans.tracing(binwords, tracer):
        (rep,) = binwords.run_all(cfg, names=["image-cube-free"], threads=1)
    metrics = spans.pass_metrics(tracer.names, tracer.drain())
    assert rep.passed and metrics["detect.calls"] > rep.instances, metrics
    assert all(a is b for a, b in zip(bindings(spans), before, strict=True))


def test_tracing_a_fresh_import():
    # after a bare `import binwords`, patch_table's reads of bw.detect,
    # bw.search and bw.checks load them; the traced scan goes through the
    # wrapper, and every binding is the original again afterwards
    fresh(f"""
        import importlib.util
        assert "binwords.detect" not in sys.modules
        sys.path.insert(0, {str(PERFBENCH)!r})
        spec = importlib.util.spec_from_file_location("perfbench_spans", {str(PERFBENCH / "spans.py")!r})
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        rows = spans.patch_table(binwords)
        assert all(callable(getattr(owner, attr, None)) for owner, attr, *_ in rows)
        before = [getattr(owner, attr) for owner, attr, *_ in rows]
        w = binwords.fixed_point_prefix(binwords.PRESETS["h"].morphism, 0, 500)
        tracer = spans.Tracer()
        with spans.tracing(binwords, tracer):
            assert not binwords.detect.scan_word(w, 2, 3).found
        metrics = spans.pass_metrics(tracer.names, tracer.drain())
        assert metrics["detect.calls"] == 1 and metrics["detect.candidates"] > 0, metrics
        after = [getattr(owner, attr) for owner, attr, *_ in spans.patch_table(binwords)]
        assert all(a is b for a, b in zip(after, before, strict=True))
    """)
