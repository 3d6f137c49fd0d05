"""Spans around the package's public functions, recorded from outside it.

`tracing(bw, tracer)` replaces, for the duration of a `with` block, the
bindings that callers actually use (a `from .x import y` copy is patched
where it lives, e.g. `binwords.checks.find_power`) and restores every
original on exit.

A span has a name, start, end, parent span and op id.  Functions that run
millions of times per op (the words layer, morphism application) are
leaves: their calls are rolled up into one record per (parent span, name)
holding the call count, total time and summed size, which keeps memory and
overhead bounded.  A span's self time is its duration minus its child spans
and leaf rollups; the cost of calling a leaf's wrapper falls partly into the
parent's self time, and trace.overhead_s reports what tracing costs in all.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Optional

from workloads import CHECK_NAMES, SHORT_LEN, candidates

SPAN, LEAF = "span", "leaf"


class Tracer:
    """In-memory span store for one traced pass at a time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op = -1
        self.reset()

    def reset(self) -> None:
        # span record: [name id, start ns, end ns, parent, op, rollups, meta]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.root: dict[int, list[int]] = {}  # leaf calls outside any span
        self._roll = self.root

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [nid, perf_counter_ns(), 0, parent, self.op, {}, None]
        self.spans.append(rec)
        self._stack.append(idx)
        self._roll = rec[5]
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()
        self._roll = self.spans[self._stack[-1]][5] if self._stack else self.root

    def drain(self) -> dict:
        """This pass's records in a JSON-ready form; the store starts empty again."""
        if self._stack:
            raise RuntimeError("drain with open spans")
        out = {
            "spans": [
                [nid, start, end, parent, op, meta,
                 [[lid, *acc] for lid, acc in rolls.items()]]
                for nid, start, end, parent, op, rolls, meta in self.spans
            ],
            "root": [[lid, *acc] for lid, acc in self.root.items()],
        }
        self.reset()
        return out


def _span(tracer: Tracer, name: str, fn: Callable, meta_of: Optional[Callable]) -> Callable:
    nid = tracer.name_id(name)

    def wrapped(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            res = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if meta_of is not None:
            tracer.spans[idx][6] = meta_of(args, kwargs, res)
        return res

    return wrapped


def _leaf(tracer: Tracer, name: str, fn: Callable, size_of: Optional[Callable]) -> Callable:
    nid = tracer.name_id(name)

    def wrapped(*args, **kwargs):
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter_ns() - t0
            acc = tracer._roll.get(nid)
            if acc is None:
                acc = tracer._roll[nid] = [0, 0, 0]
            acc[0] += 1
            acc[1] += dt
            if size_of is not None:
                acc[2] += size_of(args)

    return wrapped


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _detect_meta(args, kwargs, res) -> list:
    """[n, p, found, start, period] of one detect call; start is None when unknown."""
    n, p = len(_arg(args, kwargs, 0, "w")), _arg(args, kwargs, 2, "p")
    if isinstance(res, bool):  # is_power_free: the occurrence is not returned
        return [n, p, not res, None, None]
    occ = getattr(res, "occurrence", res)  # ScanReport, Occurrence or None
    if occ is None:
        return [n, p, False, None, None]
    return [n, p, True, occ.start, occ.period]


def _search_meta(args, kwargs, res) -> list:
    """[nodes, survivors] of one search call."""
    return [res.nodes, sum(res.counts)]


def patch_table(bw) -> list[tuple]:
    """(owner, attribute, span name, kind, meta or size function) for every patch."""
    d, s, c, m, w = bw.detect, bw.search, bw.checks, bw.morphisms, bw.words
    return [
        (d, "scan_word", "detect.scan_word", SPAN, _detect_meta),
        (c, "find_power", "detect.find_power", SPAN, _detect_meta),
        (s, "is_power_free", "detect.is_power_free", SPAN, _detect_meta),
        (s, "longest_avoiding", "search.longest_avoiding", SPAN, _search_meta),
        (s, "count_avoiding", "search.count_avoiding", SPAN, _search_meta),
        (c, "lift_matrix", "morphisms.lift_matrix", SPAN, None),
        (m, "fixed_point_prefix", "morphisms.fixed_point_prefix", LEAF, lambda a: a[2]),
        (c, "fixed_point_prefix", "morphisms.fixed_point_prefix", LEAF, lambda a: a[2]),
        (m.Morphism, "__call__", "morphisms.apply", LEAF, None),
        (d, "word", "words.word", LEAF, None),
        (d, "signature", "words.signature", LEAF, None),
        (c, "signature", "words.signature", LEAF, None),
        (m, "signature", "words.signature", LEAF, None),
        (w.BinomialSignature, "concat", "words.concat", LEAF, None),
        (w.BinomialSignature, "extend", "words.extend", LEAF, None),
        (w.PrefixIndex, "__init__", "words.PrefixIndex.init", LEAF, None),
        (w.PrefixIndex, "blocks_equivalent", "words.blocks_equivalent", LEAF, None),
    ]


@contextmanager
def tracing(bw, tracer: Tracer):
    """Install the wrappers of patch_table; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, kind, extra in patch_table(bw):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            make = _span if kind == SPAN else _leaf
            setattr(owner, attr, make(tracer, name, original, extra))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    for owner, attr, original in saved:
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} was not restored")


# ---------------------------------------------------------------- metrics


def pass_metrics(names: list[str], rec: dict) -> dict[str, float]:
    """Per-layer counts and times (seconds) of one drained pass.

    detect.* covers every detect entry point the workloads call; its per-call
    and per-candidate times use whole call durations (words-layer children
    included), and detect.candidates is the closed form of workloads.candidates,
    not the package's own counter.  search.us_per_node likewise uses whole
    search call durations.  A ratio whose base is 0 reads 0.
    """
    spans = rec["spans"]
    name_of = [names[s[0]] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    size: dict[str, int] = {}

    def add(name: str, n: int, ns: int, sz: int = 0) -> None:
        calls[name] = calls.get(name, 0) + n
        self_ns[name] = self_ns.get(name, 0) + ns
        size[name] = size.get(name, 0) + sz

    verify_ns = witness_ns = suffix_tests = 0
    det = {"calls": 0, "found": 0, "candidates": 0, "ns": 0,
           "short_calls": 0, "short_ns": 0, "long_calls": 0, "long_ns": 0}
    nodes = survivors = 0
    for i, s in enumerate(spans):
        name = name_of[i]
        parent = name_of[s[3]] if s[3] >= 0 else ""
        rolls = s[6]
        add(name, 1, dur[i] - child[i] - sum(r[2] for r in rolls))
        for lid, n, ns, sz in rolls:
            lname = names[lid]
            add(lname, n, ns, sz)
            if lname == "words.signature" and name.startswith("detect."):
                verify_ns += ns
            if lname == "words.blocks_equivalent" and name.startswith("search."):
                suffix_tests += n
        if s[5] is None:  # the call raised; run.py counts the op as failed
            continue
        if name.startswith("detect."):
            n, p, found, start, period = s[5]
            det["calls"] += 1
            det["found"] += found
            det["ns"] += dur[i]
            band = "short" if n < SHORT_LEN else "long"
            det[band + "_calls"] += 1
            det[band + "_ns"] += dur[i]
            if start is not None or not found:
                det["candidates"] += candidates(n, p, None if not found else (start, period))
            if parent.startswith("search."):
                witness_ns += dur[i]
        if name.startswith("search."):
            nodes += s[5][0]
            survivors += s[5][1]
    for lid, n, ns, sz in rec["root"]:
        add(names[lid], n, ns, sz)

    def cnt(name: str) -> int:
        return calls.get(name, 0)

    def sec(*names_: str) -> float:
        return sum(self_ns.get(x, 0) for x in names_) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    detect_names = [x for x in calls if x.startswith("detect.")]
    search_ns = sum(dur[i] for i, x in enumerate(name_of) if x.startswith("search."))
    out = {
        "detect.calls": det["calls"],
        "detect.self_s": sec(*detect_names),
        "detect.candidates": det["candidates"],
        "detect.ns_per_candidate": ratio(det["ns"], det["candidates"]),
        "detect.us_per_call_short": ratio(det["short_ns"], det["short_calls"]) / 1e3,
        "detect.us_per_call_long": ratio(det["long_ns"], det["long_calls"]) / 1e3,
        "detect.hit_ratio": ratio(det["found"], det["calls"]),
        "detect.verify_s": verify_ns / 1e9,
        "words.signature.calls": cnt("words.signature"),
        "words.signature.self_s": sec("words.signature"),
        "words.signature.us_per_call": ratio(sec("words.signature") * 1e6, cnt("words.signature")),
        "words.concat.calls": cnt("words.concat"),
        "words.concat.self_s": sec("words.concat"),
        "words.extend.calls": cnt("words.extend"),
        "words.extend.self_s": sec("words.extend"),
        "words.PrefixIndex.init.calls": cnt("words.PrefixIndex.init"),
        "words.PrefixIndex.init.self_s": sec("words.PrefixIndex.init"),
        "words.blocks_equivalent.calls": cnt("words.blocks_equivalent"),
        "words.blocks_equivalent.self_s": sec("words.blocks_equivalent"),
        "words.blocks_equivalent.ns_per_call": ratio(
            sec("words.blocks_equivalent") * 1e9, cnt("words.blocks_equivalent")),
        "words.word.self_s": sec("words.word"),
        "search.longest_avoiding.self_s": sec("search.longest_avoiding"),
        "search.count_avoiding.self_s": sec("search.count_avoiding"),
        "search.nodes": nodes,
        "search.us_per_node": ratio(search_ns / 1e3, nodes),
        "search.suffix_tests_per_node": ratio(suffix_tests, nodes),
        "search.survivor_ratio": ratio(survivors, nodes),
        "search.witness_verify_s": witness_ns / 1e9,
        "morphisms.fixed_point_prefix.self_s": sec("morphisms.fixed_point_prefix"),
        "morphisms.fixed_point_prefix.letters_per_s": ratio(
            size.get("morphisms.fixed_point_prefix", 0), sec("morphisms.fixed_point_prefix")),
        "morphisms.lift_matrix.self_s": sec("morphisms.lift_matrix"),
        "morphisms.apply.self_s": sec("morphisms.apply"),
    }
    for check in CHECK_NAMES:
        out[f"checks.{check}.self_s"] = sec(f"checks.{check}")
    return out


def is_count(metric: str) -> bool:
    """Counts and ratios of counts repeat exactly; everything else is a time."""
    return metric.endswith((".calls", ".candidates", ".nodes", ".instances",
                            ".hit_ratio", ".suffix_tests_per_node", ".survivor_ratio"))


def combine(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first pass (listing any that differ later); median of times."""
    first = per_pass[0]
    unstable = [k for k in first if is_count(k) and any(p[k] != first[k] for p in per_pass)]
    out = {
        k: first[k] if is_count(k) else statistics.median(p[k] for p in per_pass)
        for k in first
    }
    return out, unstable
