"""Workloads of the binwords benchmark: seeded op lists and their expected outcomes.

Every op is one timed call into the package plus an `observe` step, run
after the clock stops, that turns the result into plain fields compared
with the op's expectation.  The references used here (fixed-point
expansion, order-2 subword counts, candidate totals) are the benchmark's
own code and share nothing with the package under test.

Workloads (the seed only matters to battery):
  scan-free  fixed_point_prefix + scan_word on the g prefix (m=2, p=2) and
             the h prefix (m=2, p=3), n = 20000 each; both are power-free.
  search     longest_avoiding for (k, m, p) = (3, 2, 2), (2, 2, 3) at cap
             2000, then count_avoiding for both at n_max 26.
  battery    run_all(CheckConfig(seed=seed)) at default sizes, one thread,
             one op per check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("scan-free", "search", "battery")
# the calibration loop (calibrate.py) that does each workload's kind of work
CALIBRATION = {"scan-free": "numpy", "search": "python", "battery": "python"}

# the paper's generators, letter -> image; the package presets must agree
IMAGES = {"g": ((0, 1, 2), (0, 2), (1,)), "h": ((0, 0, 1), (0, 1, 1))}
POWER = {"g": 2, "h": 3}

SCAN_FREE_N = 20000
SEARCH_CAP = 2000
COUNT_N_MAX = 26
SEARCH_CASES = ((3, 2, 2), (2, 2, 3))

SHORT_LEN = 64  # below this the package scans with its python engine

CHECK_NAMES = (
    "erasure", "mirror", "desubstitution", "matrix", "cyclic",
    "cube-mod1", "cube-mod2", "image-cube-free", "identities", "consistency",
)


@dataclass
class Op:
    """One timed call with the fields its outcome must show."""

    label: str
    span: str  # name of the op's span in a traced run
    key: str  # canonical description, hashed into the op-list digest
    call: Callable[[], Any]
    observe: Callable[[Any], dict]
    expect: dict
    work_field: str  # observed field that counts the op's work units

    def inject_fault(self) -> None:
        """Make the first expected field wrong: a negative control that must fail."""
        key = next(iter(self.expect))
        self.expect[key] = ["injected fault", self.expect[key]]


# ---------------------------------------------------------------- references


@lru_cache(maxsize=None)
def reference_prefix(name: str, n: int) -> tuple[int, ...]:
    """First n letters of the fixed point of generator `name` at letter 0."""
    images = IMAGES[name]
    buf = list(images[0])
    i = 1
    while len(buf) < n:
        buf.extend(images[buf[i]])
        i += 1
    return tuple(buf[:n])


def pairs_upto(n: int, p: int) -> int:
    """Number of (start, period) pairs with start >= 0, period >= 1 and
    start + p * period <= n; equals sum over L = 1..n of floor(L / p)."""
    q, r = divmod(n, p)
    return p * q * (q - 1) // 2 + q * (r + 1)


def candidates(n: int, p: int, answer: Optional[tuple[int, int]]) -> int:
    """(start, period) pairs in canonical order up to and including the answer.

    Canonical order is by start, then period.  Every start s < s0 contributes
    floor((n - s) / p) periods, which sums to pairs_upto(n) - pairs_upto(n - s0);
    the answer's own start adds its period.  A power-free word has all pairs.
    """
    if answer is None:
        return pairs_upto(n, p)
    start, period = answer
    return pairs_upto(n, p) - pairs_upto(n - start, p) + period


def order2_counts(block: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Counts of every pattern of length 1 and 2 in block, by plain counting."""
    seen = [0] * k
    pairs = [0] * (k * k)
    for c in block:
        for a in range(k):
            pairs[a * k + c] += seen[a]
        seen[c] += 1
    return tuple(seen) + tuple(pairs)


def is_order2_power(letters: tuple[int, ...], k: int, p: int, start: int, period: int) -> bool:
    """True iff the p blocks of length period from start have equal order-2 counts."""
    if start < 0 or period < 1 or start + p * period > len(letters):
        return False
    blocks = [
        order2_counts(letters[start + j * period : start + (j + 1) * period], k)
        for j in range(p)
    ]
    return all(b == blocks[0] for b in blocks[1:])


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ops_digest(ops: list[Op]) -> str:
    return sha("\n".join(op.key for op in ops))


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _check_presets(bw) -> None:
    for name, images in IMAGES.items():
        got = bw.morphisms.PRESETS[name].morphism.images
        if got != images:
            raise RuntimeError(f"preset {name} has images {got}, expected {images}")


def _scan_fields(report, letters: tuple[int, ...], k: int, p: int) -> dict:
    occ = report.occurrence
    answer = None if occ is None else (occ.start, occ.period)
    return {
        "found": occ is not None,
        "start": None if occ is None else occ.start,
        "period": None if occ is None else occ.period,
        "candidates": candidates(report.word_len, p, answer),
        "recheck": None if occ is None else is_order2_power(letters, k, p, *answer),
    }


# ---------------------------------------------------------------- scan-free


def scan_free_ops(bw, expected: dict) -> list[Op]:
    _check_presets(bw)
    ops = []
    for name in ("g", "h"):
        f = bw.morphisms.PRESETS[name].morphism
        p, k, n = POWER[name], len(IMAGES[name]), SCAN_FREE_N
        ref = reference_prefix(name, n)

        def call(f=f, n=n, p=p):
            prefix = bw.morphisms.fixed_point_prefix(f, 0, n)
            return prefix, bw.detect.scan_word(prefix, 2, p)

        def observe(res, ref=ref, k=k, p=p):
            prefix, report = res
            return {"prefix_ok": prefix.letters == ref, **_scan_fields(report, ref, k, p)}

        label = f"{name} n={n} m=2 p={p}"
        ops.append(
            Op(label, "op.scan-free", f"scan-free {label}", call, observe,
               expected.get(label, {}), "candidates")
        )
    return ops


# ---------------------------------------------------------------- search


def search_ops(bw, expected: dict) -> list[Op]:
    ops = []
    for k, m, p in SEARCH_CASES:

        def call(k=k, m=m, p=p):
            return bw.search.longest_avoiding(k, m, p, SEARCH_CAP)

        def observe(cert):
            return {
                "outcome": cert.outcome,
                "max_length": cert.max_length,
                "witness_sha256": sha(str(cert.witness)),
                "counts_sha256": sha(json.dumps(list(cert.counts))),
                "nodes": cert.nodes,
            }

        label = f"longest k={k} m={m} p={p} cap={SEARCH_CAP}"
        ops.append(Op(label, "op.search", f"search {label}", call, observe,
                      expected.get(label, {}), "nodes"))
    for k, m, p in SEARCH_CASES:

        def call(k=k, m=m, p=p):
            return bw.search.count_avoiding(k, m, p, COUNT_N_MAX)

        def observe(table):
            return {"counts": list(table.counts), "nodes": table.nodes}

        label = f"count k={k} m={m} p={p} n_max={COUNT_N_MAX}"
        ops.append(Op(label, "op.search", f"search {label}", call, observe,
                      expected.get(label, {}), "nodes"))
    return ops


# ---------------------------------------------------------------- battery


def battery_ops(bw, expected: dict, seed: int) -> list[Op]:
    if tuple(bw.checks.CHECK_NAMES) != CHECK_NAMES:
        raise RuntimeError(f"package checks {bw.checks.CHECK_NAMES} differ from {CHECK_NAMES}")
    cfg = bw.checks.CheckConfig(seed=seed)
    ops = []
    for name in CHECK_NAMES:

        def call(name=name):
            return bw.checks.run_all(cfg, names=[name], threads=1)

        def observe(reports):
            (r,) = reports
            return {"passed": r.passed, "instances": r.instances}

        ops.append(Op(name, f"checks.{name}", f"battery {name} seed={seed}", call, observe,
                      expected.get(name, {}), "instances"))
    return ops


def build_ops(bw, workload: str, seed: int, expected: dict) -> list[Op]:
    if workload == "scan-free":
        return scan_free_ops(bw, expected["scan-free"])
    if workload == "search":
        return search_ops(bw, expected["search"])
    if workload == "battery":
        return battery_ops(bw, expected["battery"], seed)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(bw, workload: str) -> None:
    """One small op of the workload's kind: fills lookup tables, first numpy calls."""
    if workload == "scan-free":
        for name in ("g", "h"):
            f = bw.morphisms.PRESETS[name].morphism
            for n in (SHORT_LEN // 2, 4 * SHORT_LEN):
                bw.detect.scan_word(bw.morphisms.fixed_point_prefix(f, 0, n), 2, POWER[name])
    elif workload == "search":
        for k, m, p in SEARCH_CASES:
            bw.search.longest_avoiding(k, m, p, 50)
            bw.search.count_avoiding(k, m, p, 8)
    elif workload == "battery":
        small = bw.checks.CheckConfig(
            erasure_n=100, mirror_scan_len=50, mirror_max_factor=4, mirror_margin=500,
            desub_scan_len=100, desub_max_len=8, matrix_trials=20, cyclic_trials=20,
            cube_n_max=2, image_trials=5, image_max_len=12, image_exhaustive_len=4,
            identity_trials=20, consistency_trials=20,
        )
        bw.checks.run_all(small, threads=1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
