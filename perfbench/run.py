"""Benchmark of the binwords package: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout (Python 3.10+, numpy; nothing to build):

    python3 perfbench/run.py --workload search --seed 7 --seconds 40 --trace 0

The workloads are described in workloads.py.  A run
  1. times `import binwords` plus one warm-up op in SETUP_PROBES fresh
     interpreters, one after another, each followed by one calibration
     loop, and reports the median (setup_s; skipped in a traced run);
  2. builds the op list from the seed (expected outcomes come from
     expected.json; see freeze.py);
  3. runs the whole op list in passes, one thread, until --seconds is spent
     (at least one pass), checking every op's outcome after its clock stops
     and then timing the workload's calibration loop (calibrate.py).

Every end-to-end time is calibrated: the measured time divided by the mean
calibration-loop time of the same pass (or probe) and multiplied by the
loop's nominal time, which cancels the host's own speed swings; the raw
times are printed and recorded too.  With --trace 0 it prints the
end-to-end metrics: the median over passes of the pass's summed op times
(wall_s) and of work units per second (work_per_s: candidates, search
nodes or check instances), the median and 95th percentile over the ops of
each op's median latency (op_p50_ms, op_p95_ms; with 2, 4 or 10 distinct
ops, p95 is close to the slowest), the median set-up time (setup_s) and
peak resident memory.
With --trace 1 it spends half the time untraced and half traced (see
spans.py) and prints the per-layer metrics, in raw seconds, and
trace.overhead_s, the traced minus the untraced calibrated wall_s.

Any op whose outcome differs from its expectation, that raises, or that a
budget aborts counts as failed; the run then exits 1.  --inject-fault
corrupts the first op's expectation, a negative control that must fail.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A full record (environment, every pass and op time,
and in a traced run every span) is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# one thread everywhere, for this process and the set-up probes it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

import workloads  # noqa: E402  (after the thread settings above)
import calibrate  # noqa: E402
import spans  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first op's expectation (negative control)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import binwords from the checkout's src/, and only from there."""
    sys.path.insert(0, str(SRC))
    import binwords

    if Path(binwords.__file__).resolve().parent != SRC / "binwords":
        raise RuntimeError(f"imported binwords from {binwords.__file__}, not {SRC}")
    return binwords


def setup_probe(workload: str) -> None:
    t0 = time.perf_counter()
    bw = import_package()
    workloads.warm_up(bw, workload)
    setup = time.perf_counter() - t0
    print(repr(setup), repr(calibrate.timed(workloads.CALIBRATION[workload])))


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(set-up seconds, calibration-loop seconds) of each probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        setup, cal = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup), float(cal)))
    return samples


def read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment(seed: int) -> dict:
    import numpy

    model = ""
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(msg)
            print(f"FAIL {msg}", file=sys.stderr)


@dataclass
class Pass:
    wall_s: float  # the whole pass: ops, checks and calibration loops
    op_s: list[float]
    cal_s: list[float]  # the calibration loop after each op
    work: int
    outcomes: list[dict]


def run_pass(ops, tally: Tally, calibration: str, tracer=None) -> Pass:
    """One pass over the op list, each op followed by the calibration loop."""
    op_s: list[float] = []
    cal_s: list[float] = []
    outcomes: list[dict] = []
    work = 0
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        tally.attempted += 1
        span = None
        if tracer is not None:
            tracer.op = i
            span = tracer.open(tracer.name_id(op.span))
        t0 = time.perf_counter()
        try:
            res = op.call()
        except Exception:  # the pass must go on; the op counts as failed
            op_s.append(time.perf_counter() - t0)
            if span is not None:
                tracer.close(span)
            tally.fail(f"{op.label}: raised\n{traceback.format_exc()}")
            outcomes.append({})
        else:
            op_s.append(time.perf_counter() - t0)
            if span is not None:
                tracer.close(span)
            seen = op.observe(res)
            outcomes.append(seen)
            work += seen[op.work_field]
            wrong = {k: (seen.get(k), v) for k, v in op.expect.items() if seen.get(k) != v}
            if wrong or not op.expect:
                tally.fail(f"{op.label}: (observed, expected) {wrong or 'no expectation'}")
        cal_s.append(calibrate.timed(calibration))
    return Pass(time.perf_counter() - t_pass, op_s, cal_s, work, outcomes)


def run_passes(ops, seconds: float, tally: Tally, calibration: str,
               tracer=None) -> tuple[list[Pass], list[dict]]:
    """Passes until the next one would end past `seconds`, at least one; with
    a tracer, also each pass's drained spans."""
    passes, traces = [], []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(ops, tally, calibration, tracer))
        if tracer is not None:
            traces.append(tracer.drain())
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - t0 + typical > seconds:
            return passes, traces


def calibrated_op_s(p: Pass, calibration: str) -> list[float]:
    """The pass's op times in seconds at the calibration loop's nominal speed."""
    scale = calibrate.NOMINAL_S[calibration] / statistics.fmean(p.cal_s)
    return [s * scale for s in p.op_s]


def timings(passes: list[Pass], calibration: str) -> dict[str, float]:
    """wall_s and work_per_s, medians over the passes, and the median and 95th
    percentile over the ops of each op's median latency (s)."""
    per_pass = [calibrated_op_s(p, calibration) for p in passes]
    per_op = [statistics.median(times) for times in zip(*per_pass)]
    cuts = statistics.quantiles(per_op, n=20, method="inclusive") if len(per_op) > 1 else per_op * 19
    return {
        "wall_s": statistics.median(sum(ops) for ops in per_pass),
        "work_per_s": statistics.median(p.work / sum(ops) for p, ops in zip(passes, per_pass)),
        "op_p50_s": statistics.median(per_op),
        "op_p95_s": cuts[18],
    }


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]],
               calibration: str) -> dict[str, tuple[float, str]]:
    t = timings(passes, calibration)
    nominal = calibrate.NOMINAL_S[calibration]
    return {
        "wall_s": (t["wall_s"], "s"),
        "work_per_s": (t["work_per_s"], "1/s"),
        "op_p50_ms": (t["op_p50_s"] * 1e3, "ms"),
        "op_p95_ms": (t["op_p95_s"] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(s * nominal / cal for s, cal in setup), "s"),
    }


def per_layer(ops, untraced, traced, traces, names, calibration) -> tuple[dict, list[str]]:
    layer, unstable = spans.combine([spans.pass_metrics(names, t) for t in traces])
    instances = {op.span: seen.get("instances", 0) for op, seen in zip(ops, traced[0].outcomes)}
    for check in workloads.CHECK_NAMES:
        layer[f"checks.{check}.instances"] = instances.get(f"checks.{check}", 0)
    layer["trace.overhead_s"] = (
        timings(traced, calibration)["wall_s"] - timings(untraced, calibration)["wall_s"]
    )
    return layer, unstable


UNITS = (  # per-layer metric suffix -> unit, most specific first
    ("letters_per_s", "1/s"), ("ns_per_candidate", "ns"), ("ns_per_call", "ns"),
    ("us_per_call_short", "us"), ("us_per_call_long", "us"), ("us_per_call", "us"),
    ("us_per_node", "us"), ("_ratio", "ratio"), ("_per_node", "ratio"), ("_s", "s"),
)


def unit_of(metric: str) -> str:
    return next((unit for suffix, unit in UNITS if metric.endswith(suffix)), "count")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "binwords" / "__init__.py").is_file():
        print(f"perfbench: no binwords package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    load_before = read_text("/proc/loadavg").strip()
    setup = [] if args.trace else measure_setup(args.workload)
    bw = import_package()
    workloads.warm_up(bw, args.workload)
    env = environment(args.seed)
    ops = workloads.build_ops(bw, args.workload, args.seed, workloads.load_expected())
    if args.inject_fault:
        ops[0].inject_fault()
    digest = workloads.ops_digest(ops)

    calibration = workloads.CALIBRATION[args.workload]
    calibrate.timed(calibration)  # warm-up
    tally = Tally()
    traced, traces = [], []
    if args.trace:
        untraced, _ = run_passes(ops, args.seconds / 2, tally, calibration)
        tracer = spans.Tracer()
        with spans.tracing(bw, tracer):
            traced, traces = run_passes(ops, args.seconds / 2, tally, calibration, tracer)
        metrics, unstable = per_layer(ops, untraced, traced, traces, tracer.names, calibration)
        for name in unstable:
            tally.fail(f"count {name} differs between traced passes")
        report = {k: (v, unit_of(k)) for k, v in metrics.items()}
    else:
        untraced, _ = run_passes(ops, args.seconds, tally, calibration)
        report = end_to_end(untraced, setup, calibration)
    passes = untraced + traced
    env.update(loadavg_before=load_before, loadavg_after=read_text("/proc/loadavg").strip())
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}"
          f" ops={len(ops)} ops_sha256={digest} passes={len(untraced)}+{len(traced)} traced")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"setup_samples_s (set-up, calibration loop) {setup}")
    print(f"calibration {calibration} nominal_s={calibrate.NOMINAL_S[calibration]}"
          f" median_s={statistics.median(s for p in passes for s in p.cal_s)}")
    print(f"op_samples {sum(len(p.op_s) for p in untraced)} of {len(ops)} distinct ops")
    print("raw_s median pass wall_s={} op sum={}".format(
        statistics.median(p.wall_s for p in untraced),
        statistics.median(sum(p.op_s) for p in untraced)))
    print(f"fail_frac {tally.failed / tally.attempted} ({tally.failed}/{tally.attempted})")
    for name, (value, unit) in report.items():
        print(f"{name} {value} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops_sha256": digest, "env": env, "setup_s": setup,
        "calibration": calibration, "calibration_nominal_s": calibrate.NOMINAL_S[calibration],
        "passes": [{"wall_s": p.wall_s, "work": p.work, "op_s": p.op_s, "cal_s": p.cal_s,
                    "traced": i >= len(untraced)} for i, p in enumerate(passes)],
        "metrics": {k: v for k, (v, _) in report.items()},
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.messages,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record))
    if traces:
        (OUT / f"{stem}-spans.json").write_text(json.dumps({"names": tracer.names,
                                                            "passes": traces}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
