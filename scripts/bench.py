#!/usr/bin/env python3
"""Run the perfbench workloads over several seeds and write one BENCH record.

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` from the root of a checkout; the last line it prints is one JSON
object with the end-to-end metrics.  The record gives, per workload, the
seeds, every run's metrics, and the median and quartiles of each metric,
plus the host (nproc, CPU model) and the Python and numpy versions.

The runs never use this checkout in place.  The working tree's files,
tracked and untracked but not ignored, are copied into a temporary
directory, and every run of the change starts there.  With --parent REV,
the files of REV are unpacked by `git archive` into another temporary
directory, and every seed runs once on each side, the order alternating
from pair to pair so that a drift of the host's speed does not favour one
side.  Each pair then records, per metric, the ratio change / parent and
the winner, and each workload the claim rule per metric: whether the
change won at least 9 of 10 pairs, and whether its median beats the
parent's by more than the parent's quartile spread; a claimed gain needs
both ("holds").  Both sides run from source, as a fresh checkout does:
neither copy holds a `__pycache__`, and every run sets
PYTHONDONTWRITEBYTECODE=1, so each set-up probe compiles the modules its
workload loads and `setup_s` reads what a run of perfbench/run.py on a
fresh checkout reads.  The directories are removed afterwards; git's state
and this checkout are not touched.

    python3 scripts/bench.py --seeds 401 402 403 --out BENCH.json
    python3 scripts/bench.py --parent HEAD~1 --workload search \\
        --seeds 401 402 403 404 405 406 407 408 409 410 --out BENCH.json

Exit status: 0 when every run passed its own correctness checks, 1 if any
run failed, 2 on bad arguments (a --parent that names no commit is caught
before any run starts).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan-free", "search", "battery")


def directions() -> dict[str, str]:
    """Metric name -> "lower" or "higher", the direction that is better."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its metrics, its env line and whether it passed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"perfbench gave no result in {checkout} ({workload}, seed {seed}):\n"
            + proc.stderr[-2000:]
        )
    result = json.loads(lines[-1])
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), {})
    return {
        "seed": seed,
        "correct": result["correct"] and proc.returncode == 0,
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "env": env,
    }


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summary(runs: list[dict]) -> dict[str, dict[str, float]]:
    return {
        name: quartiles([r["metrics"][name] for r in runs])
        for name in runs[0]["metrics"]
    }


def compare(parent: dict, change: dict, better: dict[str, str]) -> dict:
    """Per metric of one pair: the ratio change / parent and the winner."""
    out = {}
    for name, p in parent["metrics"].items():
        c = change["metrics"][name]
        if c == p:
            winner = "tie"
        elif (c < p) == (better.get(name, "lower") == "lower"):
            winner = "change"
        else:
            winner = "parent"
        out[name] = {"ratio": c / p if p else None, "winner": winner}
    return out


def claim(entry: dict, better: dict[str, str]) -> dict:
    """Per metric, the rule a claimed gain must meet: the change wins at
    least 9 of 10 pairs, and its median beats the parent's by more than the
    parent's quartile spread (q3 - q1)."""
    out = {}
    for name, par in entry["parent_summary"].items():
        wins = sum(p["metrics"][name]["winner"] == "change" for p in entry["pairs"])
        sign = -1 if better.get(name, "lower") == "higher" else 1
        gain = sign * (par["median"] - entry["summary"][name]["median"])
        spread = par["q3"] - par["q1"]
        out[name] = {
            "wins": wins,
            "pairs": len(entry["pairs"]),
            "gain": gain,
            "parent_spread": spread,
            "wins_9_of_10": 10 * wins >= 9 * len(entry["pairs"]),
            "beyond_spread": gain > spread,
        }
        out[name]["holds"] = out[name]["wins_9_of_10"] and out[name]["beyond_spread"]
    return out


@contextmanager
def checkout(rev: Optional[str]) -> Iterator[Path]:
    """The committed files of rev, or with rev None the working tree's
    tracked and untracked files that git does not ignore, unpacked into a
    temporary directory with no bytecode; the directory is removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        path, tar = Path(tmp) / "tree", Path(tmp) / "tree.tar"
        path.mkdir()
        if rev is None:
            names = subprocess.run(
                ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                cwd=ROOT, check=True, capture_output=True, text=True,
            ).stdout.split("\0")
            with tarfile.open(tar, "w") as out:
                for name in names:
                    if name and (ROOT / name).is_file():  # not deleted since the last commit
                        out.add(ROOT / name, arcname=name)
        else:
            subprocess.run(["git", "archive", "--output", str(tar), rev],
                           cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-xf", str(tar), "-C", str(path)], check=True, capture_output=True)
        yield path


def bench(workloads: list[str], seeds: list[int], seconds: float,
          change: Path, parent: Optional[Path]) -> dict:
    better = directions()
    record: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        change_runs, parent_runs, pairs = [], [], []
        for i, seed in enumerate(seeds):
            if parent is None:
                change_runs.append(run_once(change, workload, seed, seconds))
                log(workload, seed, change_runs[-1])
                continue
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                got[side] = run_once(parent if side == "parent" else change,
                                     workload, seed, seconds)
                log(workload, seed, got[side], side)
            parent_runs.append(got["parent"])
            change_runs.append(got["change"])
            pairs.append({"seed": seed, "first": order[0],
                          "metrics": compare(got["parent"], got["change"], better)})
        entry: dict = {"runs": change_runs, "summary": summary(change_runs)}
        if parent is not None:
            entry["parent_runs"] = parent_runs
            entry["parent_summary"] = summary(parent_runs)
            entry["pairs"] = pairs
            entry["claim"] = claim(entry, better)
        record["workloads"][workload] = entry
    env = change_runs[0]["env"]
    record["host"] = {key: env.get(key) for key in ("nproc", "cpu_model", "python", "numpy")}
    return record


def log(workload: str, seed: int, run: dict, side: str = "change") -> None:
    wall = run["metrics"].get("wall_s")
    print(f"{workload} seed={seed} {side}: wall_s={wall} correct={run['correct']}",
          file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default: every workload")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--parent", metavar="REV", help="interleave with runs of this git revision")
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    parent = None
    if args.parent is not None:
        parent = subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet", f"{args.parent}^{{commit}}"],
            cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip()
        if not parent:
            print(f"bench.py: --parent {args.parent!r} names no commit", file=sys.stderr)
            return 2
    workloads = args.workload or list(WORKLOADS)
    with checkout(None) as change:
        if parent is None:
            record = bench(workloads, args.seeds, args.seconds, change, None)
        else:
            with checkout(parent) as path:
                record = bench(workloads, args.seeds, args.seconds, change, path)
            record["parent"] = parent
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    runs = [r for w in record["workloads"].values()
            for r in w["runs"] + w.get("parent_runs", [])]
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
