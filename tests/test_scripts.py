import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_reproduce_results_budget_exit_three(tmp_path):
    proc = run_script(
        "reproduce_results.py",
        "--out", str(tmp_path / "out"),
        "--budget-ms", "1",
        "--skip-battery",
    )
    assert proc.returncode == 3, proc.stderr
    assert "budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "out" / "prefixes.tsv").exists()


def test_growth_table_node_budget_exit_three():
    proc = run_script("growth_table.py", "--n-max", "30", "--node-budget", "10")
    assert proc.returncode == 3, proc.stderr
    assert "budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_growth_table_small_run():
    proc = run_script("growth_table.py", "--n-max", "5")
    assert proc.returncode == 0, proc.stderr
    assert "length\tcount\n" in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("--n-max", "0"),
        ("--family", "9,2,2"),
        # a bad family or --n-max after a good family: no table is printed
        ("--family", "3,2,2", "--family", "9,2,2", "--n-max", "5"),
        ("--family", "3,2,2", "--family", "2,5,2", "--n-max", "5"),
        ("--family", "3,2,2", "--family", "2,2,1", "--n-max", "5"),
        ("--family", "3,2,2", "--n-max", "0"),
    ],
)
def test_growth_table_bad_input_exit_two(tmp_path, args):
    out_dir = tmp_path / "tables"
    proc = run_script("growth_table.py", *args, "--out-dir", str(out_dir))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("growth_table: ")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "args", [("--scan-len", "300", "--search-cap", "0"), ("--scan-len", "-1")]
)
def test_reproduce_results_bad_input_exit_two(tmp_path, args):
    # checked before the first stage: nothing printed, no artifact written
    out = tmp_path / "out"
    proc = run_script("reproduce_results.py", "--out", str(out), *args, "--skip-battery")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("reproduce_results: ")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    assert not out.exists()


def test_bench_unknown_parent_exit_two(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = run_script(
        "bench.py", "--parent", "no-such-rev", "--workload", "search", "--seeds", "1",
        "--seconds", "0.1", "--out", str(out),
    )
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "no-such-rev" in proc.stderr
    # every perfbench run logs a "seed=" line to stderr; none may start
    assert "seed=" not in proc.stderr
    assert not out.exists()


def test_bench_smoke(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = run_script(
        "bench.py", "--workload", "search", "--seeds", "1", "--seconds", "0.1",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["seeds"] == [1]
    (run,) = record["workloads"]["search"]["runs"]
    assert run["correct"] and run["failed"] == 0
    wall = record["workloads"]["search"]["summary"]["wall_s"]
    assert 0 < wall["q1"] == wall["median"] == wall["q3"]
    assert set(record["host"]) == {"nproc", "cpu_model", "python", "numpy"}
    assert record["host"]["nproc"] >= 1
