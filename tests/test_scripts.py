import json
import os
import subprocess
import sys
from pathlib import Path

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
