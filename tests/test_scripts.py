import importlib.util
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


SMALL_RUN = ("--skip-battery", "--scan-len", "300", "--search-cap", "20")


def test_reproduce_results_pass(tmp_path):
    out = tmp_path / "out"
    proc = run_script("reproduce_results.py", "--out", str(out), *SMALL_RUN)
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in out.iterdir()) == [
        "lift_h_order2.json", "prefixes.tsv", "scans.json", "searches.json",
    ]
    assert json.loads((out / "lift_h_order2.json").read_text())["determinant"] == 243
    certs = json.loads((out / "searches.json").read_text())["certificates"]
    caps = [(c["k"], c["p"], c["outcome"], c["max_length"]) for c in certs if c["cap"] == 20]
    assert caps == [(3, 2, "cap_reached", 20), (2, 3, "cap_reached", 20)]


def test_reproduce_results_mismatch_exit_one(tmp_path, monkeypatch, capsys):
    # negative control: one wrong frozen prefix fails a run that computes right
    script = load_script("reproduce_results.py")
    want = script.EXPECTED_PREFIXES["g"]
    monkeypatch.setitem(script.EXPECTED_PREFIXES, "g", want[:-1] + "0")
    argv = ["reproduce_results.py", "--out", str(tmp_path / "out"), *SMALL_RUN]
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 1
    assert capsys.readouterr().err == "MISMATCH against frozen expectations\n"


@pytest.mark.parametrize(
    "args",
    [
        ("--scan-len", "300", "--search-cap", "0"),
        ("--scan-len", "-1"),
        # an h prefix of 1 letter holds no square; 2**31 letters pass the int64 keys
        ("--scan-len", "1"),
        ("--scan-len", "2147483648"),
        # an --out that is a file or lies under one
        ("--out", "{file}"),
        ("--out", "{file}/out"),
    ],
)
def test_reproduce_results_bad_input_exit_two(tmp_path, args):
    # checked before the first stage: nothing printed, no artifact written
    out = tmp_path / "out"
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = [a.format(file=blocker) for a in args]
    proc = run_script("reproduce_results.py", "--out", str(out), *args, "--skip-battery")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("reproduce_results: ")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    assert not out.exists()
    assert blocker.read_text() == ""


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
        "--parent", "HEAD", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["seeds"] == [1]
    entry = record["workloads"]["search"]
    (run,) = entry["runs"]
    assert run["correct"] and run["failed"] == 0
    wall = entry["summary"]["wall_s"]
    assert 0 < wall["q1"] == wall["median"] == wall["q3"]
    # the claim rule, per metric, read off the pair and the two summaries
    (pair,) = entry["pairs"]
    better = load_bench().directions()
    assert set(entry["claim"]) == set(run["metrics"])
    for name, rule in entry["claim"].items():
        change, parent = entry["summary"][name], entry["parent_summary"][name]
        won = pair["metrics"][name]["winner"] == "change"
        assert (rule["wins"], rule["pairs"], rule["wins_9_of_10"]) == (won, 1, won)
        assert rule["parent_spread"] == 0
        gain = parent["median"] - change["median"]
        assert rule["gain"] == (-gain if better[name] == "higher" else gain)
        assert rule["holds"] == (won and rule["gain"] > 0)
    assert set(record["host"]) == {"nproc", "cpu_model", "python", "numpy"}
    assert record["host"]["nproc"] >= 1
    # the change runs from an unpacked copy of the working tree, its files
    # as they are now, not as committed, and from source
    with load_bench().checkout(None) as path:
        assert_no_bytecode(path)
        for name in ("src/binwords/search.py", "scripts/bench.py"):
            assert (path / name).read_bytes() == (ROOT / name).read_bytes()


def test_bench_claim_rule():
    # 9 of 10 pairs won and a median gain past the parent's quartile spread
    bench = load_bench()

    def runs(values):
        return [{"metrics": {"wall_s": v, "work_per_s": 1 / v}} for v in values]

    def entry(parent, change):
        pairs = [{"metrics": bench.compare(p, c, bench.directions())}
                 for p, c in zip(runs(parent), runs(change))]
        return {"parent_summary": bench.summary(runs(parent)),
                "summary": bench.summary(runs(change)), "pairs": pairs}

    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    spread = 1.675 - 1.225  # q3 - q1 of parent
    cases = [
        ([v - 0.5 for v in parent], 10, True),  # gain 0.5 > spread
        ([v - 0.4 for v in parent], 10, False),  # gain 0.4 < spread
        ([v - 0.5 for v in parent[:9]] + [2.5], 9, True),
        ([v - 0.5 for v in parent[:8]] + [2.5, 2.5], 8, False),  # 8 of 10
    ]
    for change, wins, holds in cases:
        rule = bench.claim(entry(parent, change), bench.directions())
        assert rule["wall_s"]["wins"] == rule["work_per_s"]["wins"] == wins
        assert rule["wall_s"]["holds"] == holds
        assert abs(rule["wall_s"]["parent_spread"] - spread) < 1e-12
        # higher is better: the gain is the rise of the median
        assert rule["work_per_s"]["gain"] > 0


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench():
    return load_script("bench.py")


def assert_no_bytecode(path: Path) -> None:
    assert (path / "src" / "binwords" / "__init__.py").is_file()
    assert not list(path.rglob("*.pyc"))


def test_bench_parent_checkout_runs_from_source(monkeypatch):
    # setup_s reads what perfbench reads on a fresh checkout: the unpacked
    # parent holds no bytecode, and a run there, with every set-up probe
    # it starts, writes none, whatever the caller's environment says
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    bench = load_bench()
    with bench.checkout("HEAD") as path:
        assert_no_bytecode(path)
        run = bench.run_once(path, "search", 1, 0.1)
        assert run["correct"] and run["metrics"]["setup_s"] > 0
        assert_no_bytecode(path)
