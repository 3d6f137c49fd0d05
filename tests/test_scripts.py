import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_results_budget_exit_three(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "reproduce_results.py"),
            "--out", str(tmp_path / "out"),
            "--budget-ms", "1",
            "--skip-battery",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "out" / "prefixes.tsv").exists()
