"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The same seed yields the same op list (equal digests); battery changes
   with the seed, scan-free and search do not.
2. The closed-form candidate count matches a brute-force enumeration of
   the canonical order, and equals ScanReport.candidates from the vector
   engine on power-free words.
3. Negative control: a deliberately wrong expectation makes an op fail on
   every workload, and makes run.py report failed > 0 and exit nonzero.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

FREE_LENGTHS = (1, 2, 5, 63, 64, 100, 777, 2000)


def brute_candidates(n: int, p: int, answer) -> int:
    count = 0
    for s in range(n):
        for t in range(1, (n - s) // p + 1):
            count += 1
            if (s, t) == answer:
                return count
    return count


def check_digests(bw, expected) -> list[str]:
    errors = []
    for w in workloads.WORKLOADS:
        a = workloads.ops_digest(workloads.build_ops(bw, w, 5, expected))
        b = workloads.ops_digest(workloads.build_ops(bw, w, 5, expected))
        c = workloads.ops_digest(workloads.build_ops(bw, w, 6, expected))
        if a != b:
            errors.append(f"{w}: seed 5 gave two different op lists")
        if (a != c) != (w == "battery"):
            errors.append(f"{w}: seeds 5 and 6 {'differ' if a != c else 'agree'} unexpectedly")
    return errors


def check_candidates(bw) -> list[str]:
    errors = []
    for n in range(0, 30):
        for p in (2, 3, 4):
            answers = [None] + [(s, t) for s in range(n) for t in range(1, (n - s) // p + 1)]
            for ans in answers:
                if workloads.candidates(n, p, ans) != brute_candidates(n, p, ans):
                    errors.append(f"closed form differs from enumeration at n={n} p={p} {ans}")
    for name in ("g", "h"):
        p = workloads.POWER[name]
        for n in FREE_LENGTHS:
            prefix = workloads.reference_prefix(name, n)
            report = bw.detect.scan_word(prefix, 2, p, alphabet=len(workloads.IMAGES[name]),
                                         engine="vector")
            if report.found:
                errors.append(f"{name} prefix of length {n} is not power-free")
            elif report.candidates != workloads.candidates(n, p, None):
                errors.append(f"{name} n={n}: vector engine counted {report.candidates},"
                              f" closed form {workloads.candidates(n, p, None)}")
    return errors


def check_negative_control(bw, expected) -> list[str]:
    errors = []
    for w in workloads.WORKLOADS:
        op = workloads.build_ops(bw, w, 0, expected)[0]
        good = run.Tally()
        run.run_pass([op], good, workloads.CALIBRATION[w])
        op.inject_fault()
        bad = run.Tally()
        run.run_pass([op], bad, workloads.CALIBRATION[w])
        if good.failed != 0 or bad.failed != 1:
            errors.append(f"{w}: true expectation failed {good.failed}, wrong one {bad.failed}")
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", "battery",
         "--seed", "0", "--seconds", "1", "--trace", "0", "--inject-fault"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode == 0 or result["correct"] or result["failed"] == 0:
        errors.append(f"--inject-fault run exited {proc.returncode} with {result}")
    return errors


def main() -> int:
    bw = run.import_package()
    expected = workloads.load_expected()
    errors = []
    for check in (lambda: check_digests(bw, expected), lambda: check_candidates(bw),
                  lambda: check_negative_control(bw, expected)):
        errors += check()
    for e in errors:
        print(f"selfcheck error: {e}")
    print("selfcheck: " + ("ok" if not errors else f"{len(errors)} failure(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
