"""Regenerate perfbench/expected.json, the frozen outcomes every op is checked against.

    python3 perfbench/freeze.py

Records the outcome of one run of each op with the package as it stands
(battery at seed 0; its instance counts do not depend on the seed).  Run it
only when an outcome is meant to change, and review the diff.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    bw = run.import_package()
    expected = {}
    for w in workloads.WORKLOADS:
        ops = workloads.build_ops(bw, w, 0, {w: {}})
        expected[w] = {op.label: op.observe(op.call()) for op in ops}
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
