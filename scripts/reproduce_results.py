#!/usr/bin/env python3
"""Run the headline computations end to end and write their artifacts.

Covers, at the default scale:
  - the displayed fixed-point prefixes of the three built-in morphisms
  - power scans over length-5000 prefixes (squares for the ternary word,
    cubes and squares for the binary one)
  - the four avoidance searches that pin down alphabet-size optimality
  - the exact lifted matrix of the binary generator and its determinant
  - the full verification battery at default trial counts

Everything lands in --out as JSON/text, plus a console summary.  Exits 1
if any computation disagrees with the frozen expectations, else 3 if a
--budget-ms budget ran out before every computation finished.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from binwords import (
    BudgetExceededError,
    CheckConfig,
    PRESETS,
    aggregate,
    aggregate_exit_code,
    fixed_point_prefix,
    lift_matrix,
    longest_avoiding,
    run_all,
    scan_fixed_point,
)

EXPECTED_PREFIXES = {
    "g": "012021012102012021020121",
    "h": "001001011001001011001011011",
    "gtilde2": "1210201210120210201202101210",
}


@dataclasses.dataclass(frozen=True)
class Config:
    out: Path
    scan_len: int = 5000
    search_cap: int = 50
    budget_ms: int | None = None


def dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def reproduce_prefixes(cfg: Config) -> bool:
    ok = True
    lines = []
    for name, want in EXPECTED_PREFIXES.items():
        preset = PRESETS[name]
        got = str(fixed_point_prefix(preset.morphism, preset.seed_letter, len(want)))
        match = got == want
        ok &= match
        lines.append(f"{name}\t{got}\t{'ok' if match else 'MISMATCH'}")
        print(f"prefix {name:8s} {'ok' if match else 'MISMATCH'}  {got}")
    (cfg.out / "prefixes.tsv").write_text("\n".join(lines) + "\n")
    return ok


def reproduce_scans(cfg: Config) -> bool:
    jobs = [
        ("g", 0, 2, 2, False),
        ("h", 0, 2, 3, False),
        ("h", 0, 2, 2, True),  # the binary word does contain squares
    ]
    ok = True
    results = []
    for name, seed, m, p, expect_found in jobs:
        rep = scan_fixed_point(
            PRESETS[name].morphism, seed, cfg.scan_len, m, p, budget_ms=cfg.budget_ms
        )
        results.append({"preset": name, **rep.to_dict(include_timing=True)})
        ok &= rep.found == expect_found
        verdict = "found" if rep.found else "none"
        print(
            f"scan {name} n={cfg.scan_len} m={m} p={p}: {verdict}"
            f" ({rep.candidates} candidates, {rep.elapsed_s:.3f}s)"
        )
    dump(cfg.out / "scans.json", {"scan_len": cfg.scan_len, "results": results})
    return ok


def reproduce_searches(cfg: Config) -> bool:
    jobs = [
        ((2, 2, 2, 100), "maximal", 3),
        ((1, 2, 3, 100), "maximal", 2),
        ((3, 2, 2, cfg.search_cap), "cap_reached", cfg.search_cap),
        ((2, 2, 3, cfg.search_cap), "cap_reached", cfg.search_cap),
    ]
    ok = True
    certs = []
    aborted = []
    for (k, m, p, cap), want_outcome, want_len in jobs:
        cert = longest_avoiding(k, m, p, cap, budget_ms=cfg.budget_ms)
        certs.append(cert.to_dict())
        if cert.outcome == "budget_abort":
            aborted.append(f"k={k} m={m} p={p}")
        else:
            ok &= cert.outcome == want_outcome and cert.max_length == want_len
        print(
            f"search k={k} m={m} p={p} cap={cap}: {cert.outcome}"
            f" max_length={cert.max_length} witness={cert.witness}"
        )
    dump(cfg.out / "searches.json", {"certificates": certs})
    if aborted and ok:  # a mismatch outranks an abort
        raise BudgetExceededError(f"search budget ran out for {', '.join(aborted)}")
    return ok


def reproduce_matrix(cfg: Config) -> bool:
    lifted = lift_matrix(PRESETS["h"].morphism, 2)
    det = lifted.determinant()
    payload = {
        "rows": lifted.to_lists(),
        "determinant": det,
        "invertible": lifted.is_invertible(),
    }
    dump(cfg.out / "lift_h_order2.json", payload)
    print(f"lift h order 2: det={det} invertible={lifted.is_invertible()}")
    return det == 243


def reproduce_battery(cfg: Config) -> int:
    t0 = time.perf_counter()
    reports = run_all(CheckConfig(budget_ms=cfg.budget_ms))
    agg = aggregate(reports, include_timing=True)
    dump(cfg.out / "verification.json", agg)
    for rep in reports:
        state = "ok" if rep.passed else ("ABORTED" if rep.aborted else "VIOLATIONS")
        print(f"check {rep.name:16s} {state:10s} instances={rep.instances}")
    print(f"battery finished in {time.perf_counter() - t0:.1f}s")
    return aggregate_exit_code(reports)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("results"))
    ap.add_argument("--scan-len", type=int, default=5000)
    ap.add_argument("--search-cap", type=int, default=50)
    ap.add_argument("--budget-ms", type=int, default=None)
    ap.add_argument("--skip-battery", action="store_true")
    args = ap.parse_args()

    cfg = Config(
        out=args.out,
        scan_len=args.scan_len,
        search_cap=args.search_cap,
        budget_ms=args.budget_ms,
    )
    cfg.out.mkdir(parents=True, exist_ok=True)

    ok = True
    try:
        ok &= reproduce_prefixes(cfg)
        ok &= reproduce_scans(cfg)
        ok &= reproduce_searches(cfg)
        ok &= reproduce_matrix(cfg)
        code = 0 if args.skip_battery else reproduce_battery(cfg)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        code = 3

    if not ok:
        print("MISMATCH against frozen expectations", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
