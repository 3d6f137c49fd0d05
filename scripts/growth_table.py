#!/usr/bin/env python3
"""Tabulate how many words of each length avoid m-binomial p-powers.

Defaults to the two families where the avoidance threshold is tight:
ternary words avoiding 2-binomial squares and binary words avoiding
2-binomial cubes.  Growing counts are evidence the tree is infinite;
a column hitting zero certifies the exact maximal length.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from binwords import Alphabet, BudgetExceededError, InvalidInputError, count_avoiding
from binwords.words import _check_int, _check_order, _check_power

DEFAULT_FAMILIES = ("3,2,2", "2,2,3")


def parse_family(text: str) -> tuple[int, int, int]:
    try:
        k, m, p = (int(part) for part in text.split(","))
    except ValueError:
        raise InvalidInputError(f"bad family {text!r}, expected k,m,p") from None
    Alphabet(k)
    _check_order(m)
    _check_power(p)
    return k, m, p


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--family",
        action="append",
        metavar="K,M,P",
        help="alphabet size, order, power (repeatable);"
        f" default {' and '.join(DEFAULT_FAMILIES)}",
    )
    ap.add_argument("--n-max", type=int, default=16)
    ap.add_argument("--symmetry", action="store_true", help="fix the first letter")
    ap.add_argument("--node-budget", type=int, default=10**8)
    ap.add_argument("--out-dir", type=Path, default=None, help="also write TSV files")
    args = ap.parse_args()

    try:
        # every family and --n-max are checked before the first table
        families = [parse_family(t) for t in (args.family or DEFAULT_FAMILIES)]
        _check_int(args.n_max, "--n-max", 1)
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
        for k, m, p in families:
            table = count_avoiding(
                k, m, p, args.n_max,
                symmetry=args.symmetry,
                node_budget=args.node_budget,
            )
            text = table.to_tsv()
            sys.stdout.write(text)
            if table.counts[-1] == 0:  # a dead tree's table ends at its first 0
                print(f"# tree dies: longest avoiding word has length {len(table.counts) - 1}")
            if args.out_dir is not None:
                name = f"growth_k{k}_m{m}_p{p}{'_sym' if args.symmetry else ''}.tsv"
                (args.out_dir / name).write_text(text)
    except BudgetExceededError as exc:
        print(f"family k={k} m={m} p={p}: {exc}", file=sys.stderr)
        return 3
    except InvalidInputError as exc:
        print(f"growth_table: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
