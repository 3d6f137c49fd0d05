"""Command-line interface.

Subcommands: binomial, signature, equiv, generate, apply, decode, lift,
detect, search, count, verify.  All word I/O is ASCII digit strings.
JSON output is compact and key-order stable, so identical invocations
produce byte-identical bytes; timing fields are opt-in via --timing.
Handlers import detect and search only to scan or search: no numpy otherwise.

Exit codes: 0 success or pass; 1 violation found (a power where freeness
was in question, or a failed check); 2 usage or input error; 3 budget
exhausted.  BINWORDS_BUDGET_MS applies a wall-clock cap to any single run
unless --budget-ms overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Optional

from . import __version__
from .checks import (
    CHECK_NAMES,
    CheckConfig,
    aggregate,
    aggregate_exit_code,
    run_all,
)
from .errors import (
    BinwordsError,
    BudgetExceededError,
    CountOverflowError,
    InvalidInputError,
)
from .morphisms import (
    Morphism,
    PRESETS,
    decode,
    fixed_point_prefix,
    lift_matrix,
    parse_morphism,
)
from .words import equivalent, signature, subword_count


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _as_morphism(text: str) -> tuple[Morphism, Optional[int]]:
    """A preset name or an explicit rule string, with its default seed letter."""
    if text in PRESETS:
        preset = PRESETS[text]
        return preset.morphism, preset.seed_letter
    return parse_morphism(text), None


def _seed_letter(args, default: Optional[int]) -> int:
    letter = args.letter if args.letter is not None else default
    if letter is None:
        raise InvalidInputError(
            "no seed letter: pass --letter for a morphism without a canonical one"
        )
    return letter


def _effective_budget(args) -> Optional[int]:
    if getattr(args, "budget_ms", None) is not None:
        return args.budget_ms
    env = os.environ.get("BINWORDS_BUDGET_MS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidInputError(
                f"BINWORDS_BUDGET_MS must be an integer, got {env!r}"
            ) from None
    return None


def _walk_options(args) -> dict:
    """The keywords that search and count both pass on to their walk."""

    def emit(depth: int, nodes: int, alive: int) -> None:
        print(f"depth={depth} nodes={nodes} alive={alive}", file=sys.stderr)

    return dict(
        symmetry=args.symmetry,
        node_budget=args.node_budget,
        budget_ms=_effective_budget(args),
        progress=None if args.quiet else emit,
    )


def cmd_binomial(args) -> int:
    print(subword_count(args.word, args.pattern))
    return 0


def cmd_signature(args) -> int:
    sig = signature(args.word, args.m, alphabet=args.alphabet)
    print(_dump(sig.to_dict()))
    return 0


def cmd_equiv(args) -> int:
    same = equivalent(args.u, args.v, args.m, alphabet=args.alphabet)
    print("true" if same else "false")
    return 0


def cmd_generate(args) -> int:
    f, default_letter = _as_morphism(args.morphism)
    a = _seed_letter(args, default_letter)
    print(str(fixed_point_prefix(f, a, args.n)))
    return 0


def cmd_apply(args) -> int:
    f, _ = _as_morphism(args.morphism)
    print(str(f(args.word)))
    return 0


def cmd_decode(args) -> int:
    f, _ = _as_morphism(args.morphism)
    preimage, consumed = decode(args.word, f)
    print(f"{preimage}\t{consumed}")
    return 0


def cmd_lift(args) -> int:
    f, _ = _as_morphism(args.morphism)
    lifted = lift_matrix(f, args.m)
    print(_dump(lifted.to_lists()))
    return 0


def cmd_detect(args) -> int:
    from .detect import scan_fixed_point, scan_word
    budget = _effective_budget(args)
    sources = [s for s in (args.word, args.preset, args.morphism) if s is not None]
    if len(sources) > 1:
        raise InvalidInputError("detect takes exactly one of --word, --preset, --morphism")
    if args.word is not None:
        for given, option in ((args.n, "-n"), (args.letter, "--letter")):
            if given is not None:
                raise InvalidInputError(f"detect --word takes no {option}: it applies to fixed points")
        report = scan_word(
            args.word, args.m, args.p, engine=args.engine, budget_ms=budget
        )
    else:
        text = args.preset if args.preset is not None else args.morphism
        if text is None:
            raise InvalidInputError("detect needs --word, --preset, or --morphism")
        if args.n is None:
            raise InvalidInputError("detect over a fixed point needs -n")
        f, default_letter = _as_morphism(text)
        a = _seed_letter(args, default_letter)
        report = scan_fixed_point(
            f, a, args.n, args.m, args.p, engine=args.engine, budget_ms=budget
        )
    print(_dump(report.to_dict(include_timing=args.timing)))
    return 1 if report.found else 0


def cmd_search(args) -> int:
    from .search import longest_avoiding
    cert = longest_avoiding(args.k, args.m, args.p, args.cap, **_walk_options(args))
    print(_dump(cert.to_dict()))
    return 3 if cert.outcome == "budget_abort" else 0


def cmd_count(args) -> int:
    from .search import count_avoiding
    table = count_avoiding(args.k, args.m, args.p, args.n_max, **_walk_options(args))
    sys.stdout.write(table.to_tsv())
    return 0


def cmd_verify(args) -> int:
    cfg = CheckConfig(
        fault=frozenset(args.inject_fault or ()),
        budget_ms=_effective_budget(args),
        seed=args.seed,
    )
    if args.trials is not None:
        if args.trials < 1:
            raise InvalidInputError(f"--trials must be >= 1, got {args.trials}")
        cfg = replace(
            cfg,
            matrix_trials=args.trials,
            cyclic_trials=args.trials,
            image_trials=args.trials,
            identity_trials=args.trials,
            consistency_trials=args.trials,
        )
    if args.results_dir is not None:  # an unusable path exits 2 before the battery runs
        try:
            os.makedirs(args.results_dir, exist_ok=True)
        except OSError as exc:
            raise InvalidInputError(f"--results-dir {args.results_dir}: {exc.strerror}") from None
    names = args.check if args.check else None
    reports = run_all(cfg, names=names)
    if args.results_dir is not None:
        for rep in reports:
            path = os.path.join(args.results_dir, f"{rep.name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_dump(rep.to_dict(include_timing=args.timing)) + "\n")
    print(_dump(aggregate(reports, include_timing=args.timing)))
    return aggregate_exit_code(reports)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binwords",
        description="Binomial coefficients of words: signatures, morphic words,"
        " repetition detection, avoidance search, verification battery.",
    )
    parser.add_argument("--version", action="version", version=f"binwords {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("binomial", help="count occurrences of a scattered subword")
    p.add_argument("word")
    p.add_argument("pattern")
    p.set_defaults(func=cmd_binomial)

    p = sub.add_parser("signature", help="order-m binomial signature as JSON")
    p.add_argument("word")
    p.add_argument("-m", type=int, default=2)
    p.add_argument("--alphabet", type=int, default=None)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("equiv", help="test m-binomial equivalence of two words")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("-m", type=int, default=2)
    p.add_argument("--alphabet", type=int, default=None)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("generate", help="prefix of a morphism's fixed point")
    p.add_argument("morphism", help="preset name (g, h, g2, gtilde2) or rule string")
    p.add_argument("n", type=int)
    p.add_argument("--letter", type=int, default=None, help="seed letter override")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("apply", help="apply a morphism to a word")
    p.add_argument("morphism", help="preset name or rule string like 0->01,1->10")
    p.add_argument("word")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("decode", help="greedy preimage under a prefix-code morphism")
    p.add_argument("morphism")
    p.add_argument("word")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("lift", help="exact matrix action on order-m signatures")
    p.add_argument("morphism")
    p.add_argument("-m", type=int, default=2)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("detect", help="find an m-binomial p-power")
    p.add_argument("--word", default=None)
    p.add_argument("--preset", default=None, choices=sorted(PRESETS))
    p.add_argument("--morphism", default=None, help="explicit rule string")
    p.add_argument("--letter", type=int, default=None)
    p.add_argument("-n", type=int, default=None, help="fixed-point prefix length")
    p.add_argument("-m", type=int, default=2)
    p.add_argument("-p", type=int, default=2)
    p.add_argument("--engine", choices=("auto", "python", "vector"), default="auto")
    p.add_argument("--budget-ms", type=int, default=None)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_detect)

    for name, summary, limit, func in (
        ("search", "longest word avoiding m-binomial p-powers", "--cap", cmd_search),
        ("count", "count avoiding words per length (TSV)", "--n-max", cmd_count),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("-k", type=int, required=True, help="alphabet size")
        p.add_argument("-m", type=int, default=2)
        p.add_argument("-p", type=int, default=2)
        p.add_argument(limit, type=int, required=True)
        p.add_argument("--symmetry", action="store_true", help="fix the first letter")
        p.add_argument("--node-budget", type=int, default=None)
        p.add_argument("--budget-ms", type=int, default=None)
        p.add_argument("--quiet", action="store_true", help="no progress on stderr")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument(
        "--check", action="append", choices=CHECK_NAMES, help="run only this check"
    )
    p.add_argument(
        "--default", action="store_true",
        help="run the default battery (this is already the default)",
    )
    p.add_argument("--trials", type=int, default=None, help="override trial counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--inject-fault", action="append", choices=CHECK_NAMES,
        help="negative control: corrupt this check, it must then fail",
    )
    p.add_argument("--results-dir", default=None, help="write per-check JSON here")
    p.add_argument("--budget-ms", type=int, default=None)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"binwords: budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, CountOverflowError) as exc:
        print(f"binwords: {exc}", file=sys.stderr)
        return 2
    except BinwordsError as exc:
        print(f"binwords: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
