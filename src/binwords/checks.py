"""Desk-scale verification battery for the package's structural facts.

Each check examines one family of instances (a fixed-point prefix, an
exhaustive shape enumeration, or a randomized sample) and reports the
instances examined plus any violations found.  All checks are
deterministic given their seed and budget, and every check has a
negative-control mode (`fault=True`) that corrupts one ingredient and
must produce violations; that guards against vacuous passes.

Checks, by registry name:
  erasure          erasing the middle letter of the ternary fixed point
                   leaves an alternating word, and 1s never touch
  mirror           mirrors of short factors of the ternary fixed point
                   occur again within a bounded margin
  desubstitution   abelian-square factors pull back through the ternary
                   generator, directly or mirrored, with imbalance and
                   abelian equivalence preserved when imbalances match
  matrix           the lifted matrix of the binary generator reproduces
                   order-2 signatures of images exactly
  cyclic           moving a boundary 1 (or 0) across a binary word shifts
                   the 01/10 counts by the complementary letter count; the
                   0-boundary implication is checked in mirrored form
  cube-mod1        no three blocks of length 3n + 1 starting at offsets 0, 1
                   and 2 of binary-generator images are pairwise order-2
                   equivalent (exhaustive over all such blocks)
  cube-mod2        same for length 3n + 2, offsets 0, 2 and 1
  image-cube-free  images of order-2-cube-free binary words under the
                   binary generator stay order-2-cube-free
  identities       pair and diagonal count identities against letter counts
  consistency      streaming, concatenation, and factor-index signature
                   paths agree on random words

`run_check` and `run_all` are the entry points; they take every size from a
`CheckConfig` and reject a size below its check's least value up front.
Random words draw exactly the stream of `random.Random.randrange`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, product
from math import comb
from typing import Callable, Optional

from .errors import Budget, BudgetExceededError, InvalidInputError
from .morphisms import (
    Morphism,
    PRESETS,
    decode,
    fixed_point_prefix,
    lift_matrix,
    parse_morphism,
)
from .words import (
    Alphabet,
    BinomialSignature,
    PrefixIndex,
    Word,
    _check_int,
    _index_positions,
    ascent_imbalance,
    signature,
)

VIOLATION_SAMPLE_CAP = 100
NOTE_CAP = 100

_A2 = Alphabet(2)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check run."""

    name: str
    params: dict
    instances: int
    violations: tuple[str, ...]
    violations_total: int
    notes: tuple[str, ...]
    aborted: bool
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return self.violations_total == 0 and not self.aborted

    def to_dict(self, include_timing: bool = False) -> dict:
        out: dict = {
            "schema": 1,
            "name": self.name,
            "params": dict(self.params),
            "instances": self.instances,
            "violations": list(self.violations),
            "violations_total": self.violations_total,
            "notes": list(self.notes),
            "aborted": self.aborted,
            "passed": self.passed,
        }
        if include_timing:
            out["elapsed_s"] = round(self.elapsed_s, 6)
        return out


class _Run:
    """Mutable accumulator behind a CheckReport; its budget counts the instances."""

    def __init__(self, name: str, params: dict) -> None:
        self.name = name
        self.params = params
        # run_check installs the real budget; a failed start still reports 0 units
        self.budget = Budget(f"check {name}")
        self.violations: list[str] = []
        self.violations_total = 0
        self.notes: list[str] = []
        self._t0 = time.perf_counter()

    def tick(self, weight: int = 1) -> None:
        self.budget.tick(weight)

    def violation(self, desc: str) -> None:
        self.violations_total += 1
        if len(self.violations) < VIOLATION_SAMPLE_CAP:
            self.violations.append(desc)

    def note(self, text: str) -> None:
        if len(self.notes) < NOTE_CAP:
            self.notes.append(text)

    def finish(self, aborted: bool) -> CheckReport:
        return CheckReport(
            name=self.name,
            params=self.params,
            instances=self.budget.units,
            violations=tuple(self.violations),
            violations_total=self.violations_total,
            notes=tuple(self.notes),
            aborted=aborted,
            elapsed_s=time.perf_counter() - self._t0,
        )


def _binary_words(n: int) -> list[Word]:
    return [Word._trusted(tup, _A2) for tup in product((0, 1), repeat=n)]


def _random_word(rng: random.Random, k: int, lo: int, hi: int) -> Word:
    """A word over k letters, its length in lo..hi (lo <= hi), drawn as randrange would."""
    draw = rng._randbelow
    ln = lo + draw(hi + 1 - lo)
    return Word._trusted(tuple([draw(k) for _ in range(ln)]), Alphabet(k))


def _erasure(run: _Run, n: int, fault: bool) -> None:
    """Erasing 1s from the ternary fixed-point prefix must leave 0202...,
    and the prefix itself must never contain two adjacent 1s."""
    gen = PRESETS["g"].morphism
    eraser = (
        PRESETS["e"].morphism
        if not fault
        else parse_morphism("0->0,1->1,2->2")  # negative control: erases nothing
    )
    prefix = fixed_point_prefix(gen, 0, n)
    erased = eraser(prefix)
    for i, c in enumerate(erased.letters):
        run.tick()
        want = 0 if i % 2 == 0 else 2
        if c != want:
            run.violation(f"erased[{i}] = {c}, expected {want}")
    letters = prefix.letters
    for i in range(len(letters) - 1):
        run.tick()
        if letters[i] == 1 and letters[i + 1] == 1:
            run.violation(f"adjacent 1s at position {i}")
    run.note(f"erased length {len(erased)}")


def _mirror(run: _Run, scan_len: int, max_factor: int, margin: int, fault: bool) -> None:
    """Every short factor of the ternary fixed point must have its mirror
    occur within the margin prefix; misses are retried at 10x the margin
    before being reported."""
    gen = PRESETS["g"].morphism
    hay = str(fixed_point_prefix(gen, 0, margin))
    prefix = hay[:scan_len]  # run_check holds margin >= scan_len
    if fault:
        # negative control: a sorted haystack loses almost every mirror
        hay = "".join(sorted(hay))
    factors: set[str] = set()
    for length in range(1, max_factor + 1):
        for i in range(0, scan_len - length + 1):
            factors.add(prefix[i : i + length])
    escalations = 0
    wide: Optional[str] = None
    for f in sorted(factors):
        run.tick()
        rev = f[::-1]
        if rev in hay:
            continue
        if not fault:
            if wide is None:
                wide = str(fixed_point_prefix(gen, 0, 10 * margin))
            escalations += 1
            if rev in wide:
                run.note(f"mirror of {f} appeared only past the margin")
                continue
        run.violation(f"mirror {rev} of factor {f} not found")
    summary = f"distinct factors: {len(factors)}; margin escalations: {escalations}"
    run.notes[NOTE_CAP - 1 :] = [summary]  # kept: takes the last slot if notes fill the cap


def _full_decode(w: Word, f: Morphism) -> Optional[Word]:
    pre, used = decode(w, f)
    return pre if used == len(w) else None


def _desubstitution(run: _Run, scan_len: int, max_len: int, fault: bool) -> None:
    """Every abelian-square factor uv of the ternary fixed point pulls back:
    either u and v decode directly and the decoded pair occurs again, or the
    mirrors of v and u do.  When the 01/12 imbalances of u and v agree, the
    decoded pair must be abelian equivalent with agreeing imbalances."""
    import numpy as np

    from .detect import _scan_keys, _survivors

    def letter_tallies(w: Word) -> tuple[int, ...]:
        return tuple(w.letters.count(a) for a in range(3))

    gen = PRESETS["g"].morphism
    dec = gen if not fault else parse_morphism("0->012,1->20,2->1")
    hay_len = max(scan_len * 10, scan_len + max_len)
    long = fixed_point_prefix(gen, 0, hay_len)
    prefix, hay = long[:scan_len], str(long)
    keys, _ = _scan_keys(prefix, 1)
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    both_cases = 0
    lam_checked = 0
    for half in range(1, max_len // 2 + 1):
        starts = np.arange(scan_len - 2 * half + 1)
        run.tick(starts.size)
        # the abelian squares of this half length, by the scan's exact key test
        for i in starts[_survivors(keys, starts, half, 2)].tolist():
            mid = i + half
            u = prefix[i:mid]
            v = prefix[mid : mid + half]
            key = (u.letters, v.letters)
            if key in seen:
                continue
            seen.add(key)
            certs: list[tuple[str, Word, Word]] = []
            du, dv = _full_decode(u, dec), _full_decode(v, dec)
            if du is not None and dv is not None and str(du) + str(dv) in hay:
                certs.append(("direct", du, dv))
            mu = _full_decode(v.mirror(), dec)
            mv = _full_decode(u.mirror(), dec)
            if mu is not None and mv is not None and str(mu) + str(mv) in hay:
                certs.append(("mirrored", mu, mv))
            if not certs:
                run.violation(f"no desubstitution for u={u} v={v} at {i}")
                continue
            if len(certs) == 2 and certs[0][1:] != certs[1][1:]:
                both_cases += 1
            if ascent_imbalance(u) == ascent_imbalance(v):
                lam_checked += 1
                for case, pu, pv in certs:
                    if letter_tallies(pu) != letter_tallies(pv):
                        run.violation(
                            f"{case} preimages of u={u} v={v} not abelian equivalent"
                        )
                    if ascent_imbalance(pu) != ascent_imbalance(pv):
                        run.violation(
                            f"{case} preimages of u={u} v={v} differ in imbalance"
                        )
    run.note(
        f"distinct abelian squares: {len(seen)};"
        f" both cases applied: {both_cases}; imbalance clause checked: {lam_checked}"
    )


def _matrix(run: _Run, trials: int, max_len: int, seed: int, fault: bool) -> None:
    """The lifted order-2 matrix of the binary generator maps the signature
    of u exactly to the signature of its image, for random binary u."""
    h = PRESETS["h"].morphism
    lifted = lift_matrix(h, 2)
    if fault:
        rows = [list(r) for r in lifted.rows]
        rows[2][3] += 1  # negative control: one corrupted entry
        lifted = replace(lifted, rows=tuple(tuple(r) for r in rows))
    rng = random.Random(f"{seed}:matrix")
    fixed = [Word((), _A2), Word((0,), _A2), Word((1,), _A2)]
    sampled = (_random_word(rng, 2, 0, max_len) for _ in range(trials))
    for u in chain(fixed, sampled):
        run.tick()
        got = lifted.apply(signature(u, 2))
        want = signature(h(u), 2)
        if got.counts != want.counts or got.length != want.length:
            run.violation(f"matrix action wrong on {u!s}")
    run.note(f"determinant: {lifted.determinant()}")


def _cyclic(run: _Run, trials: int, max_len: int, seed: int, fault: bool) -> None:
    """Quantitative order-2 effect of moving a boundary letter to the other
    end of a binary word, plus the induced equivalence implications."""
    rng = random.Random(f"{seed}:cyclic")
    correction = 0 if fault else 1  # negative control drops the shift term
    ends = [(b, Word((b,), _A2)) for b in (1, 0)]
    for _ in range(trials):
        run.tick()
        x = _random_word(rng, 2, 0, max_len)
        for b, end in ends:
            # moved to the back, b follows each letter of x instead of
            # preceding it: 01 gains |x|_0 for b = 1 and loses |x|_1 for b = 0
            n0, n1, n00, n01, n10, n11 = signature(end + x, 2).counts
            shift = correction * (n0 if b else -n1)
            want = (n0, n1, n00, n01 + shift, n10 - shift, n11)
            if signature(x + end, 2).counts != want:
                run.violation(f"{b}-boundary relations fail for x={x!s}")
    # implication on exhaustive words: bu ~ bv implies ub ~ vb.  For b = 0
    # this is the mirror of u0 ~ v0 => 0u ~ 0v, which it is equivalent to
    # because mirroring preserves equivalence.
    impl_len = 10
    pairs = 0
    for b in (1, 0):
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for u in product((0, 1), repeat=impl_len - 1):
            groups.setdefault(signature(Word((b,) + u, _A2), 2).counts, []).append(u)
        for base, *others in groups.values():
            sb = signature(Word(base + (b,), _A2), 2).counts
            for other in others:
                run.tick()
                pairs += 1
                if signature(Word(other + (b,), _A2), 2).counts != sb:
                    run.violation(f"{b}-shift implication fails for {base} vs {other}")
    run.note(f"implication pairs at length {impl_len}: {pairs}")


def _h_blocks(offset: int, length: int) -> list[Word]:
    """Every block of length >= 2 starting at that offset of an h-image 0a1:
    the rest of that image (nothing, a1 or 1), whole images h(y), then the
    start of one more (nothing, 0 or 0b); y varies slowest, then a, then b."""
    rests = ([()], [(0, 1), (1, 1)], [(1,)])[offset]
    n, extra = divmod(length - len(rests[0]), 3)
    tails = ([()], [(0,)], [(0, 0), (0, 1)])[extra]
    h = PRESETS["h"].morphism
    return [
        Word._trusted(rest + image + tail, _A2)
        for image in (h(y).letters for y in _binary_words(n))
        for rest in rests
        for tail in tails
    ]


def _cube_mod(run: _Run, n_max: int, fault: bool, r: int) -> None:
    """No triple of blocks of length 3n + r starting at offsets 0, r and 2r
    (mod 3) of h-images is pairwise equivalent at order 2 (order 1 under
    fault, where triples exist and the check must fail).  Exhaustive for
    2 - r <= n <= n_max."""
    order = 1 if fault else 2
    for n in range(2 - r, n_max + 1):
        first, second, third = (_h_blocks(r * i % 3, 3 * n + r) for i in range(3))
        # each signature of a later block, named by the first block listed
        named2, named3 = (
            {signature(w, order).counts: str(w) for w in reversed(blocks)}
            for blocks in (second, third)
        )
        run.tick(weight=len(first) * len(second) * len(third))
        for w in first:
            sig = signature(w, order).counts
            if sig in named2 and sig in named3:
                run.violation(f"n={n}: equivalent triple {w!s} / {named2[sig]} / {named3[sig]}")


def __getattr__(name: str):
    """PEP 562: find_power is detect's, bound at first use, so checks loads numpy only to scan."""
    if name != "find_power":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .detect import find_power
    return globals().setdefault(name, find_power)


def _image_cube_free(
    run: _Run, trials: int, max_len: int, exhaustive_len: int, seed: int, fault: bool
) -> None:
    """Images of order-2-cube-free binary words under the binary generator
    must stay order-2-cube-free: exhaustively to exhaustive_len, then on
    longer random words."""
    find_power = __getattr__("find_power")  # the module's binding: a tracer may wrap it
    gen = (
        PRESETS["h"].morphism
        if not fault
        else parse_morphism("0->000,1->111")  # negative control: cubes letters
    )
    rng = random.Random(f"{seed}:image")
    exhaustive = (w for ln in range(exhaustive_len + 1) for w in _binary_words(ln))
    sampled = (
        _random_word(rng, 2, exhaustive_len + 1, max_len)
        for _ in (range(trials) if max_len > exhaustive_len else ())
    )
    tested = 0
    for w in chain(exhaustive, sampled):
        run.tick()
        if find_power(w, 2, 3) is not None:
            continue
        tested += 1
        occ = find_power(gen(w), 2, 3)
        if occ is not None:
            run.violation(
                f"image of cube-free {w!s} has a cube at {occ.start}"
                f" period {occ.period}"
            )
    run.note(f"cube-free words whose images were scanned: {tested}")


def _identities(run: _Run, trials: int, max_len: int, seed: int, fault: bool) -> None:
    """count(ab) + count(ba) = |w|_a |w|_b for a != b, and
    count(aa) = |w|_a choose 2, on random binary and ternary words."""
    rng = random.Random(f"{seed}:identities")
    for _ in range(trials):
        run.tick()
        k = rng.choice((2, 3))
        w = _random_word(rng, k, 0, max_len)
        counts = list(signature(w, 2).counts)
        if fault:
            counts[k] += 1  # negative control: corrupt the first pair count
        pos = _index_positions(k, 2)
        bad = False
        for a in range(k):
            if counts[pos[(a, a)]] != comb(counts[pos[(a,)]], 2):
                bad = True
            for b in range(a + 1, k):
                lhs = counts[pos[(a, b)]] + counts[pos[(b, a)]]
                if lhs != counts[pos[(a,)]] * counts[pos[(b,)]]:
                    bad = True
        if bad:
            run.violation(f"count identities fail for {w!s} over {k} letters")


def _consistency(run: _Run, trials: int, max_len: int, seed: int, fault: bool) -> None:
    """Streaming signatures, signature concatenation, letter-by-letter
    extension, and factor-index inversion must agree on random words."""
    rng = random.Random(f"{seed}:consistency")
    for _ in range(trials):
        run.tick()
        k = rng.choice((2, 3))
        w = _random_word(rng, k, 0, max_len)
        ln = len(w)
        ref = list(signature(w, 2).counts)
        if fault:
            ref[0] += 1  # negative control: corrupt the streamed reference
        cut = rng.randint(0, ln)
        cat = signature(w[:cut], 2).concat(signature(w[cut:], 2))
        if list(cat.counts) != ref or cat.length != ln:
            run.violation(f"concatenation disagrees on {w!s} cut {cut}")
        ext = BinomialSignature.zero(Alphabet(k), 2)
        for a in w.letters:
            ext = ext.extend(a)
        if list(ext.counts) != ref:
            run.violation(f"extension chain disagrees on {w!s}")
        i = rng.randint(0, ln)
        j = rng.randint(i, ln)
        pidx = PrefixIndex(w, 2)
        if pidx.factor(i, j).counts != signature(w[i:j], 2).counts:
            run.violation(f"factor index disagrees on {w!s}[{i}:{j}]")


@dataclass(frozen=True)
class CheckConfig:
    """Parameters for the whole battery; fault lists checks to corrupt."""

    erasure_n: int = 5000
    mirror_scan_len: int = 2000
    mirror_max_factor: int = 15
    mirror_margin: int = 20000
    desub_scan_len: int = 3000
    desub_max_len: int = 40
    matrix_trials: int = 10000
    matrix_max_len: int = 100
    cyclic_trials: int = 10000
    cyclic_max_len: int = 30
    cube_n_max: int = 6
    image_trials: int = 100
    image_max_len: int = 24
    image_exhaustive_len: int = 10
    identity_trials: int = 10000
    identity_max_len: int = 40
    consistency_trials: int = 10000
    consistency_max_len: int = 40
    fault: frozenset = field(default_factory=frozenset)
    budget_ms: Optional[int] = None
    seed: int = 0


# (report param, CheckConfig field, least value); the seed has no least value
_Field = tuple[str, str, Optional[int]]
_SEED: _Field = ("seed", "seed", None)


# name -> (body, fields); the body takes the fields' values in order, then
# fault.  The table order is the battery's registry order.
_CHECKS: dict[str, tuple[Callable[..., None], tuple[_Field, ...]]] = {
    "erasure": (_erasure, (("n", "erasure_n", 1),)),
    "mirror": (
        _mirror,
        (
            ("scan_len", "mirror_scan_len", 1),
            ("max_factor", "mirror_max_factor", 1),
            ("margin", "mirror_margin", 1),
        ),
    ),
    "desubstitution": (
        _desubstitution,
        (("scan_len", "desub_scan_len", 2), ("max_len", "desub_max_len", 2)),
    ),
    "matrix": (
        _matrix,
        (("trials", "matrix_trials", 0), ("max_len", "matrix_max_len", 0), _SEED),
    ),
    "cyclic": (
        _cyclic,
        (("trials", "cyclic_trials", 0), ("max_len", "cyclic_max_len", 0), _SEED),
    ),
    "cube-mod1": (partial(_cube_mod, r=1), (("n_max", "cube_n_max", 1),)),
    "cube-mod2": (partial(_cube_mod, r=2), (("n_max", "cube_n_max", 0),)),
    "image-cube-free": (
        _image_cube_free,
        (
            ("trials", "image_trials", 0),
            ("max_len", "image_max_len", 0),
            ("exhaustive_len", "image_exhaustive_len", 0),
            _SEED,
        ),
    ),
    "identities": (
        _identities,
        (("trials", "identity_trials", 1), ("max_len", "identity_max_len", 0), _SEED),
    ),
    "consistency": (
        _consistency,
        (("trials", "consistency_trials", 1), ("max_len", "consistency_max_len", 0), _SEED),
    ),
}

CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str, cfg: CheckConfig = CheckConfig()) -> CheckReport:
    """Run one check by registry name with its parameters taken from cfg.

    Every size and fault name is validated before the budget starts, so a
    bad one raises InvalidInputError even under a zero budget."""
    if name not in _CHECKS:
        raise InvalidInputError(f"unknown check {name!r}")
    body, fields = _CHECKS[name]
    params: dict = {}
    for param, fld, least in fields:
        params[param] = getattr(cfg, fld)
        _check_int(params[param], fld, least)
    if name == "mirror" and params["margin"] < params["scan_len"]:
        raise InvalidInputError("margin must be at least the scanned length")
    for fault in cfg.fault:
        if fault not in _CHECKS:
            raise InvalidInputError(f"fault lists unknown check {fault!r}")
    params["fault"] = name in cfg.fault
    run = _Run(name, params)
    try:
        run.budget = Budget(f"check {name}", cfg.budget_ms)
        body(run, *params.values())
    except BudgetExceededError:
        return run.finish(aborted=True)
    return run.finish(aborted=False)


def run_all(
    cfg: CheckConfig = CheckConfig(),
    *,
    names: Optional[list[str]] = None,
    threads: int = 1,
) -> list[CheckReport]:
    """Run the battery in registry order, or the named subset in the given
    order, one check after another.

    The checks are pure Python and hold the GIL, so a thread pool only adds
    overhead.  `threads` must be an int >= 1 and is otherwise ignored."""
    _check_int(threads, "threads", 1)
    selected = list(CHECK_NAMES) if names is None else list(names)
    for n in selected:
        if n not in CHECK_NAMES:
            raise InvalidInputError(f"unknown check {n!r}")
    return [run_check(n, cfg) for n in selected]


def aggregate(reports: list[CheckReport], include_timing: bool = False) -> dict:
    return {
        "schema": 1,
        "passed": all(r.passed for r in reports),
        "violations_total": sum(r.violations_total for r in reports),
        "aborted": [r.name for r in reports if r.aborted],
        "checks": [r.to_dict(include_timing) for r in reports],
    }


def aggregate_exit_code(reports: list[CheckReport]) -> int:
    if any(r.violations_total for r in reports):
        return 1
    if any(r.aborted for r in reports):
        return 3
    return 0
