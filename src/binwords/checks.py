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
                   the 01/10 counts by the complementary letter count
  cube-mod1        no order-2 triple power matches the image shape offset
                   by one position (exhaustive over shape parameters)
  cube-mod2        same, offset by two positions
  image-cube-free  images of order-2-cube-free binary words under the
                   binary generator stay order-2-cube-free
  identities       pair and diagonal count identities against letter counts
  consistency      streaming, concatenation, and factor-index signature
                   paths agree on random words
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product
from math import comb
from typing import Callable, Optional

from .detect import find_power
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
    ascent_imbalance,
    index_words,
    signature,
)

VIOLATION_SAMPLE_CAP = 100
NOTE_CAP = 100

_A2 = Alphabet(2)
_A3 = Alphabet(3)


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
        # _driven installs the real budget; a failed start still reports 0 units
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


def _driven(
    name: str, params: dict, budget_ms: Optional[int], body: Callable[["_Run"], None]
) -> CheckReport:
    run = _Run(name, params)
    try:
        run.budget = Budget(f"check {name}", budget_ms)
        body(run)
    except BudgetExceededError:
        return run.finish(aborted=True)
    return run.finish(aborted=False)


def check_erasure(
    n: int = 5000, *, fault: bool = False, budget_ms: Optional[int] = None
) -> CheckReport:
    """Erasing 1s from the ternary fixed-point prefix must leave 0202...,
    and the prefix itself must never contain two adjacent 1s."""
    if n < 1:
        raise InvalidInputError(f"prefix length must be >= 1, got {n}")

    def body(run: _Run) -> None:
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

    return _driven("erasure", {"n": n, "fault": fault}, budget_ms, body)


def check_mirror_closure(
    scan_len: int = 2000,
    max_factor: int = 15,
    margin: int = 20000,
    *,
    fault: bool = False,
    budget_ms: Optional[int] = None,
) -> CheckReport:
    """Every short factor of the ternary fixed point must have its mirror
    occur within the margin prefix; misses are retried at 10x the margin
    before being reported."""
    if margin < scan_len:
        raise InvalidInputError("margin must be at least the scanned length")

    def body(run: _Run) -> None:
        gen = PRESETS["g"].morphism
        prefix = str(fixed_point_prefix(gen, 0, scan_len))
        hay = str(fixed_point_prefix(gen, 0, margin))
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
        run.note(f"distinct factors: {len(factors)}; margin escalations: {escalations}")

    return _driven(
        "mirror",
        {"scan_len": scan_len, "max_factor": max_factor, "margin": margin, "fault": fault},
        budget_ms,
        body,
    )


def _full_decode(w: Word, f: Morphism) -> Optional[Word]:
    pre, used = decode(w, f)
    return pre if used == len(w) else None


def check_desubstitution(
    scan_len: int = 3000,
    max_len: int = 40,
    *,
    fault: bool = False,
    budget_ms: Optional[int] = None,
) -> CheckReport:
    """Every abelian-square factor uv of the ternary fixed point pulls back:
    either u and v decode directly and the decoded pair occurs again, or the
    mirrors of v and u do.  When the 01/12 imbalances of u and v agree, the
    decoded pair must be abelian equivalent with agreeing imbalances."""

    def letter_tallies(w: Word) -> tuple[int, ...]:
        return tuple(w.letters.count(a) for a in range(3))

    def body(run: _Run) -> None:
        gen = PRESETS["g"].morphism
        dec = gen if not fault else parse_morphism("0->012,1->20,2->1")
        hay_len = max(scan_len * 10, scan_len + max_len)
        prefix = fixed_point_prefix(gen, 0, scan_len)
        hay = str(fixed_point_prefix(gen, 0, hay_len))
        pidx = PrefixIndex(prefix, 1)
        seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        both_cases = 0
        lam_checked = 0
        for half in range(1, max_len // 2 + 1):
            for i in range(0, scan_len - 2 * half + 1):
                run.tick()
                mid = i + half
                if pidx.letter_counts(i, mid) != pidx.letter_counts(mid, mid + half):
                    continue
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

    return _driven(
        "desubstitution",
        {"scan_len": scan_len, "max_len": max_len, "fault": fault},
        budget_ms,
        body,
    )


def check_matrix_identity(
    trials: int = 10000,
    max_len: int = 100,
    *,
    seed: int = 0,
    fault: bool = False,
    budget_ms: Optional[int] = None,
) -> CheckReport:
    """The lifted order-2 matrix of the binary generator maps the signature
    of u exactly to the signature of its image, for random binary u."""

    def body(run: _Run) -> None:
        h = PRESETS["h"].morphism
        lifted = lift_matrix(h, 2)
        if fault:
            rows = [list(r) for r in lifted.rows]
            rows[2][3] += 1  # negative control: one corrupted entry
            lifted = replace(lifted, rows=tuple(tuple(r) for r in rows))
        rng = random.Random(f"{seed}:matrix")
        fixed = [Word((), _A2), Word((0,), _A2), Word((1,), _A2)]
        for u in fixed:
            run.tick()
            got = lifted.apply(signature(u, 2))
            want = signature(h(u), 2)
            if got.counts != want.counts or got.length != want.length:
                run.violation(f"matrix action wrong on fixed word {u!s}")
        for _ in range(trials):
            run.tick()
            ln = rng.randrange(0, max_len + 1)
            u = Word(tuple(rng.randrange(2) for _ in range(ln)), _A2)
            got = lifted.apply(signature(u, 2))
            want = signature(h(u), 2)
            if got.counts != want.counts or got.length != want.length:
                run.violation(f"matrix action wrong on {u!s}")
        run.note(f"determinant: {lifted.determinant()}")

    return _driven(
        "matrix",
        {"trials": trials, "max_len": max_len, "seed": seed, "fault": fault},
        budget_ms,
        body,
    )


def check_cyclic_shift(
    trials: int = 10000,
    max_len: int = 30,
    *,
    seed: int = 0,
    fault: bool = False,
    budget_ms: Optional[int] = None,
) -> CheckReport:
    """Quantitative order-2 effect of moving a boundary letter to the other
    end of a binary word, plus the induced equivalence implications."""

    def body(run: _Run) -> None:
        rng = random.Random(f"{seed}:cyclic")
        correction = 0 if fault else 1  # negative control drops the shift term
        one = Word((1,), _A2)
        zero = Word((0,), _A2)
        for _ in range(trials):
            run.tick()
            ln = rng.randrange(0, max_len + 1)
            x = Word(tuple(rng.randrange(2) for _ in range(ln)), _A2)
            su = signature(one + x, 2)
            sp = signature(x + one, 2)
            n0 = su.count("0")
            ok = (
                sp.count("0") == n0
                and sp.count("1") == su.count("1")
                and sp.count("00") == su.count("00")
                and sp.count("11") == su.count("11")
                and sp.count("01") == su.count("01") + correction * n0
                and sp.count("10") == su.count("10") - correction * n0
            )
            if not ok:
                run.violation(f"1-boundary relations fail for x={x!s}")
            du = signature(zero + x, 2)
            dp = signature(x + zero, 2)
            n1 = du.count("1")
            ok = (
                dp.count("0") == du.count("0")
                and dp.count("1") == n1
                and dp.count("00") == du.count("00")
                and dp.count("11") == du.count("11")
                and dp.count("01") == du.count("01") - correction * n1
                and dp.count("10") == du.count("10") + correction * n1
            )
            if not ok:
                run.violation(f"0-boundary relations fail for x={x!s}")
        # implication on exhaustive words: equivalent 1-fronted words stay
        # equivalent with the 1 moved to the back, and dually for 0
        impl_len = 10
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for tup in product((0, 1), repeat=impl_len):
            if tup[0] == 1:
                groups.setdefault(signature(Word(tup, _A2), 2).counts, []).append(tup)
        pairs = 0
        for members in groups.values():
            base = members[0]
            sb = signature(Word(base[1:] + (1,), _A2), 2).counts
            for other in members[1:]:
                run.tick()
                pairs += 1
                if signature(Word(other[1:] + (1,), _A2), 2).counts != sb:
                    run.violation(f"1-shift implication fails for {base} vs {other}")
        groups.clear()
        for tup in product((0, 1), repeat=impl_len):
            if tup[-1] == 0:
                groups.setdefault(signature(Word(tup, _A2), 2).counts, []).append(tup)
        for members in groups.values():
            base = members[0]
            sb = signature(Word((0,) + base[:-1], _A2), 2).counts
            for other in members[1:]:
                run.tick()
                pairs += 1
                if signature(Word((0,) + other[:-1], _A2), 2).counts != sb:
                    run.violation(f"0-shift implication fails for {base} vs {other}")
        run.note(f"implication pairs at length {impl_len}: {pairs}")

    return _driven(
        "cyclic",
        {"trials": trials, "max_len": max_len, "seed": seed, "fault": fault},
        budget_ms,
        body,
    )


def _binary_words(n: int) -> list[Word]:
    return [Word(tup, _A2) for tup in product((0, 1), repeat=n)]


def _cube_shape_check(
    run: _Run,
    n: int,
    order: int,
    first_blocks: list[Word],
    second_blocks: list[Word],
    third_blocks: list[Word],
    expected_len: int,
) -> None:
    for w in first_blocks + second_blocks + third_blocks:
        if len(w) != expected_len:
            run.violation(f"shape length {len(w)} != {expected_len} at n={n}")
            return
    second = {}
    for w in second_blocks:
        second.setdefault(signature(w, order).counts, str(w))
    third = {}
    for w in third_blocks:
        third.setdefault(signature(w, order).counts, str(w))
    run.tick(weight=len(first_blocks) * len(second_blocks) * len(third_blocks))
    for w in first_blocks:
        sig = signature(w, order).counts
        if sig in second and sig in third:
            run.violation(
                f"n={n}: equivalent triple {w!s} / {second[sig]} / {third[sig]}"
            )


def check_unaligned_cube_mod1(
    n_max: int = 6, *, fault: bool = False, budget_ms: Optional[int] = None
) -> CheckReport:
    """No triple of blocks shaped image(p')0 / a1image(q')0b / 1image(r')
    is pairwise equivalent at order 2 (order 1 under fault, where triples
    exist and the check must fail).  Exhaustive over all shape parameters
    with 1 <= n <= n_max."""
    if n_max < 1:
        raise InvalidInputError(f"n_max must be >= 1, got {n_max}")

    def body(run: _Run) -> None:
        h = PRESETS["h"].morphism
        order = 1 if fault else 2
        zero = Word((0,), _A2)
        one = Word((1,), _A2)
        for n in range(1, n_max + 1):
            first = [h(w) + zero for w in _binary_words(n)]
            second = [
                Word((a,), _A2) + one + h(w) + zero + Word((b,), _A2)
                for w in _binary_words(n - 1)
                for a in (0, 1)
                for b in (0, 1)
            ]
            third = [one + h(w) for w in _binary_words(n)]
            _cube_shape_check(run, n, order, first, second, third, 3 * n + 1)

    return _driven(
        "cube-mod1", {"n_max": n_max, "fault": fault}, budget_ms, body
    )


def check_unaligned_cube_mod2(
    n_max: int = 6, *, fault: bool = False, budget_ms: Optional[int] = None
) -> CheckReport:
    """No triple shaped image(p')0a / 1image(q')0 / b1image(r') is pairwise
    equivalent at order 2 (order 1 under fault).  Exhaustive for 0 <= n <= n_max."""
    if n_max < 0:
        raise InvalidInputError(f"n_max must be >= 0, got {n_max}")

    def body(run: _Run) -> None:
        h = PRESETS["h"].morphism
        order = 1 if fault else 2
        zero = Word((0,), _A2)
        one = Word((1,), _A2)
        for n in range(0, n_max + 1):
            words = _binary_words(n)
            first = [h(w) + zero + Word((a,), _A2) for w in words for a in (0, 1)]
            second = [one + h(w) + zero for w in words]
            third = [Word((b,), _A2) + one + h(w) for w in words for b in (0, 1)]
            _cube_shape_check(run, n, order, first, second, third, 3 * n + 2)

    return _driven(
        "cube-mod2", {"n_max": n_max, "fault": fault}, budget_ms, body
    )


def check_image_cube_freeness(
    trials: int = 100,
    max_len: int = 24,
    exhaustive_len: int = 10,
    *,
    seed: int = 0,
    fault: bool = False,
    budget_ms: Optional[int] = None,
) -> CheckReport:
    """Images of order-2-cube-free binary words under the binary generator
    must stay order-2-cube-free: exhaustively to exhaustive_len, then on
    longer random words."""

    def body(run: _Run) -> None:
        gen = (
            PRESETS["h"].morphism
            if not fault
            else parse_morphism("0->000,1->111")  # negative control: cubes letters
        )
        rng = random.Random(f"{seed}:image")
        tested = 0
        for ln in range(0, exhaustive_len + 1):
            for w in _binary_words(ln):
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
        if max_len > exhaustive_len:
            for _ in range(trials):
                run.tick()
                ln = rng.randrange(exhaustive_len + 1, max_len + 1)
                w = Word(tuple(rng.randrange(2) for _ in range(ln)), _A2)
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

    return _driven(
        "image-cube-free",
        {
            "trials": trials,
            "max_len": max_len,
            "exhaustive_len": exhaustive_len,
            "seed": seed,
            "fault": fault,
        },
        budget_ms,
        body,
    )


def check_pair_identities(
    trials: int = 10000,
    max_len: int = 40,
    *,
    seed: int = 0,
    fault: bool = False,
    budget_ms: Optional[int] = None,
) -> CheckReport:
    """count(ab) + count(ba) = |w|_a |w|_b for a != b, and
    count(aa) = |w|_a choose 2, on random binary and ternary words."""

    def body(run: _Run) -> None:
        rng = random.Random(f"{seed}:identities")
        for _ in range(trials):
            run.tick()
            k = rng.choice((2, 3))
            ln = rng.randrange(0, max_len + 1)
            w = Word(tuple(rng.randrange(k) for _ in range(ln)), Alphabet(k))
            counts = list(signature(w, 2).counts)
            if fault:
                counts[k] += 1  # negative control: corrupt the first pair count
            pos = {x: i for i, x in enumerate(index_words(k, 2))}
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

    return _driven(
        "identities",
        {"trials": trials, "max_len": max_len, "seed": seed, "fault": fault},
        budget_ms,
        body,
    )


def check_signature_consistency(
    trials: int = 10000,
    max_len: int = 40,
    *,
    seed: int = 0,
    fault: bool = False,
    budget_ms: Optional[int] = None,
) -> CheckReport:
    """Streaming signatures, signature concatenation, letter-by-letter
    extension, and factor-index inversion must agree on random words."""

    def body(run: _Run) -> None:
        rng = random.Random(f"{seed}:consistency")
        for _ in range(trials):
            run.tick()
            k = rng.choice((2, 3))
            ln = rng.randrange(0, max_len + 1)
            w = Word(tuple(rng.randrange(k) for _ in range(ln)), Alphabet(k))
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

    return _driven(
        "consistency",
        {"trials": trials, "max_len": max_len, "seed": seed, "fault": fault},
        budget_ms,
        body,
    )


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


# name -> (check function, CheckConfig fields passed positionally, takes seed);
# the table order is the battery's registry order
_CHECKS: dict[str, tuple[Callable[..., CheckReport], tuple[str, ...], bool]] = {
    "erasure": (check_erasure, ("erasure_n",), False),
    "mirror": (
        check_mirror_closure,
        ("mirror_scan_len", "mirror_max_factor", "mirror_margin"),
        False,
    ),
    "desubstitution": (check_desubstitution, ("desub_scan_len", "desub_max_len"), False),
    "matrix": (check_matrix_identity, ("matrix_trials", "matrix_max_len"), True),
    "cyclic": (check_cyclic_shift, ("cyclic_trials", "cyclic_max_len"), True),
    "cube-mod1": (check_unaligned_cube_mod1, ("cube_n_max",), False),
    "cube-mod2": (check_unaligned_cube_mod2, ("cube_n_max",), False),
    "image-cube-free": (
        check_image_cube_freeness,
        ("image_trials", "image_max_len", "image_exhaustive_len"),
        True,
    ),
    "identities": (check_pair_identities, ("identity_trials", "identity_max_len"), True),
    "consistency": (
        check_signature_consistency,
        ("consistency_trials", "consistency_max_len"),
        True,
    ),
}

CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str, cfg: CheckConfig = CheckConfig()) -> CheckReport:
    """Run one check by registry name with its parameters taken from cfg."""
    if name not in _CHECKS:
        raise InvalidInputError(f"unknown check {name!r}")
    fn, fields, seeded = _CHECKS[name]
    kwargs: dict = {"fault": name in cfg.fault, "budget_ms": cfg.budget_ms}
    if seeded:
        kwargs["seed"] = cfg.seed
    return fn(*(getattr(cfg, f) for f in fields), **kwargs)


def run_all(
    cfg: CheckConfig = CheckConfig(),
    *,
    names: Optional[list[str]] = None,
    threads: int = 1,
) -> list[CheckReport]:
    """Run the battery (or a named subset) in registry order.

    Threads > 1 runs checks concurrently; the result order and content
    are identical to the single-threaded reference."""
    selected = list(CHECK_NAMES) if names is None else list(names)
    for n in selected:
        if n not in CHECK_NAMES:
            raise InvalidInputError(f"unknown check {n!r}")
    if threads <= 1 or len(selected) <= 1:
        return [run_check(n, cfg) for n in selected]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda n: run_check(n, cfg), selected))


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
