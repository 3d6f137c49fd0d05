"""Detection of m-binomial p-powers in finite words and fixed-point prefixes.

An (m, p)-power occurrence is p consecutive blocks of one positive length
whose blocks are pairwise m-binomially equivalent (p = 2 squares, p = 3
cubes).  Ordinary powers are the special case of equal blocks, and the
m = 1 case is abelian powers; one code path covers all of them.

`find_power` reports the occurrence with minimal start, ties broken by
minimal period, scanning candidates in that order.  Two independent
engines share the semantics.  The python engine asks PrefixIndex block
tests, which compare letter counts and then factor signatures.  The numpy
engine (orders 1 and 2, on words of _VECTOR_MIN_LEN letters and up, where
its per-call cost pays off) screens a band of periods at all their starts
by second differences of adjacent block pairs on a uint16 fingerprint of
the int64 keys of _key_plan (_scan_keys), linear mod 2**16, so it drops
no occurrence.  One flat argmax walk visits the band's survivors in
row-major order, and the exact keys decide each where the walk finds it
(_is_power), on Python ints.  One rule sizes each band (_band_rows), and
each band ticks the budget with the elements it screens.
Results are cross-verified by independent signature recomputation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import BinwordsError, Budget, CountOverflowError, InvalidInputError
from .morphisms import Morphism, fixed_point_prefix
from .words import (
    Alphabet,
    PrefixIndex,
    Word,
    WordLike,
    _check_order,
    _check_power,
    signature,
    word,
)

# below it the python engine is faster: a numpy scan's fixed cost per call outweighs its work
_VECTOR_MIN_LEN = 64
# below it every _key_plan field fits one _KEY_BITS key: tests/test_vector.py
_VECTOR_MAX_LEN = 2**31
_KEY_BITS = 62  # per int64 key, so keys and their differences fit int64
# odd, about 2**16 / the golden ratio: the fingerprint's multipliers are its odd multiples
_FINGERPRINT_STEP = 0x9E37
# most elements (rows x span) in a band of the pair screen, which pays its numpy calls once per band
_BAND_ELEMENTS = 2**18


@dataclass(frozen=True)
class Occurrence:
    """One m-binomial p-power: blocks word[start + i*period : start + (i+1)*period]."""

    start: int
    period: int
    power: int
    order: int

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "period": self.period,
            "power": self.power,
            "m": self.order,
        }


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one detection run.

    candidates counts the (start, period) pairs in canonical order up to and
    including the occurrence, or all pairs when the word is power-free.
    """

    word_len: int
    order: int
    power: int
    occurrence: Optional[Occurrence]
    candidates: int
    elapsed_s: float

    @property
    def found(self) -> bool:
        return self.occurrence is not None

    def to_dict(self, include_timing: bool = False) -> dict:
        out: dict = {
            "schema": 1,
            "word_len": self.word_len,
            "m": self.order,
            "p": self.power,
            "found": self.occurrence is not None,
        }
        if self.occurrence is not None:
            out["start"] = self.occurrence.start
            out["period"] = self.occurrence.period
        out["candidates"] = self.candidates
        if include_timing:
            out["elapsed_s"] = round(self.elapsed_s, 6)
        return out


def _pairs_upto(n: int, p: int) -> int:
    """Number of (start, period) pairs with start + p * period <= n, which is
    the sum over L = 1..n of floor(L / p)."""
    q, r = divmod(n, p)
    return p * q * (q - 1) // 2 + q * (r + 1)


def _candidates(n: int, p: int, occ: Optional[Occurrence]) -> int:
    """(start, period) pairs in canonical order up to and including occ.

    Every start s below occ.start contributes floor((n - s) / p) periods,
    and occ's own start adds occ.period; a power-free word has all pairs.
    The count is a function of (n, p, answer) alone, so it does not depend
    on the engine that found the answer.
    """
    total = _pairs_upto(n, p)
    if occ is None:
        return total
    return total - _pairs_upto(n - occ.start, p) + occ.period


def _find_python(wd: Word, m: int, p: int, budget: Budget) -> Optional[Occurrence]:
    idx = PrefixIndex(wd, m)
    n = len(wd)
    for s in range(n):
        budget.tick((n - s) // p)
        for t in range(1, (n - s) // p + 1):
            if idx.blocks_equivalent(s, t, p):
                return Occurrence(s, t, p, m)
    return None


def _key_plan(k: int, m: int, n: int) -> list[list[tuple[int, int, int, int]]]:
    """The int64 keys of the order-m block test (m <= 2) on words of length
    <= n, per key its (a, b, offset, width) fields: the prefix counts A_a of
    letters a < k-1 (b = -1), then at order 2 D_ab = |prefix|_ab -
    |prefix|_ba for a < b; appending c adds A_a to D_ac, subtracts A_b from D_cb.

    Blocks u of one length are equivalent iff these fields have equal
    differences: the last letter's count is |u| minus the others, count(aa)
    = C(|u|_a, 2), count(ba) = |u|_a |u|_b - count(ab), and over u = w[s:e)
    D_ab(e) - D_ab(s) = 2 count(u, ab) - |u|_a |u|_b + A_a(s) |u|_b - A_b(s) |u|_a,
    whose last three terms agree for consecutive blocks with equal letter
    counts.  A field spans the largest gap between two block differences, n
    or n*n // 2 (D's lie in [-n*n // 4, n*n // 4]), and a key at most
    _KEY_BITS bits (tests/test_vector.py).
    """
    fields = [(a, -1) for a in range(k - 1)]
    if m == 2:
        fields.extend((a, b) for a in range(k) for b in range(a + 1, k))
    plan: list[list[tuple[int, int, int, int]]] = [[]]
    used = 0
    for a, b in fields:
        width = (n if b < 0 else n * n // 2).bit_length()
        if used + width > _KEY_BITS:
            plan.append([])
            used = 0
        plan[-1].append((a, b, used, width))
        used += width
    return plan


def _key_growth(
    k: int, m: int, n: int, fingerprint: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """What appending letter c adds to int64 key g of _key_plan, D
    fields signed: unit[g, c] plus the sum over a of weight[g, c, a] * A_a,
    where A_a counts the letters a before c.  D_ab gains A_a when b is
    appended and loses A_b when a is.  With fingerprint, one more row
    follows the keys: the sum over the plan's fields f, every key's, of
    r_f * field_f, with r_f = (2f + 1) * _FINGERPRINT_STEP mod 2**16 odd."""
    plan = _key_plan(k, m, n)
    rows = [[(a, b, 1 << offset) for a, b, offset, _ in fields] for fields in plan]
    if fingerprint:
        every = [(a, b) for fields in plan for a, b, _, _ in fields]
        rows.append(
            [(a, b, (2 * f + 1) * _FINGERPRINT_STEP % 2**16) for f, (a, b) in enumerate(every)]
        )
    unit = np.zeros((len(rows), k), np.int64)
    weight = np.zeros((len(rows), k, k), np.int64)
    for g, fields in enumerate(rows):
        for a, b, r in fields:
            if b < 0:
                unit[g, a] = r
            else:
                weight[g, b, a] = r
                weight[g, a, b] = -r
    return unit, weight


def _scan_keys(wd: Word, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 keys of _key_plan at every prefix of wd, D fields
    signed, and their uint16 fingerprint (_key_growth): each row is the
    cumulative sum of what each letter adds to it.  The fingerprint's int64
    sum may wrap, which keeps it exact mod 2**64 and so mod 2**16."""
    n, k = len(wd), wd.alphabet.size
    letters = np.asarray(wd.letters, dtype=np.int64)
    counts = np.zeros((k, n + 1), np.int64)
    np.cumsum(letters == np.arange(k)[:, None], axis=1, out=counts[:, 1:])
    unit, weight = _key_growth(k, m, n, fingerprint=True)
    sums = np.zeros((len(unit), n + 1), np.int64)
    for row, u, w in zip(sums, unit, weight):
        grow = u[letters]
        for a in range(k):
            grow += w[letters, a] * counts[a, :n]
        np.cumsum(grow, out=row[1:])
    return sums[:-1], sums[-1].astype(np.uint16)


def _survivors(keys: np.ndarray, starts: np.ndarray, t: int, p: int) -> np.ndarray:
    """Which starts have p blocks of length t with equal differences on every key:
    block ends e with e[j] + e[j+2] == 2 e[j+1], exact mod 2**64."""
    ends = keys.take(starts + np.arange(p + 1)[:, None] * t, axis=1)  # [key, j, start]
    return (ends[:, :-2] + ends[:, 2:] == ends[:, 1:-1] << 1).all(axis=(0, 1))


def _is_power(keys: np.ndarray, s: int, t: int, p: int) -> bool:
    """_survivors at one start, in Python ints: every key and block difference has |value| <
    2**62 (tests/test_vector.py), so a second difference is 0 iff it is 0 mod 2**64."""
    ends = keys[:, s : s + p * t + 1 : t].tolist()
    return all(e[j] + e[j + 2] == 2 * e[j + 1] for e in ends for j in range(p - 1))


def _band_rows(n: int, p: int, t: int, smax: int) -> int:
    """Rows of the band from period t, none past the last period n // p: at
    least one, and as many as keep rows x span within bound, which grows
    from 1/8 of _BAND_ELEMENTS at t = 1 to all of it from t = 8, so that an
    early hit screens few rows.  At p >= 3 the span counts every row's
    shift, so r is sized on the first row's span, then on its own."""
    bound = min(_BAND_ELEMENTS, t * _BAND_ELEMENTS // 8)
    r = min(n // p + 1 - t, bound // (smax + (p - 2) * t))
    return max(1, min(r, bound // (smax + (p - 2) * (t + r - 1))))


def _find_vector(wd: Word, m: int, p: int, budget: Budget) -> Optional[Occurrence]:
    """Period-major scan in two stages.  A p-power at s is p - 1 adjacent
    pairs of equivalent blocks, each with second difference 0: the pair
    screen tests F[s] + F[s+2t] == 2 F[s+t] on the uint16 fingerprint F at
    every start of a band of periods t..t+r-1 at once, row i a strided view
    of F for period t+i, and ANDs pair j of row i from the same rows shifted
    j(t+i).  F is linear in the fields mod 2**16, so no occurrence is
    screened out.  The band read flat, argmax walks it in row-major order:
    from at it stops at the next survivor, and a band with none costs one
    pass.  A survivor below its row's limit is decided on the int64 keys
    where it is found: a power becomes the winner and the walk goes on from
    the next row, a fingerprint collision lets it go on in its row.  Only
    smaller starts can improve the winner, so the start range shrinks.
    """
    n = len(wd)
    keys, fingerprint = _scan_keys(wd, m)
    # zeros past n: a band's rows read at most p(r - 1) < n letters past it
    padded = np.zeros(2 * n + 2, np.uint16)
    padded[: n + 1] = fingerprint
    doubled = padded << 1
    # a band holds at most _BAND_ELEMENTS, or one row of under n starts, and a short word fewer
    size = max(n, min(_BAND_ELEMENTS, (n + 1) ** 2))
    sums, pairs = np.empty(size, np.uint16), np.empty(size, bool)
    both = np.empty(size if p > 2 else 0, bool)  # pairs ANDed, at p >= 3
    best: tuple[int, int] = (n + 1, 0)
    t = 1
    while (smax := min(n + 1 - p * t, best[0])) > 0:
        r = _band_rows(n, p, t, smax)
        budget.tick(r * smax)  # the scan's budget caps time alone: units pace its clock reads
        span = smax + (p - 2) * (t + r - 1)
        # [i, s] reads F[s + 2(t + i)] and 2 F[s + t + i]: offsets and strides in bytes
        hi = np.ndarray((r, span), np.uint16, padded, 4 * t, (4, 2))
        mid = np.ndarray((r, span), np.uint16, doubled, 2 * t, (2, 2))
        band = np.add(padded[:span], hi, out=np.ndarray((r, span), np.uint16, sums))
        valid = np.equal(band, mid, out=np.ndarray((r, span), bool, pairs))[:, :smax]
        for j in range(1, p - 1):
            pair = np.ndarray((r, smax), bool, pairs, j * t, (span + j, 1))
            valid = np.logical_and(valid, pair, out=np.ndarray((r, smax), bool, both))
        # valid is all of pairs at p = 2 (span = smax) and all of both at p >= 3: a view
        flat, at = valid.reshape(-1), 0
        while at < flat.size:  # argmax stops at the next survivor, in its row or a later one
            i, s = divmod(at := at + int(flat[at:].argmax()), smax)
            if not valid[i, s]:
                break
            lim = min(n + 1 - p * (t + i), best[0])  # past it a row reads padding
            if s < lim and not _is_power(keys, s, t + i, p):
                at += 1  # a fingerprint collision: the row goes on
            else:  # a power, which improves best as lim <= best[0], or the row's end
                best = (s, t + i) if s < lim else best
                at = (i + 1) * smax
        t += r
    return None if best[1] == 0 else Occurrence(*best, p, m)


def _verify_occurrence(wd: Word, occ: Occurrence) -> None:
    # independent recomputation guards both engines
    s, t = occ.start, occ.period
    sigs = {signature(wd[s + j * t : s + (j + 1) * t], occ.order).counts for j in range(occ.power)}
    if len(sigs) > 1:
        raise BinwordsError(f"internal error: reported occurrence {occ} fails recomputation")


def find_power(
    w: WordLike,
    m: int,
    p: int,
    *,
    alphabet: Union[Alphabet, int, None] = None,
    engine: str = "auto",
    budget_ms: Optional[int] = None,
) -> Optional[Occurrence]:
    """The (m, p)-power occurrence minimal by start, then by period; None if free."""
    _check_order(m)
    _check_power(p)
    wd = word(w, alphabet)
    n = len(wd)
    if engine not in ("auto", "python", "vector"):
        raise InvalidInputError(f"unknown engine {engine!r}")
    if engine == "vector":
        if m > 2:
            raise InvalidInputError("the vector engine supports orders 1 and 2 only")
        if n >= _VECTOR_MAX_LEN:
            raise CountOverflowError("word too long for the fixed-width vector engine")
    if engine == "auto":
        engine = "vector" if (m <= 2 and _VECTOR_MIN_LEN <= n < _VECTOR_MAX_LEN) else "python"
    occ = (_find_vector if engine == "vector" else _find_python)(wd, m, p, Budget("scan", budget_ms))
    if occ is not None:
        _verify_occurrence(wd, occ)
    return occ


def is_power_free(
    w: WordLike,
    m: int,
    p: int,
    *,
    alphabet: Union[Alphabet, int, None] = None,
    engine: str = "auto",
    budget_ms: Optional[int] = None,
) -> bool:
    """True iff w contains no m-binomial p-power."""
    return find_power(w, m, p, alphabet=alphabet, engine=engine, budget_ms=budget_ms) is None


def scan_word(
    w: WordLike,
    m: int,
    p: int,
    *,
    alphabet: Union[Alphabet, int, None] = None,
    engine: str = "auto",
    budget_ms: Optional[int] = None,
) -> ScanReport:
    """find_power wrapped in a timed, counter-carrying report."""
    wd = word(w, alphabet)
    t0 = time.perf_counter()
    occ = find_power(wd, m, p, engine=engine, budget_ms=budget_ms)
    n = len(wd)
    return ScanReport(n, m, p, occ, _candidates(n, p, occ), time.perf_counter() - t0)


def scan_fixed_point(
    f: Morphism,
    a: int,
    n: int,
    m: int,
    p: int,
    *,
    engine: str = "auto",
    budget_ms: Optional[int] = None,
) -> ScanReport:
    """Generate the length-n fixed-point prefix of f at a, then scan it."""
    prefix = fixed_point_prefix(f, a, n)
    return scan_word(prefix, m, p, engine=engine, budget_ms=budget_ms)
