"""Detection of m-binomial p-powers in finite words and fixed-point prefixes.

An (m, p)-power occurrence is p consecutive blocks of one positive length
whose blocks are pairwise m-binomially equivalent (p = 2 squares, p = 3
cubes).  Ordinary powers are the special case of equal blocks, and the
m = 1 case is abelian powers; one code path covers all of them.

`find_power` reports the occurrence with minimal start, ties broken by
minimal period, scanning candidates in that order.  Two engines share the
semantics: a pure Python scan over PrefixIndex block tests, and a numpy
scan (orders 1 and 2) that vectorizes each period over all starts.  At
orders 1 and 2 both test the same minimal block basis (words._block_basis).
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
    _block_basis,
    _check_order,
    _check_power,
    index_words,
    signature,
    word,
)

_VECTOR_MIN_LEN = 64
_VECTOR_MAX_LEN = 2**31  # int64 bounds below it: tests/test_vector.py


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


def _key_fits(k: int, n: int) -> bool:
    """Whether k - 1 prefix letter counts of n.bit_length() bits each fit one int64."""
    return (k - 1) * n.bit_length() <= 63


def _pack_key(cols: list[np.ndarray], width: int) -> np.ndarray:
    """sum of cols[i] << (i * width): letter columns packed into one int64
    key, valid while _key_fits holds for the columns' length."""
    return sum(col << (i * width) for i, col in enumerate(cols))


def _basis_arrays(k: int, m: int, size: int) -> tuple[dict, list[int], list]:
    """Zeroed int64 columns of length size for every cumulative column the
    order-m block basis reads, the letter columns in order, and the pairs."""
    basis = _block_basis(k, m)
    cums = {c: np.zeros(size, np.int64) for entry in basis for c in entry if c >= 0}
    letters = [c for c, a, _ in basis if a < 0]
    pairs = [entry for entry in basis if entry[1] >= 0]
    return cums, letters, pairs


def _pair_survivors(
    cums: dict[int, np.ndarray],
    pairs: list,
    starts: np.ndarray,
    t: Union[int, np.ndarray],
    p: int,
) -> np.ndarray:
    """The starts whose p blocks of length t agree on every pair entry; t is
    one period for all starts or an array of one period per start.  The
    starts are abelian survivors, so every block holds the first block's nb b's."""
    for c, a, b in pairs:
        if not starts.size:
            break
        col, ca, cb = cums[c], cums[a], cums[b]
        bounds = [starts + j * t for j in range(p + 1)]
        ends = [col[x] for x in bounds]
        nb = cb[bounds[1]] - cb[starts]
        counts = [ends[j + 1] - ends[j] - ca[bounds[j]] * nb for j in range(p)]
        keep = counts[1] == counts[0]
        for other in counts[2:]:
            keep &= other == counts[0]
        starts = starts[keep]
        if isinstance(t, np.ndarray):
            t = t[keep]
    return starts


def _power_ends_at(key: np.ndarray, cums: dict, pairs: list, n: int, p: int) -> bool:
    """Whether a p-power ends at position n, from the packed letter key and
    the basis columns: stage 1 compares the blocks' key differences for
    every period at once, reading each block boundary as a strided reversed
    view; stage 2 is the scan's."""
    # bounds[j - 1][t - 1] = key[n - j * t], the j-th boundary back for period t
    bounds = [key[n - j :: -j][: n // p] for j in range(1, p + 1)]
    first = key[n] - bounds[0]
    valid = bounds[0] - bounds[1] == first
    for j in range(1, p - 1):
        valid &= bounds[j] - bounds[j + 1] == first
    periods = np.flatnonzero(valid) + 1
    return _pair_survivors(cums, pairs, n - p * periods, periods, p).size > 0


def _find_vector(wd: Word, m: int, p: int, budget: Budget) -> Optional[Occurrence]:
    """Period-major scan on the cumulative columns of the minimal block basis:
    stage 1 tests letter counts at every start through one packed int64 key
    (each letter column when it would not fit), stage 2 the pair entries on
    the abelian survivors only.  The winner in (start, period) order is kept
    across periods; only strictly smaller starts can improve it, so the
    scanned start range shrinks as hits accumulate.
    """
    n = len(wd)
    k = wd.alphabet.size
    letters = np.asarray(wd.letters, dtype=np.int64)
    cums, letter_cols, pairs = _basis_arrays(k, m, n + 1)
    iwords = index_words(k, m)
    # cum[i] = count(prefix of length i, pattern); letter columns come first
    # in canonical order, so a pair's letter column is built before it
    for c in sorted(cums):
        x = iwords[c]
        hit = letters == x[-1]
        np.cumsum(hit if len(x) == 1 else cums[x[0]][:n] * hit, out=cums[c][1:])
    keys = [cums[c] for c in letter_cols]
    if len(keys) > 1 and _key_fits(k, n):
        # n.bit_length() bits per count: block differences in [0, n] never borrow
        keys = [_pack_key(keys, n.bit_length())]
    best: Optional[tuple[int, int]] = None
    for t in range(1, n // p + 1):
        smax = n - p * t + 1
        if best is not None:
            smax = min(smax, best[0])
        if smax <= 0:
            break
        budget.tick(smax)
        valid = np.ones(smax, dtype=bool)
        for key in keys:
            counts = key[t : p * t + smax] - key[: (p - 1) * t + smax]
            base = counts[:smax]
            for j in range(1, p):
                valid &= counts[j * t : j * t + smax] == base
            if not valid.any():
                break
        hits = _pair_survivors(cums, pairs, np.flatnonzero(valid), t, p)
        if hits.size:
            # smax <= best[0], so any hit improves the winner
            best = (int(hits[0]), t)
            if best[0] == 0:
                break
    if best is None:
        return None
    return Occurrence(best[0], best[1], p, m)


def _verify_occurrence(wd: Word, occ: Occurrence) -> None:
    # independent recomputation guards both engines
    sigs = [
        signature(
            wd[occ.start + j * occ.period : occ.start + (j + 1) * occ.period], occ.order
        ).counts
        for j in range(occ.power)
    ]
    if any(s != sigs[0] for s in sigs[1:]):
        raise BinwordsError(
            f"internal error: reported occurrence {occ} fails recomputation"
        )


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
            raise CountOverflowError(
                "word too long for the fixed-width vector engine"
            )
    if engine == "auto":
        engine = "vector" if (m <= 2 and _VECTOR_MIN_LEN <= n < _VECTOR_MAX_LEN) else "python"
    budget = Budget("scan", budget_ms)
    if engine == "vector":
        occ = _find_vector(wd, m, p, budget)
    else:
        occ = _find_python(wd, m, p, budget)
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
    return (
        find_power(w, m, p, alphabet=alphabet, engine=engine, budget_ms=budget_ms)
        is None
    )


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
