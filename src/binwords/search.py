"""Backtracking search for words avoiding m-binomial p-powers.

The search walks the k-ary tree of words depth first, trying letters in
increasing order, and prunes a branch as soon as an (m, p)-power ends at
the freshly appended letter.  That suffix-anchored test is sound and
complete: a word contains a power iff some prefix contains one ending at
its own last position.  Signatures are maintained incrementally by one
PrefixIndex that grows and shrinks with the search word, so each pruning
test costs O(length / p) block comparisons with O(1) work per component;
from depth _NUMPY_DEPTH on it runs on numpy copies of the index.

`longest_avoiding` stops at the first word reaching the cap (the tree is
alive) or exhausts the tree (exact maximal length); `count_avoiding`
explores everything to a fixed depth and tabulates survivors per length.
Renaming letters maps powers to powers, so a count walks one word per
renaming orbit, the one in first-occurrence form (each new letter is the
least unused one), and weighs it by the orbit's size: perm(k, u) for u
distinct letters, perm(k - 1, u - 1) with the first letter fixed by
symmetry.  Its counts and nodes are those of the full tree.  Both searches
are deterministic, and a node budget aborts at a deterministic point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm
from typing import Callable, Optional

import numpy as np

from .errors import BinwordsError, Budget, BudgetExceededError
from .words import Alphabet, PrefixIndex, Word, _check_int, _check_order, _check_power
from .detect import _VECTOR_MAX_LEN, _basis_arrays, _key_fits, _pack_key, _power_ends_at
from .detect import is_power_free

# depth, nodes, survivors at depth; a count weighs both by orbit, so they
# include the renamings of every word walked, wherever those sort
ProgressFn = Callable[[int, int, int], None]


@dataclass(frozen=True)
class SearchCertificate:
    """Reproducible outcome of one avoidance search.

    outcome is "maximal" (tree exhausted; max_length is exact and every
    longer word contains a power), "cap_reached" (a witness of length cap
    survives, so the tree is alive), or "budget_abort" (partial results).
    counts[d-1] survivors of length d were seen before the search stopped;
    counts_complete marks whether the whole tree was explored.
    """

    alphabet_size: int
    order: int
    power: int
    outcome: str
    max_length: int
    witness: Word
    cap: int
    counts: tuple[int, ...]
    counts_complete: bool
    symmetry_reduced: bool
    nodes: int

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "k": self.alphabet_size,
            "m": self.order,
            "p": self.power,
            "outcome": self.outcome,
            "max_length": self.max_length,
            "witness": str(self.witness),
            "cap": self.cap,
            "counts": list(self.counts),
            "counts_complete": self.counts_complete,
            "symmetry_reduced": self.symmetry_reduced,
            "nodes": self.nodes,
        }


@dataclass(frozen=True)
class CountTable:
    """Exact survivor counts per length from a full bounded exploration."""

    alphabet_size: int
    order: int
    power: int
    n_max: int
    counts: tuple[int, ...]
    symmetry_reduced: bool
    nodes: int

    def to_tsv(self) -> str:
        lines = [
            f"# schema=1 k={self.alphabet_size} m={self.order} p={self.power}"
            f" n_max={self.n_max} symmetry_reduced={int(self.symmetry_reduced)}"
            f" nodes={self.nodes}",
            "length\tcount",
        ]
        for d, c in enumerate(self.counts, start=1):
            lines.append(f"{d}\t{c}")
        return "\n".join(lines) + "\n"


# From this depth on the suffix test runs on numpy: per node, python costs
# grow with the depth and numpy's stay flat (timings in CHANGES.md).
_NUMPY_DEPTH = 192


class _SearchWord(PrefixIndex):
    """The search word: a PrefixIndex whose suffix test runs block tests
    below depth `deep` and detect's numpy test from there on, on copies of
    the basis columns and packed letter key allocated at cap + 1 entries.
    Entries below `synced` match the index; _pop lowers it, so a regrown
    word is never tested against stale entries."""

    def __init__(self, k: int, m: int, cap: int) -> None:
        super().__init__(Word((), Alphabet(k)), m)
        self.cap = cap
        self.deep = _NUMPY_DEPTH
        if m > 2 or cap >= _VECTOR_MAX_LEN or not _key_fits(k, cap):
            self.deep = cap + 1
        self.key: Optional[np.ndarray] = None
        self.synced = 0

    def _pop(self) -> None:
        # PrefixIndex._pop inlined: one Python call per pop on the hot path
        for col in self._cols:
            col.pop()
        letters = self._letters
        letters.pop()
        if self.synced > len(letters):
            self.synced = len(letters) + 1

    def power_ends_at_last(self, p: int) -> bool:
        n = len(self._letters)
        if n < self.deep:
            for block in range(1, n // p + 1):
                if self.blocks_equivalent(n - p * block, block, p):
                    return True
            return False
        if self.key is None:
            k, size = self.alphabet.size, self.cap + 1
            self.cums, self.letter_cols, self.pairs = _basis_arrays(k, self.order, size)
            self.key = np.zeros(size, np.int64)
        lo, hi = self.synced, n + 1
        if lo < hi:
            for c, col in self.cums.items():
                col[lo:hi] = self._cols[c][lo:hi]
            # cap.bit_length() bits per count, valid while _key_fits(k, cap)
            self.key[lo:hi] = _pack_key(
                [self.cums[c][lo:hi] for c in self.letter_cols], self.cap.bit_length()
            )
            self.synced = hi
        return _power_ends_at(self.key, self.cums, self.pairs, n, p)


@dataclass
class _DfsResult:
    best_word: tuple[int, ...]
    cap_word: Optional[tuple[int, ...]]
    counts: list[int]
    nodes: int
    aborted: bool


def _dfs(
    k: int,
    m: int,
    p: int,
    depth_cap: int,
    *,
    stop_at_cap: bool,
    symmetry: bool,
    node_budget: Optional[int],
    budget_ms: Optional[int],
    progress: Optional[ProgressFn],
) -> _DfsResult:
    _check_order(m)
    _check_power(p)
    _check_int(depth_cap, "search depth cap", 1)
    w = _SearchWord(k, m, depth_cap)
    budget = Budget("search", budget_ms, node_budget)
    # indexed by top = 1 + the largest letter so far: the letters to try
    # next, and the weight of a node with that top (its distinct letters,
    # in first-occurrence form)
    if stop_at_cap:
        limit = [1 if symmetry else k] + [k] * k
        weight = [1] * (k + 1)
    else:
        limit = [min(k, top + 1) for top in range(k + 1)]
        weight = [0] + [
            perm(k - 1, u - 1) if symmetry else perm(k, u) for u in range(1, k + 1)
        ]
    counts = [0] * depth_cap
    best_word: tuple[int, ...] = ()
    cap_word: Optional[tuple[int, ...]] = None
    aborted = False
    # stack[-1] is the next letter to try at the current depth and tops[-1]
    # the top of the search word, which always has len(stack) - 1 letters
    stack = [0]
    tops = [0]
    while stack:
        a = stack[-1]
        top = tops[-1]
        if a < limit[top]:
            top = max(top, a + 1)
            try:
                budget.tick(weight[top])
            except BudgetExceededError:
                aborted = True
                break
            w._push(a)
            d = len(w)
            if not w.power_ends_at_last(p):
                counts[d - 1] += weight[top]
                if d > len(best_word):
                    best_word = tuple(w._letters)
                    if progress is not None:
                        progress(d, budget.units, counts[d - 1])
                if d < depth_cap:
                    stack.append(0)
                    tops.append(top)
                    continue
                if stop_at_cap:
                    cap_word = tuple(w._letters)
                    break
        else:
            stack.pop()
            tops.pop()
            if not stack:
                break
        w._pop()  # the last letter was pruned, reached the cap or ran out of letters
        stack[-1] += 1
    return _DfsResult(best_word, cap_word, counts, budget.units, aborted)


def _verified_witness(letters: tuple[int, ...], k: int, m: int, p: int) -> Word:
    w = Word(letters, Alphabet(k))
    if not is_power_free(w, m, p):
        raise BinwordsError(f"internal error: search witness {w} fails the detector")
    return w


def longest_avoiding(
    k: int,
    m: int,
    p: int,
    cap: int,
    *,
    symmetry: bool = False,
    node_budget: Optional[int] = None,
    budget_ms: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> SearchCertificate:
    """Search for the longest (m, p)-power-free word over k letters, up to cap.

    Exhausting the tree proves the returned max_length exact: every word
    one letter longer contains a power.  Reaching the cap only certifies
    the tree is alive there; the witness is the lexicographically least
    survivor of that length.  Witnesses are re-verified by the detector.
    """
    res = _dfs(
        k,
        m,
        p,
        cap,
        stop_at_cap=True,
        symmetry=symmetry,
        node_budget=node_budget,
        budget_ms=budget_ms,
        progress=progress,
    )
    outcome, letters = "maximal", res.best_word
    if res.aborted:
        outcome = "budget_abort"
    elif res.cap_word is not None:
        outcome, letters = "cap_reached", res.cap_word
    witness = _verified_witness(letters, k, m, p)
    counts = list(res.counts)
    while counts and counts[-1] == 0:
        counts.pop()  # lengths past the deepest survivor: zero for a maximal
        # outcome, never explored otherwise; either way content-free
    return SearchCertificate(
        alphabet_size=k,
        order=m,
        power=p,
        outcome=outcome,
        max_length=len(letters),
        witness=witness,
        cap=cap,
        counts=tuple(counts),
        counts_complete=(outcome == "maximal"),
        symmetry_reduced=symmetry,
        nodes=res.nodes,
    )


def count_avoiding(
    k: int,
    m: int,
    p: int,
    n_max: int,
    *,
    symmetry: bool = False,
    node_budget: Optional[int] = None,
    budget_ms: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> CountTable:
    """Exact counts of (m, p)-power-free words of each length 1..n_max.

    Explores the full pruned tree; a budget overrun raises rather than
    returning a silently short table.
    """
    res = _dfs(
        k,
        m,
        p,
        n_max,
        stop_at_cap=False,
        symmetry=symmetry,
        node_budget=node_budget,
        budget_ms=budget_ms,
        progress=progress,
    )
    if res.aborted:
        raise BudgetExceededError(
            f"count_avoiding budget ran out after {res.nodes} nodes"
        )
    return CountTable(
        alphabet_size=k,
        order=m,
        power=p,
        n_max=n_max,
        counts=tuple(res.counts),
        symmetry_reduced=symmetry,
        nodes=res.nodes,
    )
