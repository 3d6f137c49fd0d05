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

from .errors import BinwordsError, Budget, BudgetExceededError, InvalidInputError
from .words import (
    Alphabet,
    PrefixIndex,
    Word,
    _block_basis,
    _check_order,
    _check_power,
)
from .detect import _VECTOR_MAX_LEN, _key_fits, _pair_survivors, is_power_free

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


def _power_ends_at_last(idx: PrefixIndex, p: int) -> bool:
    n = len(idx)
    for block in range(1, n // p + 1):
        if idx.blocks_equivalent(n - p * block, block, p):
            return True
    return False


# From this depth on the suffix test runs on numpy: per node, python costs
# grow with the depth and numpy's stay flat (timings in CHANGES.md).
_NUMPY_DEPTH = 192


class _Mirror:
    """numpy copies of a search index's basis columns and packed letter key.

    The arrays are allocated once at cap + 1; entries below `synced` match
    the index.  Every pop of the index must go through pop(), which drops
    `synced`, or a regrown word would be tested against stale entries.
    """

    def __init__(self, idx: PrefixIndex, cap: int) -> None:
        basis = _block_basis(idx.alphabet.size, idx.order)
        self.idx = idx
        self.cols = {c: np.zeros(cap + 1, np.int64) for e in basis for c in e if c >= 0}
        self.letters = [c for c, a, _ in basis if a < 0]
        self.pairs = [e for e in basis if e[1] >= 0]
        self.key = np.zeros(cap + 1, np.int64)
        self.width = cap.bit_length()  # valid while _key_fits(k, cap)
        self.synced = 0

    def pop(self) -> None:
        self.idx._pop()
        self.synced = min(self.synced, len(self.idx) + 1)

    def power_ends_at_last(self, p: int) -> bool:
        """_power_ends_at_last on the arrays: stage 1 compares the blocks'
        key differences for every period at once, reading each block
        boundary as a strided reversed view; stage 2 is the scan's."""
        n = len(self.idx)
        lo, hi = self.synced, n + 1
        if lo < hi:
            for c, col in self.cols.items():
                col[lo:hi] = self.idx._cols[c][lo:hi]
            self.key[lo:hi] = sum(
                self.cols[c][lo:hi] << (c * self.width) for c in self.letters
            )
            self.synced = hi
        key = self.key
        # bounds[j - 1][t - 1] = key[n - j * t], the j-th block boundary
        # back from the end for period t
        bounds = [key[n - j :: -j][: n // p] for j in range(1, p + 1)]
        first = key[n] - bounds[0]
        valid = bounds[0] - bounds[1] == first
        for j in range(1, p - 1):
            valid &= bounds[j] - bounds[j + 1] == first
        periods = np.flatnonzero(valid) + 1
        hits = _pair_survivors(self.cols, self.pairs, n - p * periods, periods, p)
        return hits.size > 0


@dataclass
class _DfsResult:
    best_len: int
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
    if not isinstance(depth_cap, int) or isinstance(depth_cap, bool):
        raise InvalidInputError(f"search depth cap must be an int, got {depth_cap!r}")
    if depth_cap < 1:
        raise InvalidInputError(f"search depth cap must be >= 1, got {depth_cap}")
    alph = Alphabet(k)
    idx = PrefixIndex(Word((), alph), m)
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
    deep = _NUMPY_DEPTH
    if m > 2 or depth_cap >= _VECTOR_MAX_LEN or not _key_fits(k, depth_cap):
        deep = depth_cap + 1
    mirror: Optional[_Mirror] = None
    pop = idx._pop  # mirror.pop once there is a mirror
    counts = [0] * depth_cap
    best_len = 0
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
            idx._push(a)
            d = len(idx)
            if d < deep:
                dead = _power_ends_at_last(idx, p)
            else:
                if mirror is None:
                    mirror = _Mirror(idx, depth_cap)
                    pop = mirror.pop
                dead = mirror.power_ends_at_last(p)
            if not dead:
                counts[d - 1] += weight[top]
                if d > best_len:
                    best_len = d
                    best_word = tuple(idx._letters)
                    if progress is not None:
                        progress(d, budget.units, counts[d - 1])
                if d < depth_cap:
                    stack.append(0)
                    tops.append(top)
                    continue
                if stop_at_cap:
                    cap_word = tuple(idx._letters)
                    break
        else:
            stack.pop()
            tops.pop()
            if not stack:
                break
        pop()  # the last letter was pruned, reached the cap or ran out of letters
        stack[-1] += 1
    return _DfsResult(best_len, best_word, cap_word, counts, budget.units, aborted)


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
    if res.aborted:
        outcome = "budget_abort"
        length, letters = res.best_len, res.best_word
    elif res.cap_word is not None:
        outcome = "cap_reached"
        length, letters = cap, res.cap_word
    else:
        outcome = "maximal"
        length, letters = res.best_len, res.best_word
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
        max_length=length,
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
