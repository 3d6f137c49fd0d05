"""Backtracking search for words avoiding m-binomial p-powers.

The search walks the k-ary tree of words depth first, trying letters in
increasing order, and prunes a branch as soon as an (m, p)-power ends at
the freshly appended letter.  That suffix-anchored test is sound and
complete: a word contains a power iff some prefix contains one ending at
its own last position.  Signatures are maintained incrementally by one
PrefixIndex that grows and shrinks with the search word, so each pruning
test costs O(length / p) block comparisons with O(1) work per component.

`longest_avoiding` stops at the first word reaching the cap (the tree is
alive) or exhausts the tree (exact maximal length); `count_avoiding`
explores everything to a fixed depth and tabulates survivors per length.
Both are deterministic, and a node budget aborts at a deterministic point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BinwordsError, Budget, BudgetExceededError, InvalidInputError
from .words import (
    Alphabet,
    PrefixIndex,
    Word,
    _check_order,
    _check_power,
)
from .detect import is_power_free

ProgressFn = Callable[[int, int, int], None]  # depth, nodes, survivors at depth


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
    counts = [0] * depth_cap
    best_len = 0
    best_word: tuple[int, ...] = ()
    cap_word: Optional[tuple[int, ...]] = None
    aborted = False
    # stack[-1] is the next letter to try at the current depth; the search
    # word always has len(stack) - 1 letters
    stack = [0]
    while stack:
        a = stack[-1]
        limit = 1 if (symmetry and len(stack) == 1) else k
        if a >= limit:
            stack.pop()
            if stack:
                idx._pop()
                stack[-1] += 1
            continue
        try:
            budget.tick()
        except BudgetExceededError:
            aborted = True
            break
        idx._push(a)
        if _power_ends_at_last(idx, p):
            idx._pop()
            stack[-1] += 1
            continue
        d = len(idx)
        counts[d - 1] += 1
        if d > best_len:
            best_len = d
            best_word = tuple(idx._letters)
            if progress is not None:
                progress(d, budget.units, counts[d - 1])
        if d == depth_cap:
            if stop_at_cap:
                cap_word = tuple(idx._letters)
                break
            idx._pop()
            stack[-1] += 1
            continue
        stack.append(0)
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
