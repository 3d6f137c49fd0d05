"""Backtracking search for words avoiding m-binomial p-powers.

The search walks the k-ary tree of words, trying letters in increasing
order, and prunes a branch as soon as an (m, p)-power ends at the freshly
appended letter.  That suffix-anchored test is sound and complete: a word
contains a power iff some prefix contains one ending at its own last
position.  Depth first, the search word grows and shrinks one letter at a
time and owns that test: its hits() gives all its children's verdicts when
the walk expands it, and only survivors shorter than the cap are pushed.
At orders 3 and 4 it is a PrefixIndex asking O(length / p) block
comparisons per child, at orders 1 and 2 one numpy test of int64 keys,
against which the tests run the key-free PrefixIndex word.

`longest_avoiding` stops at the first word reaching the cap (the tree is
alive) or exhausts the tree (exact maximal length); `count_avoiding`
explores everything to a fixed depth and tabulates survivors per length.
Renaming letters maps powers to powers, so a count walks one word per
renaming orbit, the one in first-occurrence form (each new letter is the
least unused one), and weighs it by the orbit's size: perm(k, u) for u
distinct letters, perm(k - 1, u - 1) with the first letter fixed by
symmetry.  Its counts and nodes are those of the full tree.  One table
(_walk_table), indexed by a word's top and a letter, gives both walks the
letters to try, each child's top and its weight.  Both searches are
deterministic, and a node budget aborts at a deterministic point.

The search and the counts at orders 3 and 4 walk depth first (_dfs).  At
orders 1 and 2 a count walks the same orbit tree in batches of up to
_BATCH words of one depth (_count_batched), the split by order that
detect makes between its engines.  At these orders a word is its int64
keys (detect._key_growth) at every prefix and its step, what appending
each letter adds to its last keys: a child's keys are its parent's last
keys plus its letter's step, and one numpy test (_children) checks all
children of a batch, or of the search word (_KeyWord), at every period.
Survivors go back on a stack of batches, so the pending key histories
stay within about n_max * k * _BATCH rows.  A count's table ends at n_max
or at the first length with no survivor, and a count refuses n_max >=
words.LENGTH_LIMIT at every order.  Its budget is ticked per batch,
and child by child in a batch that would pass a unit cap, so it aborts on
the same node every run; progress is reported when a batch first reaches
a depth, in batch order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm
from typing import Callable, Optional

import numpy as np

from .errors import BinwordsError, Budget, BudgetExceededError, InvalidInputError
from .words import LENGTH_LIMIT, Alphabet, PrefixIndex, Word, _check_int, _check_order, _check_power
from .detect import _key_growth, is_power_free

# depth, nodes, survivors at depth, reported when a survivor first reaches
# the depth; a count weighs both by orbit, so they include the renamings of
# every word walked, and at orders 1, 2 they are the totals after the batch
# that got there (batch order, not depth-first order)
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
    """Exact survivor counts per length from a full bounded exploration,
    up to n_max or to the first length with no survivor, where it ends."""

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


# Parents per batch of the order-1/2 count; the pending batches then hold
# at most about n_max * k * _BATCH key histories.
_BATCH = 256


def _children(hist: np.ndarray, step: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """For parents with int64 keys hist[i] at positions 0..n-1 and steps
    step[i, c], each child's keys at n, new[i, c], and whether a p-power
    ends there, hit[i, c]: at some period t <= n // p its last block
    differs by as much as the one before (new == key[n - t] + that
    difference, which may wrap around int64 and still compare exactly) and
    so do the parent's earlier pairs of adjacent blocks, on every key."""
    n = hist.shape[2]
    new = hist[:, None, :, -1] + step
    # bounds[j - 1][:, :, t - 1] = key[n - j * t], the j-th boundary back
    bounds = [hist[:, :, n - j :: -j][:, :, : n // p] for j in range(1, p + 1)]
    last = bounds[0] - bounds[1]
    hit = new[..., None] == (bounds[0] + last)[:, None]
    for j in range(1, p - 1):
        hit &= (bounds[j] - bounds[j + 1] == last)[:, None]
    return new, hit.all(2).any(2)


class _SearchWord(PrefixIndex):
    """The search word at orders 3 and 4, a PrefixIndex whose hits() pushes
    each letter it holds, asks its block test at every period and pops it;
    at orders 1 and 2 the tests' reference for _KeyWord, on letter counts
    and signatures, not keys.  cap is unused; it keeps _KeyWord's signature."""

    def __init__(self, k: int, m: int, p: int, cap: int) -> None:
        super().__init__(Word((), Alphabet(k)), m)
        self._p = p

    def hits(self) -> list[bool]:
        n, p = len(self._letters) + 1, self._p
        # a power's first block holds its last letter, so a new letter ends none
        out = [False] * self.alphabet.size
        for a in set(self._letters):
            self._push(a)
            out[a] = any(self.blocks_equivalent(n - p * t, t, p) for t in range(1, n // p + 1))
            self._pop()
        return out


class _KeyWord:
    """The search word at orders 1 and 2, held as _count_batched holds a
    parent: int64 keys at every prefix, planned for cap and grown by
    doubling, and one step, what appending each letter adds to the last
    keys.  hits() is _children on a batch of one."""

    def __init__(self, k: int, m: int, p: int, cap: int) -> None:
        self._bound = min(cap, LENGTH_LIMIT - 1)
        unit, weight = _key_growth(k, m, self._bound)
        # grow[a, c] is what one more letter a adds to letter c's step
        self._grow = weight.transpose(2, 1, 0)
        self._p = p
        self._letters: list[int] = []
        self._keys = np.zeros((len(unit), 1), np.int64)  # [key, position]
        self._step = unit.T.copy()  # [letter, key]

    def __len__(self) -> int:
        return len(self._letters)

    def _check_room(self) -> None:
        # the keys hold words of length <= _bound, the children included
        if len(self._letters) >= self._bound:
            raise InvalidInputError(f"prefix keys planned for length <= {self._bound}")

    def _push(self, a: int) -> None:
        self._check_room()
        n = len(self._letters)
        if n + 1 == self._keys.shape[1]:  # double, up to the planned bound
            more = min(n + 1, self._bound - n)
            self._keys = np.concatenate((self._keys, np.zeros_like(self._keys[:, :more])), axis=1)
        np.add(self._keys[:, n], self._step[a], out=self._keys[:, n + 1])
        self._step += self._grow[a]
        self._letters.append(a)

    def _pop(self) -> None:
        self._step -= self._grow[self._letters.pop()]

    def hits(self) -> list[bool]:
        self._check_room()
        n = len(self._letters) + 1
        return _children(self._keys[None, :, :n], self._step[None], self._p)[1][0].tolist()


def _start(
    k: int, m: int, p: int, cap: int, node_budget: Optional[int], budget_ms: Optional[int]
) -> Budget:
    """Validate a search's parameters, in one fixed order, and start its budget."""
    _check_order(m)
    _check_power(p)
    _check_int(cap, "search depth cap", 1)
    Alphabet(k)
    return Budget("search", budget_ms, node_budget)


def _walk_table(k: int, symmetry: bool, orbits: bool) -> tuple[np.ndarray, np.ndarray]:
    """Indexed by a word's top (1 + its largest letter; 0 when empty) and a
    letter: the child's top and weight, 0 for a letter not tried (the tried
    letters are a prefix of the alphabet).  A count (orbits) tries letters
    up to the top and weighs a word by its orbit; a search tries every
    letter, only 0 at the root under symmetry, and weighs each word 1."""
    top = np.arange(k + 1)[:, None]
    letter = np.arange(k)
    child = np.maximum(top, letter + 1)
    if not orbits:
        return child, ((top > 0) | (letter == 0) | (not symmetry)).astype(np.int64)
    orbit = [perm(k - 1, u - 1) if symmetry else perm(k, u) for u in range(1, k + 1)]
    return child, np.array(orbit)[child - 1] * (letter <= top)


@dataclass
class _DfsResult:
    best_word: list[int]
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
    budget = _start(k, m, p, depth_cap, node_budget, budget_ms)
    w = (_KeyWord if m <= 2 else _SearchWord)(k, m, p, depth_cap)
    tops_of, weights = (t.tolist() for t in _walk_table(k, symmetry, not stop_at_cap))
    counts: list[int] = []
    # None while the first word of the deepest length is the search word
    best_word: Optional[list[int]] = None
    aborted = False
    # frames[d] = [next letter to try, top, hits] of the search word's
    # prefix of length d; the search word is the longest of them
    frames = [[0, 0, w.hits()]]
    while frames:
        a, top, hits = frame = frames[-1]
        weight = weights[top][a] if a < k else 0
        if not weight:  # no letter left to try
            frames.pop()
            if frames:
                if best_word is None:
                    best_word = w._letters[:]  # before the pop shortens it
                w._pop()
            continue
        frame[0] = a + 1
        try:
            budget.tick(weight)
        except BudgetExceededError:
            aborted = True
            break
        if hits[a]:
            continue
        d = len(w) + 1
        if d > len(counts):  # the first survivor of this depth
            counts.append(weight)
            best_word = None if d < depth_cap else w._letters + [a]
            if progress is not None:
                progress(d, budget.units, counts[d - 1])
        else:
            counts[d - 1] += weight
        if d < depth_cap:
            w._push(a)
            frames.append([0, tops_of[top][a], w.hits()])
        elif stop_at_cap:  # best_word is this first word of length depth_cap
            break
    if best_word is None:
        best_word = w._letters[: len(counts)]
    return _DfsResult(best_word, counts, budget.units, aborted)


def _count_batched(
    k: int,
    m: int,
    p: int,
    n_max: int,
    *,
    symmetry: bool,
    node_budget: Optional[int],
    budget_ms: Optional[int],
    progress: Optional[ProgressFn],
) -> _DfsResult:
    """_dfs's count at orders 1 and 2, walked in batches: the same orbit
    tree, weights and nodes, up to _BATCH parents of one depth at a time.
    A child's keys are its parent's last keys plus its letter's step, and
    one numpy pass tests every child at every period on every key."""
    budget = _start(k, m, p, n_max, node_budget, budget_ms)
    unit, weight = _key_growth(k, m, n_max)
    n_keys = len(unit)
    # grow[a, c] is what one more letter a adds to letter c's step
    grow = weight.transpose(2, 1, 0)
    tops_of, units_of = _walk_table(k, symmetry, True)
    counts: list[int] = []
    # a batch: per parent its keys at every prefix, its top and its steps,
    # step[i, c] = what appending c adds to its last keys
    stack = [(np.zeros((1, n_keys, 1), np.int64), np.zeros(1, np.int64), unit.T[None])]
    aborted = False
    try:
        while stack:
            hist, top, step = stack.pop()
            n = hist.shape[2]  # the children's length
            units = units_of[top]
            total = int(units.sum())
            if budget.fits(total):
                budget.tick(total)
            else:  # abort on the very child that would pass the cap
                for u in units[units > 0].tolist():
                    budget.tick(u)
            new, hit = _children(hist, step, p)
            alive = units * ~hit
            parent, letter = alive.nonzero()
            if parent.size:
                if n > len(counts):  # the first survivors of this depth
                    counts.append(int(alive.sum()))
                    if progress is not None:
                        progress(n, budget.units, counts[n - 1])
                else:
                    counts[n - 1] += int(alive.sum())
                if n < n_max:
                    for i in reversed(range(0, len(parent), _BATCH)):
                        up, a = parent[i : i + _BATCH], letter[i : i + _BATCH]
                        keys = np.concatenate((hist[up], new[up, a, :, None]), axis=2)
                        stack.append((keys, tops_of[top[up], a], step[up] + grow[a]))
    except BudgetExceededError:
        aborted = True
    return _DfsResult([], counts, budget.units, aborted)


def _verified_witness(letters: list[int], k: int, m: int, p: int) -> Word:
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
    elif len(letters) == cap:  # the search stopped on its first word of length cap
        outcome = "cap_reached"
    witness = _verified_witness(letters, k, m, p)
    return SearchCertificate(
        alphabet_size=k,
        order=m,
        power=p,
        outcome=outcome,
        max_length=len(letters),
        witness=witness,
        cap=cap,
        counts=tuple(res.counts),
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

    Explores the full pruned tree; if it dies first, the table ends with
    the 0 of its first empty length.  A budget overrun raises rather than
    returning a silently short table.
    """
    opts = dict(symmetry=symmetry, node_budget=node_budget, budget_ms=budget_ms, progress=progress)
    _check_order(m)
    _check_int(n_max, "n_max", 1, LENGTH_LIMIT)
    if m <= 2:
        res = _count_batched(k, m, p, n_max, **opts)
    else:
        res = _dfs(k, m, p, n_max, stop_at_cap=False, **opts)
    if res.aborted:
        raise BudgetExceededError(
            f"count_avoiding budget ran out after {res.nodes} nodes"
        )
    return CountTable(
        alphabet_size=k,
        order=m,
        power=p,
        n_max=n_max,
        counts=tuple(res.counts) + (0,) * (len(res.counts) < n_max),
        symmetry_reduced=symmetry,
        nodes=res.nodes,
    )
