"""The order-1/order-2 block test, in both engines.

PrefixIndex.blocks_equivalent (the python engine and the search's
reference) compares letter counts, then factor signatures, and reads no
key.  The vector engine compares int64 keys laid out by detect._key_plan:
letters a < k-1 and, at order 2, the antisymmetric pair counts D_ab =
|prefix|_ab - |prefix|_ba for a < b.  A power-free verdict rests on those
fields being complete, so both engines are checked against the naive
oracles, on planted powers at the last legal start with the longest
period, and by negative controls: a plan that drops one pair field, caught
on the vector side alone, and a block test that stops after the letter
counts at order 2.  The identity that lets D stand for count(ab) is
checked exhaustively on short words, with a control that tests the plain
pair count instead.
"""

import functools
import itertools
import random

import numpy as np
import pytest

import binwords.detect as detect
from binwords import PrefixIndex, find_power, word

from oracles import naive_equivalent, naive_find_power, naive_subword_count

ENGINES = ("python", "vector")


def short_words(k):
    """Every word of one short length over k letters; a seeded sample for k = 4."""
    if k == 4:
        rng = random.Random(4)
        return [tuple(rng.randrange(4) for _ in range(8)) for _ in range(150)]
    return list(itertools.product(range(k), repeat={1: 8, 2: 8, 3: 6}[k]))


def basis_mismatches(k, m, sample):
    """Disagreements of both consumers with the oracles on every
    (start, period, count) of each word, count 2..4."""
    out = []
    for letters in sample:
        w = word(letters, k)
        idx = PrefixIndex(w, m)
        n = len(letters)
        for count in (2, 3, 4):
            for s in range(n):
                for t in range(1, (n - s) // count + 1):
                    blocks = [letters[s + i * t : s + (i + 1) * t] for i in range(count)]
                    want = all(naive_equivalent(blocks[0], b, m, k) for b in blocks[1:])
                    if idx.blocks_equivalent(s, t, count) != want:
                        out.append(("index", letters, s, t, count))
            occ = find_power(w, m, count, engine="vector")
            got = None if occ is None else (occ.start, occ.period)
            if got != naive_find_power(letters, m, count, k):
                out.append(("vector", letters, count))
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2])
def test_basis_matches_oracle(k, m):
    assert basis_mismatches(k, m, short_words(k)) == []


def test_basis_size():
    # k - 1 letters, then the k(k-1)/2 pairs a < b
    for k in range(1, 9):
        for m, size in ((1, k - 1), (2, k - 1 + k * (k - 1) // 2)):
            assert sum(map(len, detect._key_plan(k, m, 100))) == size


def weakened_plan(k, m, n, plan=detect._key_plan):
    """The key plan without its last field, at order 2 a pair (at k = 2 the only one)."""
    out = plan(k, m, n)
    if m == 2 and k > 1:
        out[-1].pop()
    return out


def test_dropping_a_pair_entry_is_caught(monkeypatch):
    # negative control: without one pair field, order 2 collapses toward
    # abelian equivalence in the vector engine, and the differential test
    # fails there alone; the index reads no key plan
    monkeypatch.setattr(detect, "_key_plan", weakened_plan)
    # find_power's recomputation would reject the false hits first; switch it
    # off so that the differential test alone has to catch them
    monkeypatch.setattr(detect, "_verify_occurrence", lambda *args: None)
    found = basis_mismatches(2, 2, short_words(2))
    assert found and {f[0] for f in found} == {"vector"}


def test_stopping_after_the_letter_counts_is_caught(monkeypatch):
    # negative control: a block test that decides on letter counts alone,
    # as at order 1, and never compares the factor signatures
    def screen_only(self, start, period, count):
        first = self.letter_counts(start, start + period)
        stop = start + period * count
        return all(
            self.letter_counts(s, s + period) == first
            for s in range(start + period, stop, period)
        )

    monkeypatch.setattr(PrefixIndex, "blocks_equivalent", screen_only)
    with pytest.raises(AssertionError):
        test_basis_matches_oracle(2, 2)


# Each word ends with the planted blocks, so they sit at the last legal
# start for their period, and that period is the longest one at that start.
ABELIAN_ONLY = "01021" + "01" + "10"
ORDER_TWO = "01021012" + "0110" + "1001"
README_PAIR = "01021012" + "0101110" + "0110101"


@pytest.mark.parametrize("engine", ENGINES)
def test_abelian_pair_found_only_at_order_one(engine):
    s = len(ABELIAN_ONLY) - 4
    occ = find_power(ABELIAN_ONLY, 1, 2, engine=engine)
    assert (occ.start, occ.period) == (s, 2)
    occ = find_power(ABELIAN_ONLY, 2, 2, engine=engine)
    assert (occ.start, occ.period) != (s, 2)
    assert not PrefixIndex(ABELIAN_ONLY, 2).blocks_equivalent(s, 2, 2)


@pytest.mark.parametrize("engine", ENGINES)
def test_order_two_pair_found_at_order_two(engine):
    occ = find_power(ORDER_TWO, 2, 2, engine=engine)
    assert (occ.start, occ.period) == (len(ORDER_TWO) - 8, 4)


@pytest.mark.parametrize("engine", ENGINES)
def test_readme_pair_found_at_order_two(engine):
    # the pair's first block starts with the square 0101, so the minimal
    # occurrence lies there; the planted blocks are checked at their place
    s = len(README_PAIR) - 14
    assert PrefixIndex(README_PAIR, 2).blocks_equivalent(s, 7, 2)
    occ = find_power(README_PAIR, 2, 2, engine=engine)
    assert (occ.start, occ.period) == naive_find_power(word(README_PAIR), 2, 2, 3)


@functools.lru_cache(maxsize=None)
def pair_identity_mismatches(k=3, n_max=8, seed=10):
    """Over every pair (u, v) of equal-Parikh words of one length <= n_max
    over k letters (binary words are among the ternary ones), placed as
    x u v after a random prefix x: for each pair of letters a < b, how
    often "u and v have equal block differences of the column" disagrees
    with "u and v have equal oracle count(ab)", for
    D_ab = |prefix|_ab - |prefix|_ba and for C_ab = |prefix|_ab alone."""
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(k), 2))
    bad = {"D": 0, "C": 0}
    for n in range(1, n_max + 1):
        w = np.array(list(itertools.product(range(k), repeat=n)), np.int16).T
        count = np.array([[naive_subword_count(u, ab) for u in w.T.tolist()] for ab in pairs])
        _, cls = np.unique([(w == a).sum(0) for a in range(k)], axis=1, return_inverse=True)
        for c in range(cls.max() + 1):
            members = np.flatnonzero(cls == c)
            step = max(1, 2**16 // len(members))
            for lo in range(0, len(members), step):
                u = np.repeat(members[lo : lo + step], len(members))
                v = np.tile(members, len(u) // len(members))
                x = rng.integers(0, k, (int(rng.integers(0, 7)), len(u)), dtype=np.int16)
                hit = np.concatenate([x, w[:, u], w[:, v]]) == np.arange(k)[:, None, None]
                # letters before each position of the two blocks, prefix included
                before = (np.cumsum(hit, axis=1, dtype=np.int16) - hit)[:, len(x) :]
                hit = hit[:, len(x) :]
                for i, (a, b) in enumerate(pairs):
                    same = count[i, u] == count[i, v]
                    ab = before[a] * hit[b]  # per position: the ab occurrences it ends
                    for name, terms in (("D", ab - before[b] * hit[a]), ("C", ab)):
                        equal = terms[:n].sum(0) == terms[n:].sum(0)
                        bad[name] += int((equal != same).sum())
    return bad


def test_d_differences_decide_pair_counts():
    # consecutive equal-Parikh blocks have equal D_ab differences iff they
    # have equal count(ab): the identity behind the vector engine's keys
    assert pair_identity_mismatches()["D"] == 0


def test_c_differences_alone_are_caught():
    # control: C_ab block differences carry cum_a[s] * |u|_b, which grows
    # from one block to the next, so the same check must fail for them
    assert pair_identity_mismatches()["C"] > 0
