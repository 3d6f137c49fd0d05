"""The two-stage vector kernel: its int64 bounds, and a differential test
against the naive oracle with a negative control; then the same two
stages at deep nodes of the search word (search._SearchWord), against
its python block tests.

Stage 1 compares the blocks' letter counts through one packed int64 key
(letter columns one by one when the key would not fit); stage 2 tests the
pair counts on the abelian survivors only.  Words are drawn from factors
of the g and h fixed points, which are free of 2-binomial squares and
cubes, so abelian survivors exist and occurrences, if any, sit late.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import binwords.detect as detect
import binwords.search as search
from binwords import PRESETS, PrefixIndex, find_power, fixed_point_prefix, longest_avoiding

from oracles import naive_find_power

INT64_LIMIT = 2**63


def packed_key_max(k, n):
    """The largest packed key of a length-n word over k letters, in plain ints."""
    w = n.bit_length()
    return sum(n << (i * w) for i in range(k - 1))


class TestPackingBound:
    # the longest word whose key packs, per alphabet size: 63 // (k - 1) bits per count
    @pytest.mark.parametrize(
        "k,edge",
        [(2, 2**63 - 1), (3, 2**31 - 1), (4, 2**21 - 1), (5, 32767), (6, 4095), (7, 1023), (8, 511)],
    )
    def test_key_fits_exactly_up_to_its_edge(self, k, edge):
        assert detect._key_fits(k, edge)
        assert not detect._key_fits(k, edge + 1)
        assert packed_key_max(k, edge) < INT64_LIMIT

    def test_vector_max_len_stays_in_int64(self):
        n = detect._VECTOR_MAX_LEN - 1
        # the k = 2 key is the letter column itself
        assert detect._key_fits(2, n) and packed_key_max(2, n) < INT64_LIMIT
        # a pair column holds at most C(n, 2), and the cross term is ca * nb
        assert n * n < INT64_LIMIT

    @pytest.mark.parametrize("k,n", [(3, 100), (8, 511)])
    def test_pack_key_fields_round_trip(self, k, n):
        # counts span [0, n], so each field needs all n.bit_length() bits
        w = n.bit_length()
        cols = [np.array([0, n, (37 * i) % (n + 1)], dtype=np.int64) for i in range(k - 1)]
        key = detect._pack_key(cols, w)
        for i, col in enumerate(cols):
            assert ((key >> (i * w)) & ((1 << w) - 1)).tolist() == col.tolist()
        assert int(key[1]) == packed_key_max(k, n)

    @pytest.mark.parametrize("n", [511, 512])
    def test_scan_on_both_sides_of_the_k8_edge(self, n):
        # a g factor renamed onto the top letters 5, 6, 7, then the
        # 2-binomial square 6776 7667 over the key's highest field
        g = fixed_point_prefix(PRESETS["g"].morphism, 0, n - 8).letters
        letters = [5 + a for a in g] + [6, 7, 7, 6, 7, 6, 6, 7]
        vector = find_power(letters, 2, 2, alphabet=8, engine="vector")
        python = find_power(letters, 2, 2, alphabet=8, engine="python")
        assert vector == python
        assert vector.start > n - 16


MAX_LEN = 32
SOURCES = {
    name: (fixed_point_prefix(PRESETS[name].morphism, 0, 300).letters, k)
    for name, k in (("g", 3), ("h", 2))
}


@st.composite
def mutated_factors(draw):
    """A factor of the g or h prefix with at most one letter replaced, over k <= 4 letters."""
    source, k0 = SOURCES[draw(st.sampled_from(sorted(SOURCES)))]
    k = draw(st.integers(k0, 4))
    n = draw(st.integers(1, MAX_LEN))
    s = draw(st.integers(0, len(source) - n))
    letters = list(source[s : s + n])
    if draw(st.booleans()):
        letters[draw(st.integers(0, n - 1))] = draw(st.integers(0, k - 1))
    return letters, k


@settings(max_examples=200)
@given(mutated_factors(), st.sampled_from([1, 2]), st.sampled_from([2, 3, 4]))
def test_vector_kernel_matches_oracle(case, m, p):
    letters, k = case
    occ = find_power(letters, m, p, alphabet=k, engine="vector")
    got = None if occ is None else (occ.start, occ.period)
    assert got == naive_find_power(letters, m, p, k)


def test_skipping_stage_two_is_caught(monkeypatch):
    # negative control: with the pair test skipped, order 2 falls back to
    # abelian equivalence; switch off find_power's recomputation too, which
    # would otherwise reject the false hits before the oracle sees them
    monkeypatch.setattr(detect, "_pair_survivors", lambda cums, pairs, hits, t, p: hits)
    monkeypatch.setattr(detect, "_verify_occurrence", lambda *args: None)
    with pytest.raises(AssertionError):
        test_vector_kernel_matches_oracle()


# ---------------------------------------------------------------- deep search nodes

SEARCH_WORD_CAP = 4 * MAX_LEN  # longest script: four segments


@st.composite
def regrown_words(draw):
    """A push/pop script over k <= 4 letters: a mutated g/h factor or a
    random word, then a few rounds of popping some letters (possibly below
    the depth where numpy takes over) and pushing new ones."""
    if draw(st.booleans()):
        first, k = draw(mutated_factors())
    else:
        k = draw(st.integers(1, 4))
        first = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=MAX_LEN))
    segments = [(0, first)]
    for _ in range(draw(st.integers(0, 3))):
        drop = draw(st.integers(1, MAX_LEN))
        grow = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=MAX_LEN))
        segments.append((drop, grow))
    return k, segments


@settings(max_examples=200)
@given(
    regrown_words(),
    st.sampled_from([1, 2]),
    st.sampled_from([2, 3, 4]),
    st.integers(0, MAX_LEN),
)
def test_search_word_suffix_test_matches_python(script, m, p, deep):
    # replay the script on two search words in lockstep, as the search
    # does: one runs numpy at depths >= deep, the other python only
    k, segments = script
    words = [search._SearchWord(k, m, SEARCH_WORD_CAP) for _ in range(2)]
    vector, python = words
    vector.deep = deep
    python.deep = SEARCH_WORD_CAP + 1
    for drop, grow in segments:
        for _ in range(min(drop, len(vector))):
            for w in words:
                w._pop()
        for a in grow:
            for w in words:
                w._push(a)
            if len(vector) >= deep:
                assert vector.power_ends_at_last(p) == python.power_ends_at_last(p)


def test_search_word_without_stage_two_is_caught(monkeypatch):
    # negative control: order 2 decided by letter counts alone
    monkeypatch.setattr(detect, "_pair_survivors", lambda cums, pairs, starts, t, p: starts)
    with pytest.raises(AssertionError):
        test_search_word_suffix_test_matches_python()


SEARCH_CASES = [
    (2, 2, 2, 100, False),  # maximal at 3
    (3, 1, 2, 100, False),  # abelian squares: maximal at 7
    (2, 1, 3, 100, True),  # abelian cubes: maximal at 9
    (3, 2, 2, 60, False),
    (3, 2, 2, 40, True),
    (2, 2, 3, 70, False),
    (4, 1, 2, 30, False),
]


@pytest.mark.parametrize("deep", [0, 5])
@pytest.mark.parametrize("k,m,p,cap,symmetry", SEARCH_CASES)
def test_search_with_numpy_from_shallow_depths(monkeypatch, k, m, p, cap, symmetry, deep):
    def run():
        return longest_avoiding(k, m, p, cap, symmetry=symmetry).to_dict()

    monkeypatch.setattr(search, "_NUMPY_DEPTH", cap + 1)
    python = run()
    monkeypatch.setattr(search, "_NUMPY_DEPTH", deep)
    assert run() == python
