"""The packed-key vector kernel: its int64 bounds as code, a differential
test against the naive oracle with a negative control; then the same key
test at deep nodes of the search word (search._SearchWord), against its
python block tests.

detect._key_plan packs the prefix counts of letters 0..k-2 and, at order
2, the antisymmetric pair counts D_ab = |prefix|_ab - |prefix|_ba of each
pair a < b into int64 keys.  Consecutive blocks with equal letter counts
have equal D differences iff they have equal count(ab), so p blocks are
equivalent iff their key differences agree: one equal-differences test
for orders 1 and 2.  The first key is compared at every start, the
others on its survivors only.  Words are drawn from factors of the g and
h fixed points, which are free of 2-binomial squares and cubes, so
abelian survivors exist and occurrences, if any, sit late.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import binwords.detect as detect
import binwords.search as search
import binwords.words as words
from binwords import PRESETS, PrefixIndex, find_power, fixed_point_prefix, longest_avoiding

from oracles import naive_equivalent, naive_find_power

INT64_LIMIT = 2**63
BOUND_LENGTHS = [1, 2, 3, 7, 100, 511, 512, 20000, detect._VECTOR_MAX_LEN - 1]


def d_bound(n):
    """The largest |D_ab| block difference on words of length n: it counts,
    with signs, pairs of one a and one b among at most n positions, of which
    there are at most n*n // 4 (test_d_block_differences_stay_in_their_window)."""
    return n * n // 4


def field_bounds(n, a):
    """(largest |value|, largest |block difference|, largest gap between two
    block differences) of a field on words of length n, in plain ints."""
    if a < 0:
        return n, n, n
    return d_bound(n), d_bound(n), 2 * d_bound(n)


def unpack(key, group):
    """The fields of one key, lowest first; D fields are signed."""
    out = []
    for _, a, _, _, width in group:
        low = key % (1 << width)
        if a >= 0 and low >= 1 << (width - 1):
            low -= 1 << width
        out.append(low)
        key = (key - low) >> width
    assert key == 0
    return out


def check_plan(k, m, n):
    plan = detect._key_plan(k, m, n)
    assert [f[:3] for group in plan for f in group] == list(words._block_basis(k, m))
    for group in plan:
        offset = key_max = diff_max = 0
        for _, a, _, field_offset, width in group:
            value, diff, gap = field_bounds(n, a)
            assert field_offset == offset
            assert gap < 1 << width
            key_max += value << offset
            diff_max += diff << offset
            offset += width
        assert offset <= 62
        assert key_max < INT64_LIMIT and diff_max < INT64_LIMIT


def extremes(k, n):
    """Plain-int basis columns at position n of a^h b^(n-h) and b^(n-h) a^h
    for each pair a < b, which put D_ab at +-(n*n // 4), and of c^n."""
    h = n // 2
    pos = words._index_positions(k, 2)
    cases = []
    for a, b in itertools.combinations(range(k), 2):
        for c_ab in (h * (n - h), 0):
            cols = dict.fromkeys(range(k * k + k), 0)
            cols[a], cols[b] = h, n - h
            cols[pos[(a, b)]] = c_ab
            cases.append((cols, {(a, b): 2 * c_ab - h * (n - h)}))
    for c in range(k):
        cols = dict.fromkeys(range(k * k + k), 0)
        cols[c] = n
        cases.append((cols, {}))
    return cases


def check_round_trip(k, n):
    plan = detect._key_plan(k, 2, n)
    for cols, d_values in extremes(k, n):
        keys = [{} for _ in plan]
        detect._write_keys(keys, plan, k, cols, n)
        for key, group in zip(keys, plan):
            np.int64(key[n])  # raises OverflowError outside int64
            want = [cols[c] if a < 0 else d_values.get((a, b), 0) for c, a, b, _, _ in group]
            assert unpack(key[n], group) == want


class TestPackingBound:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_plan_fields_fit_their_widths(self, k):
        for n in BOUND_LENGTHS:
            for m in (1, 2):
                check_plan(k, m, n)

    def test_vector_max_len_stays_in_int64(self):
        # below _VECTOR_MAX_LEN every field fits one key on its own
        n = detect._VECTOR_MAX_LEN - 1
        assert (n * n // 2).bit_length() <= 62
        for k in range(1, 9):
            check_plan(k, 2, n)
        check_round_trip(2, n)

    @pytest.mark.parametrize("k,n", [(3, 100), (8, 511)])
    def test_pack_key_fields_round_trip(self, k, n):
        # D at +-(n*n // 4) sits next to letter counts at n in every key
        check_round_trip(k, n)

    def test_narrower_d_field_is_caught(self, monkeypatch):
        # mutant: every D field one bit narrower, later offsets moved down
        original = detect._key_plan

        def narrowed(k, m, n):
            plan = []
            for group in original(k, m, n):
                offset, fields = 0, []
                for c, a, b, _, width in group:
                    width -= a >= 0
                    fields.append((c, a, b, offset, width))
                    offset += width
                plan.append(fields)
            return plan

        monkeypatch.setattr(detect, "_key_plan", narrowed)
        with pytest.raises(AssertionError):
            check_plan(3, 2, 100)
        with pytest.raises(AssertionError):
            check_round_trip(3, 100)

    def test_d_block_differences_stay_in_their_window(self):
        # D_ab = |prefix|_ab - |prefix|_ba straight from its definition, on
        # every ternary word of length 8: each block difference over [s, e)
        # lies in [-e*e // 4, e*e // 4], and 0^4 1^4 reaches 16 = 8*8 // 4
        w = np.array(list(itertools.product(range(3), repeat=8)))
        counts = np.zeros((len(w), 9, 3), np.int64)
        counts[:, 1:] = np.cumsum(w[:, :, None] == np.arange(3), axis=1)

        def pairs(a, b):  # |prefix|_ab for every prefix
            out = np.zeros((len(w), 9), np.int64)
            out[:, 1:] = np.cumsum(counts[:, :-1, a] * (w == b), axis=1)
            return out

        bound = np.arange(9) ** 2 // 4
        for a, b in itertools.combinations(range(3), 2):
            d = pairs(a, b) - pairs(b, a)
            diff = np.abs(d[:, None, :] - d[:, :, None])  # [., s, e]
            assert (np.triu(diff) <= bound).all()
            assert diff.max() == d_bound(8) == d[w.tolist().index([a] * 4 + [b] * 4), 8]

    @pytest.mark.parametrize("n", [511, 512])
    def test_scan_on_both_sides_of_the_k8_edge(self, n):
        # a g factor renamed onto the top letters 5, 6, 7, then the
        # 2-binomial square 6776 7667: letter 6 does not fit the first key
        # at n = 511 (7 fields of 9 bits), and its pairs sit in later keys
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


def ends_with_power(letters, m, p, k):
    """Whether p equivalent blocks end at the last letter, by the oracle."""
    n = len(letters)
    for t in range(1, n // p + 1):
        blocks = [letters[n - j * t : n - (j - 1) * t] for j in range(1, p + 1)]
        if all(naive_equivalent(blocks[0], b, m, k) for b in blocks[1:]):
            return True
    return False


def letters_only(k, m, n, plan=detect._key_plan):
    """The key plan without its D fields: order 2 decided by letter counts."""
    return [[f for f in group if f[1] < 0] for group in plan(k, m, n)]


def test_skipping_stage_two_is_caught(monkeypatch):
    # negative control: without the D fields, order 2 falls back to abelian
    # equivalence; switch off find_power's recomputation too, which would
    # otherwise reject the false hits before the oracle sees them
    monkeypatch.setattr(detect, "_key_plan", letters_only)
    monkeypatch.setattr(detect, "_verify_occurrence", lambda *args: None)
    with pytest.raises(AssertionError):
        test_vector_kernel_matches_oracle()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_one_letter_words(m, p):
    # k = 1 has an empty plan: one all-zero key, so every block matches
    for n in range(1, 12):
        letters = [0] * n
        occ = find_power(letters, m, p, alphabet=1, engine="vector")
        got = None if occ is None else (occ.start, occ.period)
        assert got == naive_find_power(letters, m, p, 1)
    w = search._SearchWord(1, m, 16)
    w.deep = 0
    for n in range(1, 17):
        w._push(0)
        assert w.power_ends_at_last(p) == ends_with_power([0] * n, m, p, 1)


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
    monkeypatch.setattr(search, "_key_plan", letters_only)
    with pytest.raises(AssertionError):
        test_search_word_suffix_test_matches_python()


@pytest.mark.parametrize(
    "k,m,cap,keys,deep",
    [(2, 2, 2000, 1, 192), (3, 2, 2000, 2, 192), (3, 1, 2000, 1, 192), (6, 2, 500, 6, 192),
     (7, 2, 500, 8, 384), (8, 2, 500, 11, 576), (8, 2, 2000, 16, 576), (3, 3, 2000, None, 2001)],
)
def test_numpy_depth_follows_the_key_count(k, m, cap, keys, deep):
    # each key past the first costs a gather per node, so numpy starts
    # deeper when there are 8 or more; k = 2, 3 keep depth 192
    w = search._SearchWord(k, m, cap)
    assert (len(w.plan) if m <= 2 else None, w.deep) == (keys, deep)


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
