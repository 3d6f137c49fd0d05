"""The int64 keys: their bounds as code, the scan's keys against the
fields recomputed from their definition, the numpy kernel against the
naive oracle with negative controls; then the same keys in the order-1/2
search word (search._KeyWord), whose verdicts for all children of every
word it passes through, hits(), are checked against signatures of their
last blocks and against the PrefixIndex word (search._SearchWord), which
reads no key, as are its searches.  Negative controls show the check
catches a step that a pop does not take back and keys that a regrown
word does not rewrite.

detect._key_plan lays out the prefix counts of letters 0..k-2 and, at
order 2, the antisymmetric pair counts D_ab = |prefix|_ab - |prefix|_ba of
each pair a < b.  Consecutive blocks with equal letter counts have equal D
differences iff they have equal count(ab), so p blocks are equivalent iff
their key differences agree: one equal-differences test for orders 1 and
2.  The numpy scan (detect._scan_keys) writes the keys with D signed, each
the cumulative sum of what each letter adds to it (detect._key_growth),
and beside them a uint16 fingerprint, the sum over every field f of
r_f * field_f mod 2**16 with r_f odd.  The scan tests each adjacent pair
of blocks by its second difference, on the fingerprint at every start and
on all int64 keys at its survivors only: equal field differences give
equal fingerprint differences, so the screen drops no occurrence, and a
collision only passes a start on to the exact keys, which decide.
Controls pin that split: an all-zero or a 2-bit fingerprint leaves the
answers right, and the 2-bit one trusted alone gets them wrong, as does an
exact stage that tests only the first pair.  Words are drawn from factors
of the g and h fixed points, which are free of 2-binomial squares and
cubes, so abelian survivors exist and occurrences, if any, sit late.

The screen covers a band of consecutive periods per numpy call, one row
per period, and one flat walk visits the band's survivors in row-major
order.  Words of 150-600 letters, with powers planted in a band's first
and last rows, are checked against the python engine; a walk that reads
each row's start 0 for its gate, or stops after its first survivor row,
and a p >= 3 row stride without its per-row shift, fail there, and the
walk's flat view shares the band buffer.  Two powers planted in one band
check that the least (start, period) wins.  The exact keys decide each
survivor where the walk finds it (detect._is_power, in Python ints, which
agrees with _survivors' test mod 2**64 at every start and period of the
words that put D at its bounds): a power behind a fingerprint collision
in its row checks that the walk goes on past the collision, which a walk
that leaves the row there fails.  A short word's buffers stay under the
square of its length.  Each band's rows come from detect._band_rows,
checked on its own for every band that fits a short word (a word of up to
257 letters is one band), and the scan's bands are read from it; a free
scan ticks its budget once per band, with the rows times the starts it
screens, at least its candidates in all.  Behind an early hit a band's
rows times its span stay within detect._BAND_ELEMENTS, which a band sized
on its first row's span alone breaks, and a hit found in the first band
caps the bands from the second on, which a walk that sets its winner only
when the scan ends fails.
"""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import binwords.detect as detect
import binwords.search as search
from binwords import (
    PRESETS,
    find_power,
    fixed_point_prefix,
    longest_avoiding,
    parse_morphism,
    scan_word,
    signature,
    word,
)
from binwords.errors import Budget, InvalidInputError

from oracles import naive_equivalent, naive_find_power

INT64_LIMIT = 2**63
BOUND_LENGTHS = [1, 2, 3, 7, 100, 511, 512, 20000, detect._VECTOR_MAX_LEN - 1]


def d_bound(n):
    """The largest |D_ab| block difference on words of length n: it counts,
    with signs, pairs of one a and one b among at most n positions, of which
    there are at most n*n // 4 (test_d_block_differences_stay_in_their_window)."""
    return n * n // 4


def field_bounds(n, b):
    """(largest |value|, largest |block difference|, largest gap between two
    block differences) of a field on words of length n, in plain ints."""
    if b < 0:
        return n, n, n
    return d_bound(n), d_bound(n), 2 * d_bound(n)


def unpack(key, group):
    """The fields of one key, lowest first; D fields may be negative."""
    out = []
    for _, b, _, width in group:
        low = key % (1 << width)
        if b >= 0 and 2 * low >= 1 << width:
            low -= 1 << width
        out.append(low)
        key = (key - low) >> width
    assert key == 0
    return out


def check_plan(k, m, n):
    plan = detect._key_plan(k, m, n)
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)] if m == 2 else []
    assert [f[:2] for group in plan for f in group] == [(a, -1) for a in range(k - 1)] + pairs
    for group in plan:
        offset = key_max = diff_max = 0
        for _, b, field_offset, width in group:
            value, diff, gap = field_bounds(n, b)
            assert field_offset == offset
            assert gap < 1 << width
            key_max += value << offset
            diff_max += diff << offset
            offset += width
        assert offset <= 62
        assert key_max < INT64_LIMIT and diff_max < INT64_LIMIT


def run_key(k, n, runs):
    """The int64 keys of the word c1^r1 c2^r2 ... for runs [(c, r), ...],
    planned for length n, summed in Python ints from the growth table of
    detect._key_growth: a letter's step reads only the other letters'
    counts, which are fixed in a run."""
    unit, weight = (x.tolist() for x in detect._key_growth(k, 2, n))
    keys, counts = [0] * len(unit), [0] * k
    for c, r in runs:
        for g in range(len(keys)):
            keys[g] += r * (unit[g][c] + sum(x * y for x, y in zip(weight[g][c], counts)))
        counts[c] += r
    return keys


def extremes(k, n):
    """Runs, letter counts and D values of a^h b^(n-h) and b^(n-h) a^h for
    each pair a < b, which put D_ab at +-(n*n // 4), and of c^n."""
    h = n // 2
    cases = []
    for a, b in itertools.combinations(range(k), 2):
        counts = [0] * k
        counts[a], counts[b] = h, n - h
        cases.append(([(a, h), (b, n - h)], counts, {(a, b): h * (n - h)}))
        cases.append(([(b, n - h), (a, h)], counts, {(a, b): -h * (n - h)}))
    for c in range(k):
        counts = [0] * k
        counts[c] = n
        cases.append(([(c, n)], counts, {}))
    return cases


def check_round_trip(k, n):
    # every key is an int64 whose fields are the letter counts and the
    # signed D values, also where D sits at +-(n*n // 4)
    plan = detect._key_plan(k, 2, n)
    for runs, counts, d_values in extremes(k, n):
        keys = run_key(k, n, runs)
        if n <= 511:  # the same keys written letter by letter by the scan
            wd = word([c for c, r in runs for _ in range(r)], k)
            assert detect._scan_keys(wd, 2)[0][:, n].tolist() == keys
        assert len(keys) == len(plan)
        for part, group in zip(keys, plan):
            np.int64(part)  # raises OverflowError outside int64
            want = [counts[a] if b < 0 else d_values.get((a, b), 0) for a, b, _, _ in group]
            assert unpack(part, group) == want


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
        check_round_trip(8, n)

    @pytest.mark.parametrize("k,n", [(3, 100), (8, 511)])
    def test_pack_key_fields_round_trip(self, k, n):
        # D at +-(n*n // 4) sits next to letter counts at n in every key
        check_round_trip(k, n)

    @pytest.mark.parametrize("k,n", [(3, 100), (8, 511)])
    def test_scalar_exact_test_agrees_with_the_int64_one(self, k, n):
        # detect._is_power tests second differences in Python ints and
        # _survivors in int64, exact mod 2**64: they agree at every start
        # and period, p = 2, 3, 4, of the words that put D at +-(n*n // 4);
        # at k = 8 of the two for the top field of the fullest key (D_03,
        # bits 43-59), as all 64 words of 141k pairs each take some 40 s
        fullest = max(detect._key_plan(k, 2, n), key=lambda group: group[-1][2] + group[-1][3])
        verdicts = set()
        for runs, _, d_values in extremes(k, n):
            if k == 8 and fullest[-1][:2] not in d_values:
                continue
            keys = detect._scan_keys(word([c for c, r in runs for _ in range(r)], k), 2)[0]
            for p in (2, 3, 4):
                for t in range(1, n // p + 1):
                    starts = np.arange(n + 1 - p * t)
                    want = detect._survivors(keys, starts, t, p).tolist()
                    assert [detect._is_power(keys, s, t, p) for s in starts.tolist()] == want
                    verdicts.update(want)
        assert verdicts == {False, True}

    def test_narrower_d_field_is_caught(self, monkeypatch):
        # mutant: every D field one bit narrower, later offsets moved down
        original = detect._key_plan

        def narrowed(k, m, n):
            plan = []
            for group in original(k, m, n):
                offset, fields = 0, []
                for a, b, _, width in group:
                    width -= b >= 0
                    fields.append((a, b, offset, width))
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

    @pytest.mark.parametrize("n", [511, 512, 1500, 2000])
    def test_scan_on_both_sides_of_the_k8_edge(self, n):
        # a g factor renamed onto the top letters 5, 6, 7, then the
        # 2-binomial square 6776 7667: letter 6 does not fit the first key
        # at n = 511 (6 of 7 fields of 9 bits fit), nor letters 5 and 6 at
        # n = 1500 and 2000 (5 fields of 11 bits fit), and their pairs sit in later keys
        first_key = detect._key_plan(8, 2, n)[0]
        assert (6, -1) not in [f[:2] for f in first_key]
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


def with_fingerprint(monkeypatch, change):
    """Patch the scan to read change(fingerprint) for its fingerprint."""
    scan = detect._scan_keys

    def patched(wd, m):
        keys, fingerprint = scan(wd, m)
        return keys, change(fingerprint)

    monkeypatch.setattr(detect, "_scan_keys", patched)


def test_exact_stage_decides_alone(monkeypatch):
    # control: an all-zero fingerprint passes every start on to the exact
    # keys, and the answers stay the oracle's on random factors and on the
    # g and h prefixes, free or not
    with_fingerprint(monkeypatch, np.zeros_like)
    test_vector_kernel_matches_oracle()
    for name, k in (("g", 3), ("h", 2)):
        letters = fixed_point_prefix(PRESETS[name].morphism, 0, 48).letters
        for m, p in itertools.product((1, 2), (2, 3)):
            occ = find_power(letters, m, p, alphabet=k, engine="vector")
            got = None if occ is None else (occ.start, occ.period)
            assert got == naive_find_power(letters, m, p, k)


def test_trusting_the_fingerprint_is_caught(monkeypatch):
    # negative control: a 2-bit fingerprint, the fingerprint mod 4 moved to
    # the top two bits, so still linear mod 2**16, whose collisions are certain:
    # with the exact keys on, the answers stay the oracle's; trusted alone,
    # with find_power's recomputation switched off too, as in
    # test_skipping_stage_two_is_caught, they are wrong
    with_fingerprint(monkeypatch, lambda fingerprint: fingerprint << 14)
    test_vector_kernel_matches_oracle()
    monkeypatch.setattr(detect, "_is_power", lambda keys, s, t, p: True)
    monkeypatch.setattr(detect, "_verify_occurrence", lambda *args: None)
    with pytest.raises(AssertionError):
        test_vector_kernel_matches_oracle()


def test_exact_stage_on_the_first_pair_is_caught(monkeypatch):
    # negative control: an exact stage that tests only blocks 0 and 1, so
    # it passes a cube whose first two blocks are equivalent; the all-zero
    # fingerprint leaves the exact stage to decide alone
    is_power = detect._is_power
    with_fingerprint(monkeypatch, np.zeros_like)
    monkeypatch.setattr(detect, "_is_power", lambda keys, s, t, p: is_power(keys, s, t, 2))
    monkeypatch.setattr(detect, "_verify_occurrence", lambda *args: None)
    with pytest.raises(AssertionError):
        test_vector_kernel_matches_oracle()


def test_fingerprint_is_linear_mod_2_16():
    # g at n = 20000, whose fingerprint sums run far past 2**16 on both
    # sides of 0: at every prefix the uint16 fingerprint is the sum of
    # r_f * field_f mod 2**16 over the plan's fields, from A_a and D_ab
    # recomputed in Python ints; so blocks of one length with equal
    # differences on every int64 key have equal uint16 differences
    n, k = 20000, 3
    wd = fixed_point_prefix(PRESETS["g"].morphism, 0, n)
    keys, fingerprint = detect._scan_keys(wd, 2)
    fields = [f[:2] for group in detect._key_plan(k, 2, n) for f in group]
    assert len(fields) == 5
    r = [(2 * f + 1) * detect._FINGERPRINT_STEP % 2**16 for f in range(len(fields))]
    assert all(x % 2 for x in r)
    counts, pairs = [0] * k, [[0] * k for _ in range(k)]
    sums = []
    for i in range(n + 1):
        values = [counts[a] if b < 0 else pairs[a][b] - pairs[b][a] for a, b in fields]
        sums.append(sum(x * v for x, v in zip(r, values)))
        if i < n:
            c = wd.letters[i]
            for a in range(k):
                pairs[a][c] += counts[a]
            counts[c] += 1
    assert min(sums) < -(2**24) and max(sums) > 2**24  # hundreds of wraps
    assert fingerprint.dtype == np.uint16
    assert fingerprint.tolist() == [x % 2**16 for x in sums]
    for t in (7, 100, 4321, 10000):
        diffs = keys[:, t:] - keys[:, :-t]
        _, group = np.unique(diffs, axis=1, return_inverse=True)
        group = group.ravel()
        assert np.bincount(group).max() > 1
        fdiff = fingerprint[t:] - fingerprint[:-t]
        assert fdiff.dtype == np.uint16
        first = np.zeros(group.max() + 1, np.uint16)
        first[group] = fdiff
        assert (first[group] == fdiff).all()
    # the casts the scan relies on: int64 sums wrap mod 2**64, and the
    # uint16 cast and subtraction wrap mod 2**16
    big = np.array([2**62, 2**62, -(2**62) - 7, -1], np.int64)
    assert np.cumsum(big).astype(np.uint16).tolist() == [
        sum(big.tolist()[: i + 1]) % 2**16 for i in range(4)
    ]
    low = np.array([3, 65535], np.uint16)
    assert (low[:1] - low[1:]).tolist() == [4]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_one_letter_words(m, p):
    # k = 1 has an empty plan: one all-zero key, so every block matches
    for n in range(1, 12):
        letters = [0] * n
        occ = find_power(letters, m, p, alphabet=1, engine="vector")
        got = None if occ is None else (occ.start, occ.period)
        assert got == naive_find_power(letters, m, p, 1)
    w = search._KeyWord(1, m, p, 16)
    for n in range(1, 17):
        assert w.hits() == [ends_with_power([0] * n, m, p, 1)]
        w._push(0)


# ---------------------------------------------------------------- the band screen


class TickLog(Budget):
    """A scan budget that keeps every tick: one per band of periods."""

    def __init__(self):
        super().__init__("scan")
        self.ticks = []

    def tick(self, units=1):
        self.ticks.append(units)
        super().tick(units)


def bands(n, p):
    """(first, last) period of every band of a free vector scan of n letters,
    read from ScanLog on a scan of the g prefix at order 2, which has no
    2-binomial square."""
    with ScanLog() as log:
        assert find_power(fixed_point_prefix(PRESETS["g"].morphism, 0, n), 2, p, engine="vector") is None
    return [(t, t + r - 1) for t, r, _ in log.bands]


# its fixed point has no abelian cube (Dekking 1979), so an abelian power planted in it is the answer
DEKKING = parse_morphism("0->0012,1->112,2->022")


def plant(letters, start, period, p, m, rng):
    """Copy the block at start onto the next p - 1, shuffled at order 1."""
    block = letters[start : start + period]
    for j in range(1, p):
        if m == 1:
            block = rng.sample(block, period)
        letters[start + j * period : start + (j + 1) * period] = block


class ScanLog:
    """Within it, the scan's bands are kept as (first period, rows, starts
    of the first row), and its exact verdicts as ((start, period), power),
    in the order made."""

    def __enter__(self):
        self.bands, self.verdicts = [], []
        self.real = band_rows, is_power = detect._band_rows, detect._is_power

        def rows(n, p, t, smax):
            self.bands.append((t, band_rows(n, p, t, smax), smax))
            return self.bands[-1][1]

        def verdict(keys, s, t, p):
            self.verdicts.append(((s, t), is_power(keys, s, t, p)))
            return self.verdicts[-1][1]

        detect._band_rows, detect._is_power = rows, verdict
        return self

    def __exit__(self, *exc):
        detect._band_rows, detect._is_power = self.real


def two_plants(letters, k, m, p, rng, shared):
    """letters with two powers planted, (s, t2) and (s1, t1) with t1 < t2,
    whose rows lie in one band of the scan.  Not shared: s1 > s, the walk
    confirms (s1, t1), and the winner has a later period of that band and
    starts before s1.  Shared (m = 1): s1 = s, the later period's blocks
    are shuffles of the earlier period's whole power, and (s, t1) wins."""
    for _ in range(200):
        out = list(letters)
        t1, s = rng.randint(1, 6), rng.randint(0, 40)
        t2 = p * t1 if shared else rng.randint(t1 + 1, 12)
        s1 = s if shared else rng.randint(s + p * t2, len(out) // 2)
        plant(out, s1, t1, p, m, rng)
        plant(out, s, t2, p, m, rng)  # shared, it copies the first plant
        with ScanLog() as log:
            occ = find_power(out, m, p, alphabet=k, engine="vector")
        won = (occ.start, occ.period)
        if won == (s, t1) if shared else won[0] < s1 and won[1] > t1:
            first, last = (t1, t2) if shared else (t1, won[1])
            if shared or ((s1, t1), True) in log.verdicts:
                if any(a <= first and last < a + r for a, r, _ in log.bands):
                    return out
    raise AssertionError("no two plants lay in one band")


@functools.cache
def long_cases():
    """(letters, k, m, p, planted, the python engine's answer) for words of
    150-600 letters over k <= 8: random words, g prefixes, and powers
    planted in a power-free word (g at order 2, Dekking's word at order 1
    for p >= 3) in the first row, the last row, the last row ending at the
    word's end, and both rows of a band, the last row's power starting
    earlier; planted is the period of the last plant, or None.  Then the
    batched cases."""
    rng = random.Random(21)
    g = fixed_point_prefix(PRESETS["g"].morphism, 0, 600).letters
    dekking = fixed_point_prefix(DEKKING, 0, 600).letters
    cases = []

    def add(letters, k, planted=None):
        want = find_power(letters, m, p, alphabet=k, engine="python")
        cases.append((letters, k, m, p, planted, want))

    for m, p in itertools.product((1, 2), (2, 3, 4)):
        for n, k in ((rng.randint(150, 300), rng.randint(3, 8)), (600, 3)):
            add([rng.randrange(k) for _ in range(n)], k)
            add(g[:n], 3)
            if m == 1 and p == 2:
                continue  # no abelian-square-free base here
            base = dekking if m == 1 else g
            wide = [b for b in bands(n, p) if b[1] > b[0]]
            for first, last in (wide[0], wide[len(wide) // 2]):
                for rows, end in (((first,), n), ((last,), n), ((last,), None), ((first, last), n)):
                    letters = [k - 3 + a for a in base[:n]]
                    for t in rows:  # later plants end before the earlier ones start
                        if end is None:  # the last start of the row, past which it reads padding
                            end = n - p * t
                        elif end < p * t:
                            break
                        else:
                            end = rng.randint(p * t, end) - p * t
                        plant(letters, end, t, p, m, rng)
                    else:
                        add(letters, k, rows[-1])
    return cases + batched_cases()


@functools.cache
def batched_cases():
    """long_cases' words of 300 letters with two plants whose rows lie in
    one band (two_plants), for every order and power with a base; planted
    is the answer's period."""
    rng = random.Random(22)
    cases = []
    for m, p in ((2, 2), (2, 3), (2, 4), (1, 3), (1, 4)):
        base = fixed_point_prefix(DEKKING if m == 1 else PRESETS["g"].morphism, 0, 300).letters
        for shared in (False, True)[: 3 - m]:
            for _ in range(2):
                letters = two_plants(base, 3, m, p, rng, shared)
                want = find_power(letters, m, p, alphabet=3, engine="python")
                cases.append((letters, 3, m, p, want.period, want))
    return cases


def test_vector_kernel_matches_python_engine_on_long_words():
    # a free scan of 150-600 letters makes one or two bands of up to 246
    # rows, so a power in a band's first or last row, or two in one band,
    # checks each row's strides, limit and first survivor, and two powers
    # in one band check that the walk keeps the least
    hits = 0
    for letters, k, m, p, planted, want in long_cases():
        occ = find_power(letters, m, p, alphabet=k, engine="vector")
        assert occ == want, (len(letters), k, m, p, planted)
        hits += occ is not None and occ.period == planted
    assert hits > 50


def test_gate_on_the_first_start_is_caught(mutate):
    # negative control: a walk whose gate reads its row's start 0, not the
    # survivor its argmax found, stops at the first survivor past start 0
    long_cases()  # the bands are read from the real kernel
    mutate(detect, "_find_vector", "valid[i, s]", "valid[i, 0]")
    with pytest.raises(AssertionError):
        test_vector_kernel_matches_python_engine_on_long_words()


def test_walk_that_stops_after_its_first_row_is_caught(mutate):
    # negative control: a band's walk that ends after its first survivor
    # row misses a power in a later row of the band, as in the batched
    # cases, whose two plants share one
    long_cases()
    mutate(detect, "_find_vector", "at = (i + 1) * smax", "at = flat.size")
    with pytest.raises(AssertionError):
        test_vector_kernel_matches_python_engine_on_long_words()


@pytest.mark.parametrize("p", [2, 3, 4])
def test_survivor_walk_reads_the_band_buffer_in_place(monkeypatch, p):
    # the walk's flat view of a band's survivors shares the band buffer:
    # valid is C-contiguous at every p, so reshape makes no copy, which
    # would give the same answers at the cost of one more pass per band
    flats = []

    class Band(np.ndarray):
        def reshape(self, *shape):
            flats.append((self, super().reshape(*shape)))
            return flats[-1][1]

    class Numpy:
        ndarray = Band

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(detect, "np", Numpy())
    g = fixed_point_prefix(PRESETS["g"].morphism, 0, 2000)
    assert detect._find_vector(g, 2, p, Budget("scan")) is None
    assert len(flats) > 1 and all(np.shares_memory(flat, valid) for valid, flat in flats)


def test_row_stride_without_the_shift_is_caught(mutate):
    # negative control: at p >= 3 pair j of row i sits j(t + i) past pair 0;
    # a row stride of span shifts every row by j*t and drops their powers
    long_cases()  # the bands are read from the real kernel
    mutate(detect, "_find_vector", "(span + j, 1)", "(span, 1)")
    with pytest.raises(AssertionError):
        test_vector_kernel_matches_python_engine_on_long_words()


@functools.cache
def collision_then_power():
    """(letters, (s, t), the python engine's answer): g's prefix of 3000
    letters, free of 2-binomial squares, with a square of period t planted
    past the last block of a fingerprint collision at (s, t), the first
    collision after which the plant is the answer."""
    g = fixed_point_prefix(PRESETS["g"].morphism, 0, 3000).letters
    with ScanLog() as log:
        assert find_power(g, 2, 2, alphabet=3, engine="vector") is None
    for (s, t), power in log.verdicts:
        if not power and s + 4 * t <= len(g):  # the plant leaves the collision's ends as they are
            letters = list(g)
            plant(letters, s + 2 * t, t, 2, 2, None)
            want = find_power(letters, 2, 2, alphabet=3, engine="python")
            if want.period == t and want.start > s:
                return letters, (s, t), want
    raise AssertionError("no plant behind a collision is the answer")


def test_walk_goes_on_in_its_row_past_a_collision():
    # the exact keys turn the collision down and the walk goes on in the
    # row to the power planted behind it, which wins
    letters, collision, want = collision_then_power()
    with ScanLog() as log:
        occ = find_power(letters, 2, 2, alphabet=3, engine="vector")
    assert occ == want
    verdicts = log.verdicts
    assert verdicts.index((collision, False)) < verdicts.index(((want.start, want.period), True))


def test_walk_that_leaves_a_row_at_its_first_collision_is_caught(mutate):
    # negative control: a walk that takes a collision for its row's end
    # misses the power behind it
    collision_then_power()
    mutate(detect, "_find_vector", "at += 1", "at = (i + 1) * smax")
    with pytest.raises(AssertionError):
        test_walk_goes_on_in_its_row_past_a_collision()


def test_free_scan_ticks_its_candidates_once_per_band():
    # one tick per band, of its rows times the starts of its first row,
    # which cover the band's candidates, and a band holds 5 periods or
    # more on average: g at n = 20000 screens its 10,000 periods in at most
    # 2,000 bands, not one band per period
    for name, n, p in (("g", 20000, 2), ("h", 6000, 3)):
        wd = fixed_point_prefix(PRESETS[name].morphism, 0, n)
        log = TickLog()
        with ScanLog() as scan:
            assert detect._find_vector(wd, 2, p, log) is None
        assert log.ticks == [r * smax for _, r, smax in scan.bands]
        assert log.units == sum(log.ticks) >= scan_word(wd, 2, p).candidates
        assert len(log.ticks) <= n // p // 5


def test_band_rows_fit_the_word_and_the_bound():
    # every band that fits a word of up to 60 letters has 1 to n // p + 1 - t
    # rows, and one row, or rows times span within the bound
    for n, p in itertools.product(range(1, 61), (2, 3, 4)):
        for t in range(1, n // p + 1):
            bound = min(detect._BAND_ELEMENTS, t * detect._BAND_ELEMENTS // 8)
            for smax in range(1, n + 2 - p * t):
                r = detect._band_rows(n, p, t, smax)
                assert 1 <= r <= n // p + 1 - t, (n, p, t, smax)
                assert r == 1 or r * (smax + (p - 2) * (t + r - 1)) <= bound, (n, p, t, smax)


def test_free_scans_of_up_to_257_letters_make_one_band():
    g = fixed_point_prefix(PRESETS["g"].morphism, 0, 257).letters
    for p in (2, 3, 4):
        for n in range(p, 258):
            with ScanLog() as log:
                assert detect._find_vector(word(g[:n], 3), 2, p, Budget("scan")) is None
            assert [(t, r) for t, r, _ in log.bands] == [(1, n // p)], (n, p)


def test_short_scans_allocate_under_the_square_of_their_length(monkeypatch):
    # the band buffers are sized from n: a word of under 100 letters gets
    # at most (n + 1)^2 elements, not a band of _BAND_ELEMENTS
    sizes = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, dtype=float):
            sizes.append(shape)
            return np.empty(shape, dtype)

    g = fixed_point_prefix(PRESETS["g"].morphism, 0, 99).letters
    monkeypatch.setattr(detect, "np", Numpy())
    for n, p in itertools.product((64, 70, 99), (2, 3, 4)):
        sizes.clear()
        assert detect._find_vector(word(g[:n], 3), 2, p, Budget("scan")) is None
        assert sizes and max(sizes) <= (n + 1) ** 2


def check_bands_behind_an_early_hit(letters, k, m, p):
    """Scan letters, whose answer is a period-1 power at start 1, and read
    each band from ScanLog: every band stays within _BAND_ELEMENTS, and
    the hit, found in the first band, caps every later band."""
    n = len(letters)
    wd = word(letters, alphabet=k)
    with ScanLog() as log:
        occ = detect._find_vector(wd, m, p, Budget("scan"))
    assert occ == find_power(wd, m, p, engine="python") == detect.Occurrence(1, 1, p, m)
    t = 1
    for band, (first, r, smax) in enumerate(log.bands, 1):
        assert first == t and (smax == 1 or band == 1), band
        span = smax + (p - 2) * (t + r - 1)
        assert r * span <= detect._BAND_ELEMENTS, (t, r, span)
        t += r
    assert t == n // p + 1


@pytest.mark.parametrize("p", [3, 4])
def test_band_stays_within_its_element_bound_behind_an_early_hit(p):
    # a power at start 1 holds every later row's limit at 1 while the scan
    # still looks for one at start 0 up to period n / p; those rows span
    # 1 + (p - 2)(t + r - 1) starts, so the bound must count the band's own
    # span, not one row's (a band of 6,665 rows and 44M elements at n = 20000)
    letters = list(fixed_point_prefix(DEKKING, 0, 20000).letters)
    letters[1 : 1 + p] = [3] * p  # a period-1 power at start 1 and none at 0
    check_bands_behind_an_early_hit(letters, 4, 1, p)


@pytest.mark.parametrize("p", [3, 4])
def test_band_sized_on_its_first_row_is_caught(mutate, p):
    # negative control: rows sized on the first row's span alone overrun
    # the bound behind the hit, 6,665 rows of 44M elements at p = 3; numpy
    # refuses that view of the band buffer, and the check would see it
    mutate(
        detect,
        "_band_rows",
        "return max(1, min(r, bound // (smax + (p - 2) * (t + r - 1))))",
        "return max(1, r)",
    )
    with ScanLog() as log, pytest.raises((AssertionError, TypeError)):
        test_band_stays_within_its_element_bound_behind_an_early_hit(p)
    assert any(r * (smax + (p - 2) * (t + r - 1)) > detect._BAND_ELEMENTS for t, r, smax in log.bands)


def lone_hit():
    """g's 2-binomial-cube-free prefix of 20000 letters with a cube of one
    new letter at start 1: its row's only survivor."""
    letters = list(fixed_point_prefix(PRESETS["g"].morphism, 0, 20000).letters)
    letters[1:4] = [3] * 3
    return letters


def test_a_lone_hit_caps_the_bands_from_the_second():
    check_bands_behind_an_early_hit(lone_hit(), 4, 2, 3)


def test_a_hit_waiting_to_the_end_is_caught(mutate):
    # negative control: a walk that keeps its hits apart and sets best
    # from them only when the scan ends screens all 66,663,333 candidates
    # of the scan above at the full width
    mutate(
        detect,
        "_find_vector",
        "best = (s, t + i) if s < lim else best",
        "late = min(late, (s, t + i)) if s < lim else late",
        ("best: tuple[int, int] = (n + 1, 0)", "best: tuple[int, int] = (n + 1, 0)\n    late = best"),
        ("    return None", "    best = late\n    return None"),
    )
    with pytest.raises(AssertionError):
        test_a_lone_hit_caps_the_bands_from_the_second()


# ---------------------------------------------------------------- the scan's keys


def agreement_words(k):
    """Random words over k letters, and g and h prefixes on the top letters."""
    rng = random.Random(k)
    out = [[rng.randrange(k) for _ in range(n)] for n in (1, 2, 7, 64, 300)]
    for name, size in (("g", 3), ("h", 2)):
        if size <= k:
            source = fixed_point_prefix(PRESETS[name].morphism, 0, 300).letters
            out.append([k - size + a for a in source])
    return out


@pytest.mark.parametrize("k", range(1, 9))
def test_scan_keys_hold_the_plan_fields(k):
    # detect's numpy keys, unpacked, are A_a and D_ab recomputed in Python
    # ints from their definition at every prefix; at k = 8 and n = 300 the
    # fields take two keys
    for letters in agreement_words(k):
        n = len(letters)
        for m in (1, 2):
            plan = detect._key_plan(k, m, n)
            scan, _ = detect._scan_keys(word(letters, k), m)
            counts, pairs = [0] * k, [[0] * k for _ in range(k)]
            for i in range(n + 1):
                for got, group in zip(scan[:, i].tolist(), plan):
                    want = [counts[a] if b < 0 else pairs[a][b] - pairs[b][a] for a, b, _, _ in group]
                    assert unpack(got, group) == want
                if i < n:
                    c = letters[i]
                    for a in range(k):
                        pairs[a][c] += counts[a]
                    counts[c] += 1


def test_keys_past_the_planned_bound_are_refused():
    # keys planned for length n cannot hold a longer word's fields, so the
    # search word refuses to grow past n, or to test children past it,
    # instead of writing keys that could overflow
    w = search._KeyWord(2, 2, 3, 8)
    for a in (0, 0, 1, 0, 1, 1, 0):
        w._push(a)
    assert not w.hits()[1]
    w._push(1)
    for grow in (w.hits, lambda: w._push(1)):
        with pytest.raises(InvalidInputError):
            grow()
    assert len(w) == 8


# ---------------------------------------------------------------- the search word

SEARCH_WORD_CAP = 4 * MAX_LEN  # longest script: four segments


@st.composite
def regrown_words(draw):
    """A push/pop script over k <= 4 letters: a mutated g/h factor or a
    random word, then a few rounds of popping some letters, below prefixes
    whose children were already tested, and pushing new ones."""
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


def suffix_power(letters, m, p, k):
    """Whether p equivalent blocks end at the last letter, by signatures."""
    n = len(letters)
    for t in range(1, n // p + 1):
        blocks = [letters[n - j * t : n - (j - 1) * t] for j in range(1, p + 1)]
        first = signature(blocks[0], m, alphabet=k).counts
        if all(signature(b, m, alphabet=k).counts == first for b in blocks[1:]):
            return True
    return False


@settings(max_examples=200)
@given(regrown_words(), st.sampled_from([1, 2]), st.sampled_from([2, 3, 4]))
def test_search_word_suffix_test_matches_python(script, m, p):
    # replay the script on the key word and the PrefixIndex word in
    # lockstep, as the search does, asking both for every child's verdict
    # on the empty word and after every push and pop; each row is compared
    # with block signatures
    k, segments = script
    pair = [make(k, m, p, SEARCH_WORD_CAP) for make in (search._KeyWord, search._SearchWord)]
    keys = pair[0]

    def check():
        want = [suffix_power(keys._letters + [c], m, p, k) for c in range(k)]
        assert [w.hits() for w in pair] == [want, want]

    check()
    for drop, grow in segments:
        for a in [None] * min(drop, len(keys)) + grow:  # None pops
            for w in pair:
                if a is None:
                    w._pop()
                else:
                    w._push(a)
            check()


def test_search_word_without_stage_two_is_caught(monkeypatch):
    # negative control: order 2 decided by letter counts alone in the key
    # word's int64 keys; the PrefixIndex word reads no key and stays right
    monkeypatch.setattr(detect, "_key_plan", letters_only)
    with pytest.raises(AssertionError):
        test_search_word_suffix_test_matches_python()


def test_stale_step_is_caught(monkeypatch):
    # negative control: a key word whose _pop drops the letter but not its
    # growth of the step, so a regrown word's keys count the popped letters
    monkeypatch.setattr(search._KeyWord, "_pop", lambda self: self._letters.pop())
    with pytest.raises(AssertionError):
        test_search_word_suffix_test_matches_python()


def test_reused_keys_are_caught(monkeypatch):
    # negative control: a key word whose _push writes a position's keys only
    # the first time it reaches it, so a regrown word reads the keys of the
    # letters it popped
    push = search._KeyWord._push

    def push_once(self, a):
        n = len(self) + 1
        reached = getattr(self, "reached", 0)
        old = self._keys[:, n].copy() if n <= reached else None
        push(self, a)
        if old is not None:
            self._keys[:, n] = old
        self.reached = max(reached, n)

    monkeypatch.setattr(search._KeyWord, "_push", push_once)
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


@pytest.mark.parametrize("node_budget", [0, 5, 10, 1000, None])
@pytest.mark.parametrize("k,m,p,cap,symmetry", SEARCH_CASES)
def test_search_with_numpy_from_shallow_depths(monkeypatch, k, m, p, cap, symmetry, node_budget):
    # the order-1/2 search tests children on numpy keys from depth 1 on; its
    # whole certificate (outcome, witness, partial counts, nodes) is the
    # PrefixIndex word's, run through the same walk, also when a node
    # budget aborts it
    def run():
        return longest_avoiding(k, m, p, cap, symmetry=symmetry, node_budget=node_budget).to_dict()

    got = run()
    assert (got["outcome"] == "cap_reached") == (len(got["witness"]) == cap)
    monkeypatch.setattr(search, "_KeyWord", search._SearchWord)
    assert got == run()
