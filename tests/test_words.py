import math
import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from binwords import (
    Alphabet,
    BinomialSignature,
    InvalidInputError,
    LENGTH_LIMIT,
    MAX_ORDER,
    PrefixIndex,
    UnsupportedOrderError,
    Word,
    ascent_imbalance,
    equivalent,
    find_power,
    index_words,
    mirror,
    signature,
    subword_count,
    word,
)
from binwords.words import _check_int

from oracles import naive_signature, naive_subword_count, words_up_to

binary_letters = st.lists(st.integers(0, 1), max_size=40)
ternary_letters = st.lists(st.integers(0, 2), max_size=30)


def bword(letters) -> Word:
    return Word(tuple(letters), Alphabet(2))


def tword(letters) -> Word:
    return Word(tuple(letters), Alphabet(3))


class TestWordBasics:
    def test_parse_and_str_roundtrip(self):
        w = Word.parse("0102")
        assert str(w) == "0102"
        assert w.alphabet == Alphabet(3)
        assert len(w) == 4
        assert list(w) == [0, 1, 0, 2]

    def test_parse_empty_defaults_to_unary_alphabet(self):
        w = Word.parse("")
        assert len(w) == 0
        assert w.alphabet == Alphabet(1)

    def test_parse_rejects_non_digits(self):
        with pytest.raises(InvalidInputError):
            Word.parse("01a")

    def test_explicit_alphabet_is_kept(self):
        w = Word.parse("01", 5)
        assert w.alphabet == Alphabet(5)

    def test_letters_must_fit_alphabet(self):
        with pytest.raises(InvalidInputError):
            Word((0, 3), Alphabet(2))
        with pytest.raises(InvalidInputError):
            Word((-1,), Alphabet(2))

    def test_alphabet_size_bounds(self):
        with pytest.raises(InvalidInputError):
            Alphabet(0)
        with pytest.raises(InvalidInputError):
            Alphabet(9)
        with pytest.raises(InvalidInputError):
            Alphabet(True)
        assert list(Alphabet(3)) == [0, 1, 2]

    def test_slicing_returns_word(self):
        w = Word.parse("01021")
        mid = w[1:4]
        assert isinstance(mid, Word)
        assert str(mid) == "102"
        assert w[0] == 0

    def test_concat_checks_alphabet(self):
        a = Word.parse("01", 2)
        b = Word.parse("10", 2)
        assert str(a + b) == "0110"
        with pytest.raises(InvalidInputError):
            a + Word.parse("2", 3)

    @pytest.mark.parametrize("letters", [(0.5, 1), (True, False), (0, True), (0, "1")])
    def test_constructor_rejects_non_int_letters(self, letters):
        with pytest.raises(InvalidInputError):
            Word(letters, Alphabet(2))

    def test_derived_words_equal_public_ones(self):
        # slices, concatenations and mirrors skip validation; they are still
        # the values the public constructor builds from the same letters
        for u in words_up_to(3, 4):
            w = tword(u)
            for got, letters in (
                (w[1:], u[1:]),
                (w[::2], u[::2]),
                (w + w[:2], u + u[:2]),
                (w.mirror(), u[::-1]),
            ):
                want = Word(tuple(letters), Alphabet(3))
                assert got == want and hash(got) == hash(want)
                assert type(got.letters) is tuple

    def test_mirror(self):
        assert str(Word.parse("012").mirror()) == "210"
        assert str(mirror("0110")) == "0110"

    def test_word_coercion(self):
        assert word("01").letters == (0, 1)
        assert word([0, 1, 1]).letters == (0, 1, 1)
        assert word((2,)).alphabet == Alphabet(3)
        w = word("01", 2)
        assert word(w) is w
        # recasting to a wider alphabet is allowed, narrowing must fit
        assert word(w, 3).alphabet == Alphabet(3)
        with pytest.raises(InvalidInputError):
            word(word("2"), 2)

    @pytest.mark.parametrize(
        "letters", [[0, 1.0, True, 0], [0, 1.0], [True, 0], [0, "1"], ["a"]]
    )
    @pytest.mark.parametrize("alphabet", [None, 2])
    def test_word_rejects_non_integer_letters(self, letters, alphabet):
        with pytest.raises(InvalidInputError):
            word(letters, alphabet)
        with pytest.raises(InvalidInputError):
            find_power(letters, 2, 2, alphabet=alphabet)


class TestSubwordCount:
    def test_known_values(self):
        assert subword_count("0101110", "01") == 7
        assert subword_count("0101110", "11") == 6
        assert subword_count("000", "") == 1
        assert subword_count("", "0") == 0
        assert subword_count("", "") == 1

    def test_unary_reduces_to_integer_binomial(self):
        for n in range(9):
            for j in range(n + 2):
                assert subword_count([0] * n, [0] * j, alphabet=1) == math.comb(n, j)

    def test_pattern_longer_than_word(self):
        assert subword_count("01", "011") == 0

    def test_word_in_itself(self):
        for text in ("0", "01", "0110", "012021"):
            assert subword_count(text, text) == 1

    def test_exhaustive_small_binary_against_oracle(self):
        for u in words_up_to(2, 6):
            for x in words_up_to(2, 3):
                assert subword_count(bword(u), bword(x)) == naive_subword_count(u, x)

    @given(binary_letters, st.lists(st.integers(0, 1), max_size=4))
    def test_random_binary_against_oracle(self, u, x):
        assert subword_count(bword(u), bword(x)) == naive_subword_count(u, x)

    @given(ternary_letters, st.lists(st.integers(0, 2), max_size=3))
    def test_random_ternary_against_oracle(self, u, x):
        assert subword_count(tword(u), tword(x)) == naive_subword_count(u, x)

    @given(binary_letters, st.lists(st.integers(0, 1), min_size=1, max_size=3))
    def test_mirror_identity(self, u, x):
        uw, xw = bword(u), bword(x)
        assert subword_count(uw.mirror(), xw.mirror()) == subword_count(uw, xw)


class TestIndexWords:
    def test_binary_order_two_canonical_order(self):
        assert index_words(2, 2) == (
            (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1),
        )

    def test_ternary_order_two_size(self):
        iw = index_words(3, 2)
        assert len(iw) == 12
        assert iw[:3] == ((0,), (1,), (2,))
        # within a length the order is lexicographic
        assert list(iw[3:]) == sorted(iw[3:])


class TestSignature:
    def test_example_counts(self):
        sig = signature("0101110", 2)
        assert sig.counts == (3, 4, 3, 7, 5, 6)
        assert sig.length == 7
        assert sig.count("0") == 3
        assert sig.count("01") == 7
        assert sig.count("") == 1

    def test_count_beyond_order_raises(self):
        sig = signature("0101110", 2)
        with pytest.raises(InvalidInputError):
            sig.count("010")

    def test_order_validation(self):
        with pytest.raises(InvalidInputError):
            signature("01", 0)
        with pytest.raises(UnsupportedOrderError):
            signature("01", 5)

    def test_counts_tuple_length_is_validated(self):
        with pytest.raises(InvalidInputError):
            BinomialSignature(Alphabet(2), 2, 3, (1, 2, 3))

    @given(binary_letters, st.integers(1, 3))
    def test_matches_naive_signature_binary(self, letters, m):
        got = signature(bword(letters), m)
        assert got.counts == naive_signature(letters, m, 2)

    @given(ternary_letters, st.integers(1, 2))
    def test_matches_naive_signature_ternary(self, letters, m):
        got = signature(tword(letters), m)
        assert got.counts == naive_signature(letters, m, 3)

    def test_fast_binary_path_agrees_with_generic(self):
        # same inputs through the order-2 binary fast path and the generic
        # streaming updates (reached via order 3)
        for letters in words_up_to(2, 7):
            fast = signature(bword(letters), 2).counts
            slow = signature(bword(letters), 3)
            assert fast == slow.counts[:6]

    @given(binary_letters, st.integers(0, 1))
    def test_extend_appends_letter(self, letters, a):
        base = signature(bword(letters), 2)
        assert base.extend(a).counts == signature(bword(letters + [a]), 2).counts

    @given(binary_letters, binary_letters)
    def test_concat_matches_concatenation(self, u, v):
        su = signature(bword(u), 2)
        sv = signature(bword(v), 2)
        cat = su.concat(sv)
        assert cat.counts == signature(bword(u + v), 2).counts
        assert cat.length == len(u) + len(v)

    @given(ternary_letters, ternary_letters)
    def test_concat_matches_concatenation_ternary(self, u, v):
        cat = signature(tword(u), 2).concat(signature(tword(v), 2))
        assert cat.counts == signature(tword(u + v), 2).counts

    def test_extend_rejects_a_letter_outside_the_alphabet(self):
        for bad in (5, 2, -1, True, 1.0):
            with pytest.raises(InvalidInputError):
                signature("01", 2).extend(bad)

    def test_derived_signatures_equal_public_ones(self):
        # signature, extend, concat and factor skip validation; they are
        # still the values the public constructor builds
        w = tword((0, 2, 1, 1, 0, 2))
        idx = PrefixIndex(w, 2)
        for got in (
            signature(w, 2),
            signature(w[:5], 2).extend(2),
            signature(w[:2], 2).concat(signature(w[2:], 2)),
            idx.factor(0, 6),
        ):
            want = BinomialSignature(Alphabet(3), 2, 6, signature(w, 2).counts)
            assert got == want and hash(got) == hash(want)

    def test_concat_rejects_mismatched_operands(self):
        with pytest.raises(InvalidInputError):
            signature("01", 2).concat(signature("012", 2))
        with pytest.raises(InvalidInputError):
            signature("01", 2).concat(signature("01", 1))

    def test_zero_signature(self):
        z = BinomialSignature.zero(2, 2)
        assert z.counts == (0,) * 6
        assert z.length == 0
        assert z.extend(1).counts == (0, 1, 0, 0, 0, 0)

    def test_to_dict_canonical_key_order(self):
        d = signature("0101110", 2).to_dict()
        assert d == {
            "m": 2,
            "alphabet": 2,
            "counts": {"0": 3, "1": 4, "00": 3, "01": 7, "10": 5, "11": 6},
        }
        assert list(d["counts"]) == ["0", "1", "00", "01", "10", "11"]

    @given(binary_letters)
    def test_pair_identities(self, letters):
        sig = signature(bword(letters), 2)
        n0, n1 = sig.count("0"), sig.count("1")
        assert sig.count("00") == math.comb(n0, 2)
        assert sig.count("11") == math.comb(n1, 2)
        assert sig.count("01") + sig.count("10") == n0 * n1


class TestEquivalence:
    def test_four_equivalent_words(self):
        quad = ["0101110", "0110101", "1001101", "1010011"]
        for a in quad:
            for b in quad:
                assert equivalent(a, b, 2)

    def test_abelian_but_not_order_two(self):
        assert equivalent("0101110", "0001111", 1)
        assert not equivalent("0101110", "0001111", 2)

    def test_different_lengths_never_equivalent(self):
        assert not equivalent("01", "011", 1)

    @given(binary_letters, binary_letters)
    def test_refinement(self, u, v):
        # agreement at order m+1 implies agreement at order m
        if equivalent(bword(u), bword(v), 2):
            assert equivalent(bword(u), bword(v), 1)

    def test_exhaustive_small_against_oracle(self):
        words = [bword(t) for t in words_up_to(2, 5)]
        for a in words:
            for b in words:
                got = equivalent(a, b, 2)
                want = (
                    len(a) == len(b)
                    and naive_signature(a.letters, 2, 2)
                    == naive_signature(b.letters, 2, 2)
                )
                assert got == want

    def test_full_order_equivalence_forces_equality(self):
        # with the order as large as the length, the word itself is one of
        # the counted patterns, so distinct words must separate
        for n in range(1, MAX_ORDER + 1):
            group = [bword(t) for t in product(range(2), repeat=n)]
            for a in group:
                for b in group:
                    assert equivalent(a, b, n) == (a == b)


class TestAscentImbalance:
    def test_value(self):
        w = tword((0, 1, 2))
        assert ascent_imbalance(w) == subword_count(w, "01") - subword_count(w, "12")
        assert ascent_imbalance(tword(())) == 0
        assert ascent_imbalance(tword((0, 1))) == 1
        assert ascent_imbalance(tword((1, 2))) == -1

    def test_requires_ternary(self):
        with pytest.raises(InvalidInputError):
            ascent_imbalance(bword((0, 1)))


class TestPrefixIndex:
    def test_factor_matches_direct_signature(self):
        w = tword((0, 1, 2, 0, 2, 1, 0, 1, 2, 0))
        idx = PrefixIndex(w, 2)
        for i in range(len(w) + 1):
            for j in range(i, len(w) + 1):
                assert idx.factor(i, j).counts == signature(w[i:j], 2).counts

    @given(binary_letters, st.data())
    def test_factor_random(self, letters, data):
        w = bword(letters)
        idx = PrefixIndex(w, 2)
        i = data.draw(st.integers(0, len(w)))
        j = data.draw(st.integers(i, len(w)))
        assert idx.factor(i, j).counts == signature(w[i:j], 2).counts
        assert idx.letter_counts(i, j) == (
            w.letters[i:j].count(0),
            w.letters[i:j].count(1),
        )

    def test_bounds_raise_index_error(self):
        idx = PrefixIndex(bword((0, 1)), 2)
        with pytest.raises(IndexError):
            idx.factor(0, 3)
        with pytest.raises(IndexError):
            idx.factor(2, 1)
        with pytest.raises(IndexError):
            idx.factor(-1, 1)

    def test_blocks_equivalent(self):
        idx = PrefixIndex(Word.parse("010101"), 2)
        assert idx.blocks_equivalent(0, 2, 3)
        assert idx.blocks_equivalent(0, 2, 2)
        assert not idx.blocks_equivalent(0, 1, 2)
        idx2 = PrefixIndex(Word.parse("0110"), 2)
        # halves are abelian equivalent but not order-2 equivalent
        assert PrefixIndex(Word.parse("0110"), 1).blocks_equivalent(0, 2, 2)
        assert not idx2.blocks_equivalent(0, 2, 2)

    def test_blocks_equivalent_validates(self):
        idx = PrefixIndex(Word.parse("0101"), 2)
        with pytest.raises(InvalidInputError):
            idx.blocks_equivalent(0, 0, 2)
        with pytest.raises(IndexError):
            idx.blocks_equivalent(0, 3, 2)

    def test_blocks_equivalent_matches_factor_comparison(self):
        w = tword((0, 1, 2, 0, 2, 1, 0, 1, 2, 0, 0, 1))
        for m in (1, 2):
            idx = PrefixIndex(w, m)
            for p in (2, 3):
                for s in range(len(w)):
                    for t in range(1, (len(w) - s) // p + 1):
                        want = all(
                            idx.factor(s + i * t, s + (i + 1) * t).counts
                            == idx.factor(s, s + t).counts
                            for i in range(1, p)
                        )
                        assert idx.blocks_equivalent(s, t, p) == want

    def test_push_pop_roundtrip(self):
        idx = PrefixIndex(Word.parse("012"), 2)
        before = [list(c) for c in idx._cols]
        idx._push(1)
        assert str(idx.word) == "0121"
        assert idx.factor(0, 4).counts == signature("0121", 2).counts
        idx._pop()
        assert [list(c) for c in idx._cols] == before
        assert str(idx.word) == "012"

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_pass_build_matches_push(self, k, m):
        # the constructor builds the columns one pass per column, a level
        # per pattern length; they must be those of an index grown letter
        # by letter
        rng = random.Random(f"{k}:{m}")
        for n in range(41):
            w = Word(tuple(rng.randrange(k) for _ in range(n)), Alphabet(k))
            grown = PrefixIndex(Word((), Alphabet(k)), m)
            for a in w.letters:
                grown._push(a)
            built = PrefixIndex(w, m)
            assert built._letters == grown._letters == list(w.letters)
            assert built._cols == grown._cols
            assert all(type(x) is int for col in built._cols for x in col)

    def test_word_property(self):
        idx = PrefixIndex("0102", 2)
        assert str(idx.word) == "0102"
        assert idx.alphabet == Alphabet(3)


class TestHigherOrders:
    def test_order_three_and_four_counts(self):
        w = bword((0, 1, 1, 0, 1))
        sig3 = signature(w, 3)
        for pattern in product(range(2), repeat=3):
            assert sig3.count(bword(pattern)) == naive_subword_count(
                w.letters, pattern
            )
        sig4 = signature(w, 4)
        assert sig4.count(bword((0, 1, 1, 0))) == naive_subword_count(
            w.letters, (0, 1, 1, 0)
        )


class TestIntegerRule:
    def test_upper_bound_is_exclusive(self):
        _check_int(LENGTH_LIMIT - 1, "n", 0, LENGTH_LIMIT)
        with pytest.raises(InvalidInputError, match="^n must be below 2147483648$"):
            _check_int(LENGTH_LIMIT, "n", 0, LENGTH_LIMIT)
        # the least value is still checked first
        with pytest.raises(InvalidInputError, match="^n must be >= 0, got -1$"):
            _check_int(-1, "n", 0, LENGTH_LIMIT)
