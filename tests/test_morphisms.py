import pytest
from hypothesis import given, strategies as st

from binwords import (
    Alphabet,
    InvalidInputError,
    LiftedMatrix,
    MorphismParseError,
    Morphism,
    NotPrefixCodeError,
    NotProlongableError,
    PRESETS,
    Word,
    compose,
    decode,
    fixed_point_prefix,
    identity_morphism,
    is_prefix_code,
    is_prolongable,
    lift_matrix,
    mirror_morphism,
    parse_morphism,
    scan_fixed_point,
    signature,
    subword_count,
    word,
)

from oracles import fraction_determinant, words_up_to

# displayed prefixes of the three fixed points, frozen
X_PREFIX_24 = "012021012102012021020121"
Z_PREFIX_27 = "001001011001001011001011011"
Y_PREFIX_28 = "1210201210120210201202101210"

# exact matrix action of the binary generator on order-2 signatures, frozen
# after cross-checking columns against directly computed image signatures
M_H_ROWS = [
    [2, 1, 0, 0, 0, 0],
    [1, 2, 0, 0, 0, 0],
    [1, 0, 4, 2, 2, 1],
    [2, 2, 2, 4, 1, 2],
    [0, 0, 2, 1, 4, 2],
    [0, 1, 1, 2, 2, 4],
]

binary_letters = st.lists(st.integers(0, 1), max_size=25)
ternary_letters = st.lists(st.integers(0, 2), max_size=25)


def g() -> Morphism:
    return PRESETS["g"].morphism


def h() -> Morphism:
    return PRESETS["h"].morphism


class TestParse:
    def test_roundtrip(self):
        f = parse_morphism("0->012,1->02,2->1")
        assert f.images == ((0, 1, 2), (0, 2), (1,))
        assert f.alphabet == Alphabet(3)
        assert str(f.image(0)) == "012"

    def test_erasing_rule(self):
        f = parse_morphism("0->0,1->,2->2", alphabet=3)
        assert f.is_erasing
        assert f.images[1] == ()

    def test_rejects_duplicates_and_gaps(self):
        with pytest.raises(MorphismParseError):
            parse_morphism("0->01,0->10")
        with pytest.raises(MorphismParseError):
            parse_morphism("0->01,2->10")
        with pytest.raises(MorphismParseError):
            parse_morphism("0->01")  # letter 1 appears with no rule
        with pytest.raises(MorphismParseError):
            parse_morphism("0->0,1->1", alphabet=3)

    def test_rejects_malformed(self):
        with pytest.raises(MorphismParseError):
            parse_morphism("")
        with pytest.raises(MorphismParseError):
            parse_morphism("0=01")
        with pytest.raises(MorphismParseError):
            parse_morphism("01->0")
        with pytest.raises(MorphismParseError):
            parse_morphism("0->ab")

    def test_image_letters_must_fit_alphabet(self):
        with pytest.raises(InvalidInputError):
            Morphism(Alphabet(2), ((0, 2), (1,)))
        with pytest.raises(InvalidInputError):
            Morphism(Alphabet(2), ((0,),))


class TestPresets:
    def test_preset_rules(self):
        assert g().images == ((0, 1, 2), (0, 2), (1,))
        assert h().images == ((0, 0, 1), (0, 1, 1))
        assert PRESETS["e"].morphism.images == ((0,), (), (2,))
        # frozen image tables for the squared generators
        assert PRESETS["g2"].morphism.images == (
            (0, 1, 2, 0, 2, 1),
            (0, 1, 2, 1),
            (0, 2),
        )
        assert PRESETS["gtilde2"].morphism.images == (
            (1, 2, 0, 2, 1, 0),
            (1, 2, 1, 0),
            (2, 0),
        )

    def test_seed_letters(self):
        assert PRESETS["g"].seed_letter == 0
        assert PRESETS["h"].seed_letter == 0
        assert PRESETS["gtilde2"].seed_letter == 1
        assert PRESETS["e"].seed_letter is None

    def test_mirror_conjugation_of_squared_generator(self):
        # the squared generator and the squared mirror generator are the
        # same up to moving one boundary 0 across the image
        g2 = PRESETS["g2"].morphism
        gt2 = PRESETS["gtilde2"].morphism
        for a in range(3):
            assert str(g2.image(a)) + "0" == "0" + str(gt2.image(a))


class TestApplyComposeMirror:
    def test_apply(self):
        assert str(g()(word("010"))) == "01202012"
        assert str(h()(word("01"))) == "001011"
        assert str(h()(word("001", 2))) == "001001011"
        assert len(g()(Word((), Alphabet(3)))) == 0
        assert str(PRESETS["e"].morphism(word("012021"))) == "0202"

    @given(ternary_letters)
    def test_compose_pointwise(self, letters):
        f = compose(g(), mirror_morphism(g()))
        w = Word(tuple(letters), Alphabet(3))
        assert f(w) == g()(mirror_morphism(g())(w))

    def test_compose_rejects_mixed_alphabets(self):
        with pytest.raises(InvalidInputError):
            compose(g(), h())

    def test_mirror_morphism_images(self):
        gt = mirror_morphism(g())
        assert gt.images == ((2, 1, 0), (2, 0), (1,))
        assert mirror_morphism(gt) == g()

    def test_compose_with_identity(self):
        assert compose(identity_morphism(3), g()) == g()
        assert compose(g(), identity_morphism(3)) == g()

    @given(ternary_letters)
    def test_mirror_morphism_reverses_images(self, letters):
        w = Word(tuple(letters), Alphabet(3))
        assert mirror_morphism(g())(w.mirror()) == g()(w).mirror()

    def test_identity(self):
        f = identity_morphism(3)
        w = word("0120")
        assert f(w) == w
        assert not is_prolongable(f, 0)


class TestProlongableAndFixedPoint:
    def test_prolongable(self):
        assert is_prolongable(g(), 0)
        assert not is_prolongable(g(), 1)
        assert not is_prolongable(g(), 2)
        gt = mirror_morphism(g())
        assert not any(is_prolongable(gt, a) for a in range(3))
        assert is_prolongable(h(), 0)
        assert not is_prolongable(h(), 1)  # image 011 starts with 0
        assert is_prolongable(PRESETS["gtilde2"].morphism, 1)
        assert not is_prolongable(PRESETS["e"].morphism, 0)

    def test_prolongable_requires_reachable_growth(self):
        # the image of 0 starts with 0 and grows, but it reaches an erased
        # letter, so iteration stalls
        f = parse_morphism("0->01,1->", alphabet=2)
        assert not is_prolongable(f, 0)

    def test_fixed_point_prefixes_match_displays(self):
        assert str(fixed_point_prefix(g(), 0, 24)) == X_PREFIX_24
        assert str(fixed_point_prefix(h(), 0, 27)) == Z_PREFIX_27
        gt2 = PRESETS["gtilde2"].morphism
        assert str(fixed_point_prefix(gt2, 1, 28)) == Y_PREFIX_28

    def test_fixed_point_tiny(self):
        assert str(fixed_point_prefix(g(), 0, 1)) == "0"
        assert len(fixed_point_prefix(g(), 0, 0)) == 0

    def test_prefix_stability(self):
        long = fixed_point_prefix(g(), 0, 300)
        for n in (1, 2, 7, 50, 299):
            assert fixed_point_prefix(g(), 0, n) == long[:n]

    def test_fixed_point_is_fixed(self):
        for f, a in ((g(), 0), (h(), 0), (PRESETS["gtilde2"].morphism, 1)):
            prefix = fixed_point_prefix(f, a, 120)
            image = f(prefix)
            assert image[: len(prefix)] == prefix

    def test_not_prolongable_raises(self):
        with pytest.raises(NotProlongableError):
            fixed_point_prefix(g(), 1, 10)
        with pytest.raises(NotProlongableError):
            fixed_point_prefix(PRESETS["e"].morphism, 0, 10)
        with pytest.raises(InvalidInputError):
            fixed_point_prefix(g(), 0, -1)

    @pytest.mark.parametrize("n", [2.5, True, -1])
    def test_prefix_length_must_be_a_nonnegative_int(self, n):
        # True is a bool, not a length, and 2.5 cannot slice
        with pytest.raises(InvalidInputError, match="prefix length"):
            fixed_point_prefix(g(), 0, n)
        with pytest.raises(InvalidInputError, match="prefix length"):
            scan_fixed_point(g(), 0, n, 2, 2)


class TestDecode:
    def test_prefix_code_detection(self):
        assert is_prefix_code(g())
        assert is_prefix_code(h())
        assert not is_prefix_code(parse_morphism("0->0,1->01"))
        assert not is_prefix_code(PRESETS["e"].morphism)

    def test_decode_known(self):
        pre, used = decode(word("01202", 3), g())
        assert str(pre) == "01"
        assert used == 5
        pre, used = decode(word("2", 3), g())
        assert len(pre) == 0
        assert used == 0
        pre, used = decode(word("02", 3), g())
        assert str(pre) == "1"
        assert used == 2

    def test_decode_full_word(self):
        pre, used = decode(g()(word("0120")), g())
        assert str(pre) == "0120"
        assert used == len(g()(word("0120")))

    @given(ternary_letters)
    def test_decode_roundtrip(self, letters):
        w = Word(tuple(letters), Alphabet(3))
        image = g()(w)
        pre, used = decode(image, g())
        assert pre == w
        assert used == len(image)

    @given(binary_letters)
    def test_decode_roundtrip_binary(self, letters):
        w = Word(tuple(letters), Alphabet(2))
        image = h()(w)
        pre, used = decode(image, h())
        assert pre == w
        assert used == len(image)

    def test_decode_requires_prefix_code(self):
        with pytest.raises(NotPrefixCodeError):
            decode(word("0"), parse_morphism("0->0,1->01"))


class TestLiftMatrix:
    def test_matches_frozen_rows(self):
        lifted = lift_matrix(h(), 2)
        assert lifted.to_lists() == M_H_ROWS

    def test_column_anchors(self):
        lifted = lift_matrix(h(), 2)
        e0 = signature(word("0", 2), 2)
        assert lifted.apply(e0).counts == (2, 1, 1, 2, 0, 0)
        assert lifted.apply(e0).counts == signature(word("001"), 2).counts
        e1 = signature(word("1", 2), 2)
        assert lifted.apply(e1).counts == (1, 2, 0, 2, 0, 1)
        assert lifted.apply(e1).counts == signature(word("011"), 2).counts

    def test_zero_maps_to_zero(self):
        lifted = lift_matrix(h(), 2)
        zero = signature(Word((), Alphabet(2)), 2)
        out = lifted.apply(zero)
        assert out.counts == (0,) * 6
        assert out.length == 0

    @given(binary_letters)
    def test_action_on_random_words(self, letters):
        lifted = lift_matrix(h(), 2)
        u = Word(tuple(letters), Alphabet(2))
        got = lifted.apply(signature(u, 2))
        want = signature(h()(u), 2)
        assert got.counts == want.counts
        assert got.length == want.length

    @given(ternary_letters)
    def test_action_of_ternary_generator(self, letters):
        lifted = lift_matrix(g(), 2)
        u = Word(tuple(letters), Alphabet(3))
        assert lifted.apply(signature(u, 2)).counts == signature(g()(u), 2).counts

    def test_order_one_is_letter_incidence(self):
        assert lift_matrix(g(), 1).to_lists() == [[1, 1, 0], [1, 0, 1], [1, 1, 0]]

    def test_identity_morphism_lifts_to_identity_matrix(self):
        lifted = lift_matrix(identity_morphism(2), 2)
        assert lifted.to_lists() == [
            [1 if i == j else 0 for j in range(6)] for i in range(6)
        ]
        assert lifted.determinant() == 1

    def test_zero_matrix_not_invertible(self):
        zero = LiftedMatrix(
            Alphabet(2), 1, ((0, 0), (0, 0)), (1, 1)
        )
        assert zero.determinant() == 0
        assert not zero.is_invertible()

    def test_determinant(self):
        lifted = lift_matrix(h(), 2)
        det = lifted.determinant()
        assert det == 243
        assert det == fraction_determinant(lifted.to_lists())
        assert lifted.is_invertible()

    def test_determinant_agrees_with_fraction_oracle(self):
        import random

        from binwords.morphisms import _bareiss_determinant

        rng = random.Random(11)
        for _ in range(60):
            n = rng.randrange(1, 6)
            rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
            assert _bareiss_determinant([r[:] for r in rows]) == fraction_determinant(
                rows
            )

    def test_composition_is_matrix_product(self):
        mg = lift_matrix(g(), 2)
        mg2 = lift_matrix(PRESETS["g2"].morphism, 2)
        assert (mg @ mg).rows == mg2.rows
        assert (mg @ mg).image_lengths == mg2.image_lengths

    def test_higher_order_lift_validates(self):
        lifted = lift_matrix(h(), 3, validate_trials=500)
        u = word("0110", 2)
        assert lifted.apply(signature(u, 3)).counts == signature(h()(u), 3).counts
        lifted4 = lift_matrix(h(), 4, validate_trials=100)
        assert len(lifted4.rows) == 30

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("trials", [0, -1, 2.5, True])
    def test_validate_trials_must_be_a_positive_int(self, m, trials):
        # below 1 trial the spot check the docstring promises would not run
        with pytest.raises(InvalidInputError, match="validate_trials"):
            lift_matrix(h(), m, validate_trials=trials)

    def test_erasing_morphism_rejected(self):
        with pytest.raises(InvalidInputError):
            lift_matrix(PRESETS["e"].morphism, 2)

    def test_apply_rejects_mismatched_signature(self):
        lifted = lift_matrix(h(), 2)
        with pytest.raises(InvalidInputError):
            lifted.apply(signature(word("012"), 2))
        with pytest.raises(InvalidInputError):
            lifted.apply(signature(word("01", 2), 1))

    def test_exhaustive_small_words(self):
        lifted = lift_matrix(h(), 2)
        for tup in words_up_to(2, 7):
            u = Word(tup, Alphabet(2))
            assert lifted.apply(signature(u, 2)).counts == signature(h()(u), 2).counts


class TestMirrorFactorRelation:
    def test_image_of_mirror_is_mirror_of_image(self):
        gt = mirror_morphism(g())
        for tup in words_up_to(3, 5):
            w = Word(tup, Alphabet(3))
            assert gt(w.mirror()) == g()(w).mirror()

    def test_subword_count_transfer(self):
        # counting in an image only needs the lifted matrix row
        lifted = lift_matrix(g(), 2)
        w = word("0120210")
        row = lifted.rows[4]  # pattern (0, 1) is index 4 over three letters
        sig = signature(w, 2)
        expect = sum(row[j] * sig.counts[j] for j in range(12))
        assert subword_count(g()(w), word("01", 3)) == expect
