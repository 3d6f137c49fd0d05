import itertools
import random

import pytest
from hypothesis import given, strategies as st

import binwords.detect as detect
from binwords import (
    BudgetExceededError,
    CountOverflowError,
    InvalidInputError,
    PRESETS,
    ScanReport,
    equivalent,
    find_power,
    fixed_point_prefix,
    is_power_free,
    scan_fixed_point,
    scan_word,
    word,
)

from oracles import naive_find_power, words_up_to


def occ_pair(occ):
    return None if occ is None else (occ.start, occ.period)


class TestAnchors:
    def test_square_in_ternary_image(self):
        occ = find_power("01202012", 2, 2)
        assert occ_pair(occ) == (2, 2)
        assert occ.power == 2 and occ.order == 2

    def test_square_free_short_word(self):
        assert find_power("010", 2, 2) is None

    def test_abelian_cube(self):
        occ = find_power("000", 1, 3)
        assert occ_pair(occ) == (0, 1)

    def test_tie_break_prefers_small_start_then_small_period(self):
        # period 7 at start 0 is also a valid occurrence here, but the scan
        # order is start-major with the shortest period first
        w = "01011100110101"
        occ = find_power(w, 2, 2)
        assert occ_pair(occ) == (0, 2)
        assert equivalent(word(w[0:7]), word(w[7:14]), 2)

    def test_power_free_prefixes(self):
        x200 = fixed_point_prefix(PRESETS["g"].morphism, 0, 200)
        assert is_power_free(x200, 2, 2)
        z200 = fixed_point_prefix(PRESETS["h"].morphism, 0, 200)
        assert is_power_free(z200, 2, 3)
        assert not is_power_free(z200, 2, 2)
        assert not is_power_free("00", 1, 2)
        assert is_power_free("", 2, 2)
        assert is_power_free("0", 2, 2)


class TestNaiveAgreement:
    @pytest.mark.parametrize("m,p", [(1, 2), (2, 2), (2, 3)])
    def test_exhaustive_binary(self, m, p):
        for n in range(11):
            for tup in itertools.product(range(2), repeat=n):
                w = word(tup, 2) if tup else word("", 2)
                assert occ_pair(find_power(w, m, p)) == naive_find_power(w, m, p, w.alphabet.size)

    def test_exhaustive_binary_length_12(self):
        for tup in itertools.product(range(2), repeat=12):
            w = word(tup, 2)
            assert occ_pair(find_power(w, 2, 2)) == naive_find_power(w, 2, 2, w.alphabet.size)

    def test_exhaustive_ternary(self):
        for tup in words_up_to(3, 7):
            w = word(tup, 3)
            assert occ_pair(find_power(w, 2, 2)) == naive_find_power(w, 2, 2, w.alphabet.size)

    @pytest.mark.slow
    def test_exhaustive_ternary_longer(self):
        for n in range(8, 11):
            for tup in itertools.product(range(3), repeat=n):
                w = word(tup, 3)
                assert occ_pair(find_power(w, 2, 2)) == naive_find_power(w, 2, 2, w.alphabet.size)

    def test_random_longer_words(self):
        rng = random.Random(7)
        for _ in range(1000):
            k = rng.choice((2, 3))
            n = rng.randrange(13, 30)
            w = word(tuple(rng.randrange(k) for _ in range(n)), k)
            m = rng.choice((1, 2))
            p = rng.choice((2, 3))
            assert occ_pair(find_power(w, m, p)) == naive_find_power(w, m, p, w.alphabet.size)


class TestStructuralInvariants:
    @given(
        st.lists(st.integers(0, 1), max_size=12),
        st.lists(st.integers(0, 1), min_size=1, max_size=5),
        st.lists(st.integers(0, 1), max_size=12),
        st.integers(1, 3),
    )
    def test_exact_square_always_found(self, pre, block, suf, m):
        letters = tuple(pre) + tuple(block) * 2 + tuple(suf)
        occ = find_power(word(letters, 2), m, 2)
        assert occ is not None
        # the injected exact square is an occurrence, so the minimal start
        # reported cannot lie beyond it
        assert occ.start <= len(pre)

    def test_higher_order_hit_implies_lower_order_hit(self):
        # order-(m+1) equivalence refines order-m equivalence, so any
        # occurrence at a higher order is also one at every lower order
        for tup in words_up_to(2, 9):
            w = word(tup, 2)
            if find_power(w, 3, 2) is not None:
                assert find_power(w, 2, 2) is not None
                assert find_power(w, 1, 2) is not None


class TestEngines:
    # the python engine reads letter counts and signatures, the vector engine
    # the int64 keys of detect._key_plan, so the two are independent; at
    # k = 8 the keys take more than one int64 each
    def test_agreement_on_random_words(self):
        rng = random.Random(21)
        for _ in range(120):
            n = rng.randint(1, 200)
            k = rng.randint(1, 8)
            w = word(tuple(rng.randrange(k) for _ in range(n)), k)
            m = rng.choice((1, 2))
            p = rng.choice((2, 3))
            a = find_power(w, m, p, engine="python")
            b = find_power(w, m, p, engine="vector")
            assert occ_pair(a) == occ_pair(b)

    def test_dropping_a_pair_field_is_caught(self, monkeypatch):
        # negative control: a key plan without its last field, at order 2 a
        # pair, fools the vector engine alone; find_power's recomputation
        # would reject its false hits, so it is switched off
        plan = detect._key_plan

        def weakened(k, m, n):
            out = plan(k, m, n)
            if m == 2 and k > 1:
                out[-1].pop()
            return out

        monkeypatch.setattr(detect, "_key_plan", weakened)
        monkeypatch.setattr(detect, "_verify_occurrence", lambda *args: None)
        with pytest.raises(AssertionError):
            self.test_agreement_on_random_words()

    def test_agreement_on_structured_words(self):
        # square-free-ish material stresses the no-hit path
        x = fixed_point_prefix(PRESETS["g"].morphism, 0, 400)
        for m, p in ((1, 2), (2, 2), (2, 3)):
            a = find_power(x, m, p, engine="python")
            b = find_power(x, m, p, engine="vector")
            assert occ_pair(a) == occ_pair(b)

    def test_vector_rejects_high_order(self):
        with pytest.raises(InvalidInputError):
            find_power("01" * 40, 3, 2, engine="vector")

    def test_vector_length_guard(self, monkeypatch):
        monkeypatch.setattr(detect, "_VECTOR_MAX_LEN", 50)
        w = "01" * 40
        with pytest.raises(CountOverflowError):
            find_power(w, 2, 2, engine="vector")
        # auto mode falls back to the python engine instead
        assert occ_pair(find_power(w, 2, 2)) == (0, 2)

    def test_auto_picks_python_for_short_words(self):
        # no numpy path exists for tiny inputs; result must still be exact
        assert occ_pair(find_power("0011", 1, 2)) == (0, 1)


class TestBudgets:
    def test_zero_budget_raises_immediately(self):
        with pytest.raises(BudgetExceededError):
            find_power("01", 2, 2, budget_ms=0)

    def test_tiny_budget_aborts_python_scan(self):
        x = fixed_point_prefix(PRESETS["g"].morphism, 0, 3000)
        with pytest.raises(BudgetExceededError):
            find_power(x, 2, 2, engine="python", budget_ms=5)

    def test_generous_budget_completes(self):
        assert find_power("0101", 2, 2, budget_ms=10_000) is not None


class TestValidation:
    def test_power_must_be_small_int(self):
        for bad in (1, 0, -2, True, 2.0, "2"):
            with pytest.raises(InvalidInputError):
                find_power("0101", 2, bad)

    def test_order_validation(self):
        with pytest.raises(InvalidInputError):
            find_power("0101", 0, 2)
        with pytest.raises(InvalidInputError):
            find_power("0101", 5, 2)

    def test_engine_name_validation(self):
        with pytest.raises(InvalidInputError):
            find_power("0101", 2, 2, engine="numpy")


class TestReports:
    def test_report_fields_not_found(self):
        rep = scan_word("010", 2, 2)
        assert isinstance(rep, ScanReport)
        assert not rep.found
        d = rep.to_dict()
        assert list(d) == ["schema", "word_len", "m", "p", "found", "candidates"]
        assert d["schema"] == 1
        assert d["word_len"] == 3
        assert d["found"] is False
        assert d["candidates"] > 0

    def test_report_fields_found(self):
        rep = scan_word("01202012", 2, 2)
        d = rep.to_dict()
        assert list(d) == [
            "schema",
            "word_len",
            "m",
            "p",
            "found",
            "start",
            "period",
            "candidates",
        ]
        assert (d["start"], d["period"]) == (2, 2)

    def test_timing_is_opt_in(self):
        rep = scan_word("0101", 2, 2)
        assert "elapsed_s" not in rep.to_dict()
        timed = rep.to_dict(include_timing=True)
        assert timed["elapsed_s"] >= 0.0
        assert list(timed)[-1] == "elapsed_s"

    def test_candidates_deterministic(self):
        a = scan_word("0110100110010110", 2, 2)
        b = scan_word("0110100110010110", 2, 2)
        assert a.to_dict() == b.to_dict()

    def test_candidates_independent_of_engine(self):
        # the canonical-order count up to the answer, whichever engine ran
        z = fixed_point_prefix(PRESETS["h"].morphism, 0, 3000)
        a = scan_word(z, 2, 2, engine="python").to_dict()
        assert a == scan_word(z, 2, 2, engine="vector").to_dict()
        assert a["candidates"] == 1
        for w, p in (("01202012", 2), ("0101110" + "0110101", 2), ("0010", 3)):
            reports = [scan_word(w, 2, p, engine=e).to_dict() for e in ("python", "vector")]
            assert reports[0] == reports[1]

    def test_occurrence_to_dict(self):
        occ = find_power("01202012", 2, 2)
        assert occ.to_dict() == {"start": 2, "period": 2, "power": 2, "m": 2}


class TestFixedPointScans:
    def test_ternary_fixed_point_square_free_at_500(self):
        rep = scan_fixed_point(PRESETS["g"].morphism, 0, 500, 2, 2)
        assert rep.word_len == 500
        assert not rep.found

    def test_binary_fixed_point_cube_free_at_500(self):
        rep = scan_fixed_point(PRESETS["h"].morphism, 0, 500, 2, 3)
        assert not rep.found

    def test_binary_fixed_point_has_early_square(self):
        rep = scan_fixed_point(PRESETS["h"].morphism, 0, 500, 2, 2)
        assert rep.found
        assert (rep.occurrence.start, rep.occurrence.period) == (0, 1)

    def test_mirror_generator_fixed_point_square_free(self):
        rep = scan_fixed_point(PRESETS["gtilde2"].morphism, 1, 500, 2, 2)
        assert not rep.found
