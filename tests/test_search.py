import itertools

import pytest

from binwords import (
    BudgetExceededError,
    CountTable,
    InvalidInputError,
    SearchCertificate,
    count_avoiding,
    is_power_free,
    longest_avoiding,
    word,
)


def brute_counts(k: int, m: int, p: int, n_max: int) -> tuple[int, ...]:
    out = []
    for n in range(1, n_max + 1):
        alive = 0
        for tup in itertools.product(range(k), repeat=n):
            if is_power_free(word(tup, k), m, p):
                alive += 1
        out.append(alive)
    return tuple(out)


class TestLongestAvoiding:
    def test_binary_squares_maximal(self):
        cert = longest_avoiding(2, 2, 2, 100)
        assert cert.outcome == "maximal"
        assert cert.max_length == 3
        assert str(cert.witness) == "010"
        assert cert.counts == (2, 2, 2)
        assert cert.counts_complete
        assert cert.nodes > 0

    def test_unary_cubes_maximal(self):
        cert = longest_avoiding(1, 2, 3, 100)
        assert cert.outcome == "maximal"
        assert cert.max_length == 2
        assert str(cert.witness) == "00"

    def test_ternary_squares_cap(self):
        cert = longest_avoiding(3, 2, 2, 50)
        assert cert.outcome == "cap_reached"
        assert cert.max_length == 50
        assert len(cert.witness) == 50
        assert is_power_free(cert.witness, 2, 2)
        assert not cert.counts_complete

    def test_binary_cubes_cap(self):
        cert = longest_avoiding(2, 2, 3, 50)
        assert cert.outcome == "cap_reached"
        assert is_power_free(cert.witness, 2, 3)

    def test_witness_is_lex_least_survivor(self):
        cert = longest_avoiding(2, 2, 2, 100)
        survivors = sorted(
            tup for tup in itertools.product(range(2), repeat=3)
            if is_power_free(word(tup, 2), 2, 2)
        )
        assert cert.witness.letters == survivors[0]

    def test_maximal_means_no_extension_survives(self):
        cert = longest_avoiding(2, 2, 2, 100)
        n = cert.max_length + 1
        for tup in itertools.product(range(2), repeat=n):
            assert not is_power_free(word(tup, 2), 2, 2)

    def test_abelian_squares_binary(self):
        # abelian equivalence is coarser, so the tree dies even earlier
        cert = longest_avoiding(2, 1, 2, 100)
        assert cert.outcome == "maximal"
        assert cert.max_length == 3
        # order-1 survivors of each length are a superset-free subset of
        # the order-2 survivors of the same length
        full = longest_avoiding(2, 2, 2, 100)
        assert all(a <= b for a, b in zip(cert.counts, full.counts))

    def test_cert_to_dict(self):
        d = longest_avoiding(2, 2, 2, 100).to_dict()
        assert d == {
            "schema": 1,
            "k": 2,
            "m": 2,
            "p": 2,
            "outcome": "maximal",
            "max_length": 3,
            "witness": "010",
            "cap": 100,
            "counts": [2, 2, 2],
            "counts_complete": True,
            "symmetry_reduced": False,
            "nodes": d["nodes"],
        }
        assert isinstance(d["nodes"], int)

    def test_deterministic(self):
        a = longest_avoiding(3, 2, 2, 20).to_dict()
        b = longest_avoiding(3, 2, 2, 20).to_dict()
        assert a == b


class TestCountAvoiding:
    def test_binary_squares(self):
        table = count_avoiding(2, 2, 2, 4)
        assert table.counts == (2, 2, 2, 0)

    def test_unary_abelian_squares(self):
        assert count_avoiding(1, 1, 2, 3).counts == (1, 0, 0)

    def test_ternary_squares_all_alive(self):
        table = count_avoiding(3, 2, 2, 10)
        assert table.counts == (3, 6, 12, 18, 30, 42, 60, 78, 108, 144)

    def test_matches_brute_force_binary(self):
        for m, p in ((1, 2), (2, 2), (2, 3)):
            assert count_avoiding(2, m, p, 8).counts == brute_counts(2, m, p, 8)

    def test_matches_brute_force_ternary(self):
        assert count_avoiding(3, 2, 2, 5).counts == brute_counts(3, 2, 2, 5)

    def test_finer_order_admits_more_words(self):
        coarse = count_avoiding(2, 1, 3, 8).counts
        fine = count_avoiding(2, 2, 3, 8).counts
        assert all(a <= b for a, b in zip(coarse, fine))

    def test_higher_power_admits_more_words(self):
        squares = count_avoiding(3, 2, 2, 7).counts
        cubes = count_avoiding(3, 2, 3, 7).counts
        assert all(a <= b for a, b in zip(squares, cubes))

    def test_symmetry_reduction_divides_by_alphabet(self):
        for k in (2, 3):
            full = count_avoiding(k, 2, 2, 6)
            red = count_avoiding(k, 2, 2, 6, symmetry=True)
            assert red.symmetry_reduced
            assert tuple(c * k for c in red.counts) == full.counts
            assert red.nodes < full.nodes

    def test_tsv_format(self):
        table = count_avoiding(2, 2, 2, 4)
        text = table.to_tsv()
        lines = text.splitlines()
        assert lines[0] == (
            f"# schema=1 k=2 m=2 p=2 n_max=4 symmetry_reduced=0 nodes={table.nodes}"
        )
        assert lines[1] == "length\tcount"
        assert lines[2:] == ["1\t2", "2\t2", "3\t2", "4\t0"]
        assert text.endswith("\n")


class TestBudgets:
    def test_node_budget_aborts_search(self):
        cert = longest_avoiding(3, 2, 2, 30, node_budget=5)
        assert cert.outcome == "budget_abort"
        assert not cert.counts_complete
        assert cert.nodes == 5

    def test_node_budget_aborts_count(self):
        with pytest.raises(BudgetExceededError):
            count_avoiding(3, 2, 2, 30, node_budget=5)

    def test_zero_time_budget(self):
        with pytest.raises(BudgetExceededError):
            count_avoiding(2, 2, 2, 4, budget_ms=0)

    def test_ample_budgets_change_nothing(self):
        a = count_avoiding(2, 2, 2, 6)
        b = count_avoiding(2, 2, 2, 6, node_budget=10**9, budget_ms=60_000)
        assert a.counts == b.counts


class TestValidationAndProgress:
    def test_invalid_parameters(self):
        with pytest.raises(InvalidInputError):
            longest_avoiding(0, 2, 2, 10)
        with pytest.raises(InvalidInputError):
            longest_avoiding(2, 2, 1, 10)
        with pytest.raises(InvalidInputError):
            longest_avoiding(2, 2, 2, 0)
        with pytest.raises(InvalidInputError):
            longest_avoiding(2, 0, 2, 10)
        with pytest.raises(InvalidInputError):
            count_avoiding(9, 2, 2, 4)

    @pytest.mark.parametrize("cap", [True, 2.5, "3"])
    @pytest.mark.parametrize("entry", [longest_avoiding, count_avoiding])
    def test_non_int_cap_rejected(self, entry, cap):
        with pytest.raises(InvalidInputError):
            entry(2, 2, 3, cap)

    def test_progress_reports_new_depths(self):
        seen: list[tuple[int, int, int]] = []
        longest_avoiding(3, 2, 2, 12, progress=lambda d, n, a: seen.append((d, n, a)))
        depths = [d for d, _, _ in seen]
        assert depths == sorted(set(depths))
        assert depths[-1] == 12
        assert all(n >= 1 and a >= 1 for _, n, a in seen)

    def test_types(self):
        assert isinstance(longest_avoiding(2, 1, 2, 10), SearchCertificate)
        assert isinstance(count_avoiding(2, 1, 2, 4), CountTable)


class TestCrossChecks:
    def test_maximal_counts_match_full_exploration(self):
        # a maximal run exhausted its tree, so its per-length tallies must
        # agree with a dedicated count; a capped run stops early and cannot
        for k, m, p in ((2, 2, 2), (2, 1, 2), (1, 2, 3)):
            cert = longest_avoiding(k, m, p, 100)
            assert cert.outcome == "maximal"
            table = count_avoiding(k, m, p, cert.max_length)
            assert cert.counts == table.counts

    def test_every_prefix_of_witness_survives(self):
        cert = longest_avoiding(2, 2, 3, 30)
        w = cert.witness
        for i in range(1, len(w) + 1):
            assert is_power_free(w[:i], 2, 3)
