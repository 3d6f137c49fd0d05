import itertools
import re
from functools import lru_cache
from math import perm

import numpy as np
import pytest

import binwords.search as search
from binwords import (
    Alphabet,
    BudgetExceededError,
    CountTable,
    InvalidInputError,
    PrefixIndex,
    SearchCertificate,
    Word,
    count_avoiding,
    is_power_free,
    longest_avoiding,
    word,
)

from binwords.detect import _key_growth, _key_plan, _scan_keys
from oracles import all_words, naive_find_power


def to_first_zero(counts: tuple[int, ...]) -> tuple[int, ...]:
    """counts cut after their first 0, where a count table ends when the
    tree dies before n_max."""
    return counts[: counts.index(0) + 1] if 0 in counts else counts


def brute_counts(k: int, m: int, p: int, n_max: int) -> tuple[int, ...]:
    out = []
    for n in range(1, n_max + 1):
        alive = 0
        for tup in itertools.product(range(k), repeat=n):
            if is_power_free(word(tup, k), m, p):
                alive += 1
        out.append(alive)
    return tuple(out)


@lru_cache(maxsize=None)
def oracle_counts(k: int, m: int, p: int, n_max: int) -> tuple[int, ...]:
    """Power-free words of each length 1..n_max, by the naive oracle."""
    return tuple(
        sum(naive_find_power(w, m, p, k) is None for w in all_words(k, n))
        for n in range(1, n_max + 1)
    )


# (k, n_max) pairs the naive oracle affords
ORBIT_CASES = [(1, 6), (2, 9), (3, 7), (4, 5)]


def check_counts_match_oracle(k: int, m: int, p: int, n_max: int) -> None:
    assert count_avoiding(k, m, p, n_max).counts == to_first_zero(oracle_counts(k, m, p, n_max))


def dfs_count(k: int, m: int, p: int, n_max: int, symmetry: bool = False):
    """Counts and nodes of the depth-first walk on the PrefixIndex block
    test (search._SearchWord) at every order, the reference engine."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_KeyWord", search._SearchWord)
        res = search._dfs(
            k, m, p, n_max, stop_at_cap=False, symmetry=symmetry,
            node_budget=None, budget_ms=None, progress=None,
        )
    assert not res.aborted
    return tuple(res.counts) + (0,) * (len(res.counts) < n_max), res.nodes


def block_test_search(k: int, m: int, p: int, cap: int, **opts) -> SearchCertificate:
    """longest_avoiding on the PrefixIndex block test at every order."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_KeyWord", search._SearchWord)
        return longest_avoiding(k, m, p, cap, **opts)


def batched_count(k: int, m: int, p: int, n_max: int, symmetry: bool = False):
    table = count_avoiding(k, m, p, n_max, symmetry=symmetry)
    return table.counts, table.nodes


class TestLongestAvoiding:
    def test_binary_squares_maximal(self):
        cert = longest_avoiding(2, 2, 2, 100)
        assert cert.outcome == "maximal"
        assert cert.max_length == 3
        assert str(cert.witness) == "010"
        assert cert.counts == (2, 2, 2)
        assert cert.counts_complete
        assert cert.nodes > 0

    def test_uncopied_best_word_is_caught(self, mutate):
        # negative control: a walk that never copies its best word off the
        # search word reads the emptied word when the tree is exhausted
        mutate(search, "_dfs", "best_word = w._letters[:]  #", "pass  #")
        with pytest.raises(AssertionError):
            self.test_binary_squares_maximal()

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

    @pytest.mark.parametrize("k, m, p", [(2, 2, 2), (1, 2, 3), (2, 3, 2), (2, 1, 3)])
    def test_outcome_at_caps_around_the_maximal_length(self, k, m, p):
        # the search stops on its first word of length cap, so a tree whose
        # longest words have length cap reads cap_reached, and one that
        # dies one letter before the cap reads maximal
        best = longest_avoiding(k, m, p, 100)
        n = best.max_length
        assert best.outcome == "maximal"
        for cap, outcome in ((n - 1, "cap_reached"), (n, "cap_reached"), (n + 1, "maximal")):
            cert = longest_avoiding(k, m, p, cap)
            assert (cert.outcome, len(cert.witness)) == (outcome, min(cap, n))
        assert longest_avoiding(k, m, p, n).witness == best.witness

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
        assert count_avoiding(1, 1, 2, 3).counts == (1, 0)

    def test_ternary_squares_all_alive(self):
        table = count_avoiding(3, 2, 2, 10)
        assert table.counts == (3, 6, 12, 18, 30, 42, 60, 78, 108, 144)

    def test_matches_brute_force_binary(self):
        for m, p in ((1, 2), (2, 2), (2, 3)):
            assert count_avoiding(2, m, p, 8).counts == to_first_zero(brute_counts(2, m, p, 8))

    def test_matches_brute_force_ternary(self):
        assert count_avoiding(3, 2, 2, 5).counts == to_first_zero(brute_counts(3, 2, 2, 5))

    def test_finer_order_admits_more_words(self):
        coarse = count_avoiding(2, 1, 3, 8).counts
        fine = count_avoiding(2, 2, 3, 8).counts
        assert all(a <= b for a, b in zip(coarse, fine))

    def test_higher_power_admits_more_words(self):
        squares = count_avoiding(3, 2, 2, 7).counts
        cubes = count_avoiding(3, 2, 3, 7).counts
        assert all(a <= b for a, b in zip(squares, cubes))

    def test_symmetry_reduction_divides_by_alphabet(self):
        for k, n_max in ORBIT_CASES:
            for m, p in itertools.product((1, 2), (2, 3)):
                full = count_avoiding(k, m, p, n_max)
                red = count_avoiding(k, m, p, n_max, symmetry=True)
                assert red.symmetry_reduced
                assert tuple(c * k for c in red.counts) == full.counts
                assert red.nodes * k == full.nodes

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


class TestOrbitWalk:
    """count_avoiding walks one word per letter-renaming orbit and weighs it
    by the orbit's size; the totals must be those of the full tree."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("k,n_max", ORBIT_CASES)
    def test_counts_match_oracle(self, k, n_max, m, p):
        check_counts_match_oracle(k, m, p, n_max)

    def test_nodes_match_the_full_tree(self):
        # every node of the full tree is one letter appended to a survivor
        # (or to the empty word), so nodes = k * (1 + survivors short of n_max)
        for k, m, p, n_max in ((3, 2, 2, 10), (2, 2, 3, 12), (4, 1, 3, 6)):
            table = count_avoiding(k, m, p, n_max)
            assert table.nodes == k * (1 + sum(table.counts[:-1]))

    def test_unit_weights_are_caught(self, monkeypatch):
        # negative control: weigh every orbit as one word
        monkeypatch.setattr(search, "perm", lambda n, r: 1)
        with pytest.raises(AssertionError):
            check_counts_match_oracle(3, 2, 2, 6)


class TestBatchedCount:
    """At orders 1 and 2 count_avoiding walks the orbit tree in batches
    (search._count_batched); its counts and nodes must be the depth-first
    walk's, and its counts the oracle's."""

    # n_max per k: the depth-first walk within a second, the oracle's ORBIT_CASES
    DFS_N = {1: 12, 2: 16, 3: 10, 4: 8, 5: 7}
    ORACLE_N = dict(ORBIT_CASES) | {5: 4}

    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_the_depth_first_walk_and_the_oracle(self, k, m, p, symmetry):
        n_max = self.DFS_N[k]
        assert batched_count(k, m, p, n_max, symmetry) == dfs_count(k, m, p, n_max, symmetry)
        n_max = self.ORACLE_N[k]
        counts = count_avoiding(k, m, p, n_max, symmetry=symmetry).counts
        orbit = k if symmetry else 1
        assert tuple(c * orbit for c in counts) == to_first_zero(oracle_counts(k, m, p, n_max))

    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize(
        "k,m,p,n_max,symmetry",
        [(2, 2, 3, 14, False), (3, 2, 2, 10, True), (3, 1, 3, 8, False), (5, 2, 2, 9, False)],
    )
    def test_batch_boundaries_change_nothing(self, monkeypatch, batch, k, m, p, n_max, symmetry):
        want = dfs_count(k, m, p, n_max, symmetry)
        monkeypatch.setattr(search, "_BATCH", batch)
        assert batched_count(k, m, p, n_max, symmetry) == want

    @pytest.mark.parametrize("p", [2, 4])
    def test_plan_of_two_keys(self, p):
        # 4 letter fields and 10 D fields of 6 bits overflow one 62-bit key
        assert len(_key_plan(5, 2, 9)) == 2
        assert batched_count(5, 2, p, 9) == dfs_count(5, 2, p, 9)

    # negative controls on the child test that the count and the order-1/2
    # search share, each caught in both against the references; the search
    # witness re-check is switched off, or it would reject the false survivors
    def test_skipping_the_longest_period_is_caught(self, monkeypatch):
        # never test the period n // p: hist without its first n % p + 1
        # keys leaves the child's last n // p - 1 periods
        children = search._children

        def mutant(hist, step, p):
            n = hist.shape[2]
            return children(hist[:, :, n % p + 1 :] if n >= p else hist, step, p)

        monkeypatch.setattr(search, "_children", mutant)
        monkeypatch.setattr(search, "is_power_free", lambda *args: True)
        for k, m, p, n_max in ((2, 2, 3, 9), (3, 1, 2, 7), (2, 2, 4, 9)):
            assert count_avoiding(k, m, p, n_max).counts != oracle_counts(k, m, p, n_max)
            assert longest_avoiding(k, m, p, 40) != block_test_search(k, m, p, 40)

    def test_first_key_alone_is_caught(self, monkeypatch):
        # a two-key plan whose children are tested on keys[0] only
        children = search._children

        def first_key(hist, step, p):
            return children(hist, step, p)[0], children(hist[:, :1], step[..., :1], p)[1]

        monkeypatch.setattr(search, "_children", first_key)
        monkeypatch.setattr(search, "is_power_free", lambda *args: True)
        assert batched_count(5, 2, 2, 9) != dfs_count(5, 2, 2, 9)
        assert len(_key_plan(3, 2, 300)) == 2
        assert longest_avoiding(3, 2, 2, 300) != block_test_search(3, 2, 2, 300)

    def test_orders_three_and_four_walk_depth_first(self, monkeypatch):
        monkeypatch.setattr(search, "_count_batched", None)
        for m in (3, 4):
            assert count_avoiding(2, m, 2, 7).counts == to_first_zero(oracle_counts(2, m, 2, 7))


class TestBudgets:
    def test_node_budget_aborts_search(self):
        cert = longest_avoiding(3, 2, 2, 30, node_budget=5)
        assert cert.outcome == "budget_abort"
        assert not cert.counts_complete
        assert cert.nodes == 5

    def test_node_budget_aborts_count(self):
        with pytest.raises(BudgetExceededError):
            count_avoiding(3, 2, 2, 30, node_budget=5)

    @pytest.mark.parametrize("k,p", [(3, 2), (2, 3), (4, 3)])
    @pytest.mark.parametrize("budget", [5, 1000, 12345])
    def test_count_stops_before_the_orbit_that_would_pass_the_budget(self, budget, k, p):
        # a node stands for up to k! words, so a count stops at most
        # k! - 1 nodes short of its budget, at the same node on every run
        reported = []
        for _ in range(2):
            with pytest.raises(BudgetExceededError) as err:
                count_avoiding(k, 2, p, 40, node_budget=budget)
            reported.append(int(re.search(r"after (\d+) nodes", str(err.value))[1]))
        assert reported[0] == reported[1]
        assert budget - perm(k) < reported[0] <= budget

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

    @pytest.mark.parametrize(
        "k,m,p,n_max", [(2, 2, 2, 10), (3, 1, 2, 12), (3, 2, 2, 12), (2, 2, 3, 14), (2, 3, 2, 8)]
    )
    def test_count_progress_reaches_each_depth_once(self, k, m, p, n_max):
        # either engine reports each depth when a survivor first reaches it,
        # up to the deepest non-zero length; the values follow its walk order
        seen: list[tuple[int, int, int]] = []
        table = count_avoiding(k, m, p, n_max, progress=lambda d, n, a: seen.append((d, n, a)))
        deepest = max(d for d, c in enumerate(table.counts, 1) if c)
        assert [d for d, _, _ in seen] == list(range(1, deepest + 1))
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


@pytest.mark.parametrize("k, m", [(1, 2), (2, 1), (3, 2), (4, 2), (3, 3), (2, 4)])
def test_search_word_keeps_the_columns_it_reads(k, m):
    # through pushes and pops, the search word keeps what its suffix test
    # reads: at m <= 2 the int64 keys of every prefix (the scan's keys,
    # planned for its cap) and the step of its letters, at m > 2 every
    # signature column
    letters = [(i * i + i // 3) % k for i in range(40)]
    w = (search._KeyWord if m <= 2 else search._SearchWord)(k, m, 2, len(letters))
    for n, a in enumerate(letters, 1):
        w.hits()
        w._push(a)
        if n % 7 == 0:
            w._pop()
            w._push(a)
    for _ in range(5):
        w._pop()
    wd = Word(tuple(letters), Alphabet(k))
    if m <= 2:
        n = len(w) + 1
        assert (w._keys[:, :n] == _scan_keys(wd, m)[0][:, :n]).all()
        # step[c, g] = unit[g, c] + the sum over a of weight[g, c, a] * A_a
        unit, weight = _key_growth(k, m, len(letters))
        counts = np.bincount(w._letters, minlength=k)
        assert (w._step == unit.T + (weight @ counts).T).all()
    else:
        assert w._cols == PrefixIndex(wd[: len(w)], m)._cols
