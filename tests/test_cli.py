import json
import os
import re

import pytest

from binwords import PRESETS
from binwords.cli import main

from oracles import closed_form_lift

X_PREFIX_24 = "012021012102012021020121"
Z_PREFIX_27 = "001001011001001011001011011"
Y_PREFIX_26 = "12102012101202102012021012"

M_H_ROWS = [
    [2, 1, 0, 0, 0, 0],
    [1, 2, 0, 0, 0, 0],
    [1, 0, 4, 2, 2, 1],
    [2, 2, 2, 4, 1, 2],
    [0, 0, 2, 1, 4, 2],
    [0, 1, 1, 2, 2, 4],
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBinomialSignatureEquiv:
    def test_binomial(self, capsys):
        code, out, _ = run(capsys, "binomial", "0101", "01")
        assert code == 0
        assert out == "3\n"
        assert run(capsys, "binomial", "0101110", "01") == (0, "7\n", "")
        assert run(capsys, "binomial", "0101110", "11") == (0, "6\n", "")

    def test_binomial_empty_pattern(self, capsys):
        code, out, _ = run(capsys, "binomial", "0101", "")
        assert code == 0
        assert out == "1\n"
        assert run(capsys, "binomial", "000", "") == (0, "1\n", "")

    def test_signature_json(self, capsys):
        code, out, _ = run(capsys, "signature", "0101", "-m", "2")
        assert code == 0
        assert out == (
            '{"m":2,"alphabet":2,"counts":'
            '{"0":2,"1":2,"00":1,"01":3,"10":1,"11":1}}\n'
        )
        assert json.loads(out)["counts"]["01"] == 3

    def test_signature_example_word(self, capsys):
        code, out, _ = run(capsys, "signature", "0101110")
        assert code == 0
        assert out == (
            '{"m":2,"alphabet":2,"counts":'
            '{"0":3,"1":4,"00":3,"01":7,"10":5,"11":6}}\n'
        )

    def test_signature_alphabet_override(self, capsys):
        code, out, _ = run(capsys, "signature", "010", "-m", "1", "--alphabet", "3")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["alphabet"] == 3
        assert parsed["counts"] == {"0": 2, "1": 1, "2": 0}

    def test_equiv(self, capsys):
        code, out, _ = run(capsys, "equiv", "0101110", "0110101", "-m", "2")
        assert code == 0 and out == "true\n"
        code, out, _ = run(capsys, "equiv", "0101110", "0001111", "-m", "2")
        assert code == 0 and out == "false\n"


class TestMorphismCommands:
    def test_generate_presets(self, capsys):
        assert run(capsys, "generate", "g", "24") == (0, X_PREFIX_24 + "\n", "")
        assert run(capsys, "generate", "h", "27") == (0, Z_PREFIX_27 + "\n", "")
        assert run(capsys, "generate", "gtilde2", "26") == (0, Y_PREFIX_26 + "\n", "")

    def test_generate_explicit_rules_with_letter(self, capsys):
        code, out, _ = run(capsys, "generate", "0->01,1->10", "8", "--letter", "1")
        assert code == 0
        assert out == "10010110\n"

    def test_generate_erasing_preset_fails(self, capsys):
        code, _, err = run(capsys, "generate", "e", "5")
        assert code == 2
        assert "binwords:" in err

    def test_generate_needs_seed_for_rules_without_default(self, capsys):
        code, _, err = run(capsys, "generate", "0->10,1->11", "5")
        assert code == 2

    def test_apply(self, capsys):
        assert run(capsys, "apply", "g", "010")[:2] == (0, "01202012\n")
        code, out, _ = run(capsys, "apply", "0->01,1->10", "01")
        assert (code, out) == (0, "0110\n")

    def test_decode(self, capsys):
        code, out, _ = run(capsys, "decode", "g", "01202")
        assert code == 0
        assert out == "01\t5\n"
        code, out, _ = run(capsys, "decode", "g", "2")
        assert code == 0
        assert out == "\t0\n"

    def test_lift(self, capsys):
        code, out, _ = run(capsys, "lift", "h", "-m", "2")
        assert code == 0
        assert json.loads(out) == M_H_ROWS

    def test_lift_order_one(self, capsys):
        code, out, _ = run(capsys, "lift", "g", "-m", "1")
        assert json.loads(out) == [[1, 1, 0], [1, 0, 1], [1, 1, 0]]

    @pytest.mark.parametrize("name,m", [("g", 4), ("h", 3)])
    def test_lift_above_order_two(self, capsys, name, m):
        code, out, _ = run(capsys, "lift", name, "-m", str(m))
        assert code == 0
        assert json.loads(out) == closed_form_lift(PRESETS[name].morphism.images, m)

    def test_lift_erasing_morphism_exit_two(self, capsys):
        code, out, err = run(capsys, "lift", "e", "-m", "2")
        assert code == 2
        assert out == ""
        assert "erasing" in err


class TestDetect:
    def test_word_not_found_exit_zero(self, capsys):
        code, out, _ = run(capsys, "detect", "--word", "010")
        assert code == 0
        assert json.loads(out) == {
            "schema": 1,
            "word_len": 3,
            "m": 2,
            "p": 2,
            "found": False,
            "candidates": json.loads(out)["candidates"],
        }

    def test_word_found_exit_one(self, capsys):
        code, out, _ = run(capsys, "detect", "--word", "01202012")
        assert code == 1
        parsed = json.loads(out)
        assert parsed["found"] is True
        assert (parsed["start"], parsed["period"]) == (2, 2)

    def test_single_letter_word(self, capsys):
        code, out, _ = run(capsys, "detect", "--word", "0")
        assert code == 0
        assert json.loads(out)["found"] is False

    def test_generate_single_letter(self, capsys):
        assert run(capsys, "generate", "g", "1") == (0, "0\n", "")

    def test_preset_requires_length(self, capsys):
        code, _, err = run(capsys, "detect", "--preset", "g")
        assert code == 2

    def test_preset_scan(self, capsys):
        code, out, _ = run(capsys, "detect", "--preset", "g", "-n", "300")
        assert code == 0
        assert json.loads(out)["found"] is False

    def test_explicit_morphism_scan(self, capsys):
        code, out, _ = run(
            capsys,
            "detect", "--morphism", "0->001,1->011", "--letter", "0",
            "-n", "200", "-m", "2", "-p", "3",
        )
        assert code == 0
        assert json.loads(out)["found"] is False

    def test_repeat_runs_byte_identical(self, capsys):
        a = run(capsys, "detect", "--word", "0110100110010110", "-m", "2", "-p", "2")
        b = run(capsys, "detect", "--word", "0110100110010110", "-m", "2", "-p", "2")
        assert a == b

    def test_timing_flag_adds_field(self, capsys):
        code, out, _ = run(capsys, "detect", "--word", "010", "--timing")
        assert "elapsed_s" in json.loads(out)

    def test_word_and_preset_conflict(self, capsys):
        code, _, err = run(capsys, "detect", "--word", "010", "--preset", "g")
        assert code == 2

    def test_no_source_is_usage_error(self, capsys):
        code, _, err = run(capsys, "detect")
        assert code == 2

    @pytest.mark.parametrize("option", [["-n", "5"], ["--letter", "2"]])
    def test_word_refuses_fixed_point_options(self, capsys, option):
        # -n and --letter choose a fixed point's prefix and seed; a given
        # word has neither, so they are refused rather than ignored
        code, out, err = run(capsys, "detect", "--word", "0101", *option)
        assert (code, out) == (2, "")
        assert option[0] in err


class TestSearchAndCount:
    def test_search_json(self, capsys):
        code, out, err = run(
            capsys, "search", "-k", "2", "-m", "2", "-p", "2", "--cap", "100", "--quiet"
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["outcome"] == "maximal"
        assert parsed["max_length"] == 3
        assert parsed["witness"] == "010"
        assert parsed["counts"] == [2, 2, 2]
        assert err == ""

    def test_search_progress_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "search", "-k", "3", "-m", "2", "-p", "2", "--cap", "10"
        )
        assert code == 0
        assert "depth=" in err and "nodes=" in err

    def test_search_node_budget_exit_three(self, capsys):
        code, out, _ = run(
            capsys,
            "search", "-k", "3", "-m", "2", "-p", "2", "--cap", "30",
            "--node-budget", "5", "--quiet",
        )
        assert code == 3
        assert json.loads(out)["outcome"] == "budget_abort"

    @pytest.mark.parametrize("cap", [10**12, 3 * 10**9])
    def test_huge_cap_aborts_within_the_node_budget(self, capsys, cap):
        # the search sizes its keys and counts by the depth it reaches, so a
        # cap far past any reachable depth costs nothing up front
        def search(cap):
            code, out, _ = run(
                capsys,
                "search", "-k", "3", "-m", "2", "-p", "2", "--cap", str(cap),
                "--node-budget", "10", "--quiet",
            )
            return code, json.loads(out)

        code, cert = search(cap)
        assert (code, cert.pop("cap")) == (3, cap)
        want_code, want = search(2000)
        assert (want_code, want.pop("cap")) == (3, 2000)
        assert cert == want

    def test_count_tsv(self, capsys):
        code, out, _ = run(
            capsys, "count", "-k", "2", "-m", "2", "-p", "2", "--n-max", "4", "--quiet"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# schema=1 k=2 m=2 p=2 n_max=4 symmetry_reduced=0")
        assert lines[1] == "length\tcount"
        assert lines[2:] == ["1\t2", "2\t2", "3\t2", "4\t0"]

    def test_count_table_ends_where_the_tree_dies(self, capsys):
        # the binary square-free tree dies at length 4, so the table ends
        # there whatever n_max, and the largest n_max builds no more rows
        code, out, err = run(
            capsys, "count", "-k", "2", "-m", "2", "-p", "2", "--n-max", "2147483647", "--quiet"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == ["1\t2", "2\t2", "3\t2", "4\t0"]

    def test_count_progress_on_stderr(self, capsys):
        argv = ["count", "-k", "3", "-m", "2", "-p", "2", "--n-max", "6"]
        code, out, err = run(capsys, *argv)
        assert code == 0
        lines = err.splitlines()
        assert [line.split()[0] for line in lines] == [f"depth={d}" for d in range(1, 7)]
        assert all(re.fullmatch(r"depth=\d+ nodes=\d+ alive=\d+", line) for line in lines)
        assert run(capsys, *argv, "--quiet") == (0, out, "")

    def test_count_node_budget_exit_three(self, capsys):
        code, _, err = run(
            capsys,
            "count", "-k", "3", "-m", "2", "-p", "2", "--n-max", "30",
            "--node-budget", "5", "--quiet",
        )
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("m", [2, 3])
    def test_count_past_the_int64_keys_exit_two(self, capsys, m):
        # an order-1/2 count keeps int64 keys, which hold words shorter than
        # detect._VECTOR_MAX_LEN, and a count at every order may tabulate
        # n_max counts; a longer n_max is refused before any of them is built
        code, out, err = run(
            capsys,
            "count", "-k", "3", "-m", str(m), "-p", "2", "--n-max", "1000000000000",
            "--node-budget", "10",
        )
        assert (code, out) == (2, "")
        assert err == "binwords: n_max must be below 2147483648\n"

    def test_count_zero_n_max_exit_two(self, capsys):
        code, out, err = run(capsys, "count", "-k", "3", "-m", "2", "-p", "2", "--n-max", "0")
        assert (code, out) == (2, "")
        assert err == "binwords: n_max must be >= 1, got 0\n"

    def test_count_symmetry(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "-k", "3", "-m", "2", "-p", "2", "--n-max", "4",
            "--symmetry", "--quiet",
        )
        assert code == 0
        lines = out.splitlines()
        assert "symmetry_reduced=1" in lines[0]
        assert lines[2:] == ["1\t1", "2\t2", "3\t4", "4\t6"]


class TestVerify:
    def test_single_check_with_trials(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "matrix", "--trials", "50")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["passed"] is True
        assert [c["name"] for c in parsed["checks"]] == ["matrix"]
        assert parsed["checks"][0]["params"]["trials"] == 50

    def test_fault_injection_exit_one(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--check", "matrix", "--trials", "50",
            "--inject-fault", "matrix",
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("fault", [(), ("--inject-fault", "consistency")])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_rejected(self, capsys, trials, fault):
        code, out, err = run(
            capsys, "verify", "--check", "consistency", "--trials", trials, *fault
        )
        assert code == 2
        assert out == ""
        assert "--trials" in err

    def test_results_dir(self, capsys, tmp_path):
        outdir = tmp_path / "results"
        code, out, _ = run(
            capsys,
            "verify", "--check", "erasure", "--check", "cyclic", "--trials", "50",
            "--results-dir", str(outdir),
        )
        assert code == 0
        assert sorted(os.listdir(outdir)) == ["cyclic.json", "erasure.json"]
        with open(outdir / "erasure.json", encoding="utf-8") as fh:
            assert json.load(fh)["name"] == "erasure"

    def test_threads_option_removed(self, capsys):
        code, out, err = run(capsys, "verify", "--check", "erasure", "--threads", "-2")
        assert code == 2
        assert out == ""
        assert "--threads" in err

    def test_default_flag_accepted(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--default", "--check", "erasure", "--trials", "50"
        )
        assert code == 0

    def test_budget_zero_exit_three(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "erasure", "--budget-ms", "0"
        )
        assert code == 3
        parsed = json.loads(out)
        assert parsed["aborted"] == ["erasure"]


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("binwords ")

    def test_no_arguments_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_unknown_command_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_bad_word_characters(self, capsys):
        code, _, err = run(capsys, "binomial", "01a1", "01")
        assert code == 2
        assert "binwords:" in err

    def test_env_budget_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("BINWORDS_BUDGET_MS", "0")
        code, _, err = run(capsys, "detect", "--preset", "g", "-n", "2000")
        assert code == 3

    def test_flag_overrides_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("BINWORDS_BUDGET_MS", "0")
        code, out, _ = run(
            capsys, "detect", "--word", "010", "--budget-ms", "10000"
        )
        assert code == 0

    def test_bad_env_budget_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("BINWORDS_BUDGET_MS", "soon")
        code, _, err = run(capsys, "detect", "--word", "010")
        assert code == 2
