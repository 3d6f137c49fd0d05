import dataclasses

import pytest

from binwords import (
    CHECK_NAMES,
    CheckConfig,
    InvalidInputError,
    aggregate,
    aggregate_exit_code,
    run_all,
    run_check,
)

# trimmed battery: large enough to exercise every code path, small enough
# to keep the whole file under a few seconds
SMALL = CheckConfig(
    erasure_n=400,
    mirror_scan_len=300,
    mirror_max_factor=8,
    mirror_margin=3000,
    desub_scan_len=400,
    desub_max_len=20,
    matrix_trials=300,
    matrix_max_len=40,
    cyclic_trials=300,
    cyclic_max_len=20,
    cube_n_max=4,
    image_trials=20,
    image_max_len=14,
    image_exhaustive_len=8,
    identity_trials=300,
    identity_max_len=25,
    consistency_trials=300,
    consistency_max_len=25,
)


def small(**overrides) -> CheckConfig:
    return dataclasses.replace(SMALL, **overrides)


class TestIndividualChecks:
    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_passes_clean(self, name):
        rep = run_check(name, SMALL)
        assert rep.name == name
        assert rep.passed
        assert rep.violations_total == 0
        assert not rep.aborted
        assert rep.instances > 0

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_fault_injection_flips(self, name):
        rep = run_check(name, small(fault=frozenset({name})))
        assert rep.violations_total > 0
        assert not rep.passed
        assert len(rep.violations) <= 100
        assert len(rep.violations) <= rep.violations_total

    def test_fault_in_one_check_leaves_others_clean(self):
        cfg = small(fault=frozenset({"matrix"}))
        assert run_check("matrix", cfg).violations_total > 0
        assert run_check("identities", cfg).passed
        assert run_check("cyclic", cfg).passed

    def test_desubstitution_reports_case_split(self):
        rep = run_check("desubstitution", SMALL)
        assert any("mirror" in n or "case" in n for n in rep.notes) or rep.notes

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInputError):
            run_check("nonsense", SMALL)
        with pytest.raises(InvalidInputError):
            run_all(SMALL, names=["erasure", "nonsense"])


class TestReports:
    def test_report_dict_shape(self):
        d = run_check("erasure", SMALL).to_dict()
        assert list(d) == [
            "schema",
            "name",
            "params",
            "instances",
            "violations",
            "violations_total",
            "notes",
            "aborted",
            "passed",
        ]
        assert d["schema"] == 1
        assert d["name"] == "erasure"
        assert d["passed"] is True

    def test_timing_opt_in(self):
        rep = run_check("erasure", SMALL)
        assert "elapsed_s" not in rep.to_dict()
        assert rep.to_dict(include_timing=True)["elapsed_s"] >= 0.0

    def test_determinism(self):
        a = [r.to_dict() for r in run_all(SMALL)]
        b = [r.to_dict() for r in run_all(SMALL)]
        assert a == b

    def test_seed_changes_sampled_material(self):
        a = run_check("matrix", SMALL)
        b = run_check("matrix", small(seed=99))
        assert a.passed and b.passed
        assert a.instances == b.instances


class TestRunAll:
    def test_full_battery_order(self):
        reports = run_all(SMALL)
        assert [r.name for r in reports] == list(CHECK_NAMES)
        assert all(r.passed for r in reports)

    def test_subset_keeps_given_order(self):
        names = ["cyclic", "erasure"]
        reports = run_all(SMALL, names=names)
        assert [r.name for r in reports] == names

    def test_threads_match_single_threaded(self):
        one = [r.to_dict() for r in run_all(SMALL)]
        two = [r.to_dict() for r in run_all(SMALL, threads=4)]
        assert one == two

    def test_aggregate_clean(self):
        reports = run_all(SMALL, names=["erasure", "matrix"])
        agg = aggregate(reports)
        assert agg["schema"] == 1
        assert agg["passed"] is True
        assert agg["violations_total"] == 0
        assert agg["aborted"] == []
        assert len(agg["checks"]) == 2
        assert aggregate_exit_code(reports) == 0

    def test_aggregate_fault(self):
        reports = run_all(small(fault=frozenset({"cyclic"})), names=["cyclic"])
        agg = aggregate(reports)
        assert agg["passed"] is False
        assert agg["violations_total"] > 0
        assert aggregate_exit_code(reports) == 1

    def test_aggregate_budget_abort(self):
        rep = run_check("erasure", small(budget_ms=0))
        assert rep.aborted
        assert not rep.passed
        assert aggregate_exit_code([rep]) == 3

    def test_violations_beat_aborts_in_exit_code(self):
        bad = run_check("matrix", small(fault=frozenset({"matrix"})))
        stuck = run_check("erasure", small(budget_ms=0))
        assert aggregate_exit_code([bad, stuck]) == 1


class TestCheckSemantics:
    def test_erasure_instances_scale_with_length(self):
        a = run_check("erasure", small(erasure_n=200))
        b = run_check("erasure", small(erasure_n=400))
        assert b.instances > a.instances

    def test_cube_checks_count_triples(self):
        rep1 = run_check("cube-mod1", SMALL)
        rep2 = run_check("cube-mod2", SMALL)
        assert rep1.instances > 0 and rep2.instances > 0

    def test_image_cube_check_covers_exhaustive_range(self):
        rep = run_check("image-cube-free", small(image_trials=0))
        assert rep.passed
        assert rep.instances > 0

    def test_mirror_report_params_round_trip(self):
        rep = run_check("mirror", SMALL)
        assert rep.params["scan_len"] == 300
        assert rep.params["max_factor"] == 8
