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


# SMALL-config instances (clean and under the check's own fault) and the
# violations_total under that fault, so a check that skips or repeats part
# of its material fails
SMALL_PINS = {
    "cyclic": (1064, 532),
    "matrix": (303, 272),
    "image-cube-free": (531, 155),
}


class TestIndividualChecks:
    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_passes_clean(self, name):
        rep = run_check(name, SMALL)
        assert rep.name == name
        assert rep.passed
        assert rep.violations_total == 0
        assert not rep.aborted
        assert rep.instances > 0
        if name in SMALL_PINS:
            assert rep.instances == SMALL_PINS[name][0]

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_fault_injection_flips(self, name):
        rep = run_check(name, small(fault=frozenset({name})))
        assert rep.violations_total > 0
        assert not rep.passed
        assert len(rep.violations) <= 100
        assert len(rep.violations) <= rep.violations_total
        if name in SMALL_PINS:
            assert (rep.instances, rep.violations_total) == SMALL_PINS[name]
        if name == "cyclic":
            kinds = {v.split()[0] for v in rep.violations}
            assert kinds == {"1-boundary", "0-boundary"}

    def test_fault_in_one_check_leaves_others_clean(self):
        cfg = small(fault=frozenset({"matrix"}))
        assert run_check("matrix", cfg).violations_total > 0
        assert run_check("identities", cfg).passed
        assert run_check("cyclic", cfg).passed

    def test_desubstitution_reports_case_split(self):
        rep = run_check("desubstitution", SMALL)
        assert rep.notes == (
            "distinct abelian squares: 60; both cases applied: 0;"
            " imbalance clause checked: 0",
        )

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

    @pytest.mark.parametrize("threads", [0, -2, True, 2.5, "2"])
    def test_invalid_threads_rejected(self, threads):
        with pytest.raises(InvalidInputError):
            run_all(SMALL, names=["erasure"], threads=threads)

    def test_valid_threads_run_sequentially(self):
        names = ["identities", "erasure"]
        three = [r.to_dict() for r in run_all(SMALL, names=names, threads=3)]
        assert three == [r.to_dict() for r in run_all(SMALL, names=names)]

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


# every check's params at SMALL, keys in report order: the sizes, the seed
# for sampled checks, then fault
SMALL_PARAMS = {
    "erasure": {"n": 400, "fault": False},
    "mirror": {"scan_len": 300, "max_factor": 8, "margin": 3000, "fault": False},
    "desubstitution": {"scan_len": 400, "max_len": 20, "fault": False},
    "matrix": {"trials": 300, "max_len": 40, "seed": 0, "fault": False},
    "cyclic": {"trials": 300, "max_len": 20, "seed": 0, "fault": False},
    "cube-mod1": {"n_max": 4, "fault": False},
    "cube-mod2": {"n_max": 4, "fault": False},
    "image-cube-free": {
        "trials": 20, "max_len": 14, "exhaustive_len": 8, "seed": 0, "fault": False,
    },
    "identities": {"trials": 300, "max_len": 25, "seed": 0, "fault": False},
    "consistency": {"trials": 300, "max_len": 25, "seed": 0, "fault": False},
}

# (check, CheckConfig field, least accepted value)
LEAST = [
    ("erasure", "erasure_n", 1),
    ("mirror", "mirror_scan_len", 1),
    ("mirror", "mirror_max_factor", 1),
    ("mirror", "mirror_margin", 1),
    ("desubstitution", "desub_scan_len", 2),
    ("desubstitution", "desub_max_len", 2),
    ("matrix", "matrix_trials", 0),
    ("matrix", "matrix_max_len", 0),
    ("cyclic", "cyclic_trials", 0),
    ("cyclic", "cyclic_max_len", 0),
    ("cube-mod1", "cube_n_max", 1),
    ("cube-mod2", "cube_n_max", 0),
    ("image-cube-free", "image_trials", 0),
    ("image-cube-free", "image_max_len", 0),
    ("image-cube-free", "image_exhaustive_len", 0),
    ("identities", "identity_trials", 1),
    ("identities", "identity_max_len", 0),
    ("consistency", "consistency_trials", 1),
    ("consistency", "consistency_max_len", 0),
]


class TestParamsAndSizes:
    def test_params_pinned(self):
        got = {name: run_check(name, SMALL).params for name in CHECK_NAMES}
        assert list(got) == list(SMALL_PARAMS)
        for name, want in SMALL_PARAMS.items():
            assert list(got[name].items()) == list(want.items()), name

    def test_fault_param_follows_config(self):
        rep = run_check("erasure", small(fault=frozenset({"erasure"})))
        assert rep.params == {"n": 400, "fault": True}

    @pytest.mark.parametrize("name,fld,least", LEAST)
    @pytest.mark.parametrize("budget_ms", [None, 0])
    def test_below_least_rejected_before_budget(self, name, fld, least, budget_ms):
        with pytest.raises(InvalidInputError, match=fld):
            run_check(name, small(**{fld: least - 1}, budget_ms=budget_ms))

    @pytest.mark.parametrize("name,fld,least", LEAST + [("matrix", "seed", None)])
    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_non_int_sizes_rejected(self, name, fld, least, bad):
        with pytest.raises(InvalidInputError, match=fld):
            run_check(name, small(**{fld: bad}))

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_least_sizes_are_not_vacuous(self, name):
        rep = run_check(name, small(**{f: v for n, f, v in LEAST if n == name}))
        assert rep.passed
        assert rep.instances > 0

    @pytest.mark.parametrize("budget_ms", [None, 0])
    def test_unknown_fault_rejected_before_budget(self, budget_ms):
        # a misspelt negative control would corrupt nothing and pass clean
        cfg = small(fault=frozenset({"matrx"}), budget_ms=budget_ms)
        with pytest.raises(InvalidInputError, match="matrx"):
            run_check("matrix", cfg)
        with pytest.raises(InvalidInputError, match="matrx"):
            run_all(cfg, names=["erasure"])

    def test_margin_below_scan_len_rejected(self):
        with pytest.raises(InvalidInputError, match="margin"):
            run_check("mirror", small(mirror_scan_len=300, mirror_margin=299))

    def test_any_int_seed_accepted(self):
        rep = run_check("identities", small(seed=-4))
        assert rep.passed and rep.params["seed"] == -4
