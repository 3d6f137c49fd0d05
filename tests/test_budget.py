"""The shared run budget of scans, searches and checks, driven by a fake clock.

Budget reads the clock through errors.time.monotonic only, so replacing that
one binding makes every abort point independent of machine speed.
"""

from types import SimpleNamespace

import pytest

import binwords.errors as errors
from binwords import (
    BudgetExceededError,
    CheckConfig,
    InvalidInputError,
    PRESETS,
    find_power,
    fixed_point_prefix,
    is_power_free,
    longest_avoiding,
    run_check,
)
from binwords.errors import Budget

STRIDE = 1024


class FakeClock:
    """Reads 0.0 for the first `live` reads, then a time far past any deadline."""

    def __init__(self, live: int) -> None:
        self.live = live
        self.reads = 0

    def monotonic(self) -> float:
        self.reads += 1
        return 0.0 if self.reads <= self.live else 1e9


@pytest.fixture
def clock(monkeypatch):
    """Install a fake clock: the read that builds a budget passes, the next expires it."""
    fake = FakeClock(live=1)
    monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=fake.monotonic))
    return fake


class TestBudget:
    def test_zero_or_negative_budget_raises_at_construction(self):
        for ms in (0, -5):
            with pytest.raises(BudgetExceededError, match="budget"):
                Budget("scan", ms)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget_ms": True},
            {"budget_ms": 0.5},
            {"budget_ms": "10"},
            {"max_units": True},
            {"max_units": 2.5},
            {"max_units": "5"},
        ],
    )
    def test_non_int_budget_rejected(self, kwargs):
        with pytest.raises(InvalidInputError, match="budget"):
            Budget("scan", **kwargs)

    def test_unit_cap_is_exact(self):
        b = Budget("search", None, 5)
        for _ in range(5):
            b.tick()
        with pytest.raises(BudgetExceededError, match="budget"):
            b.tick()
        assert b.units == 5

    def test_cap_checked_before_counting(self):
        b = Budget("check", None, 10)
        b.tick(7)
        with pytest.raises(BudgetExceededError):
            b.tick(4)
        assert b.units == 7

    @pytest.mark.parametrize("units", [1, 3, 1000, 5000])
    def test_at_most_one_clock_read_per_stride(self, monkeypatch, units):
        fake = FakeClock(live=10**9)
        monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=fake.monotonic))
        b = Budget("scan", 60_000)
        total = 0
        while total < 100_000:
            b.tick(units)
            total += units
        assert b.units == total
        # one read builds the deadline; the rest are spaced >= STRIDE units apart
        assert 1 < fake.reads <= 1 + total // STRIDE

    def test_no_time_budget_never_reads_the_clock(self, monkeypatch):
        fake = FakeClock(live=10**9)
        monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=fake.monotonic))
        b = Budget("search")
        for _ in range(10_000):
            b.tick()
        assert fake.reads == 0


class TestCallers:
    def test_non_int_budgets_rejected_by_callers(self):
        with pytest.raises(InvalidInputError):
            find_power("0120", 2, 2, budget_ms=True)
        for node_budget in (True, 2.5):
            with pytest.raises(InvalidInputError):
                longest_avoiding(3, 2, 2, 50, node_budget=node_budget)
        with pytest.raises(InvalidInputError):
            run_check("identities", CheckConfig(budget_ms="10"))

    def test_negative_node_budget_still_aborts(self):
        assert longest_avoiding(3, 2, 2, 50, node_budget=-1).outcome == "budget_abort"

    @pytest.mark.parametrize("engine", ["vector", "python"])
    def test_scan_aborts(self, clock, engine):
        prefix = fixed_point_prefix(PRESETS["g"].morphism, 0, 2000)
        with pytest.raises(BudgetExceededError, match="budget"):
            find_power(prefix, 2, 2, engine=engine, budget_ms=1000)
        assert clock.reads == 2

    def test_search_time_abort_keeps_verified_witness(self, clock):
        cert = longest_avoiding(3, 2, 2, 1000, budget_ms=1000)
        assert cert.outcome == "budget_abort"
        assert not cert.counts_complete
        assert cert.nodes == STRIDE
        assert cert.max_length == len(cert.witness) > 0
        assert is_power_free(cert.witness, 2, 2)

    def test_check_aborts_mid_run(self, clock):
        rep = run_check("identities", CheckConfig(budget_ms=1000))
        assert rep.aborted
        assert not rep.passed
        assert rep.instances == STRIDE
