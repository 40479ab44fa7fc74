"""Tests for the survivetest harness (degraded-mode survival sweep)."""

import json

import pytest

from repro.cli import main
from repro.resilience import (
    SCENARIO_KINDS,
    SurviveReport,
    run_media_scenario,
    run_survivetest,
)


@pytest.fixture(scope="module")
def shadow_report():
    """One full sweep, shared across assertions (the expensive bit)."""
    return run_survivetest("shadow", seed=1985, n_transactions=4)


class TestSurviveReport:
    def test_sweep_passes(self, shadow_report):
        assert shadow_report.ok
        for scenario in shadow_report.scenarios:
            assert scenario.violations == []

    def test_every_failure_kind_injected(self, shadow_report):
        kinds = {s.scenario for s in shadow_report.scenarios}
        # lp-fail only applies to the wal architecture.
        assert kinds == set(SCENARIO_KINDS) - {"lp-fail"}

    def test_availability_figures_in_range(self, shadow_report):
        availability = shadow_report.availability
        assert availability  # at least the qp scenario reports one
        for value in availability.values():
            assert 0.0 < value <= 1.0 + 1e-9

    def test_detection_within_bound(self, shadow_report):
        for scenario in shadow_report.scenarios:
            details = scenario.details
            if "detection_latency_ms" in details:
                assert details["detection_latency_ms"] <= details["detection_bound_ms"]

    def test_json_round_trips(self, shadow_report):
        data = json.loads(shadow_report.to_json())
        assert data["architecture"] == "shadow"
        assert data["ok"] is True
        assert len(data["scenarios"]) == len(shadow_report.scenarios)

    def test_sweep_is_deterministic(self, shadow_report):
        again = run_survivetest("shadow", seed=1985, n_transactions=4)
        assert again.to_json() == shadow_report.to_json()

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            run_survivetest("nonesuch")


class TestWalSweep:
    def test_wal_covers_lp_failover(self):
        report = run_survivetest("wal", seed=1985, n_transactions=4)
        assert report.ok
        kinds = {s.scenario for s in report.scenarios}
        assert "lp-fail" in kinds
        lp = next(s for s in report.scenarios if s.scenario == "lp-fail")
        assert lp.details["fragments_reshipped"] >= 0


class TestMediaScenario:
    @pytest.mark.parametrize("arch", ["wal", "shadow"])
    def test_media_restore_mid_workload(self, arch):
        outcome = run_media_scenario(arch, seed=7)
        assert outcome.ok, outcome.violations

    def test_crash_during_restore_converges(self):
        outcome = run_media_scenario("versions", seed=7, crash_during_restore=True)
        assert outcome.ok, outcome.violations


class TestSurvivetestCommand:
    def test_single_arch_and_json_report(self, capsys, tmp_path):
        path = tmp_path / "availability.json"
        assert main(["survivetest", "--arch", "overwrite", "-n", "4",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "overwrite" in out and "ok" in out
        data = json.loads(path.read_text())
        assert data["overwrite"]["ok"] is True


def test_unknown_architecture_rejected():
    with pytest.raises(ValueError, match="unknown architecture"):
        run_survivetest("no-such-arch")
