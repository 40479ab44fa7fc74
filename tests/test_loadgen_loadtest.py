"""Tests for the offered-load sweep harness (repro.loadgen.loadtest)."""

import json

import pytest

from repro.cli import main
from repro.loadgen.arrivals import ArrivalConfig, ArrivalSchedule
from repro.loadgen.loadtest import (
    Calibration,
    LoadCell,
    LoadTestReport,
    calibrate,
    run_loadtest,
    sweep_architectures,
)
from repro.loadgen.runner import OpenRunResult
from repro.metrics.collectors import RunResult


def fake_report(goodputs):
    """A report with synthetic goodput cells (knee logic unit tests)."""
    report = LoadTestReport(
        architecture="wal",
        state="healthy",
        seed=1,
        arrival_process="poisson",
        policy="drop",
        slo_ms=100.0,
        calibration=Calibration("wal", 8, 1000.0, 8.0, 100.0),
    )
    for i, goodput in enumerate(goodputs):
        schedule = ArrivalSchedule(
            config=ArrivalConfig(), times_ms=(1.0, 2.0)
        )
        result = RunResult(
            architecture="wal",
            makespan_ms=1000.0,
            pages_processed=1,
            mean_completion_ms=1.0,
        )
        run = OpenRunResult(
            architecture="wal",
            state="healthy",
            schedule=schedule,
            result=result,
        )
        run.goodput_tps = goodput
        report.cells.append(
            LoadCell(multiplier=float(i + 1), offered_tps=goodput, run=run)
        )
    return report


class TestKneeLogic:
    def test_knee_is_first_cell_past_peak_below_threshold(self):
        report = fake_report([1.0, 2.0, 1.9, 1.5, 0.5])
        knee = report.knee(fraction=0.8)
        assert knee is not None
        # 1.9 > 0.8*2.0 = 1.6 so not the knee; 1.5 <= 1.6 is.
        assert knee.multiplier == 4.0

    def test_monotone_rise_has_no_knee(self):
        assert fake_report([0.5, 1.0, 1.5, 2.0]).knee() is None

    def test_dip_before_peak_is_not_a_knee(self):
        report = fake_report([0.1, 2.0, 1.9])
        assert report.knee(fraction=0.8) is None

    def test_empty_report_has_no_knee_or_peak(self):
        report = fake_report([])
        assert report.peak is None
        assert report.knee() is None

    def test_json_round_trip(self):
        report = fake_report([1.0, 2.0, 0.5])
        payload = json.loads(report.to_json())
        assert payload["architecture"] == "wal"
        assert payload["knee_multiplier"] == 3.0
        assert payload["peak_multiplier"] == 2.0
        assert len(payload["cells"]) == 3
        assert payload["ok"] is True


@pytest.fixture(scope="module")
def wal_report():
    """One real sweep, shared across assertions (the expensive bit)."""
    return run_loadtest("wal", seed=1985, n_per_cell=16)


class TestRealSweep:
    def test_oracles_hold_in_every_cell(self, wal_report):
        assert wal_report.ok, wal_report.violations
        for cell in wal_report.cells:
            run = cell.run
            assert run.admitted + run.rejected + run.shed == run.offered
            assert run.committed == run.admitted

    def test_collapse_knee_found(self, wal_report):
        knee = wal_report.knee()
        assert knee is not None
        assert knee.run.goodput_tps <= 0.8 * wal_report.peak.run.goodput_tps

    def test_calibration_positive(self, wal_report):
        assert wal_report.calibration.capacity_tps > 0
        assert wal_report.slo_ms > 0

    def test_summary_renders(self, wal_report):
        text = wal_report.summary()
        assert "knee at x" in text
        assert "capacity" in text

    def test_degraded_state_sweep_also_finds_knee(self):
        report = run_loadtest(
            "wal", seed=1985, n_per_cell=16, state="mirrored-degraded"
        )
        assert report.ok, report.violations
        assert report.knee() is not None

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            run_loadtest("wal", state="on-fire")


class TestSweepArchitectures:
    def test_dead_lp_skipped_for_non_wal(self):
        reports = sweep_architectures(
            ["shadow"], states=("healthy", "dead-lp"), n_per_cell=8,
            multipliers=(0.5, 3.0), extend=False,
        )
        assert [r.state for r in reports] == ["healthy"]

    def test_dead_lp_runs_for_every_lp_failover_arch(self):
        # The registry's lp_failover rule, not a hard-coded "wal": the
        # command-logging variant also runs three log processors.
        reports = sweep_architectures(
            ["command"], states=("healthy", "dead-lp"), n_per_cell=8,
            multipliers=(0.5, 3.0), extend=False,
        )
        assert [r.state for r in reports] == ["healthy", "dead-lp"]


class TestCalibrate:
    def test_capacity_from_closed_makespan(self):
        cal = calibrate("shadow", seed=1985, n_transactions=8)
        assert cal.capacity_tps == pytest.approx(
            1000.0 * 8 / cal.makespan_ms
        )


class TestCli:
    def test_loadtest_cli_single_arch(self, capsys, tmp_path):
        out = tmp_path / "loadtest.json"
        code = main(
            [
                "loadtest",
                "--arch",
                "shadow",
                "-n",
                "12",
                "--states",
                "healthy",
                "--json",
                str(out),
            ]
        )
        text = capsys.readouterr().out
        assert code == 0
        assert "knee at x" in text
        payload = json.loads(out.read_text())
        assert payload[0]["architecture"] == "shadow"
        assert payload[0]["knee_multiplier"] is not None

    def test_loadtest_cli_rejects_bad_states(self, capsys):
        assert main(["loadtest", "--states", "zombie"]) == 2

    def test_loadtest_cli_rejects_bad_loads(self, capsys):
        assert main(["loadtest", "--loads", "0,-1"]) == 2
