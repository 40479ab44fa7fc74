"""Tests for the restart-time estimator."""

import pytest

from repro.analysis import (
    estimate_functional_restart,
    estimate_restart,
    run_with_checkpoints,
)
from repro.core import (
    DifferentialFileArchitecture,
    LoggingConfig,
    OverwritingArchitecture,
    OverwritingMode,
    PageTableShadowArchitecture,
    ParallelLoggingArchitecture,
)
from repro.experiments import CONFIGURATIONS, ExperimentSettings, run_configuration
from repro.faults import ARCHITECTURES
from repro.machine import MachineConfig
from repro.metrics import RunResult


def fake_result(architecture, **extras):
    result = RunResult(
        architecture=architecture,
        makespan_ms=10_000.0,
        pages_processed=1000,
        mean_completion_ms=100.0,
    )
    result.counters.update(extras.pop("counters", {}))
    result.averages.update(extras.pop("averages", {}))
    return result


class TestEstimatorShapes:
    def test_bare_restart_is_free(self):
        estimate = estimate_restart(fake_result("bare"), MachineConfig())
        assert estimate.total_ms == 0.0

    def test_logging_scan_scales_with_log_volume(self):
        small = estimate_restart(
            fake_result("logging[...]", counters={"log_pages_written": 10}),
            MachineConfig(),
        )
        large = estimate_restart(
            fake_result("logging[...]", counters={"log_pages_written": 1000}),
            MachineConfig(),
        )
        assert large.scan_ms > 10 * small.scan_ms

    def test_logging_scan_parallelizes_over_log_disks(self):
        result = fake_result("logging[...]", counters={"log_pages_written": 900})
        one = estimate_restart(result, MachineConfig(), n_log_disks=1)
        three = estimate_restart(result, MachineConfig(), n_log_disks=3)
        assert three.scan_ms < 0.5 * one.scan_ms

    def test_shadow_restart_nearly_free(self):
        estimate = estimate_restart(fake_result("shadow-pt[...]"), MachineConfig())
        assert estimate.total_ms < 50.0
        assert estimate.redo_ms == estimate.undo_ms == 0.0

    def test_version_selection_restart_free(self):
        estimate = estimate_restart(fake_result("version-selection"), MachineConfig())
        assert estimate.total_ms == 0.0

    def test_no_undo_pays_redo_not_undo(self):
        estimate = estimate_restart(
            fake_result("overwriting[no-undo]", counters={"scratch_writes": 100}),
            MachineConfig(),
        )
        assert estimate.redo_ms > 0 and estimate.undo_ms == 0

    def test_no_redo_pays_undo_not_redo(self):
        estimate = estimate_restart(
            fake_result("overwriting[no-redo]", counters={"scratch_writes": 100}),
            MachineConfig(),
        )
        assert estimate.undo_ms > 0 and estimate.redo_ms == 0

    def test_differential_restart_trivial(self):
        estimate = estimate_restart(fake_result("differential[...]"), MachineConfig())
        assert estimate.total_ms < 50.0


class TestAgainstRuns:
    """Estimates from real runs: logging restarts cost more than shadow's,
    and checkpointed-style small logs beat big ones — the paper's trade."""

    SETTINGS = ExperimentSettings(n_transactions=8)

    def run(self, factory):
        return run_configuration(
            CONFIGURATIONS["conventional-random"], factory, self.SETTINGS
        )

    def test_tradeoff_ordering(self):
        config = MachineConfig()
        logging_run = self.run(lambda: ParallelLoggingArchitecture(LoggingConfig()))
        shadow_run = self.run(lambda: PageTableShadowArchitecture())
        overwriting_run = self.run(lambda: OverwritingArchitecture())
        differential_run = self.run(lambda: DifferentialFileArchitecture())

        logging_restart = estimate_restart(logging_run, config)
        shadow_restart = estimate_restart(shadow_run, config)
        overwriting_restart = estimate_restart(overwriting_run, config)
        differential_restart = estimate_restart(differential_run, config)

        # The normal-case winner pays the biggest restart bill...
        assert logging_restart.total_ms > shadow_restart.total_ms
        assert logging_restart.total_ms > differential_restart.total_ms
        # ...and the shadow family restarts essentially for free.
        assert shadow_restart.total_ms < 100.0
        assert overwriting_restart.scan_ms > 0


class TestFunctionalEstimator:
    def test_zero_volumes_cost_nothing(self):
        estimate = estimate_functional_restart("wal", 0, 0)
        assert estimate.total_ms == 0.0

    def test_scales_with_record_volume(self):
        small = estimate_functional_restart("wal", 32, 0)
        large = estimate_functional_restart("wal", 3200, 0)
        assert large.scan_ms > 10 * small.scan_ms

    def test_scan_parallelizes_over_log_disks(self):
        one = estimate_functional_restart("wal", 3200, 0, n_log_disks=1)
        three = estimate_functional_restart("wal", 3200, 0, n_log_disks=3)
        assert three.scan_ms < 0.5 * one.scan_ms

    def test_pages_priced_as_random_io(self):
        estimate = estimate_functional_restart("versions", 0, 10)
        assert estimate.redo_ms > 0 and estimate.scan_ms == 0.0


class TestCheckpointCrossValidation:
    """The analytic envelope vs the measured functional restart, at
    several checkpoint cadences: both models must agree that tighter
    checkpointing buys a shorter (never longer) restart, and the
    measurement must sit under the envelope."""

    #: Widest first; shrinking intervals must not lengthen restarts.
    INTERVALS = [None, 16, 8, 4]
    #: Discretization slack: a single extra recovery-data page read.
    SLACK_MS = 30.0

    @pytest.fixture(scope="class")
    def sweep(self):
        return {
            arch: [
                run_with_checkpoints(arch, 1985, interval, n_transactions=40)
                for interval in self.INTERVALS
            ]
            for arch in sorted(ARCHITECTURES)
        }

    def test_covers_all_architectures(self, sweep):
        assert len(sweep) == 7
        for arch in sorted(sweep):
            assert len(sweep[arch]) == len(self.INTERVALS)

    def test_measured_under_analytic_envelope(self, sweep):
        for arch in sorted(sweep):
            for row in sweep[arch]:
                assert row.measured.total_ms <= row.analytic.total_ms + 1e-9, (
                    f"{arch} at interval {row.checkpoint_every}: measured "
                    f"{row.measured.total_ms} over bound {row.analytic.total_ms}"
                )

    def test_measured_restart_monotone_in_interval(self, sweep):
        for arch in sorted(sweep):
            costs = [row.measured.total_ms for row in sweep[arch]]
            for wider, tighter in zip(costs, costs[1:]):
                assert tighter <= wider + self.SLACK_MS, (
                    f"{arch}: restart grew from {wider} to {tighter} ms "
                    f"as the checkpoint interval shrank"
                )

    def test_analytic_envelope_monotone_in_interval(self, sweep):
        for arch in sorted(sweep):
            costs = [row.analytic.total_ms for row in sweep[arch]]
            for wider, tighter in zip(costs, costs[1:]):
                assert tighter <= wider + 1e-9

    def test_tighter_cadence_takes_more_checkpoints(self, sweep):
        for arch in sorted(sweep):
            taken = [row.checkpoints_taken for row in sweep[arch]]
            assert taken[0] == 0  # the never-checkpoint baseline
            assert all(a <= b for a, b in zip(taken, taken[1:]))
            assert taken[-1] > 0

    def test_checkpointing_charges_the_normal_case(self, sweep):
        # Checkpoint records (and any compaction rewrites) are overhead
        # the running system pays: record volume grows with cadence.
        for arch in sorted(sweep):
            baseline = sweep[arch][0].overhead_records
            tightest = sweep[arch][-1].overhead_records
            assert tightest > baseline
