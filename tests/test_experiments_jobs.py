"""Parallel fan-out (`--jobs`) must be invisible in the output.

Every experiment cell is independently seeded, so fanning cells out over
worker processes may only change wall-clock time — the report text and
the sweep statistics must be byte-identical to the serial path.  Sizes
here are kept tiny: the point is path equivalence, not statistics.
"""

from repro.analysis.checkpoints import checkpoint_interval_sweep
from repro.experiments.report import generate_report
from repro.experiments.runner import ExperimentSettings
from repro.jobs import map_jobs

SMALL = ExperimentSettings(n_transactions=6)


def _square(x):
    return x * x


class TestMapJobs:
    def test_serial_path(self):
        assert map_jobs(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        items = list(range(8))
        assert map_jobs(_square, items, jobs=3) == [x * x for x in items]

    def test_single_item_stays_serial(self):
        assert map_jobs(_square, [5], jobs=8) == [25]

    def test_empty(self):
        assert map_jobs(_square, [], jobs=4) == []


class TestReportJobs:
    def test_report_byte_identical_across_jobs(self):
        serial = generate_report(settings=SMALL, tables=[1, 5], jobs=1)
        parallel = generate_report(settings=SMALL, tables=[1, 5], jobs=2)
        assert parallel == serial


class TestSweepJobs:
    def test_sweep_identical_across_jobs(self):
        kwargs = dict(
            seed=7,
            intervals=[None, 2],
            archs=["wal"],
            n_transactions=5,
            n_pages=24,
        )
        serial = checkpoint_interval_sweep(jobs=1, **kwargs)
        parallel = checkpoint_interval_sweep(jobs=2, **kwargs)
        assert parallel == serial
