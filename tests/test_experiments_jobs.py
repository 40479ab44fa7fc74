"""Parallel fan-out (`--jobs`) must be invisible in the output.

Every experiment cell is independently seeded, so fanning cells out over
worker processes may only change wall-clock time — the table rows must
be identical to the serial path.  Sizes here are kept tiny: the point
is path equivalence, not statistics.
"""

from repro.experiments.runner import ExperimentSettings
from repro.experiments.tables import table1_logging_impact, table5_shadow_utilization
from repro.jobs import map_jobs

SMALL = ExperimentSettings(n_transactions=6)


def _square(x):
    return x * x


def _run_table(item):
    table, settings = item
    return table(settings)


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


class TestTableJobs:
    def test_tables_identical_across_jobs(self):
        # Catalogue entries pickle by reference, so they ship to workers.
        items = [(table1_logging_impact, SMALL), (table5_shadow_utilization, SMALL)]
        serial = map_jobs(_run_table, items, jobs=1)
        parallel = map_jobs(_run_table, items, jobs=2)
        assert parallel == serial
