"""Tests for the fidelity scorer, plus calibration regression guards.

The regression guards are the repository's early-warning system: a model
change that silently drifts the calibration away from the paper fails
here before it fails a reviewer.
"""

import hashlib

import pytest

from repro import cli
from repro.cli import main
from repro.experiments import ExperimentSettings, runner
from repro.experiments.fidelity import CellComparison, FidelityReport, fidelity_summary
from repro.experiments.tables import CATALOGUE

QUICK = ExperimentSettings(n_transactions=12)


class TestScoringMechanics:
    def test_relative_error(self):
        cell = CellComparison("t", "c", measured=11.0, paper=10.0)
        assert cell.relative_error == pytest.approx(0.1)

    def test_zero_paper_value(self):
        assert CellComparison("t", "c", 0.0, 0.0).relative_error == 0.0
        assert CellComparison("t", "c", 1.0, 0.0).relative_error == 1.0

    def test_report_aggregates(self):
        report = FidelityReport(
            [
                CellComparison("a", "x", 11.0, 10.0),
                CellComparison("a", "y", 12.0, 10.0),
                CellComparison("b", "z", 10.0, 10.0),
            ]
        )
        assert report.mean_relative_error == pytest.approx(0.1)
        assert report.by_table() == {"a": pytest.approx(0.15), "b": 0.0}
        assert report.worst(1)[0].cell == "y"

    def test_render(self):
        report = FidelityReport([CellComparison("a", "x", 11.0, 10.0)])
        text = report.render()
        assert "1 paper cells" in text
        assert "10.0%" in text

    def test_empty_report(self):
        assert FidelityReport([]).mean_relative_error == 0.0


class TestCalibrationRegression:
    """Quick-run fidelity must stay within honest bounds.  Thresholds are
    loose enough for 12-transaction sampling noise but tight enough to
    catch a recalibration accident (these sat near 6-10 % when written)."""

    def test_logging_tables_track_paper(self):
        report = fidelity_summary(QUICK, tables=("table1",))
        assert report.mean_relative_error < 0.15

    def test_shadow_tables_track_paper(self):
        report = fidelity_summary(QUICK, tables=("table6", "table8"))
        assert report.mean_relative_error < 0.20

    def test_differential_tables_track_paper(self):
        report = fidelity_summary(QUICK, tables=("table9",))
        assert report.mean_relative_error < 0.20

    def test_cell_count_complete(self):
        report = fidelity_summary(QUICK, tables=("table1", "table8"))
        # Table 1 pairs 8 cells (4 configs x with/without); Table 8 six.
        assert len(report.cells) == 14


#: The CLI default seed at four transactions: the pinned run.
FOUR = ExperimentSettings(n_transactions=4)


@pytest.fixture(scope="module")
def four_transaction_report() -> FidelityReport:
    """The 122-cell report at ``FOUR``, computed once for this module."""
    return fidelity_summary(FOUR)


class TestFidelityPin:
    """Every scored cell, in order, with its measured and paper value.

    Labels are left out: they are presentation, the numbers are not."""

    def test_cells_pinned_at_four_transactions(self, four_transaction_report):
        cells = four_transaction_report.cells
        assert len(cells) == 122
        digest = hashlib.sha256(
            repr([(c.table, c.measured, c.paper) for c in cells]).encode()
        ).hexdigest()
        assert digest == (
            "9b1534a09bd229eddda35652a3c2209ca65b4e6caf8d635e9bcd876228455ac7"
        )


class TestCliFidelity:
    def test_fidelity_command(self, capsys, monkeypatch, four_transaction_report):
        calls = []

        def spy(settings):
            calls.append(settings)
            return four_transaction_report

        monkeypatch.setattr(cli, "fidelity_summary", spy)
        assert main(["fidelity", "-n", "4"]) == 0
        assert calls == [FOUR]
        assert capsys.readouterr().out == four_transaction_report.render() + "\n"


def _count_runs(monkeypatch) -> list:
    """Record each ``run_configuration`` call the cell engine makes."""
    runs = []
    real = runner.run_configuration

    def counting(config, factory, settings, **overrides):
        runs.append((config, factory, overrides))
        return real(config, factory, settings, **overrides)

    monkeypatch.setattr(runner, "run_configuration", counting)
    return runs


def test_only_architectures_with_paper_values_run(monkeypatch):
    """Table 12's ``command_logging`` and ``redo_wal`` columns have no
    paper value, so scoring never runs them: 4 rows x 8 architectures."""
    runs = _count_runs(monkeypatch)
    report = fidelity_summary(ExperimentSettings(n_transactions=2), tables=("table12",))
    assert len(runs) == 32
    assert len(report.cells) == 32
    assert not {c.cell.split("/")[1] for c in report.cells} & {"command_logging", "redo_wal"}


def test_each_distinct_cell_runs_once_across_tables(monkeypatch):
    """Tables 1, 4 and 9 all score the bare machine in every configuration;
    the shared batch runs it once per configuration, not three times."""
    runs = _count_runs(monkeypatch)
    chosen = ("table1", "table4", "table9")
    report = fidelity_summary(ExperimentSettings(n_transactions=2), tables=chosen)
    distinct = {
        cell
        for table in (CATALOGUE[key] for key in chosen)
        for cell in table.cells_behind(
            [column for column in table.columns if column[0] in table.scored]
        )
    }
    # bare + logged + 1ptp + 2ptp + basic + optimal, in four configurations.
    assert len(distinct) == 24
    assert len(runs) == len(distinct)
    assert len(report.cells) == 4 * (2 + 3 + 3)
