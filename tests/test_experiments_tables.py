"""Structural tests for the per-table experiment functions.

Each function must run end-to-end on a tiny load and return rows matching
the paper's table layout.  (The *values* are checked by the shape tests;
here we check plumbing.)
"""

import pickle

from repro.experiments import (
    ExperimentSettings,
    PAPER,
    ablation_interconnect,
    ablation_overwriting_variants,
    ablation_version_selection,
    table1_logging_impact,
    table2_log_utilization,
    table6_pt_buffer,
    table7_sequential_shadow,
    table8_random_overwriting,
    table10_output_fraction,
    table11_differential_size,
)
from repro.experiments.runner import BARE, Arch, Cell, run_cells
from repro.experiments.tables import CATALOGUE, render
from repro.core.logging import LoggingConfig, ParallelLoggingArchitecture

TINY = ExperimentSettings(n_transactions=4)


class TestTableStructures:
    def test_table1_rows_and_columns(self):
        result = table1_logging_impact(TINY)
        assert len(result["rows"]) == 4
        row = result["rows"][0]
        assert {"exec_without_log", "exec_with_log", "completion_with_log"} <= set(row)
        assert result["paper"] is PAPER["table1"]

    def test_table2_has_paper_reference_per_row(self):
        result = table2_log_utilization(TINY)
        for row in result["rows"]:
            assert 0.0 <= row["log_disk_utilization"] <= 1.0
            paper = PAPER["table2"][row["configuration"]]
            assert row["paper"] == paper["log_disk_utilization"]

    def test_table6_buffer_columns(self):
        result = table6_pt_buffer(TINY)
        assert {"bare", "buffer_10", "buffer_25", "buffer_50"} <= set(result["rows"][0])
        assert len(result["rows"]) == 2  # the two random configurations

    def test_table7_columns(self):
        result = table7_sequential_shadow(TINY)
        assert {"bare", "clustered", "scrambled", "overwriting"} <= set(
            result["rows"][0]
        )

    def test_table8_columns(self):
        result = table8_random_overwriting(TINY)
        assert {"bare", "thru_pt", "overwriting"} <= set(result["rows"][0])

    def test_table10_fraction_columns(self):
        result = table10_output_fraction(TINY)
        assert {"output_10pct", "output_20pct", "output_50pct"} <= set(result["rows"][0])

    def test_table11_size_columns(self):
        result = table11_differential_size(TINY)
        assert {"size_10pct", "size_15pct", "size_20pct"} <= set(result["rows"][0])

    def test_render_produces_aligned_text(self):
        result = table2_log_utilization(TINY)
        text = render(result)
        assert result["title"] in text
        assert "configuration" in text


class TestSharedCells:
    def test_arch_is_a_value(self):
        logged = Arch(ParallelLoggingArchitecture, LoggingConfig(), {"b": 1, "a": 2})
        twin = Arch(ParallelLoggingArchitecture, LoggingConfig(), {"a": 2, "b": 1})
        assert logged == twin and hash(logged) == hash(twin)
        assert Cell("parallel-random", logged) == Cell("parallel-random", twin)
        assert Cell("parallel-random") == Cell("parallel-random", Arch())
        assert logged != Arch(ParallelLoggingArchitecture, LoggingConfig())
        assert BARE == Arch(None, None, {}, {})

    def test_catalogue_rows_read_one_shared_store_without_mutating_it(self):
        """Building every table's rows from one store leaves each result
        pickle-identical, and a table's rows equal the table run alone."""
        settings = ExperimentSettings(n_transactions=1)
        tables = list(CATALOGUE.values())
        results = run_cells(
            (cell for table in tables for cell in table.cells_behind()), settings
        )
        before = {cell: pickle.dumps(result) for cell, result in results.items()}
        shared = [table.rows(results) for table in tables]
        assert {cell: pickle.dumps(r) for cell, r in results.items()} == before
        for key in ("table1", "table12"):
            assert shared[list(CATALOGUE).index(key)] == CATALOGUE[key](settings)["rows"]


class TestAblations:
    def test_interconnect_ablation_structure(self):
        result = ablation_interconnect(TINY)
        row = result["rows"][0]
        assert {"link_1.0MBs", "link_0.1MBs", "link_0.01MBs", "through_cache"} <= set(row)

    def test_interconnect_insensitivity(self):
        """Section 4.1.3: bandwidth barely matters, cache routing is free."""
        settings = ExperimentSettings(n_transactions=10)
        result = ablation_interconnect(settings)
        row = next(
            r for r in result["rows"] if r["configuration"] == "conventional-random"
        )
        assert row["link_0.01MBs"] <= 1.10 * row["link_1.0MBs"]
        assert row["through_cache"] <= 1.10 * row["link_1.0MBs"]

    def test_version_selection_ablation_structure(self):
        result = ablation_version_selection(TINY)
        assert {"bare", "thru_pt", "version_selection"} <= set(result["rows"][0])

    def test_overwriting_variants_ablation(self):
        result = ablation_overwriting_variants(TINY)
        row = result["rows"][0]
        assert row["no_undo"] > 0 and row["no_redo"] > 0


class TestPaperNumbers:
    def test_paper_tables_complete(self):
        assert set(PAPER) == {f"table{i}" for i in range(1, 13)}

    def test_table12_has_eight_architectures(self):
        for config, row in PAPER["table12"].items():
            assert len(row) == 8, config

    def test_table3_grid_complete(self):
        # 5 disk counts x 4 policies x (exec, completion), plus the
        # paper's single no-logging figure of each metric.
        table3 = PAPER["table3"]
        assert list(table3) == [1, 2, 3, 4, 5, "w/o logging"]
        for n in (1, 2, 3, 4, 5):
            assert len(table3[n]) == 8, n
        assert table3["w/o logging"] == {"exec_cyclic": 0.9, "compl_cyclic": 430.6}
