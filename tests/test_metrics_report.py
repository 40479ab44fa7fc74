"""Unit tests for metrics containers and table rendering."""

import pytest

from repro.metrics import RunResult, format_table


class TestRunResult:
    def make(self, **kwargs):
        defaults = dict(
            architecture="bare",
            makespan_ms=1000.0,
            pages_processed=100,
            mean_completion_ms=50.0,
        )
        defaults.update(kwargs)
        return RunResult(**defaults)

    def test_execution_time_per_page(self):
        assert self.make().execution_time_per_page == pytest.approx(10.0)

    def test_zero_pages_guard(self):
        assert self.make(pages_processed=0).execution_time_per_page == 0.0

    def test_lookup_helpers_default_to_zero(self):
        result = self.make()
        assert result.utilization("nonexistent") == 0.0
        assert result.counter("nonexistent") == 0

    def test_summary_contains_key_fields(self):
        result = self.make(utilizations={"qp": 0.5})
        text = result.summary()
        assert "10.00 ms" in text
        assert "util[qp] : 0.50" in text

    def test_restarts_shown_when_present(self):
        assert "(2 restarts)" in self.make(n_restarts=2, n_transactions=5).summary()

    def test_percentiles_default_empty(self):
        result = self.make()
        assert result.completion_percentiles == {}
        assert "percentiles" not in result.summary()

    def test_percentiles_in_summary(self):
        result = self.make(
            completion_percentiles={"p50": 40.0, "p95": 90.0, "p99": 120.0}
        )
        text = result.summary()
        assert "p50=40.0 ms" in text
        assert "p95=90.0 ms" in text
        assert "p99=120.0 ms" in text


class TestFormatTable:
    def test_alignment_and_headers(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_title_rendered(self):
        text = format_table(["x"], [[1]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_floats_formatted(self):
        text = format_table(["v"], [[3.14159]])
        assert "3.14" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])
