"""Unit tests for the statistics collectors and the ordering monitor."""

import pytest

from repro.sim import CounterStat, SampleStat, TimeWeightedStat, UtilizationTracker
from repro.sim.monitor import RULES, OrderingMonitor, OrderingViolation


class TestCounterStat:
    def test_increment(self):
        counter = CounterStat("c")
        counter.increment()
        counter.increment(4)
        assert counter.count == 5


class TestSampleStat:
    def test_mean_and_extremes(self):
        stat = SampleStat()
        for value in (2.0, 4.0, 6.0):
            stat.add(value)
        assert stat.mean == pytest.approx(4.0)
        assert stat.min == 2.0
        assert stat.max == 6.0
        assert stat.n == 3
        assert stat.total == pytest.approx(12.0)

    def test_variance_matches_textbook(self):
        stat = SampleStat()
        for value in (1.0, 2.0, 3.0, 4.0):
            stat.add(value)
        assert stat.variance == pytest.approx(5.0 / 3.0)
        assert stat.stdev == pytest.approx((5.0 / 3.0) ** 0.5)

    def test_empty_stat_is_zero(self):
        stat = SampleStat()
        assert stat.mean == 0.0
        assert stat.variance == 0.0
        assert stat.min == 0.0

    def test_percentile_requires_keep(self):
        stat = SampleStat()
        stat.add(1.0)
        with pytest.raises(ValueError):
            stat.percentile(50)

    def test_percentiles(self):
        stat = SampleStat(keep=True)
        for value in range(1, 101):
            stat.add(float(value))
        assert stat.percentile(50) == pytest.approx(50.5)
        assert stat.percentile(0) == 1.0
        assert stat.percentile(100) == 100.0


class TestTimeWeightedStat:
    def test_constant_level(self):
        stat = TimeWeightedStat(0, 3)
        assert stat.mean(10) == pytest.approx(3.0)

    def test_step_change(self):
        stat = TimeWeightedStat(0, 0)
        stat.update(5, 10)
        assert stat.mean(10) == pytest.approx(5.0)

    def test_add_delta(self):
        stat = TimeWeightedStat(0, 1)
        stat.add(2, +3)  # level 4 from t=2
        stat.add(4, -4)  # level 0 from t=4
        # area: 1*2 + 4*2 + 0*2 = 10 over 6
        assert stat.mean(6) == pytest.approx(10 / 6)

    def test_max_tracked(self):
        stat = TimeWeightedStat(0, 0)
        stat.update(1, 7)
        stat.update(2, 3)
        assert stat.max == 7

    def test_time_cannot_go_backwards(self):
        stat = TimeWeightedStat(0, 0)
        stat.update(5, 1)
        with pytest.raises(ValueError):
            stat.update(4, 2)

    def test_mean_before_last_update_rejected(self):
        stat = TimeWeightedStat(0, 0)
        stat.update(5, 1)
        with pytest.raises(ValueError):
            stat.mean(3)


class TestUtilizationTracker:
    def test_single_busy_interval(self):
        tracker = UtilizationTracker(0)
        tracker.start(2)
        tracker.stop(7)
        assert tracker.utilization(10) == pytest.approx(0.5)

    def test_nested_busy_counts_capacity(self):
        tracker = UtilizationTracker(0)
        tracker.start(0)
        tracker.start(0)
        tracker.stop(5)
        tracker.stop(10)
        # busy-time = 2*5 + 1*5 = 15 over capacity 2 * 10
        assert tracker.utilization(10, capacity=2) == pytest.approx(0.75)

    def test_stop_when_idle_raises(self):
        with pytest.raises(ValueError):
            UtilizationTracker(0).stop(1)

    def test_busy_time_extends_to_query_time(self):
        tracker = UtilizationTracker(0)
        tracker.start(0)
        assert tracker.busy_time(4) == pytest.approx(4.0)

    def test_zero_span(self):
        tracker = UtilizationTracker(5)
        assert tracker.utilization(5) == 0.0


@pytest.mark.parametrize("rule", sorted(RULES))
class TestOrderingMonitor:
    """The protocol, once per rule: ``wal`` (write-back after the log
    force) and ``install`` (page-table flip after the version lands)."""

    def test_check_without_protection_is_clean(self, rule):
        monitor = OrderingMonitor()
        monitor.check(rule, 7)
        assert monitor.checks[rule] == 1
        assert monitor.violations[rule] == 0

    def test_check_after_durable_is_clean(self, rule):
        monitor = OrderingMonitor()
        monitor.protect(rule, 7, "token")
        monitor.durable(rule, "token")
        monitor.check(rule, 7)
        assert monitor.violations[rule] == 0
        assert monitor.pending_pages(rule) == 0

    def test_check_of_volatile_datum_raises(self, rule):
        monitor = OrderingMonitor()
        monitor.protect(rule, 7, "token")
        with pytest.raises(OrderingViolation, match=f"^{rule} rule: page 7"):
            monitor.check(rule, 7)
        assert monitor.violations[rule] == 1

    def test_unrelated_page_unaffected(self, rule):
        monitor = OrderingMonitor()
        monitor.protect(rule, 1, "token")
        monitor.check(rule, 2)
        assert monitor.violations[rule] == 0

    def test_token_shared_by_pages_retires_everywhere(self, rule):
        monitor = OrderingMonitor()
        monitor.protect(rule, 1, "shared")
        monitor.protect(rule, 2, "shared")
        assert monitor.pending_pages(rule) == 2
        monitor.durable(rule, "shared")
        assert monitor.pending_pages(rule) == 0
        monitor.check(rule, 1)
        monitor.check(rule, 2)
        assert monitor.violations[rule] == 0

    def test_reset_drops_pending_tokens(self, rule):
        monitor = OrderingMonitor()
        monitor.protect(rule, 3, "gone-at-crash")
        monitor.reset()
        monitor.check(rule, 3)
        assert monitor.violations[rule] == 0

    def test_unknown_durable_is_harmless(self, rule):
        monitor = OrderingMonitor()
        monitor.durable(rule, "never-registered")
        assert monitor.durables[rule] == 1

    def test_rules_keep_separate_tokens(self, rule):
        (other,) = set(RULES) - {rule}
        monitor = OrderingMonitor()
        monitor.protect(other, 7, "token")
        monitor.check(rule, 7)
        monitor.durable(rule, "token")
        assert monitor.violations[rule] == 0
        assert monitor.pending_pages(other) == 1

    def test_repr_mentions_state(self, rule):
        assert f"'{rule}': 0" in repr(OrderingMonitor())
