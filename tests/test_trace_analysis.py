"""Unit tests for critical-path attribution (repro.trace.analysis)."""

from typing import Dict, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.registry import REGISTRY, machine_overrides
from repro.sim import RandomStreams
from repro.sim.monitor import SampleStat
from repro.trace import (
    PRIORITY,
    Tracer,
    aggregate_breakdown,
    completion_percentiles,
    critical_resource,
    diff_breakdowns,
    phase_breakdown,
    transaction_windows,
)
from repro.trace.names import OTHER_PHASE, TXN
from repro.trace.recorder import Span


def span(name, start, end, tid=1, **args):
    s = Span(sid=0, name=name, start=start, seq=0, tid=tid, args=args or None)
    s.end = end
    return s


class TestPhaseBreakdown:
    def test_partitions_window_exactly(self):
        spans = [
            span("qp.exec", 0.0, 4.0),
            span("io.data.read", 3.0, 8.0),
            span("lock.wait", 8.0, 9.0),
        ]
        out = phase_breakdown(spans, (0.0, 10.0))
        assert out == {
            "qp.exec": 4.0,  # wins its whole extent (highest priority)
            "io.data.read": 4.0,  # only the part qp.exec does not cover
            "lock.wait": 1.0,
            OTHER_PHASE: 1.0,  # [9, 10): nothing active
        }
        assert sum(out.values()) == pytest.approx(10.0)

    def test_higher_priority_wins_overlap(self):
        spans = [span("lock.wait", 0.0, 10.0), span("qp.exec", 2.0, 6.0)]
        out = phase_breakdown(spans, (0.0, 10.0))
        assert out == {"qp.exec": 4.0, "lock.wait": 6.0}

    def test_spans_clipped_to_window(self):
        spans = [span("qp.exec", -5.0, 3.0), span("writeback", 8.0, 20.0)]
        out = phase_breakdown(spans, (0.0, 10.0))
        assert out == {"qp.exec": 3.0, OTHER_PHASE: 5.0, "writeback": 2.0}

    def test_unprioritised_spans_ignored(self):
        spans = [span("txn", 0.0, 10.0)]  # root container: never claims time
        assert phase_breakdown(spans, (0.0, 10.0)) == {OTHER_PHASE: 10.0}

    def test_empty_window(self):
        assert phase_breakdown([], (5.0, 5.0)) == {}


class Clock:
    def __init__(self):
        self.now = 0.0


def traced_pair():
    """Two committed transactions with known windows and phases."""
    tracer = Tracer(env=Clock())
    for tid, (w0, w1), exec_ms in ((1, (0.0, 10.0), 6.0), (2, (0.0, 20.0), 4.0)):
        tracer.env.now = w0
        root = tracer.begin("txn", tid=tid)
        work = tracer.begin("qp.exec", parent=root)
        tracer.env.now = w0 + exec_ms
        tracer.end(work)
        tracer.env.now = w1
        tracer.end(root, status="committed", window_start=w0, window_end=w1)
    return tracer


class TestAggregate:
    def test_windows_from_committed_txn_spans(self):
        assert transaction_windows(traced_pair()) == {1: (0.0, 10.0), 2: (0.0, 20.0)}

    def test_aborted_attempts_carry_no_window(self):
        tracer = Tracer(env=Clock())
        root = tracer.begin("txn", tid=1)
        tracer.end(root, status="aborted")
        assert transaction_windows(tracer) == {}

    def test_mean_breakdown_sums_to_mean_completion(self):
        out = aggregate_breakdown(traced_pair())
        assert out == {"qp.exec": 5.0, OTHER_PHASE: 10.0}
        assert sum(out.values()) == pytest.approx(15.0)  # mean of 10 and 20

    def test_critical_resource_excludes_other(self):
        assert critical_resource({"qp.exec": 5.0, OTHER_PHASE: 10.0}) == "qp.exec"
        assert critical_resource({OTHER_PHASE: 10.0}) is None


class TestDiff:
    def test_deltas_sum_to_the_gap(self):
        a = {"qp.exec": 5.0, "lock.wait": 2.0}
        b = {"qp.exec": 5.0, "wal.wait": 6.0}
        rows = diff_breakdowns(a, b)
        assert sum(delta for _, _, _, delta in rows) == pytest.approx(
            sum(b.values()) - sum(a.values())
        )

    def test_sorted_by_descending_magnitude(self):
        rows = diff_breakdowns({"a": 0.0, "b": 9.0}, {"a": 5.0, "b": 8.0})
        assert [r[0] for r in rows] == ["a", "b"]


class TestPercentiles:
    def test_matches_sample_stat_definition(self):
        tracer = traced_pair()
        stat = SampleStat("completion", keep=True)
        for _, (w0, w1) in sorted(transaction_windows(tracer).items()):
            stat.add(w1 - w0)
        out = completion_percentiles(tracer)
        assert set(out) == {"p50", "p95", "p99"}
        for q in (50.0, 95.0, 99.0):
            assert out[f"p{q:g}"] == pytest.approx(stat.percentile(q))

    def test_empty_trace_yields_zeros(self):
        assert completion_percentiles(Tracer(env=Clock())) == {
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }


# -- the sweep against the rule it implements -----------------------------------
def reference_breakdown(spans, window):
    """The attribution rule stated directly: cut the window at every
    clipped span boundary, then charge each segment to the first active
    span of highest priority.  Quadratic per transaction; the oracle the
    event sweep in :func:`phase_breakdown` must match bit for bit."""
    start, end = window
    if end <= start:
        return {}
    active = [
        s
        for s in spans
        if s.closed and s.name in PRIORITY and s.start < end and s.end > start
    ]
    bounds = {start, end}
    for s in active:
        bounds.add(max(start, s.start))
        bounds.add(min(end, s.end))
    cuts = sorted(bounds)
    out: Dict[str, float] = {}
    for a, b in zip(cuts, cuts[1:]):
        best: Optional[Span] = None
        for s in active:
            if s.start <= a and s.end >= b:
                if best is None or PRIORITY[s.name] > PRIORITY[best.name]:
                    best = s
        name = best.name if best is not None else OTHER_PHASE
        out[name] = out.get(name, 0.0) + (b - a)
    return out


def reference_aggregate(tracer):
    """:func:`aggregate_breakdown` by the reference rule and ``spans_of``."""
    windows = transaction_windows(tracer)
    if not windows:
        return {}
    totals: Dict[str, float] = {}
    for tid in sorted(windows):
        for name, ms in reference_breakdown(tracer.spans_of(tid), windows[tid]).items():
            totals[name] = totals.get(name, 0.0) + ms
    return {name: ms / len(windows) for name, ms in totals.items()}


#: Every prioritised phase, plus ``txn``, which the priority table leaves
#: out (it never claims time).
_NAMES = sorted(PRIORITY) + [TXN]

#: Integer-valued times repeat cut points; tenths (inexact in binary)
#: let a change in how segments are split show in the last bit of a
#: sum; arbitrary floats cover the rest.
_TIMES = st.one_of(
    st.integers(min_value=-3, max_value=12).map(float),
    st.integers(min_value=-30, max_value=120).map(lambda k: k / 10),
    st.floats(min_value=-3.0, max_value=12.0, allow_nan=False),
)


@st.composite
def windows_and_spans(draw):
    """A window (possibly empty or inverted) and spans of every shape:
    clipped at either edge, zero-length inside or on an edge, open, and
    ill-formed (end before start) — the sweep must agree with the rule
    on any :class:`Span`, not only on the ones the machine records."""
    window = (draw(_TIMES), draw(_TIMES))
    if draw(st.booleans()):
        window = tuple(sorted(window))
    points = st.one_of(_TIMES, st.sampled_from(window))
    spans = []
    for i in range(draw(st.integers(min_value=0, max_value=12))):
        shape = draw(st.sampled_from(("interval", "zero", "open", "reversed")))
        start, end = sorted((draw(points), draw(points)))
        if shape == "zero":
            end = start
        elif shape == "open":
            end = None
        elif shape == "reversed":
            start, end = end, start
        s = Span(sid=i, name=draw(st.sampled_from(_NAMES)), start=start, seq=i, tid=1)
        s.end = end
        spans.append(s)
    return window, spans


class TestSweepMatchesRule:
    @settings(max_examples=600, deadline=None)
    @given(windows_and_spans())
    # A zero-length span inside the window still splits its segment, and
    # 0.2 + 0.7 is not 0.9 in binary floating point.
    @example(((0.0, 0.9), [span("qp.exec", 0.2, 0.2)]))
    # A span starting exactly at the window's end, or ending exactly at
    # its start, lies outside it, even when (ill-formed) its other end
    # falls inside.
    @example(((0.0, 0.9), [span("qp.exec", 0.9, 0.2)]))
    @example(((0.0, 0.9), [span("qp.exec", 0.2, 0.0)]))
    # Abutting and nested spans of one name: the count must not drop to
    # zero where one closes as the next opens.
    @example(
        (
            (0.0, 1.0),
            [
                span("writeback", 0.1, 0.4),
                span("writeback", 0.4, 0.9),
                span("writeback", 0.2, 0.3),
                span("lock.wait", 0.0, 1.0),
            ],
        )
    )
    def test_same_floats_in_same_order(self, case):
        window, spans = case
        assert list(phase_breakdown(spans, window).items()) == list(
            reference_breakdown(spans, window).items()
        )

    @pytest.mark.parametrize("window", [(5.0, 5.0), (6.0, 2.0)])
    def test_empty_and_inverted_windows(self, window):
        spans = [span("qp.exec", 0.0, 10.0)]
        assert phase_breakdown(spans, window) == reference_breakdown(spans, window) == {}

    def test_priorities_are_distinct(self):
        """The sweep charges a segment to the live *name* of highest
        priority; that is the rule's first-highest *span* only while no
        two phases share a priority."""
        assert len(set(PRIORITY.values())) == len(PRIORITY)


def _traced_cell(name):
    config = MachineConfig(seed=1985, mpl=3, **machine_overrides(name))
    transactions = generate_transactions(
        WorkloadConfig(n_transactions=8, max_pages=40, write_fraction=0.5),
        config.db_pages,
        RandomStreams(1985).stream("workload"),
    )
    machine = DatabaseMachine(config, REGISTRY[name].sim(), tracer=Tracer())
    machine.run(transactions)
    return machine.tracer


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_aggregate_matches_rule_on_real_runs(name):
    tracer = _traced_cell(name)
    out = aggregate_breakdown(tracer)
    assert out, "no committed transaction to attribute"
    assert list(out.items()) == list(reference_aggregate(tracer).items())
