"""Unit tests for the span recorder (repro.trace.recorder)."""

import pytest

from repro.trace import CATALOGUE, PHASE_CHARS, PRIORITY, Span, Tracer
from repro.trace.names import OTHER_PHASE


class Clock:
    """Stands in for the simulation Environment: just a settable `.now`."""

    def __init__(self):
        self.now = 0.0


def make_tracer():
    clock = Clock()
    return Tracer(env=clock), clock


class TestCatalogue:
    def test_priority_names_are_registered(self):
        assert set(PRIORITY) <= CATALOGUE

    def test_phase_chars_cover_priorities_plus_other(self):
        assert set(PHASE_CHARS) == set(PRIORITY) | {OTHER_PHASE}

    def test_phase_chars_are_unique(self):
        chars = list(PHASE_CHARS.values())
        assert len(chars) == len(set(chars))

    def test_txn_root_never_claims_time(self):
        assert "txn" in CATALOGUE and "txn" not in PRIORITY


class TestTracer:
    def test_begin_end_records_interval(self):
        tracer, clock = make_tracer()
        span = tracer.begin("qp.exec", tid=1, page=7)
        clock.now = 5.0
        tracer.end(span)
        assert span.closed
        assert span.duration == 5.0
        assert span.args == {"page": 7}

    def test_unregistered_name_rejected(self):
        tracer, _ = make_tracer()
        with pytest.raises(ValueError):
            tracer.begin("made.up.name")  # reprolint: disable-line=TRACE01
        with pytest.raises(ValueError):
            tracer.instant("made.up.name")  # reprolint: disable-line=TRACE01

    def test_double_end_rejected(self):
        tracer, _ = make_tracer()
        span = tracer.begin("commit")
        tracer.end(span)
        with pytest.raises(ValueError):
            tracer.end(span)

    def test_tid_inherited_from_parent(self):
        tracer, _ = make_tracer()
        root = tracer.begin("txn", tid=3)
        child = tracer.begin("lock.wait", parent=root)
        assert child.tid == 3
        assert child.parent_sid == root.sid

    def test_explicit_tid_beats_parent(self):
        tracer, _ = make_tracer()
        root = tracer.begin("txn", tid=3)
        child = tracer.begin("writeback", parent=root, tid=9)
        assert child.tid == 9

    def test_seq_is_strictly_monotonic_across_kinds(self):
        tracer, _ = make_tracer()
        seqs = [
            tracer.begin("txn").seq,
            tracer.instant("fault.point", hook="x").seq,
            tracer.begin("commit").seq,
        ]
        assert seqs == sorted(seqs) and len(set(seqs)) == 3

    def test_end_merges_args(self):
        tracer, _ = make_tracer()
        span = tracer.begin("txn", attempt=1)
        tracer.end(span, status="committed")
        assert span.args == {"attempt": 1, "status": "committed"}

    def test_instant_is_zero_duration(self):
        tracer, clock = make_tracer()
        clock.now = 4.0
        mark = tracer.instant("machine.crash", reason="test")
        assert mark.start == mark.end == 4.0
        assert mark.duration == 0.0

    def test_open_span_duration_is_zero(self):
        tracer, clock = make_tracer()
        span = tracer.begin("qp.wait")
        clock.now = 10.0
        assert not span.closed
        assert span.duration == 0.0


class TestQueries:
    def build(self):
        tracer, clock = make_tracer()
        a = tracer.begin("txn", tid=1)
        b = tracer.begin("qp.exec", parent=a)
        clock.now = 2.0
        tracer.end(b)
        tracer.end(a)
        tracer.begin("txn", tid=2)  # never ended: crash victim
        return tracer

    def test_spans_of_returns_closed_spans_for_tid(self):
        tracer = self.build()
        assert [s.name for s in tracer.spans_of(1)] == ["txn", "qp.exec"]
        assert tracer.spans_of(2) == []

    def test_spans_by_tid_groups_spans_of(self):
        tracer = self.build()
        tracer.end(tracer.begin("checkpoint"))
        groups = tracer.spans_by_tid()
        assert set(groups) == {1, None}
        for tid in (1, 2, None):
            assert groups.get(tid, []) == tracer.spans_of(tid)

    def test_named_filters_by_name(self):
        tracer = self.build()
        assert [s.tid for s in tracer.named("qp.exec")] == [1]

    def test_open_spans_survive_a_crash_cut(self):
        tracer = self.build()
        assert [s.tid for s in tracer.open_spans()] == [2]

    def test_len_counts_spans_and_instants(self):
        tracer = self.build()
        tracer.instant("fault.point", hook="h")
        assert len(tracer) == 4
