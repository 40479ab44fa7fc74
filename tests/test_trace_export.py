"""Unit tests for the trace exporters (repro.trace.export)."""

import json
import math
from typing import Any, Dict, List, Optional

import pytest

from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.core import LoggingConfig, ParallelLoggingArchitecture
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.registry import REGISTRY, machine_overrides
from repro.sim import RandomStreams
from repro.trace import (
    OTHER_PHASE,
    PHASE_CHARS,
    PRIORITY,
    Span,
    Tracer,
    render_flame,
    render_timeline,
    to_chrome_trace,
    validate_chrome_trace,
    write_json,
)


class Clock:
    def __init__(self):
        self.now = 0.0


def small_tracer():
    tracer = Tracer(env=Clock())
    root = tracer.begin("txn", tid=1)
    read = tracer.begin("io.data.read", parent=root, page=7)
    tracer.env.now = 3.0
    tracer.end(read)
    disk = tracer.begin("disk.service", track="data-disk-0")
    tracer.env.now = 5.0
    tracer.end(disk)
    tracer.instant("page.durable", tid=1, page=7)
    tracer.end(root, status="committed", window_start=0.0, window_end=5.0)
    return tracer


class TestChromeTrace:
    def test_schema_and_microsecond_timestamps(self):
        events = to_chrome_trace(small_tracer())
        assert validate_chrome_trace(events) == 4  # 3 spans + 1 instant
        read = next(e for e in events if e["name"] == "io.data.read")
        assert read["ph"] == "X"
        assert read["ts"] == 0.0 and read["dur"] == 3000.0  # ms -> us
        assert read["args"] == {"page": 7}

    def test_device_rows_get_synthetic_tids(self):
        events = to_chrome_trace(small_tracer())
        disk = next(e for e in events if e["name"] == "disk.service")
        assert disk["tid"] >= 100_000
        names = {
            e["tid"]: e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert names[disk["tid"]] == "data-disk-0"
        assert names[1] == "txn 1"

    def test_open_spans_skipped(self):
        tracer = Tracer(env=Clock())
        tracer.begin("txn", tid=1)  # never ended
        closed = tracer.begin("commit", tid=1)
        tracer.end(closed)
        names = [e["name"] for e in to_chrome_trace(tracer) if e["ph"] == "X"]
        assert names == ["commit"]

    def test_events_ordered_by_time_then_seq(self):
        events = [e for e in to_chrome_trace(small_tracer()) if e["ph"] != "M"]
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)


class TestValidate:
    def base(self):
        return to_chrome_trace(small_tracer())

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_chrome_trace([])

    def test_rejects_missing_key(self):
        events = self.base()
        del events[-1]["ts"]
        with pytest.raises(ValueError, match="bad ts"):
            validate_chrome_trace(events)

    def test_rejects_uncatalogued_name(self):
        events = self.base()
        events[-1]["name"] = "made.up"
        with pytest.raises(ValueError, match="not in catalogue"):
            validate_chrome_trace(events)

    def test_rejects_time_travel(self):
        events = self.base()
        events[-1]["ts"] = -1.0
        with pytest.raises(ValueError, match="bad ts"):
            validate_chrome_trace(events)

    def first_span(self, events):
        return next(e for e in events if e["ph"] == "X")

    def test_rejects_nan_ts(self):
        events = self.base()
        self.first_span(events)["ts"] = math.nan
        with pytest.raises(ValueError, match="bad ts"):
            validate_chrome_trace(events)

    def test_rejects_infinite_ts(self):
        events = self.base()
        events[-1]["ts"] = math.inf
        with pytest.raises(ValueError, match="bad ts"):
            validate_chrome_trace(events)

    def test_rejects_nan_dur(self):
        events = self.base()
        self.first_span(events)["dur"] = math.nan
        with pytest.raises(ValueError, match="bad dur"):
            validate_chrome_trace(events)

    def test_rejects_bool_ts(self):
        events = self.base()
        self.first_span(events)["ts"] = True
        with pytest.raises(ValueError, match="bad ts"):
            validate_chrome_trace(events)

    def test_rejects_dur_on_instant(self):
        events = self.base()
        instant = next(e for e in events if e["ph"] == "i")
        instant["dur"] = 5.0
        with pytest.raises(ValueError, match="dur on non-span"):
            validate_chrome_trace(events)

    def test_nan_cannot_hide_time_travel(self):
        events = self.base()
        marks = [e for e in events if e["ph"] != "M"]
        for event, ts in zip(marks, (5.0, math.nan, 1.0)):
            event["ts"] = ts
        with pytest.raises(ValueError, match="bad ts"):
            validate_chrome_trace(events)

    def test_int_times_still_accepted(self):
        events = self.base()
        for event in events:
            if event["ph"] != "M":
                event["ts"] = 0
        self.first_span(events)["dur"] = 3
        assert validate_chrome_trace(events) == 4


class TestWriteJson:
    def test_stable_round_trip(self, tmp_path):
        events = to_chrome_trace(small_tracer())
        path = tmp_path / "trace.json"
        write_json(events, str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(events, sort_keys=True)
        )
        assert path.read_text().endswith("\n")


class TestTerminalViews:
    def test_timeline_renders_lane_per_transaction(self):
        text = render_timeline(small_tracer())
        assert "phase legend" in text
        assert "T1" in text
        assert "r" in text  # io.data.read strip

    def test_timeline_empty_trace(self):
        assert "no transaction spans" in render_timeline(Tracer(env=Clock()))

    def test_flame_percentages_and_total(self):
        text = render_flame({"qp.exec": 6.0, "lock.wait": 2.0}, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "75.0%" in text and "25.0%" in text
        assert lines[-1].startswith("total") and "8.0 ms" in lines[-1]

    def test_flame_empty(self):
        assert render_flame({}) == "(empty breakdown)"


def traced_run(seed):
    tracer = Tracer()
    config = MachineConfig(mpl=2)
    txns = generate_transactions(
        WorkloadConfig(n_transactions=4, max_pages=30),
        config.db_pages,
        RandomStreams(seed).stream("workload"),
    )
    machine = DatabaseMachine(
        config, ParallelLoggingArchitecture(LoggingConfig()), tracer=tracer
    )
    machine.run(txns)
    return tracer


class TestDeterminism:
    def test_same_seed_traces_are_byte_identical(self, tmp_path):
        paths = []
        for i in (1, 2):
            events = to_chrome_trace(traced_run(seed=11))
            path = tmp_path / f"run{i}.json"
            write_json(events, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = to_chrome_trace(traced_run(seed=11))
        b = to_chrome_trace(traced_run(seed=12))
        assert a != b


# -- the one-pass exporter against the two-pass one ------------------------------
_TRACK_TID_BASE = 100_000


def _reference_row(span: Span, tracks: Dict[str, int]) -> int:
    if span.track is not None:
        if span.track not in tracks:
            tracks[span.track] = _TRACK_TID_BASE + len(tracks)
        return tracks[span.track]
    return span.tid if span.tid is not None else _TRACK_TID_BASE - 1


def reference_chrome_trace(tracer: Tracer, process_name: str = "repro") -> List[Dict[str, Any]]:
    """The exporter as first written — events in one pass, row names in a
    second — which :func:`to_chrome_trace` must reproduce exactly."""
    tracks: Dict[str, int] = {}
    events: List[Any] = []
    for span in tracer.spans:
        if not span.closed:
            continue
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "ts": span.start * 1000.0,
            "dur": span.duration * 1000.0,
            "pid": 1,
            "tid": _reference_row(span, tracks),
        }
        if span.args:
            event["args"] = dict(sorted(span.args.items()))
        events.append((span.start, span.seq, event))
    for mark in tracer.instants:
        event = {
            "name": mark.name,
            "cat": "instant",
            "ph": "i",
            "s": "t",
            "ts": mark.start * 1000.0,
            "pid": 1,
            "tid": _reference_row(mark, tracks),
        }
        if mark.args:
            event["args"] = dict(sorted(mark.args.items()))
        events.append((mark.start, mark.seq, event))
    events.sort(key=lambda item: (item[0], item[1]))
    out: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": process_name}}
    ]
    rows: Dict[int, str] = {}
    for span in tracer.spans:
        if span.closed:
            row = _reference_row(span, tracks)
            if row not in rows:
                rows[row] = span.track if span.track is not None else f"txn {span.tid}"
    for row in sorted(rows):
        out.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": row, "args": {"name": rows[row]}}
        )
    out.extend(event for _, _, event in events)
    return out


def reference_timeline(tracer: Tracer, width: int = 72) -> str:
    """:func:`render_timeline` as first written (``spans_of`` per lane)."""
    windows = {
        tid: (min(s.start for s in spans), max(s.end for s in spans))
        for tid, spans in (
            (tid, tracer.spans_of(tid))
            for tid in sorted({s.tid for s in tracer.spans if s.tid is not None})
        )
        if spans
    }
    if not windows:
        return "(no transaction spans recorded)"
    t_end = max(end for _, end in windows.values())
    if t_end <= 0:
        return "(empty trace)"
    lines = ["phase legend: " + " ".join(
        f"{char}={name}" for name, char in sorted(PHASE_CHARS.items(), key=lambda kv: kv[1])
    )]
    scale = width / t_end
    for tid in sorted(windows):
        spans = [s for s in tracer.spans_of(tid) if s.name in PRIORITY]
        lane = [" "] * width
        for col in range(width):
            a, b = col / scale, (col + 1) / scale
            best: Optional[Span] = None
            for s in spans:
                if s.start < b and s.end > a:
                    if best is None or PRIORITY[s.name] > PRIORITY[best.name]:
                        best = s
            if best is not None:
                lane[col] = PHASE_CHARS[best.name]
            elif windows[tid][0] < b and windows[tid][1] > a:
                lane[col] = PHASE_CHARS[OTHER_PHASE]
        lines.append(f"T{tid:<3d} |{''.join(lane)}|")
    lines.append(f"     0 ms {'-' * max(0, width - 18)} {t_end:.0f} ms")
    return "\n".join(lines)


def _workload(config, n=8, seed=1985):
    return generate_transactions(
        WorkloadConfig(n_transactions=n, max_pages=40, write_fraction=0.5),
        config.db_pages,
        RandomStreams(seed).stream("workload"),
    )


def _registry_cell(name):
    config = MachineConfig(seed=1985, mpl=3, **machine_overrides(name))
    machine = DatabaseMachine(config, REGISTRY[name].sim(), tracer=Tracer())
    machine.run(_workload(config))
    return machine.tracer


def _checkpointed_run():
    """Fuzzy checkpoints record spans with neither a tid nor a track."""
    config = MachineConfig(seed=7, mpl=3)
    arch = ParallelLoggingArchitecture(LoggingConfig(checkpoint_interval_ms=100.0))
    machine = DatabaseMachine(config, arch, tracer=Tracer())
    machine.run(_workload(config, seed=7))
    return machine.tracer


def _crashed_run():
    """An injected crash leaves spans open and records ``machine.crash``."""
    config = MachineConfig(mpl=2)
    plan = FaultPlan.of(
        FaultSpec(FaultKind.CRASH, hook="machine.commit", occurrence=2), seed=config.seed
    )
    injector = FaultInjector(plan)
    machine = DatabaseMachine(
        config, ParallelLoggingArchitecture(LoggingConfig()), tracer=Tracer(), faults=injector
    )
    injector.arm(machine)
    machine.run(_workload(config, n=6, seed=5))
    return machine.tracer


def _handmade():
    """Row-id corner cases: a tid equal to the first track row, and an
    instant on a track no span uses."""
    tracer = Tracer(env=Clock())
    tracer.end(tracer.begin("disk.service", track="d0"))
    tracer.env.now = 1.0
    tracer.end(tracer.begin("qp.exec", tid=_TRACK_TID_BASE, cpu_ms=2.0, page=3))
    tracer.instant("scrub.detect", track="scrubber", sector=4)
    tracer.end(tracer.begin("checkpoint"))
    tracer.begin("txn", tid=5)
    return tracer


_RUNS = {f"registry-{name}": (lambda n=name: _registry_cell(n)) for name in sorted(REGISTRY)}
_RUNS.update(checkpointed=_checkpointed_run, crashed=_crashed_run, handmade=_handmade)


class TestExporterMatchesReference:
    @pytest.mark.parametrize("run", sorted(_RUNS))
    def test_same_events_and_bytes(self, run):
        tracer = _RUNS[run]()
        new = to_chrome_trace(tracer)
        old = reference_chrome_trace(tracer)
        assert new == old
        assert json.dumps(new).encode() == json.dumps(old).encode()
        assert validate_chrome_trace(new) > 0

    def test_machine_runs_cover_every_span_shape(self):
        tracers = [_RUNS[run]() for run in sorted(_RUNS) if run != "handmade"]
        marks = [m for t in tracers for m in t.instants]
        spans = [s for t in tracers for s in t.spans]
        assert any(len(s.args) > 1 for s in spans)
        assert any(len(s.args) == 1 for s in spans + marks)
        assert any(s.track is not None for s in spans)
        assert any(s.closed and s.tid is None and s.track is None for s in spans)
        assert any(not s.closed for s in spans)
        assert any(m.name == "machine.crash" for m in marks)

    @pytest.mark.parametrize("run", ["registry-wal", "crashed", "handmade"])
    def test_timeline_unchanged(self, run):
        tracer = _RUNS[run]()
        assert render_timeline(tracer) == reference_timeline(tracer)


class TestRecorderChecksKept:
    def test_double_end_raises(self):
        tracer = Tracer(env=Clock())
        span = tracer.begin("commit")
        tracer.end(span)
        with pytest.raises(ValueError, match="already ended"):
            tracer.end(span)

    def test_unregistered_names_raise_and_record_nothing(self):
        tracer = Tracer(env=Clock())
        with pytest.raises(ValueError, match="not in the registered catalogue"):
            tracer.begin("made.up")  # reprolint: disable-line=TRACE01
        with pytest.raises(ValueError, match="not in the registered catalogue"):
            tracer.instant("made.up")  # reprolint: disable-line=TRACE01
        assert len(tracer) == 0
        assert tracer.begin("commit").seq == 1
