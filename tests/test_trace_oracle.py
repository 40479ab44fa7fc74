"""The trace layer against the code it replaced.

The merged Chrome export, the one-pass phase analysis and the lean
recorder must give exactly what the sort-based exporter, the live-count
sweep over ``spans_by_tid`` groups and ``Span.__init__`` gave: the same
``json.dumps`` bytes, the same breakdown dicts (same floats, same key
order) and the same validation outcome.  The replaced functions live on
below, unchanged, as the oracles.
"""

import json
import math
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.loadgen.arrivals import ArrivalConfig, generate_arrivals
from repro.registry import REGISTRY, machine_overrides
from repro.sim import RandomStreams
from repro.trace import (
    CATALOGUE,
    PRIORITY,
    Span,
    Tracer,
    aggregate_breakdown,
    phase_breakdown,
    to_chrome_trace,
    transaction_windows,
    validate_chrome_trace,
)
from repro.trace.names import OTHER_PHASE, TXN

# -- the replaced exporter -------------------------------------------------------
_TRACK_TID_BASE = 100_000
_MS_TO_US = 1000.0


def _row_of(span: Span, tracks: Dict[str, int]) -> int:
    if span.track is not None:
        if span.track not in tracks:
            tracks[span.track] = _TRACK_TID_BASE + len(tracks)
        return tracks[span.track]
    return span.tid if span.tid is not None else _TRACK_TID_BASE - 1


def sorted_chrome_trace(tracer: Tracer, process_name: str = "repro") -> List[Dict[str, Any]]:
    """The exporter that built a ``(start, seq, event)`` tuple per event
    and sorted them."""
    tracks: Dict[str, int] = {}
    rows: Dict[int, str] = {}
    events: List[Any] = []
    for span in tracer.spans:
        end = span.end
        if end is None:
            continue
        start = span.start
        track = span.track
        if track is not None:
            row = tracks.get(track)
            if row is None:
                row = tracks[track] = _TRACK_TID_BASE + len(tracks)
            if row not in rows:
                rows[row] = track
        else:
            tid = span.tid
            row = tid if tid is not None else _TRACK_TID_BASE - 1
            if row not in rows:
                rows[row] = f"txn {tid}"
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "ts": start * _MS_TO_US,
            "dur": (end - start) * _MS_TO_US,
            "pid": 1,
            "tid": row,
        }
        args = span.args
        if args:
            event["args"] = dict(args) if len(args) == 1 else dict(sorted(args.items()))
        events.append((start, span.seq, event))
    for mark in tracer.instants:
        event = {
            "name": mark.name,
            "cat": "instant",
            "ph": "i",
            "s": "t",
            "ts": mark.start * _MS_TO_US,
            "pid": 1,
            "tid": _row_of(mark, tracks),
        }
        args = mark.args
        if args:
            event["args"] = dict(args) if len(args) == 1 else dict(sorted(args.items()))
        events.append((mark.start, mark.seq, event))
    events.sort()
    out: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": process_name}}
    ]
    for row in sorted(rows):
        out.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": row, "args": {"name": rows[row]}}
        )
    out.extend(event for _, _, event in events)
    return out


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def reference_validate(events: List[Dict[str, Any]]) -> int:
    """The validator with one ``in`` test per required key and
    ``dict.get`` per time."""
    if not isinstance(events, list) or not events:
        raise ValueError("trace must be a non-empty JSON array")
    last_ts: Optional[float] = None
    count = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event {i} missing {key!r}")
        ph = event["ph"]
        if ph != "X" and "dur" in event:
            raise ValueError(f"event {i} has a dur on non-span phase {ph!r}")
        if ph == "M":
            continue
        if ph not in ("X", "i"):
            raise ValueError(f"event {i} has unknown phase {ph!r}")
        if event["name"] not in CATALOGUE:
            raise ValueError(f"event {i} name {event['name']!r} not in catalogue")
        ts = event.get("ts")
        if type(ts) is not float and not _is_number(ts) or not 0 <= ts < math.inf:
            raise ValueError(f"event {i} has bad ts {ts!r}")
        if last_ts is not None and ts < last_ts:
            raise ValueError(f"event {i} goes back in time ({ts} < {last_ts})")
        last_ts = ts
        if ph == "X":
            dur = event.get("dur")
            if type(dur) is not float and not _is_number(dur) or not 0 <= dur < math.inf:
                raise ValueError(f"event {i} has bad dur {dur!r}")
        count += 1
    return count


# -- the replaced analysis -------------------------------------------------------
def live_count_breakdown(spans, window: Tuple[float, float]) -> Dict[str, float]:
    """The sweep with per-cut open/close lists and a live count per name."""
    start, end = window
    if end <= start:
        return {}
    bounds = {start, end}
    opens: Dict[float, List[str]] = {}
    closes: Dict[float, List[str]] = {}
    for s in spans:
        name = s.name
        if s.end is None or name not in PRIORITY or not (s.start < end and s.end > start):
            continue
        a = max(start, s.start)
        b = min(end, s.end)
        bounds.add(a)
        bounds.add(b)
        if a < b:
            opens.setdefault(a, []).append(name)
            closes.setdefault(b, []).append(name)
    cuts = sorted(bounds)
    out: Dict[str, float] = {}
    live: Dict[str, int] = {}
    phase = OTHER_PHASE
    a = cuts[0]
    for b in cuts[1:]:
        leaving = closes.get(a)
        joining = opens.get(a)
        if leaving is not None or joining is not None:
            for name in leaving or ():
                if live[name] == 1:
                    del live[name]
                else:
                    live[name] -= 1
            for name in joining or ():
                live[name] = live.get(name, 0) + 1
            phase = max(live, key=PRIORITY.__getitem__) if live else OTHER_PHASE
        out[phase] = out.get(phase, 0.0) + (b - a)
        a = b
    return out


def reference_windows(tracer: Tracer) -> Dict[int, Tuple[float, float]]:
    windows: Dict[int, Tuple[float, float]] = {}
    for span in tracer.spans:
        if span.name != TXN or span.args.get("status") != "committed":
            continue
        start = span.args.get("window_start")
        end = span.args.get("window_end")
        if start is None or end is None:
            continue
        windows[span.tid] = (start, end)
    return windows


def grouped_aggregate(tracer: Tracer) -> Dict[str, float]:
    """The mean breakdown from a windows pass, a ``spans_by_tid`` pass and
    the live-count sweep per transaction."""
    windows = reference_windows(tracer)
    if not windows:
        return {}
    by_tid = tracer.spans_by_tid()
    totals: Dict[str, float] = {}
    # A ``None`` tid first, then ints: the one order both sides sum in.
    for tid in sorted(windows, key=lambda tid: (tid is not None, tid or 0)):
        for name, ms in live_count_breakdown(by_tid.get(tid, ()), windows[tid]).items():
            totals[name] = totals.get(name, 0.0) + ms
    n = len(windows)
    return {name: ms / n for name, ms in totals.items()}


def _outcome(validate, events) -> Any:
    """The event count, or the rejection message."""
    try:
        return validate(events)
    except ValueError as error:
        return str(error)


def assert_matches_oracles(tracer: Tracer) -> None:
    """Export bytes, validation outcome and breakdowns all as before."""
    for name in ("repro", "repro.oracle"):
        new = to_chrome_trace(tracer, process_name=name)
        old = sorted_chrome_trace(tracer, process_name=name)
        assert json.dumps(new) == json.dumps(old)
        written = [json.dumps(e, sort_keys=True, indent=1) for e in (new, old)]
        assert written[0] == written[1]
        assert _outcome(validate_chrome_trace, new) == _outcome(reference_validate, old)
    assert transaction_windows(tracer) == reference_windows(tracer)
    assert list(aggregate_breakdown(tracer).items()) == list(grouped_aggregate(tracer).items())
    by_tid = tracer.spans_by_tid()
    for tid, window in reference_windows(tracer).items():
        spans = by_tid.get(tid, [])
        assert list(phase_breakdown(spans, window).items()) == list(
            live_count_breakdown(spans, window).items()
        )


# -- machine runs of every registry architecture ---------------------------------
def _machine(name: str, tracer: Tracer, faults=None, **overrides) -> DatabaseMachine:
    config = MachineConfig(seed=1985, mpl=3, **machine_overrides(name), **overrides)
    return DatabaseMachine(config, REGISTRY[name].sim(), tracer=tracer, faults=faults)


def _transactions(machine: DatabaseMachine, n: int = 8, seed: int = 1985):
    return generate_transactions(
        WorkloadConfig(n_transactions=n, max_pages=40, write_fraction=0.5),
        machine.config.db_pages,
        RandomStreams(seed).stream("workload"),
    )


def closed_batch(name: str) -> Tracer:
    machine = _machine(name, Tracer())
    machine.run(_transactions(machine))
    return machine.tracer


def open_run(name: str) -> Tracer:
    machine = _machine(name, Tracer(), parallel_data_disks=True)
    txns = _transactions(machine, n=10)
    schedule = generate_arrivals(
        ArrivalConfig(rate_tps=1.5, n_arrivals=len(txns)), RandomStreams(1985).fork("arrivals")
    )
    machine.run_open(txns, schedule.times_ms, spike_times_ms=schedule.spike_starts_ms)
    return machine.tracer


def timed_crash(name: str) -> Tracer:
    injector = FaultInjector(FaultPlan.of(FaultSpec(FaultKind.CRASH, at_time=400.0), seed=1985))
    machine = _machine(name, Tracer(), faults=injector)
    injector.arm(machine)
    machine.run(_transactions(machine))
    return machine.tracer


_SHAPES = {"closed": closed_batch, "open": open_run, "crash": timed_crash}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_runs_match_oracles(name, shape):
    tracer = _SHAPES[shape](name)
    assert tracer.spans and tracer.instants
    if shape == "crash":
        assert tracer.open_spans(), "the timed crash should cut spans open"
        assert any(m.name == "machine.crash" for m in tracer.instants)
    else:
        assert aggregate_breakdown(tracer), "no committed transaction to attribute"
    assert_matches_oracles(tracer)


def test_tracer_reused_for_two_machine_runs():
    """The second run's clock restarts, so record order is not time order
    and the exporter takes its sort fallback."""
    tracer = Tracer()
    for name in ("wal", "shadow"):
        machine = _machine(name, tracer)
        machine.run(_transactions(machine, n=4))
    starts = [s.start for s in tracer.spans if s.end is not None]
    assert starts != sorted(starts)
    assert_matches_oracles(tracer)


# -- synthetic traces --------------------------------------------------------------
class Clock:
    def __init__(self):
        self.now = 0.0


def _tracer() -> Tracer:
    return Tracer(env=Clock())


def test_span_and_instant_at_one_time_keep_seq_order():
    tracer = _tracer()
    tracer.instant("fault.point", hook="a")
    tracer.end(tracer.begin("commit", tid=1))
    tracer.instant("fault.point", hook="b")
    tracer.end(tracer.begin("abort", tid=1))
    tracer.instant("fault.point", hook="c")
    names = [e["name"] for e in to_chrome_trace(tracer) if e["ph"] != "M"]
    assert names == ["fault.point", "commit", "fault.point", "abort", "fault.point"]
    assert_matches_oracles(tracer)


def test_open_spans_are_skipped_but_keep_no_row():
    tracer = _tracer()
    tracer.begin("txn", tid=7)  # never ended: no event and no row
    tracer.begin("disk.service", track="never-closed")
    tracer.env.now = 1.0
    tracer.end(tracer.begin("commit", tid=1))
    tracer.instant("scrub.detect", track="never-closed", sector=1)
    events = to_chrome_trace(tracer)
    assert {e["tid"] for e in events if e["name"] == "thread_name"} == {1}
    assert_matches_oracles(tracer)


def test_instant_tracks_are_numbered_after_span_tracks():
    tracer = _tracer()
    tracer.instant("scrub.detect", track="scrubber", sector=1)  # instant-only track
    tracer.instant("corrupt.inject", track="d1", sector=2)  # d1 gets a span later
    tracer.end(tracer.begin("disk.service", track="d0"))
    tracer.env.now = 2.0
    tracer.end(tracer.begin("disk.service", track="d1"))
    tracer.instant("scrub.repair", track="other", sector=3)
    events = to_chrome_trace(tracer)
    rows = {e["args"]["name"]: e["tid"] for e in events if e["name"] == "thread_name"}
    assert rows == {"d0": 100_000, "d1": 100_001}
    marks = {e["args"]["sector"]: e["tid"] for e in events if e["ph"] == "i"}
    assert marks == {1: 100_002, 2: 100_001, 3: 100_003}
    assert_matches_oracles(tracer)


def test_instants_before_the_first_span_and_after_the_last():
    tracer = _tracer()
    tracer.instant("admission.enqueue", tid=1)
    tracer.env.now = 1.0
    tracer.instant("fault.point", hook="x")
    tracer.env.now = 2.0
    tracer.end(tracer.begin("qp.exec", tid=1))
    tracer.env.now = 3.0
    tracer.instant("page.durable", tid=1, pages=1)
    tracer.instant("machine.crash", reason="t")
    names = [e["name"] for e in to_chrome_trace(tracer) if e["ph"] != "M"]
    assert names == ["admission.enqueue", "fault.point", "qp.exec", "page.durable", "machine.crash"]
    assert_matches_oracles(tracer)


def test_only_instants_and_only_spans():
    marks = _tracer()
    marks.instant("fault.point", hook="x")
    assert_matches_oracles(marks)
    spans = _tracer()
    spans.end(spans.begin("commit"))
    assert_matches_oracles(spans)


def test_tracer_reused_on_a_restarted_clock():
    tracer = _tracer()
    for _ in range(2):
        tracer.env.now = 0.0
        tracer.instant("fault.point", hook="start")
        root = tracer.begin("txn", tid=1)
        tracer.env.now = 1.0
        tracer.end(tracer.begin("disk.service", track="d0"))
        tracer.instant("scrub.detect", track="s", sector=0)
        tracer.env.now = 2.0
        tracer.end(root, status="committed", window_start=0.0, window_end=2.0)
    events = [e for e in to_chrome_trace(tracer) if e["ph"] != "M"]
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
    assert_matches_oracles(tracer)


@pytest.mark.parametrize("records", ["spans", "instants"])
def test_restarted_clock_in_one_list_only(records):
    """Either list out of order on its own takes the sort fallback."""
    tracer = _tracer()
    tracer.instant("fault.point", hook="first")
    for start in (5.0, 1.0):
        tracer.env.now = start
        if records == "spans":
            tracer.end(tracer.begin("commit", tid=1))
        else:
            tracer.instant("page.durable", tid=1, pages=1)
    events = [e for e in to_chrome_trace(tracer) if e["ph"] != "M"]
    assert [e["ts"] for e in events] == [0.0, 1000.0, 5000.0]
    assert_matches_oracles(tracer)


def test_args_of_every_size_and_keys_added_by_end():
    tracer = _tracer()
    tracer.end(tracer.begin("commit", tid=1))
    tracer.end(tracer.begin("qp.exec", tid=1, page=3))
    tracer.end(tracer.begin("disk.service", track="d0", kind="data", tag=5, pages=2))
    tracer.end(tracer.begin("disk.service", track="d0", b=1, a=2, c=3, d=4))
    tracer.end(tracer.begin("lock.wait", tid=1, page=4), outcome="granted")
    tracer.end(tracer.begin("lock.wait", tid=1, page=5), outcome="deadlock")
    tracer.end(tracer.begin("qp.wait", tid=1), zz=1, aa=2)
    tracer.instant("fault.point")
    tracer.instant("lock.release", tid=1, page=2, n=1)
    events = to_chrome_trace(tracer)
    sized = sorted({len(e.get("args", {})) for e in events if e["ph"] != "M"})
    assert sized == [0, 1, 2, 3, 4]
    for event in events:
        if "args" in event:
            assert list(event["args"]) == sorted(event["args"])
    assert_matches_oracles(tracer)


def test_export_leaves_the_records_untouched():
    tracer = _tracer()
    span = tracer.begin("disk.service", track="d0", kind="data", tag=5, pages=2)
    tracer.end(span)
    to_chrome_trace(tracer)
    assert list(span.args) == ["kind", "tag", "pages"]


def test_recorded_spans_equal_constructed_ones():
    """``begin``/``instant`` fill every slot ``Span.__init__`` fills."""
    tracer = _tracer()
    root = tracer.begin("txn", tid=4, attempt=1)
    child = tracer.begin("qp.exec", parent=root, page=2)
    mark = tracer.instant("page.durable", tid=4, pages=1)
    expected = [
        (root, Span(0, "txn", 0.0, 1, None, 4, None, {"attempt": 1})),
        (child, Span(1, "qp.exec", 0.0, 2, 0, 4, None, {"page": 2})),
        (mark, Span(0, "page.durable", 0.0, 3, None, 4, None, {"pages": 1})),
    ]
    expected[2][1].end = 0.0
    for got, want in expected:
        for slot in Span.__slots__:
            assert getattr(got, slot) == getattr(want, slot), slot


# -- random record sequences --------------------------------------------------------
_SPAN_NAMES = sorted(PRIORITY) + [TXN, "disk.service"]
_MARK_NAMES = ["fault.point", "page.durable", "scrub.detect"]
_ARG_KEYS = st.lists(
    st.sampled_from(["page", "kind", "tag", "outcome", "a"]), max_size=4, unique=True
)


@st.composite
def record_scripts(draw):
    """Begin/end/instant calls with clock steps, ties and restarts."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("step"), st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5])),
                st.tuples(st.just("restart"), st.sampled_from([0.0, 0.3])),
                st.tuples(
                    st.just("begin"),
                    st.sampled_from(_SPAN_NAMES),
                    st.sampled_from([None, 1, 2, 100_000]),
                    st.sampled_from([None, None, "d0", "d1"]),
                    _ARG_KEYS,
                ),
                st.tuples(st.just("end"), st.integers(0, 50), _ARG_KEYS),
                st.tuples(
                    st.just("instant"),
                    st.sampled_from(_MARK_NAMES),
                    st.sampled_from([None, 1, 3]),
                    st.sampled_from([None, "d1", "s"]),
                    _ARG_KEYS,
                ),
            ),
            max_size=40,
        )
    )


def _play(script) -> Tracer:
    tracer = _tracer()
    live: List[Span] = []
    for op in script:
        kind = op[0]
        if kind == "step":
            tracer.env.now += op[1]
        elif kind == "restart":
            tracer.env.now = op[1]
        elif kind == "begin":
            _, name, tid, track, keys = op
            args = {k: len(k) for k in keys}
            # The strategy draws names from the catalogue.
            span = tracer.begin(name, None, tid, track, **args)  # reprolint: disable-line=TRACE01
            live.append(span)
        elif kind == "end" and live:
            span = live.pop(op[1] % len(live))
            extra = {k: -1 for k in op[2]}
            if span.name == TXN and span.end is None:
                extra = dict(status="committed", window_start=span.start,
                             window_end=tracer.env.now)
            tracer.end(span, **extra)
        elif kind == "instant":
            _, name, tid, track, keys = op
            args = {k: len(k) for k in keys}
            tracer.instant(name, tid=tid, track=track, **args)  # reprolint: disable-line=TRACE01
    return tracer


@settings(max_examples=300, deadline=None)
@given(record_scripts())
# Committed txn spans with a None tid and an int tid: sorting the tids
# once raised TypeError.
@example([("begin", TXN, None, None, []), ("begin", TXN, 1, None, []),
          ("end", 0, []), ("end", 0, [])])
def test_random_record_sequences_match_oracles(script):
    tracer = _play(script)
    if not tracer.spans and not tracer.instants:
        return
    assert_matches_oracles(tracer)


# -- every rejection path of the validator ---------------------------------------------
def _valid() -> List[Dict[str, Any]]:
    tracer = _tracer()
    tracer.instant("fault.point", hook="x")
    tracer.env.now = 1.0
    tracer.end(tracer.begin("qp.exec", tid=1, page=2))
    tracer.instant("page.durable", tid=1, pages=1)
    return to_chrome_trace(tracer)


def _first(ph: str):
    return lambda events: next(e for e in events if e["ph"] == ph)


_SPAN = _first("X")
_MARK = _first("i")
_META = _first("M")


def _set(pick, key, value):
    def mutate(events):
        pick(events)[key] = value
        return events
    return mutate


def _drop(pick, key):
    def mutate(events):
        del pick(events)[key]
        return events
    return mutate


def _replace_first(value):
    def mutate(events):
        events[0] = value
        return events
    return mutate


_REJECTIONS = {
    "not-a-list": (lambda events: tuple(events), "non-empty JSON array"),
    "empty": (lambda events: [], "non-empty JSON array"),
    "not-an-object": (_replace_first(["name", "ph"]), "is not an object"),
    "missing-name": (_drop(_SPAN, "name"), "missing 'name'"),
    "missing-ph": (_drop(_MARK, "ph"), "missing 'ph'"),
    "missing-pid": (_drop(_META, "pid"), "missing 'pid'"),
    "missing-tid": (_drop(_SPAN, "tid"), "missing 'tid'"),
    "dur-on-instant": (_set(_MARK, "dur", 1.0), "dur on non-span"),
    "dur-on-metadata": (_set(_META, "dur", 1.0), "dur on non-span"),
    "unknown-phase": (_set(_MARK, "ph", "B"), "unknown phase"),
    "uncatalogued-name": (_set(_SPAN, "name", "made.up"), "not in catalogue"),
    "missing-ts": (_drop(_MARK, "ts"), "bad ts"),
    "negative-ts": (_set(_SPAN, "ts", -1.0), "bad ts"),
    "nan-ts": (_set(_SPAN, "ts", math.nan), "bad ts"),
    "infinite-ts": (_set(_MARK, "ts", math.inf), "bad ts"),
    "bool-ts": (_set(_SPAN, "ts", True), "bad ts"),
    "string-ts": (_set(_SPAN, "ts", "0"), "bad ts"),
    "back-in-time": (_set(_SPAN, "ts", 5000.0), "goes back in time"),
    "missing-dur": (_drop(_SPAN, "dur"), "bad dur"),
    "negative-dur": (_set(_SPAN, "dur", -0.5), "bad dur"),
    "nan-dur": (_set(_SPAN, "dur", math.nan), "bad dur"),
    "infinite-dur": (_set(_SPAN, "dur", math.inf), "bad dur"),
    "bool-dur": (_set(_SPAN, "dur", False), "bad dur"),
}


@pytest.mark.parametrize("case", sorted(_REJECTIONS))
def test_every_rejection_matches_the_reference(case):
    mutate, message = _REJECTIONS[case]
    errors = []
    for validate in (validate_chrome_trace, reference_validate):
        with pytest.raises(ValueError, match=message) as caught:
            validate(mutate(_valid()))
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


def test_accepted_traces_count_the_same():
    events = _valid()
    for event in events:
        if event["ph"] != "M":
            event["ts"] = 0
    _SPAN(events)["dur"] = 3
    assert validate_chrome_trace(events) == reference_validate(events) == 3
