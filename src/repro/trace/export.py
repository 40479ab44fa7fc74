"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and terminal views.

``to_chrome_trace`` emits the Trace Event Format (JSON array of ``"X"``
complete events and ``"i"`` instants, timestamps in microseconds) that
chrome://tracing and https://ui.perfetto.dev open directly.  Transaction
spans render one row per transaction; device-lane spans (disks, links)
render one row per device.  Event order is ``(timestamp, sequence)``,
both derived from simulation state, so the export is byte-stable across
runs with the same seed.
"""

from __future__ import annotations

import json
import math
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.trace.names import CATALOGUE, OTHER_PHASE, PHASE_CHARS, PRIORITY
from repro.trace.recorder import Span, Tracer

__all__ = [
    "render_flame",
    "render_timeline",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_json",
]

#: Synthetic Chrome "thread id" base for device-lane rows (real transaction
#: ids stay below this).
_TRACK_TID_BASE = 100_000

_MS_TO_US = 1000.0

#: Event skeletons in the exported key order; each event is a copy with
#: its own name, times and row filled in (cheaper than a dict display).
_SPAN_EVENT = {
    "name": None, "cat": "span", "ph": "X", "ts": None, "dur": None, "pid": 1, "tid": None,
}
_MARK_EVENT = {
    "name": None, "cat": "instant", "ph": "i", "s": "t", "ts": None, "pid": 1, "tid": None,
}

#: Keys every event must carry, in the order a missing one is reported.
_REQUIRED = ("name", "ph", "pid", "tid")


def _sorted_args(args: Dict[str, Any], templates: Dict[tuple, Optional[dict]]) -> Dict[str, Any]:
    """``args`` with its keys in sorted order: ``args`` itself when its
    insertion order already is sorted, else a reordered copy.

    ``templates`` caches, per insertion-order key tuple, ``None`` for a
    sorted order, else a dict of the sorted keys: merging ``args`` into
    it keeps the template's key order and takes ``args``' values.
    """
    keys = tuple(args)
    try:
        template = templates[keys]
    except KeyError:
        order = sorted(keys)
        template = templates[keys] = None if order == list(keys) else dict.fromkeys(order)
    if template is None:
        return args
    return {**template, **args}


def _merge(
    spans: List[Span],
    marks: List[Span],
    tracks: Dict[str, int],
    rows: Dict[int, str],
) -> Tuple[List[Dict[str, Any]], bool]:
    """The events of the closed ``spans`` and the ``marks``, merged by a
    two-pointer walk, and whether each list was in ``(start, seq)`` order.

    When both were, the events are in that order.  Either way every
    record yields one event and the rows are numbered as
    :func:`to_chrome_trace` states: track rows as the spans first reach
    them in list order (the first span on a row names it), then the
    tracks only instants use, in instant order, after the walk.
    """
    events: List[Dict[str, Any]] = []
    append = events.append
    templates: Dict[tuple, Optional[dict]] = {}
    unnamed: List[tuple] = []
    in_order = True
    marks_left = iter(marks)
    mark = next(marks_left, None)
    mark_start = math.inf if mark is None else mark.start
    last_start = -math.inf
    new_span_event = _SPAN_EVENT.copy
    new_mark_event = _MARK_EVENT.copy

    def mark_event(mark: Span) -> Dict[str, Any]:
        tid = mark.tid
        track = mark.track
        if track is not None:
            tid = tracks.get(track)
        elif tid is None:
            tid = _TRACK_TID_BASE - 1
        event = new_mark_event()
        event["name"] = mark.name
        event["ts"] = mark.start * _MS_TO_US
        event["tid"] = tid
        if tid is None:
            unnamed.append((event, track))
        args = mark.args
        if args:
            event["args"] = args if len(args) == 1 else _sorted_args(args, templates)
        return event

    for span in spans:
        end = span.end
        if end is None:
            continue
        start = span.start
        if start < last_start:
            in_order = False
        last_start = start
        if mark_start <= start:
            seq = span.seq
            while mark_start < start or mark_start == start and mark.seq < seq:
                append(mark_event(mark))
                mark = next(marks_left, None)
                if mark is None:
                    mark_start = math.inf
                else:
                    if mark.start < mark_start:
                        in_order = False
                    mark_start = mark.start
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
        event = new_span_event()
        event["name"] = span.name
        event["ts"] = start * _MS_TO_US
        event["dur"] = (end - start) * _MS_TO_US
        event["tid"] = row
        args = span.args
        if args:
            event["args"] = args if len(args) == 1 else _sorted_args(args, templates)
        append(event)
    while mark is not None:
        append(mark_event(mark))
        mark = next(marks_left, None)
        if mark is not None:
            if mark.start < mark_start:
                in_order = False
            mark_start = mark.start
    for event, track in unnamed:
        row = tracks.get(track)
        if row is None:
            row = tracks[track] = _TRACK_TID_BASE + len(tracks)
        event["tid"] = row
    return events, in_order


_TIME_ORDER = attrgetter("start", "seq")


def to_chrome_trace(tracer: Tracer, process_name: str = "repro") -> List[Dict[str, Any]]:
    """The run as a Chrome ``trace_event`` list (open spans are skipped).

    Events are in ``(start, seq)`` order.  ``begin`` and ``instant``
    append at non-decreasing simulation time with a rising ``seq``, so
    each record list is already in that order and one merge walk yields
    the events.  A tracer reused across runs (the clock restarts) breaks
    that; then the walk runs again over both lists sorted by
    ``(start, seq)``, keeping the rows the first walk numbered.

    Rows: a record's ``track`` row (numbered from 100000 in the order
    closed spans first use the tracks, then tracks only instants use),
    else its ``tid``, else 99999.  An event's ``args`` are its record's,
    keys sorted; the event holds the record's own dict when its keys
    already are in sorted order, so treat the export as read-only.
    """
    tracks: Dict[str, int] = {}
    rows: Dict[int, str] = {}
    events, in_order = _merge(tracer.spans, tracer.instants, tracks, rows)
    if not in_order:
        events, _ = _merge(
            sorted(tracer.spans, key=_TIME_ORDER),
            sorted(tracer.instants, key=_TIME_ORDER),
            tracks,
            rows,
        )
    out: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for row in sorted(rows):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": row,
                "args": {"name": rows[row]},
            }
        )
    out += events
    return out


def _is_number(x: Any) -> bool:
    """An int or float JSON number (a bool is not a number here)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def validate_chrome_trace(events: List[Dict[str, Any]]) -> int:
    """Schema-check an exported trace; returns the event count.

    Raises :class:`ValueError` on the first malformed event — missing
    keys, negative, non-finite or bool times, a duration on a non-span,
    a name outside the registered catalogue, or timestamps out of order.
    """
    if not isinstance(events, list) or not events:
        raise ValueError("trace must be a non-empty JSON array")
    last_ts = -math.inf
    count = 0
    for i, event in enumerate(events):
        if type(event) is not dict and not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        if not ("name" in event and "ph" in event and "pid" in event and "tid" in event):
            key = next(key for key in _REQUIRED if key not in event)
            raise ValueError(f"event {i} missing {key!r}")
        ph = event["ph"]
        if ph == "X":
            ts = event.get("ts")
            dur = event.get("dur")
        elif "dur" in event:
            raise ValueError(f"event {i} has a dur on non-span phase {ph!r}")
        elif ph == "i":
            ts = event.get("ts")
        elif ph == "M":
            continue
        else:
            raise ValueError(f"event {i} has unknown phase {ph!r}")
        name = event["name"]
        if name not in CATALOGUE:
            raise ValueError(f"event {i} name {name!r} not in catalogue")
        # Finite and non-negative; the float test short-cuts the common case.
        if type(ts) is not float and not _is_number(ts) or not 0 <= ts < math.inf:
            raise ValueError(f"event {i} has bad ts {ts!r}")
        if ts < last_ts:
            raise ValueError(f"event {i} goes back in time ({ts} < {last_ts})")
        last_ts = ts
        if ph == "X" and (
            type(dur) is not float and not _is_number(dur) or not 0 <= dur < math.inf
        ):
            raise ValueError(f"event {i} has bad dur {dur!r}")
        count += 1
    return count


def write_json(events: List[Dict[str, Any]], path: str) -> None:
    """Write an exported trace to ``path`` (stable key order)."""
    with open(path, "w") as handle:
        json.dump(events, handle, sort_keys=True, indent=1)
        handle.write("\n")


# -- terminal views ------------------------------------------------------------
def render_timeline(tracer: Tracer, width: int = 72) -> str:
    """ASCII activity strips: one lane per transaction, one column per
    time slice, the dominant phase's character in each column."""
    by_tid = tracer.spans_by_tid()
    windows = {
        tid: (min(s.start for s in spans), max(s.end for s in spans))
        for tid, spans in by_tid.items()
        if tid is not None
    }
    if not windows:
        return "(no transaction spans recorded)"
    t_end = max(end for _, end in windows.values())
    if t_end <= 0:
        return "(empty trace)"
    lines = [f"phase legend: " + " ".join(
        f"{char}={name}" for name, char in sorted(PHASE_CHARS.items(), key=lambda kv: kv[1])
    )]
    scale = width / t_end
    for tid in sorted(windows):
        spans = [s for s in by_tid[tid] if s.name in PRIORITY]
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


def render_flame(breakdown: Dict[str, float], title: Optional[str] = None) -> str:
    """A one-level terminal flame view of a mean phase breakdown."""
    if not breakdown:
        return "(empty breakdown)"
    total = sum(breakdown.values())
    lines = []
    if title:
        lines.append(title)
    width = max(len(name) for name in breakdown)
    bar_width = 40
    for name in sorted(breakdown, key=lambda k: -breakdown[k]):
        ms = breakdown[name]
        frac = ms / total if total else 0.0
        bar = "#" * max(1, round(frac * bar_width)) if ms > 0 else ""
        lines.append(f"{name:<{width}} {ms:8.1f} ms {100 * frac:5.1f}% {bar}")
    lines.append(f"{'total':<{width}} {total:8.1f} ms")
    return "\n".join(lines)
