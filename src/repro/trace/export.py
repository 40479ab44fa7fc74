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
from typing import Any, Dict, List, Optional

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


def _row_of(span: Span, tracks: Dict[str, int]) -> int:
    if span.track is not None:
        if span.track not in tracks:
            tracks[span.track] = _TRACK_TID_BASE + len(tracks)
        return tracks[span.track]
    return span.tid if span.tid is not None else _TRACK_TID_BASE - 1


def to_chrome_trace(tracer: Tracer, process_name: str = "repro") -> List[Dict[str, Any]]:
    """The run as a Chrome ``trace_event`` list (open spans are skipped).

    One pass over the closed spans builds their events and names their
    rows (the first span on a row names it); instants follow.  Sorting
    the ``(start, seq, event)`` tuples never compares two events, since
    ``seq`` is unique across spans and instants.
    """
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
    out.extend(event for _, _, event in events)
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
        # Finite and non-negative; the float test short-cuts the common case.
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
