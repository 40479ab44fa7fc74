"""Critical-path extraction and phase breakdowns over recorded spans.

The paper's completion-time metric runs from a transaction's first cache
frame to its last durable page (Section 4); this module decomposes that
window into *phases*.  The attribution rule is a priority sweep: the
window is cut at every span boundary, and each elementary segment is
charged to the highest-priority span active during it
(:data:`repro.trace.names.PRIORITY` — productive work beats waits, so a
wait only claims a segment when nothing else is progressing).  Segments
no span covers go to ``"other"``.

Because the segments partition the window exactly, a transaction's
phase breakdown sums to its completion time, the per-architecture mean
breakdown sums to the mean completion time, and the phase-by-phase
difference of two runs sums to their completion-time delta — which is
what lets ``repro trace-diff`` *quantitatively* attribute a paper
comparison's gap to phases.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.trace.names import OTHER_PHASE, PRIORITY, TXN
from repro.trace.recorder import Span, Tracer

__all__ = [
    "aggregate_breakdown",
    "completion_percentiles",
    "critical_resource",
    "diff_breakdowns",
    "phase_breakdown",
    "transaction_windows",
]


def transaction_windows(tracer: Tracer) -> Dict[int, Tuple[float, float]]:
    """Completion window of every committed transaction.

    The machine stamps the committed attempt's ``txn`` span with the
    paper's window (first frame allocated -> last updated page durable);
    aborted attempts and transactions that never started carry none.
    """
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


def phase_breakdown(
    spans: Iterable[Span], window: Tuple[float, float]
) -> Dict[str, float]:
    """Decompose ``window`` into phases by the priority sweep.

    ``spans`` are the transaction's spans (any others are ignored via the
    priority table); the returned dict's values sum to the window length
    exactly (one ``"other"`` bucket absorbs uncovered time).

    The sweep visits the cuts in ascending order, keeping a live count
    per phase name: at each cut the spans clipped to close there leave,
    those clipped to open there join, and the segment up to the next cut
    goes to the live name of highest priority.  Priorities are distinct
    (``tests/test_trace_analysis.py`` pins that), so this is the same
    phase the "first span of highest priority active over the segment"
    rule picks.  A span clipped to zero length still cuts the window
    but is never live.
    """
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


def aggregate_breakdown(tracer: Tracer) -> Dict[str, float]:
    """Mean phase breakdown over the run's committed transactions.

    The values sum to the run's mean completion time (same windows the
    machine's ``completion_ms`` statistic measures).
    """
    windows = transaction_windows(tracer)
    if not windows:
        return {}
    by_tid = tracer.spans_by_tid()
    totals: Dict[str, float] = {}
    for tid in sorted(windows):
        for name, ms in phase_breakdown(by_tid.get(tid, ()), windows[tid]).items():
            totals[name] = totals.get(name, 0.0) + ms
    n = len(windows)
    return {name: ms / n for name, ms in totals.items()}


def critical_resource(breakdown: Dict[str, float]) -> Optional[str]:
    """The phase the completion time mostly went to (``other`` excluded)."""
    named = {k: v for k, v in breakdown.items() if k != OTHER_PHASE}
    if not named:
        return None
    return max(sorted(named), key=lambda k: named[k])


def diff_breakdowns(
    a: Dict[str, float], b: Dict[str, float]
) -> List[Tuple[str, float, float, float]]:
    """Per-phase attribution of the gap between two runs.

    Returns ``(phase, ms_a, ms_b, delta)`` rows sorted by descending
    ``|delta|``; the deltas sum to ``sum(b) - sum(a)``, the mean
    completion-time difference.
    """
    phases = sorted(set(a) | set(b))
    rows = [(p, a.get(p, 0.0), b.get(p, 0.0), b.get(p, 0.0) - a.get(p, 0.0)) for p in phases]
    rows.sort(key=lambda row: (-abs(row[3]), row[0]))
    return rows


def completion_percentiles(
    tracer: Tracer, qs: Sequence[float] = (50.0, 95.0, 99.0)
) -> Dict[str, float]:
    """Exact completion-time percentiles from the traced windows.

    Uses the same linear-interpolation definition as
    :meth:`repro.sim.monitor.SampleStat.percentile`, so for a committed-
    only run these match ``RunResult.completion_percentiles`` exactly.
    """
    samples = sorted(end - start for start, end in transaction_windows(tracer).values())
    out: Dict[str, float] = {}
    for q in qs:
        out[f"p{q:g}"] = _percentile(samples, q)
    return out


def _percentile(data: List[float], q: float) -> float:
    if not data:
        return 0.0
    k = (len(data) - 1) * q / 100.0
    lo = math.floor(k)
    hi = math.ceil(k)
    if lo == hi:
        return data[int(k)]
    return data[lo] * (hi - k) + data[hi] * (k - lo)
