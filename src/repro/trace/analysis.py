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

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.monitor import percentile
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


def _committed_window(span: Span) -> Optional[Tuple[float, float]]:
    """The paper's window stamped on a committed ``txn`` span, if any."""
    args = span.args
    if args.get("status") != "committed":
        return None
    start = args.get("window_start")
    end = args.get("window_end")
    if start is None or end is None:
        return None
    return start, end


def transaction_windows(tracer: Tracer) -> Dict[int, Tuple[float, float]]:
    """Completion window of every committed transaction.

    The machine stamps the committed attempt's ``txn`` span with the
    paper's window (first frame allocated -> last updated page durable);
    aborted attempts and transactions that never started carry none.
    """
    windows: Dict[int, Tuple[float, float]] = {}
    for span in tracer.spans:
        if span.name == TXN:
            window = _committed_window(span)
            if window is not None:
                windows[span.tid] = window
    return windows


#: Width in bits of one phase's live-span count in the sweep's packed
#: counter; no transaction has 2**32 spans live at once.
_FIELD_BITS = 32
#: Phase names by ascending priority: field ``i`` of the packed counter
#: counts the live spans of ``_BY_FIELD[i]``.
_BY_FIELD = sorted(PRIORITY, key=PRIORITY.__getitem__)
#: A phase name's one-span increment of the packed counter.
_UNIT = {name: 1 << (_FIELD_BITS * i) for i, name in enumerate(_BY_FIELD)}


def _sweep(spans: Iterable[Span], start: float, end: float) -> Dict[str, float]:
    """The priority sweep over closed spans with prioritised names."""
    if end <= start:
        return {}
    # Cut -> change of the packed live count there.  Every cut is a key,
    # so a span clipped to zero length still splits its segment.
    change: Dict[float, int] = {start: 0, end: 0}
    get = change.get
    for s in spans:
        a = s.start
        b = s.end
        if not (a < end and b > start):
            continue
        # max(start, a) and min(end, b), keeping max's and min's ties.
        if not a > start:
            a = start
        if not b < end:
            b = end
        if a < b:
            unit = _UNIT[s.name]
            change[a] = get(a, 0) + unit
            change[b] = get(b, 0) - unit
        else:
            change.setdefault(a, 0)
            change.setdefault(b, 0)
    out: Dict[str, float] = {}
    live = 0
    phase = OTHER_PHASE
    cuts = sorted(change)
    a = cuts[0]
    for i in range(1, len(cuts)):
        b = cuts[i]
        delta = change[a]
        if delta:
            live += delta
            # The highest non-zero field names the live phase of highest
            # priority.
            phase = _BY_FIELD[(live.bit_length() - 1) // _FIELD_BITS] if live else OTHER_PHASE
        out[phase] = out.get(phase, 0.0) + (b - a)
        a = b
    return out


def phase_breakdown(
    spans: Iterable[Span], window: Tuple[float, float]
) -> Dict[str, float]:
    """Decompose ``window`` into phases by the priority sweep.

    ``spans`` are the transaction's spans (any others are ignored via the
    priority table); the returned dict's values sum to the window length
    exactly (one ``"other"`` bucket absorbs uncovered time).

    The sweep visits the cuts in ascending order, keeping a live count
    per phase name, packed into one integer with a 32-bit field per name
    in priority order: at each cut the spans clipped to close there
    leave, those clipped to open there join, and the segment up to the
    next cut goes to the name of the highest non-zero field.  Priorities
    are distinct (``tests/test_trace_analysis.py`` pins that), so this is
    the same phase the "first span of highest priority active over the
    segment" rule picks.  A span clipped to zero length still cuts the
    window but is never live.
    """
    return _sweep([s for s in spans if s.end is not None and s.name in _UNIT], *window)


def aggregate_breakdown(tracer: Tracer) -> Dict[str, float]:
    """Mean phase breakdown over the run's committed transactions.

    The values sum to the run's mean completion time (same windows the
    machine's ``completion_ms`` statistic measures).  One pass over the
    spans gathers both the committed windows and each transaction's
    closed, prioritised spans.
    """
    windows: Dict[int, Tuple[float, float]] = {}
    by_tid: Dict[Optional[int], List[Span]] = {}
    for span in tracer.spans:
        name = span.name
        if name in _UNIT:
            if span.end is not None:
                tid = span.tid
                group = by_tid.get(tid)
                if group is None:
                    by_tid[tid] = [span]
                else:
                    group.append(span)
        elif name == TXN:
            window = _committed_window(span)
            if window is not None:
                windows[span.tid] = window
    if not windows:
        return {}
    totals: Dict[str, float] = {}
    for tid in sorted(windows):
        start, end = windows[tid]
        for name, ms in _sweep(by_tid.get(tid, ()), start, end).items():
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

    Uses :func:`repro.sim.monitor.percentile`, as
    :meth:`~repro.sim.monitor.SampleStat.percentile` does, so for a
    committed-only run these match ``RunResult.completion_percentiles``
    exactly.
    """
    samples = sorted(end - start for start, end in transaction_windows(tracer).values())
    out: Dict[str, float] = {}
    for q in qs:
        out[f"p{q:g}"] = percentile(samples, q)
    return out
