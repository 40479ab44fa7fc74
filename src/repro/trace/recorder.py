"""The deterministic span/event recorder.

A :class:`Tracer` attaches to a simulation
:class:`~repro.sim.core.Environment` (``machine = DatabaseMachine(...,
tracer=tracer)`` sets ``env.tracer``); instrumented components call
``begin``/``end``/``instant`` with names from the registered catalogue.
Recording is a synchronous list append — no simulation events, no RNG
draws, no callbacks — so a traced run is *observationally identical* to
an untraced one: same event calendar, same random streams, same metrics.

Record order derives from ``(simulation time, sequence number)`` where
the sequence number increments per record — never from wall clock — so
two runs with the same seed produce byte-identical trace files (lint
rule DET01 polices wall-clock use; the determinism test in
``tests/test_trace_export.py`` proves it end to end).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.trace.names import CATALOGUE

__all__ = ["Span", "Tracer"]


class Span:
    """One interval of work or waiting, in simulation time.

    ``end`` is ``None`` while the span is open.  ``tid`` marks spans
    belonging to a transaction's tree; ``track`` marks device-lane spans
    (a disk, an interconnect).  ``args`` is free-form structured detail
    (page numbers, hook names, byte counts).
    """

    __slots__ = ("sid", "parent_sid", "name", "start", "end", "tid", "track", "args", "seq")

    def __init__(
        self,
        sid: int,
        name: str,
        start: float,
        seq: int,
        parent_sid: Optional[int] = None,
        tid: Optional[int] = None,
        track: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ):
        self.sid = sid
        self.parent_sid = parent_sid
        self.name = name
        self.start = start
        self.seq = seq
        self.end: Optional[float] = None
        self.tid = tid
        self.track = track
        self.args: Dict[str, Any] = args or {}

    @property
    def duration(self) -> float:
        """Span length in ms (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end:.3f}" if self.end is not None else "open"
        return f"<Span {self.sid} {self.name} [{self.start:.3f}, {end}] tid={self.tid}>"


class _RecordedSpan(Span):
    """A :class:`Span` as the recorder makes it: ``object.__init__``
    replaces ``Span.__init__``, so making one runs no Python frame, and
    the recorder fills every slot itself."""

    __slots__ = ()
    __init__ = object.__init__


class Tracer:
    """Deterministic recorder of spans and instants for one run.

    Spans are kept in ``begin()`` order; ``seq`` numbers every record
    monotonically, which breaks simulation-time ties without touching
    wall clock.  Names are validated against the registered catalogue at
    record time, mirroring the static TRACE01 check.
    """

    def __init__(self, env=None) -> None:
        #: The clock source.  ``DatabaseMachine(..., tracer=tracer)`` binds
        #: its own environment here, so a tracer may be built first.
        self.env = env
        self.spans: List[Span] = []
        self.instants: List[Span] = []
        self._seq = 0

    @staticmethod
    def _check_name(name: str) -> None:
        if name not in CATALOGUE:
            raise ValueError(
                f"span name {name!r} is not in the registered catalogue "
                "(repro.trace.names.CATALOGUE); register it there first"
            )

    def begin(
        self,
        name: str,
        parent: Optional[Span] = None,
        tid: Optional[int] = None,
        track: Optional[str] = None,
        **args,
    ) -> Span:
        """Open a span at the current simulation time."""
        if name not in CATALOGUE:
            self._check_name(name)
        self._seq = seq = self._seq + 1
        spans = self.spans
        span = _RecordedSpan()
        span.sid = len(spans)
        if parent is None:
            span.parent_sid = None
        else:
            span.parent_sid = parent.sid
            if tid is None:
                tid = parent.tid
        span.name = name
        span.start = self.env.now
        span.seq = seq
        span.end = None
        span.tid = tid
        span.track = track
        span.args = args
        spans.append(span)
        return span

    def end(self, span: Span, **args) -> Span:
        """Close ``span`` at the current simulation time."""
        if span.end is not None:
            raise ValueError(f"span {span.sid} ({span.name}) already ended")
        span.end = self.env.now
        if args:
            span.args.update(args)
        return span

    def instant(
        self,
        name: str,
        tid: Optional[int] = None,
        track: Optional[str] = None,
        **args,
    ) -> Span:
        """Record a zero-duration marker at the current simulation time."""
        if name not in CATALOGUE:
            self._check_name(name)
        self._seq = seq = self._seq + 1
        instants = self.instants
        mark = _RecordedSpan()
        mark.sid = len(instants)
        mark.parent_sid = None
        mark.name = name
        mark.start = mark.end = self.env.now
        mark.seq = seq
        mark.tid = tid
        mark.track = track
        mark.args = args
        instants.append(mark)
        return mark

    # -- queries ---------------------------------------------------------------
    def spans_of(self, tid: int) -> List[Span]:
        """Closed spans belonging to transaction ``tid``, in begin order."""
        return [s for s in self.spans if s.tid == tid and s.closed]

    def spans_by_tid(self) -> Dict[Optional[int], List[Span]]:
        """Every transaction's :meth:`spans_of` list from one pass over the
        spans, keyed by ``tid`` (``None`` keys the closed spans with no tid)."""
        groups: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            if span.end is not None:
                group = groups.get(span.tid)
                if group is None:
                    groups[span.tid] = [span]
                else:
                    group.append(span)
        return groups

    def named(self, name: str) -> List[Span]:
        """Closed spans with ``name``, in begin order."""
        return [s for s in self.spans if s.name == name and s.closed]

    def open_spans(self) -> List[Span]:
        """Spans begun but never ended (e.g. cut off by a machine crash)."""
        return [s for s in self.spans if not s.closed]

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)
