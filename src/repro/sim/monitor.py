"""Statistics collectors for simulation runs.

All collectors are explicitly fed (no magic instrumentation) and know the
environment only through the timestamps they are given, so they are equally
usable from unit tests without a running simulation.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Set

__all__ = [
    "CounterStat",
    "SampleStat",
    "ShadowInstallMonitor",
    "ShadowInstallViolation",
    "TimeWeightedStat",
    "UtilizationTracker",
    "WALInvariantMonitor",
    "WALViolation",
]


class CounterStat:
    """A plain event counter with a helpful repr."""

    def __init__(self, name: str = "counter"):
        self.name = name
        self.count = 0

    def increment(self, by: int = 1) -> None:
        self.count += by

    def __repr__(self) -> str:
        return f"<CounterStat {self.name}={self.count}>"


class SampleStat:
    """Aggregates i.i.d. samples: mean/variance/min/max, optional retention.

    Uses Welford's algorithm so very long runs do not need to keep samples;
    pass ``keep=True`` to retain raw samples (for percentiles in reports).
    """

    def __init__(self, name: str = "samples", keep: bool = False):
        self.name = name
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: Optional[List[float]] = [] if keep else None

    def add(self, value: float) -> None:
        self.n += 1
        delta = value - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (value - self._mean)
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        if self._samples is not None:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    @property
    def total(self) -> float:
        return self._mean * self.n

    def percentile(self, q: float) -> float:
        """q in [0, 100]; requires ``keep=True``."""
        if self._samples is None:
            raise ValueError("percentiles need keep=True")
        if not self._samples:
            return 0.0
        data = sorted(self._samples)
        k = (len(data) - 1) * q / 100.0
        lo = math.floor(k)
        hi = math.ceil(k)
        if lo == hi:
            return data[int(k)]
        return data[lo] * (hi - k) + data[hi] * (k - lo)

    def __repr__(self) -> str:
        return f"<SampleStat {self.name} n={self.n} mean={self.mean:.3f}>"


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant quantity.

    Feed it ``update(t, new_value)`` whenever the quantity changes; query
    ``mean(t_end)`` for the time average over [t0, t_end].  Used for queue
    lengths, cache occupancy, and number of blocked pages.
    """

    def __init__(self, t0: float = 0.0, value: float = 0.0, name: str = "level"):
        self.name = name
        self._t0 = t0
        self._last_t = t0
        self._value = value
        self._area = 0.0
        self._max = value

    @property
    def value(self) -> float:
        return self._value

    def update(self, t: float, value: float) -> None:
        if t < self._last_t:
            raise ValueError(f"time went backwards: {t} < {self._last_t}")
        self._area += self._value * (t - self._last_t)
        self._last_t = t
        self._value = value
        if value > self._max:
            self._max = value

    def add(self, t: float, delta: float) -> None:
        self.update(t, self._value + delta)

    def mean(self, t_end: Optional[float] = None) -> float:
        t = self._last_t if t_end is None else t_end
        if t < self._last_t:
            raise ValueError("t_end before last update")
        span = t - self._t0
        if span <= 0:
            return self._value
        return (self._area + self._value * (t - self._last_t)) / span

    @property
    def max(self) -> float:
        return self._max

    def __repr__(self) -> str:
        return f"<TimeWeightedStat {self.name} now={self._value}>"


class UtilizationTracker:
    """Fraction of time a server (or a pool of servers) is busy.

    ``start(t)`` / ``stop(t)`` may nest (a pool with N members counts how
    many are busy); ``utilization(t_end, capacity)`` divides busy-time by
    capacity * elapsed.
    """

    def __init__(self, t0: float = 0.0, name: str = "server"):
        self.name = name
        self._t0 = t0
        self._busy = 0
        self._last_t = t0
        self._busy_time = 0.0

    @property
    def busy(self) -> int:
        return self._busy

    def start(self, t: float) -> None:
        if t < self._last_t:
            raise ValueError(f"time went backwards: {t} < {self._last_t}")
        self._busy_time += self._busy * (t - self._last_t)
        self._last_t = t
        self._busy += 1

    def stop(self, t: float) -> None:
        if self._busy <= 0:
            raise ValueError(f"stop() on idle tracker {self.name!r}")
        if t < self._last_t:
            raise ValueError(f"time went backwards: {t} < {self._last_t}")
        self._busy_time += self._busy * (t - self._last_t)
        self._last_t = t
        self._busy -= 1

    def busy_time(self, t_end: Optional[float] = None) -> float:
        t = self._last_t if t_end is None else t_end
        return self._busy_time + self._busy * (t - self._last_t)

    def utilization(self, t_end: float, capacity: int = 1) -> float:
        span = t_end - self._t0
        if span <= 0:
            return 0.0
        return self.busy_time(t_end) / (span * capacity)

    def __repr__(self) -> str:
        return f"<UtilizationTracker {self.name} busy={self._busy}>"


class WALViolation(AssertionError):
    """A dirty page reached stable storage before its recovery data."""


class WALInvariantMonitor:
    """Runtime checker of the write-ahead-log rule.

    The invariant (paper Section 3.1, and every WAL system since): a dirty
    page may be written to its home location only after every piece of
    recovery data describing its updates is on stable storage.  The static
    analyser (rule ARCH02) checks the *code paths*; this monitor checks the
    *executions* — producers report recovery data as it is created and
    forced, and the flush path asks permission just before a page goes home.

    Protocol:

    * ``note_recovery_data(page, token)`` — recovery data for ``page``
      exists but is still volatile.  ``token`` is any hashable handle
      (a log fragment, a ``(log, lsn)`` pair) unique to that datum.
    * ``note_force(token)`` — the datum reached stable storage.
    * ``note_flush(page)`` — ``page`` is about to be written home; raises
      :class:`WALViolation` (``strict=True``) or counts a violation if any
      of the page's recovery data is still volatile.
    * ``reset()`` — a crash: volatile recovery data is gone, so pending
      tokens are meaningless.

    Tokens shared by several pages are supported by registering the token
    once per page; a force retires it everywhere.
    """

    def __init__(self, strict: bool = True, name: str = "wal-monitor"):
        self.strict = strict
        self.name = name
        self.checks = 0
        self.forces = 0
        self.violations = 0
        self._pending: Dict[int, Set[Hashable]] = {}
        self._pages_of: Dict[Hashable, Set[int]] = {}

    def note_recovery_data(self, page: int, token: Hashable) -> None:
        self._pending.setdefault(page, set()).add(token)
        self._pages_of.setdefault(token, set()).add(page)

    def note_force(self, token: Hashable) -> None:
        self.forces += 1
        for page in self._pages_of.pop(token, ()):
            tokens = self._pending.get(page)
            if tokens is not None:
                tokens.discard(token)
                if not tokens:
                    del self._pending[page]

    def note_flush(self, page: int) -> None:
        self.checks += 1
        pending = self._pending.get(page)
        if pending:
            self.violations += 1
            if self.strict:
                raise WALViolation(
                    f"{self.name}: page {page} flushed with "
                    f"{len(pending)} unforced recovery datum(s)"
                )

    def reset(self) -> None:
        self._pending.clear()
        self._pages_of.clear()

    @property
    def pending_pages(self) -> int:
        """Pages currently protected by volatile recovery data."""
        return len(self._pending)

    def __repr__(self) -> str:
        return (
            f"<WALInvariantMonitor {self.name} checks={self.checks} "
            f"violations={self.violations} pending={self.pending_pages}>"
        )


class ShadowInstallViolation(AssertionError):
    """A page-table install pointed at a version not yet on stable storage."""


class ShadowInstallMonitor:
    """Runtime checker of the shadow-paging install rule.

    The dual of the WAL invariant (paper Section 3.2): a shadow
    architecture may *install* a page's new version — flip the page-table
    entry (or the version timestamp) to point at it — only after that
    version is entirely on stable storage.  Installing first would leave
    the table referencing garbage if the machine crashed before the
    version landed.

    Protocol (mirrors :class:`WALInvariantMonitor`):

    * ``note_version_written(page, token)`` — a new version of ``page``
      exists but is still volatile (its write-back just started);
      ``token`` is any hashable handle unique to that version, e.g. a
      ``(tid, page)`` pair.
    * ``note_version_durable(token)`` — the version reached stable
      storage.
    * ``note_install(page)`` — the page-table entry for ``page`` is about
      to flip; raises :class:`ShadowInstallViolation` (``strict=True``) or
      counts a violation if any version of the page is still volatile.
    * ``reset()`` — a crash: in-flight versions are gone with the cache.
    """

    def __init__(self, strict: bool = True, name: str = "shadow-monitor"):
        self.strict = strict
        self.name = name
        self.installs = 0
        self.durables = 0
        self.violations = 0
        self._pending: Dict[int, Set[Hashable]] = {}
        self._pages_of: Dict[Hashable, Set[int]] = {}

    def note_version_written(self, page: int, token: Hashable) -> None:
        self._pending.setdefault(page, set()).add(token)
        self._pages_of.setdefault(token, set()).add(page)

    def note_version_durable(self, token: Hashable) -> None:
        self.durables += 1
        for page in self._pages_of.pop(token, ()):
            tokens = self._pending.get(page)
            if tokens is not None:
                tokens.discard(token)
                if not tokens:
                    del self._pending[page]

    def note_install(self, page: int) -> None:
        self.installs += 1
        pending = self._pending.get(page)
        if pending:
            self.violations += 1
            if self.strict:
                raise ShadowInstallViolation(
                    f"{self.name}: page {page} installed with "
                    f"{len(pending)} volatile version(s)"
                )

    def reset(self) -> None:
        self._pending.clear()
        self._pages_of.clear()

    @property
    def pending_pages(self) -> int:
        """Pages whose newest version has not reached stable storage."""
        return len(self._pending)

    def __repr__(self) -> str:
        return (
            f"<ShadowInstallMonitor {self.name} installs={self.installs} "
            f"violations={self.violations} pending={self.pending_pages}>"
        )
