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
    "OrderingMonitor",
    "OrderingViolation",
    "RULES",
    "SampleStat",
    "TimeWeightedStat",
    "UtilizationTracker",
    "percentile",
]


def percentile(data: List[float], q: float) -> float:
    """Linearly interpolated percentile of sorted ``data``; q in [0, 100]."""
    if not data:
        return 0.0
    k = (len(data) - 1) * q / 100.0
    lo = math.floor(k)
    hi = math.ceil(k)
    if lo == hi:
        return data[int(k)]
    return data[lo] * (hi - k) + data[hi] * (k - lo)


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
        return percentile(sorted(self._samples), q)

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


class OrderingViolation(AssertionError):
    """An act on a page ran ahead of the durable data that protects it."""


#: The ordering rules and, for messages, the act each one guards.
RULES = {
    # Section 3.1, write-ahead logging: a dirty page goes home only
    # after its recovery data is forced.
    "wal": "written home",
    # Section 3.2, shadow paging: a page-table entry flips only after
    # the new version it points at is on disk.
    "install": "installed",
}


class OrderingMonitor:
    """Runtime checker of the paper's two ordering rules.

    Both rules have one shape: an act on a page waits until every datum
    protecting it is on stable storage.  The lint rules PROTO01 and
    PROTO02 check the *code paths*; this monitor checks the
    *executions*.  Each call names its rule (a key of :data:`RULES`),
    and each rule keeps its own pending tokens and counters.

    * ``protect(rule, page, token)`` — a datum protecting ``page`` (a
      log fragment, a ``(log, lsn)`` pair, a ``(tid, page)`` version)
      exists but is still volatile.  A token shared by several pages is
      registered once per page.
    * ``durable(rule, token)`` — the datum reached stable storage; it
      stops protecting every page it was registered for.
    * ``check(rule, page)`` — the rule's act on ``page`` is about to
      happen; raises :class:`OrderingViolation` if any datum of the page
      is still volatile.
    * ``reset()`` — a crash: volatile data is gone, so pending tokens
      are meaningless.
    """

    def __init__(self):
        self.checks = dict.fromkeys(RULES, 0)
        self.durables = dict.fromkeys(RULES, 0)
        self.violations = dict.fromkeys(RULES, 0)
        self._pending: Dict[str, Dict[int, Set[Hashable]]] = {r: {} for r in RULES}
        self._pages_of: Dict[str, Dict[Hashable, Set[int]]] = {r: {} for r in RULES}

    def protect(self, rule: str, page: int, token: Hashable) -> None:
        self._pending[rule].setdefault(page, set()).add(token)
        self._pages_of[rule].setdefault(token, set()).add(page)

    def durable(self, rule: str, token: Hashable) -> None:
        self.durables[rule] += 1
        pending = self._pending[rule]
        for page in self._pages_of[rule].pop(token, ()):
            tokens = pending.get(page)
            if tokens is not None:
                tokens.discard(token)
                if not tokens:
                    del pending[page]

    def check(self, rule: str, page: int) -> None:
        self.checks[rule] += 1
        pending = self._pending[rule].get(page)
        if pending:
            self.violations[rule] += 1
            raise OrderingViolation(
                f"{rule} rule: page {page} {RULES[rule]} with "
                f"{len(pending)} volatile datum(s)"
            )

    def reset(self) -> None:
        for rule in RULES:
            self._pending[rule].clear()
            self._pages_of[rule].clear()

    def pending_pages(self, rule: str) -> int:
        """Pages the rule still protects with volatile data."""
        return len(self._pending[rule])

    def __repr__(self) -> str:
        return f"<OrderingMonitor checks={self.checks} violations={self.violations}>"
