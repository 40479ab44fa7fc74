"""Overload protection: bounded admission and backpressure.

The paper drives its machine with a closed batch, so the back-end
controller never has to say *no*.  An open system must: when offered
load exceeds capacity, the admitted work must stay bounded or the lock
table and cache thrash and goodput collapses.  This module is the
machine-layer half of the open-system story (the arrival processes live
in :mod:`repro.loadgen`):

* :class:`AdmissionQueue` — a bounded queue in front of the machine that
  turns an arrival away when it is full, client-side retry with capped
  exponential backoff, and deadline-based shedding.  Every offered
  transaction ends in exactly one disposition: **admitted**, **rejected**
  (turned away, retries exhausted), or **shed** (client deadline expired
  first) — the accounting oracle ``admitted + rejected + shed = offered``
  is checked by the loadtest.
* :class:`BackpressureMonitor` — watches the lock table and buffer cache
  against high/low watermarks; while asserted, arrivals are turned away
  at the door regardless of queue room.

Everything here is deterministic — backoffs are computed, never drawn —
so an open-system run is exactly reproducible from its arrival schedule.
Closed-batch ``DatabaseMachine.run()`` never constructs these objects,
keeping pre-existing traces byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.sim.monitor import CounterStat

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.machine.machine import DatabaseMachine
    from repro.workload.transaction import Transaction

__all__ = ["AdmissionQueue", "BackpressureMonitor"]

#: Final dispositions of an offered transaction.
ADMITTED = "admitted"
REJECTED = "rejected"
SHED = "shed"

#: Depth of the bounded admission queue in front of the machine
#: (admitted-but-not-yet-running transactions).
ADMISSION_QUEUE_LIMIT = 16
#: Client-side attempts per offered transaction (first try + retries);
#: a turned-away client retries with capped exponential backoff.
ADMISSION_RETRY_MAX_ATTEMPTS = 3
#: Base of the capped exponential client backoff, in ms.
ADMISSION_RETRY_BASE_MS = 50.0
#: Cap on the exponential client backoff, in ms.
ADMISSION_RETRY_CAP_MS = 400.0
#: Cache-occupancy fraction at which backpressure asserts (arrivals are
#: turned away) and the fraction below which it releases.
BACKPRESSURE_CACHE_HIGH = 0.95
BACKPRESSURE_CACHE_LOW = 0.75
#: Waiting lock requests at which backpressure asserts / releases.
BACKPRESSURE_LOCK_HIGH = 48
BACKPRESSURE_LOCK_LOW = 12


class BackpressureMonitor:
    """Hysteresis watermark monitor over the lock table and cache.

    ``update()`` is called at every admission attempt and every
    transaction completion; it flips :attr:`active` when the cache
    occupancy or the count of blocked lock requests crosses the high
    watermark, and releases only when *both* signals drain below their
    low watermarks (classic hysteresis, so the signal does not flap).
    """

    def __init__(self, machine: "DatabaseMachine"):
        self.machine = machine
        self.active = False
        self.transitions = CounterStat("backpressure.transitions")
        #: Total simulated time spent with backpressure asserted.
        self.asserted_ms = 0.0
        self._asserted_at: Optional[float] = None

    def _cache_fraction(self) -> float:
        cache = self.machine.cache
        return cache.in_use / cache.capacity

    def update(self) -> bool:
        """Re-evaluate the signals; returns the (possibly new) state."""
        machine = self.machine
        waiting = machine.locks.waiting_requests
        cache_frac = self._cache_fraction()
        if not self.active:
            if (
                cache_frac >= BACKPRESSURE_CACHE_HIGH
                or waiting >= BACKPRESSURE_LOCK_HIGH
            ):
                self.active = True
                self.transitions.increment()
                self._asserted_at = machine.env.now
                machine._tinstant(
                    "backpressure.on",
                    cache_fraction=round(cache_frac, 4),
                    lock_waiters=waiting,
                )
                machine.fault_hook("machine.backpressure.on")
        else:
            if (
                cache_frac <= BACKPRESSURE_CACHE_LOW
                and waiting <= BACKPRESSURE_LOCK_LOW
            ):
                self.active = False
                self.transitions.increment()
                if self._asserted_at is not None:
                    self.asserted_ms += machine.env.now - self._asserted_at
                    self._asserted_at = None
                machine._tinstant(
                    "backpressure.off",
                    cache_fraction=round(cache_frac, 4),
                    lock_waiters=waiting,
                )
                machine.fault_hook("machine.backpressure.off")
        return self.active

    def finish(self) -> None:
        """Close an open assertion window at the end of the run."""
        if self._asserted_at is not None:
            self.asserted_ms += self.machine.env.now - self._asserted_at
            self._asserted_at = None


class AdmissionQueue:
    """The bounded admission queue in front of the multiprogramming level.

    One instance serves one open-system run (:meth:`DatabaseMachine.run_open`).
    ``admit(txn, arrival_ms)`` is a simulation generator driving the whole
    client-side protocol — queue check, retries with capped exponential
    backoff, deadline shedding — and returns the final disposition.
    """

    def __init__(self, machine: "DatabaseMachine"):
        self.machine = machine
        #: Admitted transactions not yet started (at most
        #: ``ADMISSION_QUEUE_LIMIT``).
        self.depth = 0
        self.backpressure = BackpressureMonitor(machine)
        self.offered = CounterStat("admission.offered")
        self.admitted = CounterStat("admission.admitted")
        self.rejected = CounterStat("admission.rejected")
        self.shed = CounterStat("admission.shed")
        self.retries = CounterStat("admission.retries")

    # ------------------------------------------------------------------ protocol
    def _deadline_of(self, arrival_ms: float) -> Optional[float]:
        deadline = self.machine.config.admission_deadline_ms
        return arrival_ms + deadline if deadline > 0 else None

    def _backoff_ms(self, attempt: int) -> float:
        """Capped exponential client backoff after the ``attempt``-th try."""
        return min(
            ADMISSION_RETRY_CAP_MS,
            ADMISSION_RETRY_BASE_MS * (2.0 ** (attempt - 1)),
        )

    def _try_once(self) -> bool:
        """One admission attempt; True when a slot is held."""
        if self.backpressure.update() or self.depth >= ADMISSION_QUEUE_LIMIT:
            return False
        self.depth += 1
        return True

    def admit(self, txn: "Transaction", arrival_ms: float):
        """Generator: run the client protocol; returns the disposition.

        On ``ADMITTED`` the caller holds one queue slot and must call
        :meth:`start` when the transaction begins executing (freeing the
        slot for the next arrival).
        """
        machine = self.machine
        self.offered.increment()
        deadline = self._deadline_of(arrival_ms)
        attempt = 0
        while True:
            if deadline is not None and machine.env.now >= deadline:
                self.shed.increment()
                machine._tinstant("admission.shed", tid=txn.tid, attempts=attempt)
                machine.fault_hook("machine.admission.shed")
                return SHED
            attempt += 1
            if self._try_once():
                self.admitted.increment()
                machine._tinstant(
                    "admission.enqueue",
                    tid=txn.tid,
                    attempts=attempt,
                    depth=self.depth,
                )
                machine.fault_hook("machine.admission.enqueue")
                return ADMITTED
            if attempt >= ADMISSION_RETRY_MAX_ATTEMPTS:
                self.rejected.increment()
                machine._tinstant("admission.reject", tid=txn.tid, attempts=attempt)
                machine.fault_hook("machine.admission.reject")
                return REJECTED
            self.retries.increment()
            backoff = self._backoff_ms(attempt)
            if deadline is not None:
                backoff = min(backoff, max(0.0, deadline - machine.env.now))
            if backoff > 0:
                yield machine.env.timeout(backoff)

    def start(self) -> None:
        """An admitted transaction left the queue for a processor slot."""
        self.depth -= 1

    def note_completion(self) -> None:
        """A transaction finished; pressure may have drained."""
        self.backpressure.update()

    # ------------------------------------------------------------------ results
    def counters(self) -> Dict[str, int]:
        """The accounting counters, folded into ``RunResult.counters``."""
        return {
            "admission_offered": self.offered.count,
            "admission_admitted": self.admitted.count,
            "admission_rejected": self.rejected.count,
            "admission_shed": self.shed.count,
            "admission_retries": self.retries.count,
            "backpressure_transitions": self.backpressure.transitions.count,
        }
