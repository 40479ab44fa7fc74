"""A simple shared interconnect: serialized transfers at a fixed bandwidth.

Used for the dedicated link between query processors and log processors
(paper Section 4.1.3).  The paper evaluates effective bandwidths of 1.0,
0.1, and 0.01 MB/s and finds the database machine insensitive to all of
them; our reproduction of that ablation uses this model.
"""

from __future__ import annotations

from repro.sim.core import Environment, SimulationError
from repro.sim.monitor import CounterStat, UtilizationTracker
from repro.sim.resources import Resource

__all__ = ["Interconnect", "MessageLost"]


class MessageLost(SimulationError):
    """A transfer was dropped and every retransmission failed too."""


class Interconnect:
    """A bandwidth-limited interconnect with ``channels`` parallel lanes.

    ``channels=1`` models one shared half-duplex wire; larger values model
    dedicated point-to-point connections (the paper's "dedicated connection
    between the query and log processors" gives every query processor its
    own lane, which is why even a 0.01 MB/s effective bandwidth only delays
    individual fragments instead of congesting a shared bus).
    """

    def __init__(
        self,
        env: Environment,
        bandwidth_mb_per_s: float = 1.0,
        latency_ms: float = 0.0,
        channels: int = 1,
        name: str = "link",
    ):
        if bandwidth_mb_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if channels < 1:
            raise ValueError("need at least one channel")
        self.env = env
        self.name = name
        self.bandwidth_mb_per_s = bandwidth_mb_per_s
        self.latency_ms = latency_ms
        self.channels = channels
        self._channel = Resource(env, capacity=channels)
        #: duck-typed fault injector (``drop_message()`` predicate);
        #: assigned by whoever arms fault injection.  ``None`` = no faults.
        self.faults = None
        self.busy = UtilizationTracker(env.now, name=name)
        self.bytes_moved = CounterStat(f"{name}.bytes")
        self.messages_lost = CounterStat(f"{name}.lost")
        self.retransmissions = CounterStat(f"{name}.retransmissions")

    def transfer_ms(self, n_bytes: int) -> float:
        """Wire time for ``n_bytes``."""
        return self.latency_ms + n_bytes / (self.bandwidth_mb_per_s * 1000.0)

    def transfer(self, n_bytes: int):
        """Move ``n_bytes``; the caller runs it with ``yield from``.

        Returns ``True`` if the message arrived, ``False`` if the
        interconnect dropped it (wire time is spent either way).
        Loss-aware callers use :meth:`reliable_transfer`.
        """
        with self._channel.request() as req:
            yield req
            # Duck-typed tracer (repro.trace attaches itself via env.tracer;
            # the literal name is registered in the span catalogue).  Read
            # afresh after the yield: a run can end mid-transfer, and the
            # suspended transfer must not keep a finished run's tracer.
            env = self.env
            span = None
            if env.tracer is not None:
                span = env.tracer.begin("link.transfer", track=self.name, n_bytes=n_bytes)
            self.busy.start(env.now)
            yield env.timeout(self.transfer_ms(n_bytes))
            self.busy.stop(env.now)
            # No span when the transfer began between runs, untraced.
            tracer = env.tracer if span is not None else None
            if tracer is not None:
                tracer.end(span)
            if self.faults is not None and self.faults.drop_message():
                self.messages_lost.increment()
                return False
            self.bytes_moved.increment(n_bytes)
            return True

    def reliable_transfer(
        self, n_bytes: int, max_retries: int = 4, backoff_ms: float = 1.0
    ):
        """A transfer with bounded retransmission and linear backoff, run
        with ``yield from``.

        Returns once the message finally arrives; raises
        :class:`MessageLost` after ``max_retries`` retransmissions all get
        dropped.
        """
        for attempt in range(max_retries + 1):
            if attempt:
                self.retransmissions.increment()
                yield self.env.timeout(backoff_ms * attempt)
            delivered = yield from self.transfer(n_bytes)
            if delivered:
                return True
        raise MessageLost(
            f"{self.name}: message lost after {max_retries} retransmissions"
        )
