"""Core of the discrete-event kernel: environment, events, and processes.

The design follows the classic event-callback architecture used by simpy:

* an :class:`Event` is a one-shot object that is *triggered* with a value
  (or an exception) and later *processed*, at which point its callbacks run;
* a :class:`Process` wraps a generator; every value the generator yields must
  be an event, and the process resumes when that event is processed;
* the :class:`Environment` owns the event calendar, ordered by time,
  priority, and insertion order, which makes runs fully deterministic.
  Entries due at the current instant wait in two FIFO lanes (urgent, then
  normal); only entries strictly in the future go through a heap.

Time is a float; the unit is chosen by the model (the database-machine models
in this package use **milliseconds**, matching the paper).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionEvent",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
]

class SimulationError(Exception):
    """Raised for misuse of the kernel (yielding non-events, etc.)."""


class Event:
    """A one-shot occurrence that processes can wait for.

    Life cycle: *pending* -> *triggered* (has a value, sits in the event
    calendar) -> *processed* (callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the callbacks have been invoked."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (value) rather than failed (error)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value of untriggered event")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        env = self.env
        env._eid += 1
        env._normal.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will see the exception thrown into them.  If nobody
        waits and the failure is not :meth:`defused <defuse>`, the exception
        propagates out of :meth:`Environment.run`.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self._triggered = True
        env = self.env
        env._eid += 1
        env._normal.append(self)
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so it does not crash the run."""
        self._defused = True

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # ``not >=`` rather than ``<``: NaN compares false both ways and
        # would otherwise slip through and poison the clock.
        if not delay >= 0:
            raise SimulationError(f"invalid delay {delay}")
        # The hottest constructor in the kernel: set the slots and push
        # straight onto the calendar (no Event.__init__ hop).
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._triggered = True
        self._processed = False
        self._defused = False
        self.delay = delay
        env._eid += 1
        now = env.now
        at = now + delay
        # The float test, not ``delay == 0``: a delay below the clock's
        # resolution also lands at this instant.
        if at == now:
            env._normal.append(self)
        else:
            heappush(env._queue, (at, env._eid, self))


class _Initialize(Event):
    """Internal event that starts a process at its creation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        self._triggered = True
        self._processed = False
        self._defused = False
        env._eid += 1
        env._urgent.append(self)


class Process(Event):
    """A running generator.  As an event, it fires when the generator ends.

    The event's value is the generator's return value (via ``StopIteration``)
    or the exception that terminated it.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        # One per page pipeline: set the slots (no Event.__init__ hop).
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self._triggered

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                # Generator finished normally.
                self._ok = True
                self._value = exc.value
                break
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self._ok = False
                self._value = exc
                break

            try:
                callbacks = next_event.callbacks
            except AttributeError:
                # Not an event: loop around with a failed stand-in so the
                # misuse is thrown back into the generator.
                event = Event(env)
                event._ok = False
                event._value = SimulationError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                continue
            if callbacks is not None:
                # Event still pending/triggered-not-processed: wait for it.
                callbacks.append(self._resume)
                return
            # Event already processed: loop around immediately with it.
            event = next_event
        # The generator ended: the process event fires at this instant.
        self._triggered = True
        env._eid += 1
        env._normal.append(self)


class ConditionEvent(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: Tuple[Event, ...] = tuple(events)
        for evt in self.events:
            if evt.env is not env:
                raise SimulationError("events from different environments")
        self._count = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for evt in self.events:
            if evt.callbacks is None:
                # Already processed.
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _collect(self) -> dict:
        return {
            evt: evt._value
            for evt in self.events
            if evt._triggered and evt.callbacks is None and evt._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Fires when *all* constituent events have fired.

    Value: dict mapping each event to its value.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed({evt: evt._value for evt in self.events})


class AnyOf(ConditionEvent):
    """Fires when *any* constituent event fires.

    Value: dict of the events processed so far mapped to their values.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect() or {event: event._value})


class Environment:
    """The simulation clock and event calendar.

    The calendar's order is ``(time, priority, insertion)``, with process
    starts *urgent* (before ordinary events at the same instant, as in
    simpy).  It is kept in three places:

    * ``_urgent``: process starts, which only ever arise at ``now``;
    * ``_normal``: ordinary entries due at ``now`` (``succeed``/``fail``,
      process ends, timeouts whose delay does not move the clock);
    * ``_queue``: a heap of ``(time, insertion, event)`` for entries strictly
      in the future.

    The lanes are served first, urgent before normal, and both are FIFO.
    When the heap advances the clock to ``T``, every other heap entry at
    ``T`` moves into the (empty) normal lane in heap order first: each was
    inserted while the clock stood before ``T``, so it precedes anything
    the lanes receive at ``T``.  The result is exactly the order of a
    single heap over all entries.
    """

    def __init__(self, initial_time: float = 0.0):
        #: Current simulation time.  A plain attribute (the hottest read in
        #: the kernel) that only :meth:`run` and :meth:`step` assign.
        self.now = initial_time
        self._urgent: Deque[Event] = deque()
        self._normal: Deque[Event] = deque()
        self._queue: List[Tuple[float, int, Event]] = []
        self._eid = 0
        #: Optional deterministic span recorder (see ``repro.trace``).
        #: Components that model time (disks, interconnects) duck-type it
        #: via ``getattr(env, "tracer", None)``; ``None`` disables tracing
        #: at zero cost.  Attached by whoever builds the model.
        self.tracer: Optional[Any] = None

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event, to be triggered manually."""
        # Set the slots here rather than through ``Event.__init__``: this
        # is the factory the per-page lock and disk code calls.
        event = object.__new__(Event)
        event.env = self
        event.callbacks = []
        event._value = None
        event._ok = True
        event._triggered = False
        event._processed = False
        event._defused = False
        return event

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling / stepping ----------------------------------------------
    @property
    def scheduled(self) -> int:
        """Calendar entries created so far (the insertion counter).

        Deterministic for a given model and seed, so it measures the
        kernel's work independently of the host.
        """
        return self._eid

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if self._urgent or self._normal:
            return self.now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event.

        :meth:`run` inlines this body in its loops; the two must stay in
        step (``tests/test_sim_properties.py`` checks they agree).
        """
        normal = self._normal
        queue = self._queue
        if self._urgent:
            event = self._urgent.popleft()
        elif normal:
            event = normal.popleft()
        elif queue:
            # The clock moves: every other entry due then joins the normal
            # lane first, in heap (that is, insertion) order.
            self.now, _, event = heappop(queue)
            now = self.now
            while queue and queue[0][0] == now:
                normal.append(heappop(queue)[2])
        else:
            raise SimulationError("step() on empty schedule")
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure: surface it to the caller of run().
            raise event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the calendar empties, time ``until``, or an event fires.

        * ``until`` is None: run to exhaustion.
        * ``until`` is a number: run to that time (clock lands exactly on it).
        * ``until`` is an :class:`Event`: run until it is processed and return
          its value (raising if it failed).
        """
        urgent = self._urgent
        normal = self._normal
        queue = self._queue
        if isinstance(until, Event):
            stop = until
            while not stop._processed:
                if urgent:
                    event = urgent.popleft()
                elif normal:
                    event = normal.popleft()
                elif queue:
                    self.now, _, event = heappop(queue)
                    now = self.now
                    while queue and queue[0][0] == now:
                        normal.append(heappop(queue)[2])
                else:
                    raise SimulationError(
                        "schedule ran dry before the awaited event fired"
                    )
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            if not stop._ok:
                raise stop._value
            return stop._value
        if until is None:
            horizon = float("inf")
        else:
            horizon = float(until)
            if horizon < self.now:
                raise SimulationError(
                    f"until={horizon} lies in the past (now={self.now})"
                )
        while True:
            if urgent:
                event = urgent.popleft()
            elif normal:
                event = normal.popleft()
            elif queue and queue[0][0] <= horizon:
                self.now, _, event = heappop(queue)
                now = self.now
                while queue and queue[0][0] == now:
                    normal.append(heappop(queue)[2])
            else:
                break
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
        if until is not None:
            self.now = horizon
        return None
