"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — a counted resource (e.g. a pool of query processors);
  requests are events that fire when a slot frees up, FIFO.
* :class:`Container` — a level of continuous/discrete "stuff" with a
  blocking ``get`` and a non-blocking, event-free ``release`` (used e.g.
  for free cache-frame accounting).

Requests are usable as context managers inside processes::

    with resource.request() as req:
        yield req
        ... # holding the resource
    # released automatically
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.sim.core import Environment, Event, SimulationError

__all__ = [
    "Container",
    "ContainerGet",
    "Request",
    "Resource",
]


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Per-page hot path: set the slots directly (no Event.__init__ hop).
        self.env = resource.env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        self.resource._cancel(self)


class Resource:
    """``capacity`` identical servers with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a slot; grants the oldest waiting request, if any."""
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing a queued (never-granted) request is a cancel.
            self._cancel(request)
            return
        while self.queue:
            nxt = self.queue.popleft()
            if nxt.triggered:  # cancelled leftover
                continue
            self.users.append(nxt)
            nxt.succeed()
            break

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def retire(self, request: Request) -> None:
        """Remove a granted request *and* its slot (the server died).

        Unlike :meth:`release`, no waiter is promoted: the returned slot
        no longer exists.  Capacity shrinks by one.
        """
        self.users.remove(request)
        self.capacity -= 1

    def add_capacity(self, n: int = 1) -> None:
        """Grow the pool by ``n`` servers, granting waiters that now fit."""
        if n < 1:
            raise SimulationError(f"capacity increment must be >= 1, got {n}")
        self.capacity += n
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            if nxt.triggered:  # cancelled leftover
                continue
            self.users.append(nxt)
            nxt.succeed()

    def remove_capacity(self, n: int = 1) -> None:
        """Shrink the pool by ``n`` *idle* servers (a free unit died)."""
        if n < 1:
            raise SimulationError(f"capacity decrement must be >= 1, got {n}")
        if self.capacity - n < len(self.users):
            raise SimulationError(
                f"cannot remove {n} slots: {len(self.users)} of "
                f"{self.capacity} are held (retire the holder instead)"
            )
        self.capacity -= n


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float):
        # Per-page hot path: set the slots directly (no Event.__init__ hop).
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self.amount = amount


class Container:
    """A homogeneous level (frames, bytes, ...) with blocking get."""

    def __init__(self, env: Environment, capacity: float = float("inf"), init: float = 0):
        if init < 0 or init > capacity:
            raise SimulationError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = init
        self._getters: Deque[ContainerGet] = deque()

    @property
    def level(self) -> float:
        return self._level

    def release(self, amount: float) -> None:
        """Return ``amount`` without blocking and without an event.

        Grants waiting getters in FIFO order but schedules no event of its
        own: its callers (a freed slot or frame) never wait on the return.
        Raises on overflow instead of blocking.
        """
        if amount <= 0:
            raise SimulationError("release amount must be positive")
        if self._level + amount > self.capacity:
            raise SimulationError(
                f"release of {amount} overflows level {self._level} "
                f"(capacity {self.capacity})"
            )
        self._level += amount
        if self._getters:
            self._dispatch()

    def get(self, amount: float) -> ContainerGet:
        if amount <= 0:
            raise SimulationError("get amount must be positive")
        evt = ContainerGet(self.env, amount)
        if not self._getters and self._level >= amount:
            # Nothing queued: the one grant ``_dispatch`` would make.
            self._level -= amount
            evt.succeed()
            return evt
        self._getters.append(evt)
        self._dispatch()
        return evt

    def _dispatch(self) -> None:
        """Grant queued getters in FIFO order while the level covers the
        oldest; withdrawn (already triggered) getters are skipped."""
        getters = self._getters
        while getters:
            get = getters[0]
            if get.triggered:
                getters.popleft()
            elif self._level >= get.amount:
                getters.popleft()
                self._level -= get.amount
                get.succeed()
            else:
                break
