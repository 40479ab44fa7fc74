"""Page-level two-phase locking with wait-for-graph deadlock detection.

The paper assumes "a scheduler, located in the back-end controller, which
employs page-level locking" (Section 3).  We implement strict 2PL: shared /
exclusive page locks held to end of transaction, FIFO grant order, and
deadlock detection by cycle search on the wait-for graph at every blocking
request — the requester is the victim (its grant event fails with
:class:`DeadlockAbort`).

Because the machine pipelines page reads, one transaction may have several
outstanding lock requests at once; wait-for edges are therefore kept per
(transaction, page) and dissolve as each individual request is granted.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple

from repro.sim.core import Environment, Event
from repro.sim.monitor import CounterStat

__all__ = ["DeadlockAbort", "LockManager", "LockMode"]


class LockMode(enum.IntEnum):
    """Lock modes, ordered by strength."""

    S = 1
    X = 2


class DeadlockAbort(Exception):
    """Raised into a transaction chosen as deadlock victim."""

    def __init__(self, tid: int, cycle: Tuple[int, ...]):
        super().__init__(f"transaction {tid} aborted; wait-for cycle {cycle}")
        self.tid = tid
        self.cycle = cycle


class _LockEntry:
    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        self.holders: Dict[int, LockMode] = {}
        self.queue: Deque[Tuple[int, LockMode, Event]] = deque()


class LockManager:
    """Lock table plus wait-for graph for one database machine."""

    def __init__(self, env: Environment):
        self.env = env
        self._table: Dict[int, _LockEntry] = {}
        #: (tid, page) -> tids this request waits for.
        self._edges: Dict[Tuple[int, int], Set[int]] = {}
        self.grants = CounterStat("lock.grants")
        self.blocks = CounterStat("lock.blocks")
        self.deadlocks = CounterStat("lock.deadlocks")

    # -- public API -----------------------------------------------------------
    @property
    def waiting_requests(self) -> int:
        """Lock requests currently blocked (the backpressure signal)."""
        return len(self._edges)

    def acquire(self, tid: int, page: int, mode: LockMode) -> Event:
        """Request a lock; the event fires on grant, fails on deadlock."""
        event = self.env.event()
        entry = self._table.get(page)
        if entry is None:
            entry = self._table[page] = _LockEntry()

        held = entry.holders.get(tid)
        if held is not None:
            if held >= mode:
                self.grants.increment()
                return event.succeed()
            if len(entry.holders) == 1:
                # Sole holder upgrading S -> X.
                entry.holders[tid] = mode
                self.grants.increment()
                return event.succeed()
            # Upgrade while others hold S: wait at the head of the queue.
            blockers = set(entry.holders) - {tid}
            return self._block(tid, page, mode, event, blockers, front=True)

        if not entry.queue and self._compatible(entry, mode):
            entry.holders[tid] = mode
            self.grants.increment()
            return event.succeed()

        blockers = set(entry.holders) | {t for t, _, _ in entry.queue}
        blockers.discard(tid)
        return self._block(tid, page, mode, event, blockers, front=False)

    def release_all(self, tid: int) -> None:
        """Drop every lock and queued request of ``tid`` (end of transaction)."""
        for key in [k for k in self._edges if k[0] == tid]:
            del self._edges[key]
        for page in list(self._table):
            entry = self._table[page]
            entry.holders.pop(tid, None)
            if entry.queue:
                entry.queue = deque(
                    (t, m, e) for t, m, e in entry.queue if t != tid
                )
            self._grant_waiters(page, entry)
            if not entry.holders and not entry.queue:
                del self._table[page]

    def holds(self, tid: int, page: int, mode: LockMode = LockMode.S) -> bool:
        entry = self._table.get(page)
        if entry is None:
            return False
        held = entry.holders.get(tid)
        return held is not None and held >= mode

    @property
    def active_waiters(self) -> int:
        return len(self._edges)

    # -- internals --------------------------------------------------------------
    @staticmethod
    def _compatible(entry: _LockEntry, mode: LockMode) -> bool:
        if not entry.holders:
            return True
        return mode is LockMode.S and all(
            m is LockMode.S for m in entry.holders.values()
        )

    def _block(
        self,
        tid: int,
        page: int,
        mode: LockMode,
        event: Event,
        blockers: Set[int],
        front: bool,
    ) -> Event:
        self.blocks.increment()
        self._edges[(tid, page)] = blockers
        cycle = self._find_cycle(tid)
        if cycle is not None:
            self.deadlocks.increment()
            del self._edges[(tid, page)]
            event.fail(DeadlockAbort(tid, cycle))
            return event
        entry = self._table[page]
        if front:
            entry.queue.appendleft((tid, mode, event))
        else:
            entry.queue.append((tid, mode, event))
        return event

    def _grant_waiters(self, page: int, entry: _LockEntry) -> None:
        while entry.queue:
            tid, mode, event = entry.queue[0]
            held = entry.holders.get(tid)
            if held is not None and len(entry.holders) == 1:
                entry.holders[tid] = max(held, mode)  # pending upgrade
            elif held is None and self._compatible(entry, mode):
                entry.holders[tid] = mode
            else:
                break
            entry.queue.popleft()
            self._edges.pop((tid, page), None)
            self.grants.increment()
            event.succeed()

    def _waits_of(self, tid: int) -> Set[int]:
        out: Set[int] = set()
        for (t, _page), blockers in self._edges.items():
            if t == tid:
                out |= blockers
        return out

    def _find_cycle(self, start: int) -> Optional[Tuple[int, ...]]:
        """DFS from ``start`` through the wait-for graph; a path back to
        ``start`` is a deadlock cycle."""
        visited: Set[int] = set()
        path: list = []

        def dfs(node: int) -> Optional[Tuple[int, ...]]:
            for nxt in self._waits_of(node):
                if nxt == start:
                    return tuple(path + [node, start])
                if nxt not in visited:
                    visited.add(nxt)
                    path.append(node)
                    found = dfs(nxt)
                    path.pop()
                    if found:
                        return found
            return None

        return dfs(start)
