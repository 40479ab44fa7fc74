"""Forward dataflow over the lint CFGs.

The flow-sensitive rules all reduce to the same question: "which abstract
states can execution be in when it reaches this element?"  The state
spaces are tiny and finite (a frozenset of established protections, a
mutated/faulted bit pair, an open-span marker), so instead of a lattice
with widening we track the *exact set* of reachable states per block —
the union-merge fixpoint converges because states are drawn from a finite
domain and the set only grows.

Entry points:

* :class:`Flow` — the fixpoint: entry-state set per block plus the
  states reaching either exit.
* :func:`block_states` / :func:`states_at_exit` — shorthands for one half
  of a :class:`Flow`.
* :func:`iter_element_states` — post-fixpoint replay: for each reachable
  block, step the transfer function through its elements and yield
  ``(block, element, states_before_element)``.  Rules anchor findings
  here ("this home write can be reached with no force established").

Internally every state is paired with an "exception in flight" bit that
the CFG's edge labels drive (:data:`~repro.lint.cfg.UNWIND` sets it,
:data:`~repro.lint.cfg.SETTLE` clears it, :data:`~repro.lint.cfg.RESUME`
is closed to routes that carry it).  That is what keeps a route which
entered a shared ``finally`` by an exception from leaking out of the
finalizer to the normal exit.  Rules see only their own states.

The transfer function signature is ``transfer(state, element) -> state``;
it must be pure and return a hashable state.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, Set, Tuple

import ast

from repro.lint.cfg import CFG, RESUME, SETTLE, UNWIND, BasicBlock

__all__ = ["Flow", "block_states", "iter_element_states", "states_at_exit"]

State = Hashable
Transfer = Callable[[State, ast.AST], State]
#: A rule state paired with the exception-in-flight bit.
Pair = Tuple[State, bool]


def _apply_block(
    pairs: Iterable[Pair], block: BasicBlock, transfer: Transfer
) -> FrozenSet[Pair]:
    out = set(pairs)
    for element in block.elements:
        # sorted-by-repr keeps the iteration order deterministic (DET02);
        # states are heterogeneous hashables, so repr is the common key.
        out = {(transfer(s, element), r) for s, r in sorted(out, key=repr)}
    return frozenset(out)


def _follow(pairs: FrozenSet[Pair], labels: Set) -> FrozenSet[Pair]:
    """The pairs that cross an edge carrying ``labels``, as they arrive."""
    if labels == {None}:
        return pairs
    out: Set[Pair] = set()
    for label in labels:
        if label is None:
            out |= pairs
        elif label == UNWIND:
            out |= {(s, True) for s, _ in pairs}
        elif label == SETTLE:
            out |= {(s, False) for s, _ in pairs}
        elif label == RESUME:
            out |= {(s, False) for s, raising in pairs if not raising}
    return frozenset(out)


class Flow:
    """The worklist fixpoint over one CFG, from ``init`` at the entry."""

    def __init__(self, cfg: CFG, transfer: Transfer, init: State):
        self.cfg = cfg
        self.transfer = transfer
        blocks = {b.bid: b for b in cfg.reachable()}
        pairs: Dict[int, FrozenSet[Pair]] = {bid: frozenset() for bid in blocks}
        pairs[cfg.entry.bid] = frozenset([(init, False)])
        work = [cfg.entry]
        while work:
            block = work.pop()
            out = _apply_block(pairs[block.bid], block, transfer)
            for succ in block.succs:
                if succ.bid not in pairs:
                    continue
                merged = pairs[succ.bid] | _follow(out, block.edge_labels[succ.bid])
                if merged != pairs[succ.bid]:
                    pairs[succ.bid] = merged
                    work.append(succ)
        self._pairs = pairs
        #: Entry-state set per reachable block id.
        self.entry: Dict[int, FrozenSet[State]] = {
            bid: frozenset(s for s, _ in p) for bid, p in pairs.items()
        }

    def at_exit(self, exceptional: bool = False) -> FrozenSet[State]:
        """States reaching the normal exit (or the raise exit).

        ``exceptional=False`` answers "what can hold when the function
        completes without raising" — the FP01 / TR02 question.
        """
        target = self.cfg.raise_exit if exceptional else self.cfg.exit
        out: Set[State] = set()
        for pred in target.preds:
            if pred.bid in self._pairs:
                crossing = _apply_block(self._pairs[pred.bid], pred, self.transfer)
                out |= {s for s, _ in _follow(crossing, pred.edge_labels[target.bid])}
        return frozenset(out)


def block_states(
    cfg: CFG, transfer: Transfer, init: State
) -> Dict[int, FrozenSet[State]]:
    """Entry-state sets per reachable block id (worklist fixpoint)."""
    return Flow(cfg, transfer, init).entry


def iter_element_states(
    cfg: CFG, transfer: Transfer, init: State
) -> Iterator[Tuple[BasicBlock, ast.AST, FrozenSet[State]]]:
    """Replay the converged fixpoint: yield each reachable element with the
    set of states execution may hold just before evaluating it."""
    entry = block_states(cfg, transfer, init)
    for block in cfg.reachable():
        states = set(entry[block.bid])
        for element in block.elements:
            yield block, element, frozenset(states)
            states = {transfer(s, element) for s in sorted(states, key=repr)}


def states_at_exit(
    cfg: CFG, transfer: Transfer, init: State, exceptional: bool = False
) -> FrozenSet[State]:
    """States reaching the normal exit (or the raise exit)."""
    return Flow(cfg, transfer, init).at_exit(exceptional)
