"""Intraprocedural control-flow graphs over Python function ASTs.

The flow-sensitive rules (PROTO01/02, FP01, TR02 — see docs/LINT.md) need
to reason about *paths*: "does a log force dominate this home write on
every route through the function", "does every path that mutates stable
storage also cross a fault point".  This module builds the graph they walk.

Design:

* A :class:`BasicBlock` holds a straight-line run of *elements* — whole
  simple statements, plus the test/iter expressions of compound
  statements (an ``if`` contributes its test to the block that evaluates
  it, the body statements go to successor blocks).  Every reachable
  statement of the function lands in exactly one block (the property test
  in ``tests/test_lint_cfg.py`` proves it); nested function and class
  definitions are opaque single elements — their bodies get their own CFGs.
* Two virtual exits: :attr:`CFG.exit` collects normal completion (every
  ``return`` and the fall-off-the-end route) and :attr:`CFG.raise_exit`
  collects uncaught exceptions.  Rules that check "all non-exceptional
  paths" look only at routes into ``exit``.
* ``try``/``except``/``finally`` is modeled with a *shared* ``finally``
  subgraph: every route that must run the finalizer (normal completion,
  a caught-or-uncaught exception, ``return``/``break``/``continue``
  unwinding) flows through the one compiled copy, and the finalizer's
  exit fans out to each registered continuation.  Sharing keeps the
  statement-to-block mapping a partition; the edge labels below keep the
  merged routes apart again where it matters.
* Edge labels carry the *continuation kind* across a shared finalizer.
  An edge on which an exception enters a finalizer (a may-raise edge, an
  explicit ``raise``, or an outer finalizer's raise continuation) is
  labelled :data:`UNWIND`; an edge after which no exception is in flight
  (a handler entry, a normal completion, a ``return``/``break``/
  ``continue``) is :data:`SETTLE`; and an edge from a finalizer's end to
  a non-exceptional continuation (the code after the ``try``, a parked
  ``return``/``break``/``continue``) is :data:`RESUME`.  A route that
  entered the finalizer by :data:`UNWIND` may not take a :data:`RESUME`
  edge, so an exception-entered ``finally`` reaches only the handlers
  and :attr:`CFG.raise_exit`.  :mod:`repro.lint.dataflow` carries the
  "exception in flight" bit in its states and applies this rule;
  :func:`dominators` and plain reachability ignore the labels.
* Exceptions are modeled at the points that matter for the rules:
  explicit ``raise`` statements always unwind; additionally, every block
  inside a ``try`` body gets a may-raise edge to the handlers (any call
  can throw), so code in ``except:`` blocks is reachable.  A typed
  handler is conservatively assumed to catch (no exception-type lattice).
* A rule may pass ``assume``, a predicate over ``if`` tests it takes as
  always true (TR02's ``tracer is not None`` guards); such an ``if``
  gets no false edge, so its ``else`` arm is unreachable.

Limits (documented, shared with docs/LINT.md): no short-circuit
expression flow, ``with`` is transparent (its body runs inline; ``__exit__``
cleanup semantics are not modeled), and ``while`` loops guarded by a
literal ``True`` get no false exit edge.  The continuation kind is one
bit, not a stack: an exception caught by a handler *inside* a finalizer
settles it, after which that finalizer's end may again take every
continuation — an over-approximation, never a lost path.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "RESUME",
    "SETTLE",
    "UNWIND",
    "BasicBlock",
    "CFG",
    "build_cfg",
    "dominators",
    "reachable_blocks",
    "statements_of",
]

#: Edge label: an exception in flight enters a finalizer.
UNWIND = "unwind"
#: Edge label: past this edge no exception is in flight.
SETTLE = "settle"
#: Edge label: a finalizer's end resumes a non-exceptional continuation;
#: routes that entered the finalizer by :data:`UNWIND` cannot take it.
RESUME = "resume"


class BasicBlock:
    """A straight-line run of elements with edges to successor blocks."""

    __slots__ = ("bid", "elements", "succs", "preds", "kind", "edge_labels")

    def __init__(self, bid: int, kind: str = "code"):
        self.bid = bid
        #: AST nodes evaluated in this block, in execution order.
        self.elements: List[ast.AST] = []
        self.succs: List["BasicBlock"] = []
        self.preds: List["BasicBlock"] = []
        #: "code", "exit" (normal completion) or "raise" (uncaught exception).
        self.kind = kind
        #: Successor bid -> labels of the edges to it (None = unlabelled).
        self.edge_labels: Dict[int, Set[Optional[str]]] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<B{self.bid} {self.kind} {len(self.elements)} elems>"


class CFG:
    """The control-flow graph of one function definition."""

    def __init__(self, func: ast.AST):
        self.func = func
        self.blocks: List[BasicBlock] = []
        self.entry = self._new_block()
        self.exit = self._new_block(kind="exit")
        self.raise_exit = self._new_block(kind="raise")

    def _new_block(self, kind: str = "code") -> BasicBlock:
        block = BasicBlock(len(self.blocks), kind)
        self.blocks.append(block)
        return block

    @staticmethod
    def add_edge(src: BasicBlock, dst: BasicBlock, label: Optional[str] = None) -> None:
        if dst not in src.succs:
            src.succs.append(dst)
            dst.preds.append(src)
        src.edge_labels.setdefault(dst.bid, set()).add(label)

    def reachable(self) -> List[BasicBlock]:
        """Blocks reachable from the entry, in a stable (bid) order."""
        return reachable_blocks(self)


def reachable_blocks(cfg: CFG) -> List[BasicBlock]:
    seen: Set[int] = set()
    stack = [cfg.entry]
    while stack:
        block = stack.pop()
        if block.bid in seen:
            continue
        seen.add(block.bid)
        stack.extend(block.succs)
    return [b for b in cfg.blocks if b.bid in seen]


class _Frame:
    """One entry of the builder's control stack (a loop or a try)."""

    __slots__ = (
        "kind",
        "break_to",
        "continue_to",
        "handler_entries",
        "has_finally",
        "finally_entry",
        "finally_exits",
        "pending",
        "catches",
    )

    def __init__(self, kind: str):
        self.kind = kind  # "loop" | "try"
        self.break_to: Optional[BasicBlock] = None
        self.continue_to: Optional[BasicBlock] = None
        #: Entry blocks of each except-handler (while they are active).
        self.handler_entries: List[BasicBlock] = []
        self.has_finally = False
        self.finally_entry: Optional[BasicBlock] = None
        #: Blocks that end the shared finally subgraph (normally one).
        self.finally_exits: List[BasicBlock] = []
        #: Abrupt continuations routed through the finally, to be resolved
        #: when the try statement finishes compiling: "return" | "raise" |
        #: ("break"|"continue", loop-depth).
        self.pending: List = []
        #: Whether the handlers are still armed (they are not while the
        #: handler bodies themselves compile).
        self.catches = False


class _Builder:
    """Compiles one function body into a :class:`CFG`."""

    def __init__(self, func: ast.AST, assume: Optional[Callable[[ast.AST], bool]] = None):
        self.cfg = CFG(func)
        self.current: Optional[BasicBlock] = self.cfg.entry
        self.stack: List[_Frame] = []
        self.assume = assume

    # -- plumbing ---------------------------------------------------------
    def _block(self) -> BasicBlock:
        """The block receiving the next element (a fresh one after a jump)."""
        if self.current is None:
            # Statements after return/raise/break/continue: unreachable,
            # parked in a predecessor-less block so they still map somewhere.
            self.current = self.cfg._new_block()
        return self.current

    def _emit(self, node: ast.AST) -> None:
        self._block().elements.append(node)

    def _goto(self, target: Optional[BasicBlock]) -> None:
        """End the current block, falling through to ``target`` (or nowhere)."""
        if self.current is not None and target is not None:
            CFG.add_edge(self.current, target)
        self.current = target

    # -- abrupt-exit routing ----------------------------------------------
    def _unwind(
        self, kind: str, depth_limit: Optional[int] = None, resuming: bool = False
    ) -> None:
        """Route an abrupt exit (return / raise / break / continue) from the
        current block outward through the control stack.

        Walks enclosing frames innermost-first.  A ``raise`` stops at the
        first try whose handlers are armed; ``break``/``continue`` stop at
        the loop frame at ``depth_limit``; ``return`` unwinds everything.
        Each intervening finally gets (a) an in-edge from the departing
        block and (b) a pending continuation resolved when its try finishes.
        ``resuming`` marks a parked continuation leaving a finalizer's end:
        its non-exceptional edges are labelled :data:`RESUME`.
        """
        src = self.current
        if src is None:
            return
        raising = kind == "raise"
        settled = RESUME if resuming else SETTLE
        for index in range(len(self.stack) - 1, -1, -1):
            frame = self.stack[index]
            if raising and frame.kind == "try" and frame.catches:
                for handler in frame.handler_entries:
                    CFG.add_edge(src, handler, SETTLE)
                self.current = None
                return
            if kind in ("break", "continue") and frame.kind == "loop":
                if depth_limit is not None and index != depth_limit:
                    continue
                target = frame.break_to if kind == "break" else frame.continue_to
                CFG.add_edge(src, target, settled)
                self.current = None
                return
            if frame.kind == "try" and frame.has_finally:
                CFG.add_edge(src, frame.finally_entry, UNWIND if raising else settled)
                token = (kind, depth_limit)
                if token not in frame.pending:
                    frame.pending.append(token)
                self.current = None
                return
        # Unwound past every frame.
        if raising:
            CFG.add_edge(src, self.cfg.raise_exit, UNWIND)
        else:
            CFG.add_edge(src, self.cfg.exit, settled)
        self.current = None

    def _loop_depth_for(self, _node: ast.AST) -> Optional[int]:
        """Stack index of the innermost loop (break/continue target)."""
        for index in range(len(self.stack) - 1, -1, -1):
            if self.stack[index].kind == "loop":
                return index
        return None  # malformed code (break outside loop); route to exit

    # -- statement dispatch ------------------------------------------------
    def build(self) -> CFG:
        body = getattr(self.cfg.func, "body", [])
        self._stmts(body)
        self._goto(self.cfg.exit)  # fall off the end
        return self.cfg

    def _stmts(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, (ast.While,)):
            self._while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._for(stmt)
        elif isinstance(stmt, ast.Try):
            self._try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt)
        elif isinstance(stmt, ast.Return):
            self._emit(stmt)
            self._unwind("return")
        elif isinstance(stmt, ast.Raise):
            self._emit(stmt)
            self._unwind("raise")
        elif isinstance(stmt, ast.Break):
            self._emit(stmt)
            self._unwind("break", self._loop_depth_for(stmt))
        elif isinstance(stmt, ast.Continue):
            self._emit(stmt)
            self._unwind("continue", self._loop_depth_for(stmt))
        else:
            # Simple statements — including nested FunctionDef / ClassDef,
            # which are opaque one-element definitions at this level.
            self._emit(stmt)

    # -- compound statements ----------------------------------------------
    def _if(self, stmt: ast.If) -> None:
        self._emit(stmt.test)
        cond = self.current
        # An assumed-true test never takes its false edge.
        always = self.assume is not None and self.assume(stmt.test)
        after = self.cfg._new_block()
        # Then-branch.
        then_entry = self.cfg._new_block()
        CFG.add_edge(cond, then_entry)
        self.current = then_entry
        self._stmts(stmt.body)
        self._goto(after)
        # Else-branch (possibly empty: the condition falls through).
        if stmt.orelse:
            else_entry = self.cfg._new_block()
            if not always:
                CFG.add_edge(cond, else_entry)
            self.current = else_entry
            self._stmts(stmt.orelse)
            self._goto(after)
        elif not always:
            CFG.add_edge(cond, after)
        self.current = after if after.preds else None

    @staticmethod
    def _is_literal_true(test: ast.AST) -> bool:
        return isinstance(test, ast.Constant) and bool(test.value) is True

    def _while(self, stmt: ast.While) -> None:
        head = self.cfg._new_block()
        self._goto(head)
        self.current = head
        self._emit(stmt.test)
        after = self.cfg._new_block()
        frame = _Frame("loop")
        frame.break_to = after
        frame.continue_to = head
        body_entry = self.cfg._new_block()
        CFG.add_edge(head, body_entry)
        exits_normally = not self._is_literal_true(stmt.test)
        self.stack.append(frame)
        self.current = body_entry
        self._stmts(stmt.body)
        self._goto(head)  # back edge
        self.stack.pop()
        if exits_normally:
            if stmt.orelse:
                else_entry = self.cfg._new_block()
                CFG.add_edge(head, else_entry)
                self.current = else_entry
                self._stmts(stmt.orelse)
                self._goto(after)
            else:
                CFG.add_edge(head, after)
        self.current = after if after.preds else None

    def _for(self, stmt) -> None:
        # The head evaluates the iterable / draws the next item.
        head = self.cfg._new_block()
        self._goto(head)
        self.current = head
        self._emit(stmt.iter)
        after = self.cfg._new_block()
        frame = _Frame("loop")
        frame.break_to = after
        frame.continue_to = head
        body_entry = self.cfg._new_block()
        CFG.add_edge(head, body_entry)
        self.stack.append(frame)
        self.current = body_entry
        self._stmts(stmt.body)
        self._goto(head)
        self.stack.pop()
        if stmt.orelse:
            else_entry = self.cfg._new_block()
            CFG.add_edge(head, else_entry)  # iterator exhausted
            self.current = else_entry
            self._stmts(stmt.orelse)
            self._goto(after)
        else:
            CFG.add_edge(head, after)
        self.current = after if after.preds else None

    def _with(self, stmt) -> None:
        for item in stmt.items:
            self._emit(item.context_expr)
        self._stmts(stmt.body)

    def _try(self, stmt: ast.Try) -> None:
        frame = _Frame("try")
        frame.has_finally = bool(stmt.finalbody)
        if frame.has_finally:
            frame.finally_entry = self.cfg._new_block()
        after = self.cfg._new_block()

        # --- try body, with handlers armed -------------------------------
        handler_entries = [self.cfg._new_block() for _ in stmt.handlers]
        frame.handler_entries = handler_entries
        frame.catches = bool(stmt.handlers)
        body_entry = self.cfg._new_block()
        self._goto(body_entry)
        self.stack.append(frame)
        first_body_block = len(self.cfg.blocks)
        self.current = body_entry
        self._stmts(stmt.body)
        body_end = self.current
        # Any element of the try body may raise: add may-raise edges from
        # every block the body produced (plus its entry) to each handler.
        body_blocks = [body_entry] + [
            b
            for b in self.cfg.blocks[first_body_block:]
            if b.kind == "code" and b.elements
        ]
        for block in body_blocks:
            for handler in handler_entries:
                CFG.add_edge(block, handler, SETTLE)
            if not stmt.handlers and frame.has_finally:
                # No handlers: a raise anywhere in the body still runs the
                # finalizer before propagating.
                CFG.add_edge(block, frame.finally_entry, UNWIND)
                if ("raise", None) not in frame.pending:
                    frame.pending.append(("raise", None))

        # --- else clause (runs when the body completed without raising) --
        frame.catches = False  # a raise in else/handlers unwinds outward
        self.current = body_end
        if stmt.orelse:
            self._stmts(stmt.orelse)
        normal_end = self.current

        # --- handler bodies ----------------------------------------------
        handler_ends: List[Optional[BasicBlock]] = []
        for handler, entry in zip(stmt.handlers, handler_entries):
            self.current = entry
            if handler.type is not None:
                self._emit(handler.type)
            self._stmts(handler.body)
            handler_ends.append(self.current)
        self.stack.pop()

        # --- route normal completions ------------------------------------
        completions = [normal_end] + handler_ends
        if frame.has_finally:
            for end in completions:
                if end is not None:
                    CFG.add_edge(end, frame.finally_entry, SETTLE)
            # Compile the shared finalizer (outside the frame: its own
            # raises/returns unwind past this try).
            self.current = frame.finally_entry
            self._stmts(stmt.finalbody)
            finally_end = self.current
            if finally_end is not None:
                CFG.add_edge(finally_end, after, RESUME)
                # Resolve abrupt continuations that were parked on the frame.
                for kind, depth in frame.pending:
                    self._unwind_from(finally_end, kind, depth)
        else:
            for end in completions:
                if end is not None:
                    CFG.add_edge(end, after)
        self.current = after if after.preds else None

    def _unwind_from(self, block: BasicBlock, kind: str, depth: Optional[int]) -> None:
        saved = self.current
        self.current = block
        self._unwind(kind, depth, resuming=True)
        self.current = saved


def build_cfg(func: ast.AST, assume: Optional[Callable[[ast.AST], bool]] = None) -> CFG:
    """The CFG of ``func`` (a FunctionDef / AsyncFunctionDef / Lambda-like
    node with a ``body`` list).

    ``assume(test)`` marks ``if`` tests the caller takes as always true:
    such an ``if`` gets no edge to its ``else`` branch or past it.
    """
    return _Builder(func, assume).build()


def dominators(cfg: CFG) -> Dict[int, Set[int]]:
    """Block id -> ids of its dominators, over the reachable subgraph.

    Classic iterative dataflow: dom(entry) = {entry}; dom(b) = {b} ∪
    ⋂ dom(preds).  Unreachable blocks are absent from the result.
    """
    blocks = cfg.reachable()
    ids = {b.bid for b in blocks}
    dom: Dict[int, Set[int]] = {b.bid: set(ids) for b in blocks}
    dom[cfg.entry.bid] = {cfg.entry.bid}
    changed = True
    while changed:
        changed = False
        for block in blocks:
            if block is cfg.entry:
                continue
            preds = [p for p in block.preds if p.bid in ids]
            if preds:
                new = set.intersection(*(dom[p.bid] for p in preds))
            else:  # pragma: no cover - reachable implies a reachable pred
                new = set()
            new.add(block.bid)
            if new != dom[block.bid]:
                dom[block.bid] = new
                changed = True
    return dom


def statements_of(func: ast.AST) -> Iterator[ast.stmt]:
    """Every statement of ``func``'s body, not descending into nested
    function/class definitions (those have their own CFGs)."""

    def walk(body: List[ast.stmt]) -> Iterator[ast.stmt]:
        for stmt in body:
            yield stmt
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for field in ("body", "orelse", "finalbody"):
                yield from walk(getattr(stmt, field, []) or [])
            for handler in getattr(stmt, "handlers", []) or []:
                yield from walk(handler.body)

    yield from walk(getattr(func, "body", []))
