"""The lint CFG builder: edge sets and labels, dominators, the block partition.

Each control shape the builder claims to handle gets a test asserting the
*actual edges* (by the statements each block holds, not block numbers, so
the tests survive builder refactors), plus a property test over every
function in the real ``src/repro`` tree: each reachable statement appears
in exactly one basic block.
"""

import ast
from pathlib import Path

import pytest

from repro.lint.cfg import RESUME, SETTLE, UNWIND, build_cfg, dominators, statements_of
from repro.lint.dataflow import states_at_exit

REPO_ROOT = Path(__file__).resolve().parent.parent


def cfg_of(source):
    func = ast.parse(source).body[0]
    return build_cfg(func)


def label(block):
    """A readable identity for a block: the source lines of its elements."""
    if block.kind != "code":
        return block.kind
    return tuple(e.lineno for e in block.elements)


def edges(cfg):
    """{label: set of successor labels} for non-empty reachable blocks."""
    out = {}
    for block in cfg.reachable():
        if block.kind != "code" or not block.elements:
            continue  # virtual exits and structural glue blocks
        succs = set()
        stack = list(block.succs)
        seen = set()
        while stack:
            succ = stack.pop()
            if succ.bid in seen:
                continue
            seen.add(succ.bid)
            if succ.kind == "code" and not succ.elements:
                stack.extend(succ.succs)  # look through glue blocks
            else:
                succs.add(label(succ))
        out[label(block)] = succs
    return out


def block_of_line(cfg, lineno):
    for block in cfg.blocks:
        if any(getattr(e, "lineno", None) == lineno for e in block.elements):
            return block
    raise AssertionError(f"no block holds line {lineno}")


def dominates(cfg, dom_line, sub_line):
    dom = dominators(cfg)
    dominator = block_of_line(cfg, dom_line)
    subject = block_of_line(cfg, sub_line)
    return dominator.bid in dom[subject.bid]


class TestBranchShapes:
    SOURCE = """\
def f(x):
    a = 1
    if x:
        b = 2
    else:
        c = 3
    d = 4
"""

    def test_edges(self):
        cfg = cfg_of(self.SOURCE)
        # Line 2+3 start the entry run (the if-test joins the straight line);
        # both arms flow to the join.
        assert edges(cfg) == {
            (2, 3): {(4,), (6,)},
            (4,): {(7,)},
            (6,): {(7,)},
            (7,): {"exit"},
        }

    def test_dominators(self):
        cfg = cfg_of(self.SOURCE)
        assert dominates(cfg, 2, 7)  # straight-line code dominates the join
        assert not dominates(cfg, 4, 7)  # one arm does not
        assert not dominates(cfg, 6, 7)

    def test_elif_chain_has_fallthrough_exit(self):
        cfg = cfg_of(
            """\
def f(x):
    if x == 1:
        return 1
    elif x == 2:
        return 2
"""
        )
        # Falling through both tests reaches the normal exit directly.
        assert edges(cfg)[(4,)] == {(5,), "exit"}

    def test_assumed_test_has_no_false_edge(self):
        func = ast.parse(self.SOURCE).body[0]
        cfg = build_cfg(func, assume=lambda test: isinstance(test, ast.Name))
        # The else arm is unreachable: only the then-arm leaves the test.
        assert edges(cfg) == {(2, 3): {(4,)}, (4,): {(7,)}, (7,): {"exit"}}

    def test_assumed_test_without_else_does_not_fall_through(self):
        func = ast.parse("def f(x):\n    if x:\n        a = 1\n    b = 2\n").body[0]
        cfg = build_cfg(func, assume=lambda test: True)
        assert edges(cfg) == {(2,): {(3,)}, (3,): {(4,)}, (4,): {"exit"}}


class TestLoopShapes:
    SOURCE = """\
def f(items):
    for item in items:
        if item:
            continue
        use(item)
    done()
"""

    def test_edges(self):
        cfg = cfg_of(self.SOURCE)
        assert edges(cfg) == {
            (2,): {(3,), (6,)},  # next item or exhausted
            (3,): {(4,), (5,)},
            (4,): {(2,)},  # continue: back to the head
            (5,): {(2,)},  # body end: back to the head
            (6,): {"exit"},
        }

    def test_loop_head_dominates_body_not_vice_versa(self):
        cfg = cfg_of(self.SOURCE)
        assert dominates(cfg, 2, 5)
        assert not dominates(cfg, 5, 6)  # zero-iteration path skips the body

    def test_while_true_exits_only_via_break(self):
        cfg = cfg_of(
            """\
def f():
    while True:
        if ready():
            break
        step()
    after()
"""
        )
        e = edges(cfg)
        assert e[(2,)] == {(3,)}  # no false exit edge from a literal-True test
        assert e[(4,)] == {(6,)}  # break lands after the loop

    def test_break_skips_loop_else(self):
        cfg = cfg_of(
            """\
def f(items):
    for item in items:
        if item:
            break
    else:
        none_found()
    after()
"""
        )
        e = edges(cfg)
        assert e[(4,)] == {(7,)}  # break: straight to after, not the else
        assert e[(2,)] == {(3,), (6,)}  # exhaustion: into the else


class TestTryShapes:
    def test_try_except_edges(self):
        cfg = cfg_of(
            """\
def f():
    try:
        risky()
    except ValueError:
        handle()
    after()
"""
        )
        e = edges(cfg)
        # The body may raise into the handler or complete to the join;
        # the handler entry holds the exception-type test (line 4).
        assert e[(3,)] == {(4, 5), (6,)}
        assert e[(4, 5)] == {(6,)}

    def test_finally_on_all_routes(self):
        cfg = cfg_of(
            """\
def f(x):
    try:
        if x:
            return early()
        work()
    finally:
        cleanup()
    after()
"""
        )
        e = edges(cfg)
        # Both the early return and normal completion pass through cleanup.
        assert e[(4,)] == {(7,)}
        assert e[(5,)] == {(7,)}
        # The shared finally fans out: fall-through join, the parked
        # return, and the may-raise propagation.
        assert e[(7,)] == {(8,), "exit", "raise"}

    def test_finally_dominates_exit(self):
        cfg = cfg_of(
            """\
def f(x):
    try:
        if x:
            return early()
        work()
    finally:
        cleanup()
    after()
"""
        )
        assert dominates(cfg, 7, 8)  # cleanup dominates everything after

    def test_uncaught_raise_reaches_raise_exit(self):
        cfg = cfg_of(
            """\
def f():
    a = 1
    raise RuntimeError(a)
"""
        )
        assert edges(cfg)[(2, 3)] == {"raise"}
        # The normal exit is unreachable: nothing flows into it.
        assert not any(
            succs == {"exit"} or "exit" in succs for succs in edges(cfg).values()
        )

    def test_raise_caught_by_enclosing_handler(self):
        cfg = cfg_of(
            """\
def f():
    try:
        raise ValueError()
    except ValueError:
        recover()
    after()
"""
        )
        e = edges(cfg)
        assert e[(3,)] == {(4, 5)}  # into the handler, never to raise-exit


def _open_at_exit(source, exceptional=False):
    """States of a one-bit "marker opened" machine at the chosen exit.

    ``opened = ...`` sets the bit, a call to ``close()`` clears it.
    """

    def transfer(state, element):
        for node in ast.walk(element):
            if isinstance(node, ast.Name) and node.id == "opened":
                if isinstance(node.ctx, ast.Store):
                    return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "close"
            ):
                return False
        return state

    return states_at_exit(cfg_of(source), transfer, False, exceptional)


class TestFinallyContinuations:
    """Exception-entered finalizers resume only exceptional continuations."""

    def test_edge_labels(self):
        cfg = cfg_of(
            """\
def f(x):
    try:
        if x:
            return early()
        work()
    finally:
        cleanup()
    after()
"""
        )
        final = block_of_line(cfg, 7)
        labels = {
            label(succ): final.edge_labels[succ.bid] for succ in final.succs
        }
        assert labels["exit"] == {RESUME}
        assert labels["raise"] == {UNWIND}
        # Normal completion settles, a may-raise edge unwinds: both enter.
        body = block_of_line(cfg, 5)
        assert body.edge_labels[final.bid] == {SETTLE, UNWIND}

    def test_exception_entered_finally_reaches_only_raise_exit(self):
        source = """\
def f(w):
    try:
        opened = begin()
        try:
            yield 1
        except E:
            close()
            return
        close()
    finally:
        w.release(1)
"""
        assert _open_at_exit(source) == {False}
        # The may-raise route still reaches the raise exit, marker open.
        assert True in _open_at_exit(source, exceptional=True)

    def test_normal_route_through_finally_still_checked(self):
        source = """\
def f(w):
    try:
        opened = begin()
        yield 1
    finally:
        w.release(1)
    return
"""
        assert True in _open_at_exit(source)

    def test_continue_in_finally_swallows_the_exception(self):
        source = """\
def f(w):
    for i in range(3):
        try:
            opened = begin()
            yield 1
        finally:
            w.release(1)
            continue
    return
"""
        assert True in _open_at_exit(source)

    def test_outer_handler_catches_the_finalizer_raise(self):
        source = """\
def f(w):
    try:
        try:
            opened = begin()
            yield 1
        finally:
            w.release(1)
    except E:
        return
"""
        assert True in _open_at_exit(source)

    def test_handler_inside_finalizer_stays_conservative(self):
        source = """\
def f(w):
    try:
        opened = begin()
        yield 1
    finally:
        try:
            w.release(1)
        except E:
            pass
"""
        # One bit, not a stack: the inner handler settles the route, so
        # the finalizer's end may resume normally (an over-approximation).
        assert True in _open_at_exit(source)


class TestWithShape:
    def test_with_is_transparent(self):
        cfg = cfg_of(
            """\
def f(path):
    with open(path) as handle:
        data = handle.read()
    use(data)
"""
        )
        # Context expression and body run as one straight line.
        assert edges(cfg) == {(2, 3, 4): {"exit"}}

    def test_with_body_branches_normally(self):
        cfg = cfg_of(
            """\
def f(path, flag):
    with open(path) as handle:
        if flag:
            return handle.read()
    return None
"""
        )
        assert edges(cfg)[(2, 3)] == {(4,), (5,)}
        assert edges(cfg)[(4,)] == {"exit"}


class TestBlockPartitionProperty:
    """Every reachable statement appears in exactly one basic block."""

    def _assert_partition(self, func, where):
        cfg = build_cfg(func)
        counts = {}
        for block in cfg.blocks:
            for element in block.elements:
                counts[id(element)] = counts.get(id(element), 0) + 1
        dup = [node_id for node_id, n in counts.items() if n > 1]
        assert not dup, f"{where}:{func.name}: statements in multiple blocks"
        for stmt in statements_of(func):
            # Compound statements contribute their test/iter expressions,
            # not themselves; bare try/with contribute nothing directly.
            if isinstance(
                stmt,
                (ast.If, ast.While, ast.For, ast.AsyncFor, ast.Try, ast.With, ast.AsyncWith),
            ):
                continue
            assert id(stmt) in counts, (
                f"{where}:{func.name}: line {stmt.lineno} "
                f"({type(stmt).__name__}) missing from every block"
            )

    def test_repo_tree(self):
        src = REPO_ROOT / "src" / "repro"
        checked = 0
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._assert_partition(node, path.name)
                    checked += 1
        assert checked > 100, "the property test should cover the whole tree"

    def test_synthetic_torture(self):
        source = """\
def f(items, flag):
    total = 0
    for item in items:
        try:
            if flag:
                continue
            elif item < 0:
                break
            total += item
        except ValueError:
            total -= 1
        finally:
            log(item)
    else:
        total = -total
    while flag:
        with lock():
            flag = step(flag)
            if not flag:
                return total
    raise RuntimeError(total)
"""
        self._assert_partition(ast.parse(source).body[0], "<torture>")
