"""No code on a functional manager's path runs while a crash unwinds.

The crash harness forks a live run at each hook crossing and crashes the
fork (``repro.faults.harness._Walk``).  That equals raising
``InjectedCrash`` at the crossing only if nothing between the raise and
the crash runs: no ``except`` handler, no ``finally`` block and no
context manager's ``__exit__`` in the storage, checkpoint or integrity
code a manager calls.  This test reads the source and holds that.
(``checkpoint/scheduler.py``'s ``sim_checkpointer`` is a timed-simulation
generator, not on a manager's path, and has no handler either.)
"""

import ast
import pathlib

import repro

#: The packages whose code runs between two hook crossings of a manager.
PACKAGES = ("storage", "checkpoint", "integrity")

#: Nodes that run code while an exception passes through them.
#: ``TryStar`` (``except*``) exists from Python 3.11 on.
UNWIND_NODES = (ast.Try, ast.With, ast.AsyncWith) + (
    (ast.TryStar,) if hasattr(ast, "TryStar") else ()
)


def _unwind_nodes(root: pathlib.Path):
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, UNWIND_NODES):
                yield f"{path.relative_to(root.parent)}:{node.lineno}: {type(node).__name__}"


def test_no_handler_or_finalizer_under_the_manager_packages():
    src = pathlib.Path(repro.__file__).parent
    found = [hit for package in PACKAGES for hit in _unwind_nodes(src / package)]
    assert not found, (
        "a try/with runs code while an injected crash unwinds, so the crash "
        "harness's fork at a crossing no longer equals a crash raised there "
        "(docs/FAULTS.md, 'One live walk'): " + "; ".join(found)
    )
