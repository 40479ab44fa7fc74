"""Declared crash-invisible fields are write-only where recovery runs.

The crash harness leaves every field a class lists in its
``crash_invisible`` tuple out of its recovery memo key
(docs/FAULTS.md), which is exact only while no restart reads one.  This
guard reads the source: outside a few listed sites, a declared field may
only be assigned or augmented (``+=``), never loaded, and never named by
a string (``getattr(stable, "records_read")`` is a read too).
``tests/test_faults_harness.py::TestCrashInvisibleFields`` checks the
same property by running recovery.
"""

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The declarations, per owning class: a field added here must hold for
#: every recovery, which the metamorphic test checks.
DECLARED: Dict[str, FrozenSet[str]] = {
    "StableStorage": frozenset({
        "page_writes", "page_reads", "records_appended", "records_read",
        "checksum_failures", "torn_tail_drops", "corruptions_injected",
    }),
    "RecoveryManager": frozenset({"_next_tid"}),
    "CommandLoggingManager": frozenset({"command_records", "writes_gated"}),
    "RedoOnlyWalManager": frozenset({"writes_gated", "early_lock_releases"}),
}
FIELDS = frozenset().union(*DECLARED.values())
STABLE_COUNTERS = DECLARED["StableStorage"]

#: The only places a declared field may be read: (module under
#: ``src/repro``, enclosing function or ``None`` for the whole module,
#: fields).  ``begin()`` allocates tids; the other two report counters of
#: a live run and never run inside a recovery.
ALLOWED_READS: Tuple[Tuple[str, Optional[str], FrozenSet[str]], ...] = (
    ("storage/interface.py", "RecoveryManager.begin", frozenset({"_next_tid"})),
    ("analysis/checkpoints.py", None, STABLE_COUNTERS),
    ("resilience/scrubtest.py", None, STABLE_COUNTERS),
)

#: The timed layer keeps ``CounterStat`` objects under two of the same
#: names on its own classes; it never runs a functional recovery.
SKIPPED = ("core",)


def _modules() -> Iterator[Tuple[str, ast.Module]]:
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if not module.startswith(tuple(f"{name}/" for name in SKIPPED)):
            yield module, ast.parse(path.read_text(), filename=str(path))


def _declaration(statement: ast.stmt) -> Optional[Set[str]]:
    """The fields a class-level ``crash_invisible = (...)`` names."""
    if isinstance(statement, ast.Assign):
        target = statement.targets[0]
    elif isinstance(statement, ast.AnnAssign):
        target = statement.target
    else:
        return None
    if not (isinstance(target, ast.Name) and target.id == "crash_invisible"):
        return None
    return {item.value for item in statement.value.elts}


class _Uses(ast.NodeVisitor):
    """Every read of a declared field in one module, with the enclosing
    ``Class.function``; collects the ``crash_invisible`` declarations."""

    def __init__(self) -> None:
        self.scope: list = []
        self.reads: Set[Tuple[Optional[str], str, int]] = set()
        self.declared: Dict[str, Set[str]] = {}

    def _nested(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _nested

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # The declaration names the fields; it does not read them.
        self.scope.append(node.name)
        for statement in node.body:
            fields = _declaration(statement)
            if fields is None:
                self.visit(statement)
            else:
                self.declared[node.name] = fields
        self.scope.pop()

    def _read(self, field: str, line: int) -> None:
        self.reads.add((".".join(self.scope) or None, field, line))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Assignment and ``+=`` targets carry a Store context.
        if node.attr in FIELDS and not isinstance(node.ctx, ast.Store):
            self._read(node.attr, node.lineno)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if node.value in FIELDS:
            self._read(node.value, node.lineno)


def _allows(entry, module: str, function: Optional[str], field: str) -> bool:
    where, scope, fields = entry
    return module == where and scope in (None, function) and field in fields


def _scan():
    declared: Dict[str, Set[str]] = {}
    reads = []
    for module, tree in _modules():
        uses = _Uses()
        uses.visit(tree)
        declared.update(uses.declared)
        reads.extend((module, *read) for read in uses.reads)
    return declared, reads


def test_declarations_are_the_listed_set():
    declared, _reads = _scan()
    assert {name: frozenset(fields) for name, fields in declared.items()} == DECLARED


def test_declared_fields_are_only_written():
    _declared, reads = _scan()
    stray = sorted(
        f"{module}:{line} {function} reads {field}"
        for module, function, field, line in reads
        if not any(_allows(entry, module, function, field) for entry in ALLOWED_READS)
    )
    assert not stray, stray


def test_every_allowed_site_still_reads():
    # A stale entry would let a future read there pass unexamined.
    _declared, reads = _scan()
    for entry in ALLOWED_READS:
        assert any(
            _allows(entry, module, function, field)
            for module, function, field, _line in reads
        ), entry


def test_the_guard_sees_each_kind_of_read():
    tree = ast.parse(
        "class Manager:\n"
        "    crash_invisible = ('writes_gated',)\n"
        "    def recover(self):\n"
        "        self.writes_gated += 1\n"
        "        self.stable.records_read = 0\n"
        "        if self.stable.page_reads:\n"
        "            getattr(self, '_next_tid')\n"
    )
    uses = _Uses()
    uses.visit(tree)
    assert uses.declared == {"Manager": {"writes_gated"}}
    assert sorted(uses.reads) == [
        ("Manager.recover", "_next_tid", 7),
        ("Manager.recover", "page_reads", 6),
    ]
