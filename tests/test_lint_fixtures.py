"""The vacuous-rule guard: every flow-sensitive rule fires on its fixture.

Each directory under ``tests/fixtures/lint/`` is a miniature source tree
(files stored with a ``.py.txt`` suffix so neither pytest nor the real
lint run collects them).  ``<rule>_bad`` trees must produce at least one
finding from that rule — if a refactor of the CFG/dataflow/call-graph
layer silently turns the rule into a no-op, this suite fails, not the
production lint gate.  ``<rule>_good`` trees must stay clean, pinning the
false-positive boundary of the same discipline.
"""

import shutil
from pathlib import Path

import pytest

from repro.lint.engine import LintEngine

FIXTURE_ROOT = Path(__file__).resolve().parent / "fixtures" / "lint"


def _cases(suffix):
    return sorted(
        path.name
        for path in FIXTURE_ROOT.iterdir()
        if path.is_dir() and path.name.endswith(suffix)
    )


def _rule_of(case):
    """``tr02_bad`` and ``tr02_guarded_bad`` both belong to TR02."""
    return case.split("_", 1)[0].upper()


def _materialize(case, tmp_path):
    """Copy the fixture tree into tmp, restoring the ``.py`` suffixes."""
    target = tmp_path / case
    shutil.copytree(FIXTURE_ROOT / case, target)
    for stored in sorted(target.rglob("*.py.txt")):
        stored.rename(stored.with_name(stored.name[: -len(".txt")]))
    return target


def _lint(case, tmp_path):
    rule = _rule_of(case)
    tree = _materialize(case, tmp_path)
    engine = LintEngine(rules=[rule], root=str(tree))
    return rule, engine.run([str(tree)])


def test_fixture_corpus_present():
    bad, good = _cases("_bad"), _cases("_good")
    assert bad, "no bad fixtures found — the guard is itself vacuous"
    assert {_rule_of(c) for c in bad} >= {
        "PROTO01",
        "PROTO02",
        "FP01",
        "TR02",
        "RNG01",
    }, "every flow-sensitive rule needs a bad fixture"
    assert {_rule_of(c) for c in good} == {_rule_of(c) for c in bad}


@pytest.mark.parametrize("case", _cases("_bad"))
def test_bad_fixture_fires(case, tmp_path):
    rule, findings = _lint(case, tmp_path)
    fired = [f for f in findings if f.rule == rule]
    assert fired, (
        f"{case}: rule {rule} produced no finding on its bad fixture "
        f"(all findings: {[f.as_dict() for f in findings]})"
    )
    assert not [f for f in findings if f.rule == "PARSE"], "fixture must parse"


@pytest.mark.parametrize("case", _cases("_good"))
def test_good_fixture_clean(case, tmp_path):
    rule, findings = _lint(case, tmp_path)
    assert not findings, (
        f"{case}: rule {rule} flagged disciplined code: "
        f"{[f.as_dict() for f in findings]}"
    )


def test_guarded_span_idioms_each_fire(tmp_path):
    """TR02 reads both guard idioms: the statement guard
    (``if tracer is not None: span = tracer.begin(...)``) and the
    expression guard (``tracer.begin(...) if tracer is not None else
    None``); each skipped end in the bad fixture is its own finding."""
    _, findings = _lint("tr02_guarded_bad", tmp_path)
    flagged = sorted(f.message.split("()", 1)[0] for f in findings)
    assert flagged == ["expression_guard", "statement_guard"], [
        f.as_dict() for f in findings
    ]


def test_parallel_lint_equals_serial_lint(tmp_path):
    """``--jobs`` fan-out returns exactly the serial findings on a tree
    that has findings: every fixture case, linted as one project under
    every rule."""
    for case in _cases(""):
        _materialize(case, tmp_path)
    engine = LintEngine(root=str(tmp_path))
    project = engine.load([str(tmp_path)])
    serial = engine.run_project(project)
    assert len({f.rule for f in serial}) > 1, "the tree must have findings"
    assert engine.run_project_parallel(project, [str(tmp_path)], 2) == serial
