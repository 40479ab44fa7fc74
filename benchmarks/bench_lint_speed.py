"""Lint throughput: serial vs ``--jobs N`` fan-out over the repo tree.

The flow-sensitive rules (PROTO01/02, FP01, TR02) build CFGs and run
interprocedural fixpoints, so a full-tree lint is no longer free; the
``--jobs`` flag fans per-module checking out over worker processes via
``repro.jobs.map_jobs``.  This benchmark lints the real ``src`` tree at
both parallelism levels and asserts the contract that makes the flag
safe to use in CI: the parallel findings are byte-identical to the
serial ones (compared by content digest, which is also the trajectory
metric — any rule change moves it past the zero tolerance, forcing a
deliberate baseline refresh).

Wall-clock note: the canonical artifact carries only the deterministic
counts and digest; the timing lands in the ``.wallclock.json`` sidecar,
where the parallel row shows the fan-out overhead/benefit at today's
tree size.
"""

import hashlib
import json
import multiprocessing
import os
from typing import Any, Dict

from benchmarks._harness import REPO_ROOT
from repro.bench import Grid, GridResult
from repro.lint.engine import LintEngine

LINT_PATHS = [os.path.join(REPO_ROOT, "src")]


def lint_speed_cell(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    del seed  # linting is deterministic; the grid seed pins the spec
    engine = LintEngine(root=REPO_ROOT)
    project = engine.load(LINT_PATHS)
    jobs = params["jobs"]
    if multiprocessing.current_process().daemon:
        # Inside a ``repro bench --jobs`` worker nested pools are not
        # allowed; the findings are identical either way (that is the
        # contract this benchmark asserts), so fall back to serial.
        jobs = 1
    if jobs > 1:
        findings = engine.run_project_parallel(project, LINT_PATHS, jobs)
    else:
        findings = engine.run_project(project)
    digest = hashlib.sha256(
        json.dumps(
            [f.as_dict() for f in findings], sort_keys=True
        ).encode("utf-8")
    ).hexdigest()
    return {
        "files": len(project.modules),
        "findings": len(findings),
        "findings_digest": digest[:16],
    }


def lint_speed_check(result: GridResult) -> None:
    """Parallel lint produces exactly the serial findings."""
    serial = result.cell(jobs=1)
    parallel = result.cell(jobs=4)
    assert parallel.metrics == serial.metrics, (
        "parallel lint must produce exactly the serial findings"
    )


GRID = Grid(
    name="lint_speed",
    title="Lint throughput: serial vs --jobs fan-out over src",
    seed=1985,
    runner=lint_speed_cell,
    check=lint_speed_check,
    parameters={"jobs": [1, 4]},
    primary_metric="findings",
    tolerance=0.0,
)
