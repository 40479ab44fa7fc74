"""``repro.bench``: declarative sweeps with a machine-readable trajectory.

The benchmark zoo (13 ``bench_*`` modules declaring 30 grids) declares
*what* each grid sweeps — parameter axes, component toggles, a seed, a
primary metric — and the conclusions its result must uphold (a
``check``); this package turns the declaration into priced cells with
**stable run IDs**, schema-validated ``BENCH_<name>.json`` artifacts at
the repo root, a per-component **importance ranking**, the grid's check
(``repro bench`` fails when it does), and a CI **regression gate**
(``repro bench-diff``) that reads the perf trajectory out of git history.

See ``docs/BENCH.md`` for the format, the workflow, and how to add a
benchmark.
"""

from repro.bench.diff import (
    DiffEntry,
    compare_payloads,
    diff_dirs,
    gate,
    render_entries,
)
from repro.bench.discover import load_grids
from repro.bench.importance import component_importance
from repro.bench.render import render_grid
from repro.bench.runner import (
    CellResult,
    GridResult,
    run_grid,
    write_grid_artifacts,
)
from repro.bench.schema import BenchSchemaError, validate_payload
from repro.bench.selftest import SELFTEST_GRID, selftest_runner
from repro.bench.spec import (
    SCHEMA_VERSION,
    BenchSpecError,
    Cell,
    ComponentToggle,
    Grid,
    canonical_json,
    derive_seed,
)

__all__ = [
    "SCHEMA_VERSION",
    "SELFTEST_GRID",
    "BenchSchemaError",
    "BenchSpecError",
    "Cell",
    "CellResult",
    "ComponentToggle",
    "DiffEntry",
    "Grid",
    "GridResult",
    "canonical_json",
    "compare_payloads",
    "component_importance",
    "derive_seed",
    "diff_dirs",
    "gate",
    "load_grids",
    "render_grid",
    "run_grid",
    "selftest_runner",
    "validate_payload",
    "write_grid_artifacts",
]
