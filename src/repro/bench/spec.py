"""Declarative benchmark grids: parameters x components, stably identified.

The paper's tables are paired sweeps — the same seeded workload run
across machine variants — and the benchmark tree grew 29 hand-rolled
loops re-implementing that shape.  A :class:`Grid` declares it instead:
named parameter axes (the cartesian product gives the sweep points),
:class:`ComponentToggle` entries (components the grid ablates on/off),
and a module-level ``runner`` callable that prices one cell.

Every cell carries a **stable run ID**: the SHA-256 content hash of
(schema version, grid name, cell parameters, toggles off, cell seed).
The ID is a pure function of the spec, so the same cell is the same row
in ``BENCH_<name>.json`` across PRs and machines — that identity is what
lets ``repro bench-diff`` read a perf trajectory out of git history
instead of guessing which rows correspond.

Seeding is declarative too.  ``seed_mode="shared"`` (the default) runs
every cell at the grid seed — the common-random-numbers discipline the
experiment runner already uses, so ablation deltas are paired.
``seed_mode="per-cell"`` derives an independent deterministic seed per
cell from the grid seed and the cell key, for grids whose cells must not
share randomness.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - hints only (runner imports spec)
    from repro.bench.runner import GridResult

__all__ = [
    "SCHEMA_VERSION",
    "BenchSpecError",
    "Cell",
    "ComponentToggle",
    "Grid",
    "canonical_json",
    "derive_seed",
]

#: Version of the ``BENCH_<name>.json`` artifact layout.  Version 1 was
#: the ad-hoc ``write_bench_json`` payload (PR 7); version 2 is the grid
#: schema in :mod:`repro.bench.schema`.  Bumping it changes every run ID,
#: which is the point: artifacts across a schema change are not rows of
#: the same trajectory.
SCHEMA_VERSION = 2

_TOGGLE_MODES = ("one-off", "product")
_SEED_MODES = ("shared", "per-cell")
#: Length of run/grid identifiers (hex chars of the SHA-256 digest).
ID_HEX_LEN = 16


class BenchSpecError(ValueError):
    """A grid spec (or a runner's output) violates the bench contract."""


def canonical_json(value: Any) -> str:
    """Minimal, key-sorted JSON — the hashing form of a spec fragment."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(value: Any) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def derive_seed(base: int, key: Any) -> int:
    """Deterministic per-cell seed: stable across machines and sessions.

    Hash-derived (not ``hash()``, which is salted per process) so the
    same (grid seed, cell key) always yields the same stream.
    """
    return (int(base) + int(_digest(key)[:8], 16)) % (2**31 - 1)


@dataclass(frozen=True)
class ComponentToggle:
    """One component the grid can switch off to price its contribution."""

    name: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise BenchSpecError("toggle name must be a non-empty string")


@dataclass(frozen=True)
class Cell:
    """One sweep point: parameter values, components off, seed, run ID."""

    params: Tuple[Tuple[str, Any], ...]
    toggles_off: Tuple[str, ...]
    seed: int
    run_id: str

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def key(self) -> Dict[str, Any]:
        """The JSON identity of this cell inside its grid."""
        return {
            "params": self.param_dict(),
            "toggles_off": list(self.toggles_off),
        }


@dataclass
class Grid:
    """A declarative benchmark: axes x toggles, one runner, one metric.

    ``runner(params, seed)`` prices one cell: ``params`` maps every
    parameter axis to its value for this cell *and* every toggle name to
    a bool (``True`` = component on).  It returns a flat ``{metric:
    value}`` dict — or ``(metrics, detail)`` where ``detail`` is any
    JSON-serializable payload preserved verbatim in the artifact (the
    paper-table benchmarks keep their row dicts there so the rendered
    comparison output survives the port).

    ``check(result)`` receives the finished :class:`GridResult` and
    asserts the conclusions the sweep must uphold (the paper's shape);
    ``repro bench`` runs it after writing the artifact and fails on an
    ``AssertionError``.  Like the runner it is code, not spec: it stays
    out of :meth:`spec_payload`, so editing it moves no ID.

    ``primary_metric`` is the number the CI gate watches; ``tolerance``
    is the relative drift it forgives (direction given by
    ``higher_is_better``).
    """

    name: str
    seed: int
    runner: Callable[[Dict[str, Any], int], Any]
    primary_metric: str
    check: Callable[[GridResult], None]
    parameters: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    toggles: Sequence[ComponentToggle] = ()
    toggle_mode: str = "one-off"
    seed_mode: str = "shared"
    higher_is_better: bool = False
    tolerance: float = 0.15
    title: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise BenchSpecError("grid name must be a non-empty string")
        if not isinstance(self.seed, int):
            raise BenchSpecError(f"{self.name}: grid seed must be an int")
        if not callable(self.runner):
            raise BenchSpecError(f"{self.name}: runner must be callable")
        if not callable(self.check):
            raise BenchSpecError(f"{self.name}: check must be callable")
        if not self.primary_metric:
            raise BenchSpecError(f"{self.name}: primary_metric is required")
        if self.toggle_mode not in _TOGGLE_MODES:
            raise BenchSpecError(
                f"{self.name}: toggle_mode must be one of {_TOGGLE_MODES}"
            )
        if self.seed_mode not in _SEED_MODES:
            raise BenchSpecError(
                f"{self.name}: seed_mode must be one of {_SEED_MODES}"
            )
        if self.tolerance < 0:
            raise BenchSpecError(f"{self.name}: tolerance must be >= 0")
        for axis, values in self.parameters.items():
            if not values:
                raise BenchSpecError(f"{self.name}: axis {axis!r} has no values")
        names = [toggle.name for toggle in self.toggles]
        if len(names) != len(set(names)):
            raise BenchSpecError(f"{self.name}: duplicate toggle names")
        overlap = set(names) & set(self.parameters)
        if overlap:
            raise BenchSpecError(
                f"{self.name}: toggles shadow parameter axes: {sorted(overlap)}"
            )

    # -- identity -----------------------------------------------------------

    def spec_payload(self) -> Dict[str, Any]:
        """The JSON form of the spec (everything but the runner and check)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "seed_mode": self.seed_mode,
            "parameters": {
                axis: list(values) for axis, values in self.parameters.items()
            },
            "toggles": [toggle.name for toggle in self.toggles],
            "toggle_mode": self.toggle_mode,
            "primary_metric": self.primary_metric,
            "higher_is_better": self.higher_is_better,
            "tolerance": self.tolerance,
        }

    @property
    def grid_id(self) -> str:
        """Content hash of the spec — changes iff any declared field does."""
        return _digest(self.spec_payload())[:ID_HEX_LEN]

    # -- enumeration --------------------------------------------------------

    def toggle_sets(self) -> List[Tuple[str, ...]]:
        """Toggle-off combinations, all-on baseline first, declared order."""
        names = [toggle.name for toggle in self.toggles]
        if not names:
            return [()]
        if self.toggle_mode == "one-off":
            return [()] + [(name,) for name in names]
        combos: List[Tuple[str, ...]] = []
        for bits in itertools.product((False, True), repeat=len(names)):
            combos.append(
                tuple(name for name, off in zip(names, bits) if off)
            )
        return combos

    def cells(self) -> List[Cell]:
        """Every sweep point, in deterministic declaration order."""
        axes = list(self.parameters.items())
        out: List[Cell] = []
        for values in itertools.product(*(list(v) for _, v in axes)):
            params = tuple(zip((axis for axis, _ in axes), values))
            for toggles_off in self.toggle_sets():
                key = {
                    "grid": self.name,
                    "params": dict(params),
                    "toggles_off": list(toggles_off),
                }
                if self.seed_mode == "shared":
                    seed = self.seed
                else:
                    seed = derive_seed(self.seed, key)
                run_id = _digest(
                    {"schema_version": SCHEMA_VERSION, "seed": seed, **key}
                )[:ID_HEX_LEN]
                out.append(Cell(params, toggles_off, seed, run_id))
        return out

    def run_params(self, cell: Cell) -> Dict[str, Any]:
        """The dict the runner sees: axis values plus toggle booleans."""
        params = cell.param_dict()
        for toggle in self.toggles:
            params[toggle.name] = toggle.name not in cell.toggles_off
        return params
