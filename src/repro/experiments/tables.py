"""The catalogue: every paper table and ablation, declared once.

A :class:`Table` declares its cells as data: ``cells[row][arch]`` is the
:class:`~repro.experiments.runner.Cell` (configuration and architecture,
both values) that its ``(key, arch, metric, digits)`` columns read in
that row.  Most entries cross configurations with named architectures;
Table 3's rows are log-disk counts over one shared bare row, and the
hotspot ablation's rows are workloads.  Calling an entry runs its
distinct cells once (:func:`~repro.experiments.runner.run_cells`);
:meth:`Table.rows` is a pure view over the results.  The CLI, fidelity
scoring and the benchmark grids all read :data:`CATALOGUE`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, methodcaller
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.differential import DifferentialConfig, DifferentialFileArchitecture
from repro.core.modern import CommandLoggingArchitecture, RedoOnlyWalArchitecture
from repro.core.logging import (
    FragmentRouting,
    LoggingConfig,
    LogMode,
    ParallelLoggingArchitecture,
    SelectionPolicy,
)
from repro.core.shadow import (
    OverwritingArchitecture,
    OverwritingMode,
    PageTableShadowArchitecture,
    ShadowConfig,
    VersionSelectionArchitecture,
)
from repro.experiments.paper import PAPER
from repro.experiments.runner import (
    BARE,
    CONFIGURATIONS,
    Arch,
    Cell,
    ExperimentSettings,
    run_cells,
)
from repro.metrics.collectors import RunResult
from repro.metrics.report import format_table

__all__ = [
    "ABLATIONS",
    "CATALOGUE",
    "TABLES",
    "Arch",
    "Table",
    "ablation_checkpointing",
    "ablation_disk_scheduling",
    "ablation_hotspot",
    "ablation_interconnect",
    "ablation_overwriting_variants",
    "ablation_version_selection",
    "render",
    "table1_logging_impact",
    "table2_log_utilization",
    "table3_parallel_logging",
    "table4_shadow_impact",
    "table5_shadow_utilization",
    "table6_pt_buffer",
    "table7_sequential_shadow",
    "table8_random_overwriting",
    "table9_differential_impact",
    "table10_output_fraction",
    "table11_differential_size",
    "table12_comparison",
]

#: Table 3 testbed: 75 QPs, 2 parallel-access data disks, 150 cache frames.
TABLE3_MACHINE = {"n_query_processors": 75, "cache_frames": 150, "prefetch_window": 48}

#: Cell metrics: each maps a ``RunResult`` to one number.
EXEC = attrgetter("execution_time_per_page")
COMPLETION = attrgetter("mean_completion_ms")


def _utilization(resource: str) -> Callable:
    return methodcaller("utilization", resource)


def _logging(machine=(), workload=(), **config) -> Arch:
    return Arch(ParallelLoggingArchitecture, LoggingConfig(**config), machine, workload)


def _shadow(machine=(), **config) -> Arch:
    return Arch(PageTableShadowArchitecture, ShadowConfig(**config), machine)


def _differential(**config) -> Arch:
    return Arch(DifferentialFileArchitecture, DifferentialConfig(**config))


#: ``(key, arch, metric, digits)``: ``metric`` of the row's ``arch`` cell,
#: rounded to ``digits`` (``None``: as is).
Column = Tuple[str, str, Callable[[RunResult], Any], Optional[int]]


def _exec_and_completion(*archs: str) -> Tuple[Column, ...]:
    """An ``exec_<arch>`` column per architecture, then ``completion_<arch>``."""
    return tuple((f"exec_{arch}", arch, EXEC, 2) for arch in archs) + tuple(
        (f"completion_{arch}", arch, COMPLETION, 1) for arch in archs
    )


@dataclass(frozen=True)
class Table:
    """One paper table or ablation, declared once.

    ``columns`` defaults to one execution-time column per architecture,
    keyed by its name.  ``scored`` names the columns fidelity pairs with
    the paper (``True`` becomes every column).  ``paper_field`` repeats that
    column's paper value in each row under ``"paper"``.  An entry pickles
    by reference to its module-level ``name``.
    """

    name: str
    key: str  # "table1".."table12" (the PAPER key) or the ablation's CLI name
    title: str
    description: str
    cells: Mapping[Any, Mapping[str, Cell]]  # cells[row label][arch]
    columns: Tuple[Column, ...] = ()
    scored: Union[bool, Tuple[str, ...]] = ()
    label_field: str = "configuration"
    paper_field: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.columns:
            archs = next(iter(self.cells.values()))
            columns = tuple((name, name, EXEC, 2) for name in archs)
            object.__setattr__(self, "columns", columns)
        if self.scored is True:
            object.__setattr__(self, "scored", tuple(key for key, *_ in self.columns))

    def __reduce__(self) -> str:
        return self.name

    def __call__(self, settings: Optional[ExperimentSettings] = None) -> Dict:
        rows = self.rows(run_cells(self.cells_behind(), settings))
        return {"title": self.title, "rows": rows, "paper": PAPER.get(self.key)}

    def cells_behind(self, columns: Optional[Tuple[Column, ...]] = None) -> List[Cell]:
        """The cells ``columns`` (default: all) read, row by row, repeats kept."""
        columns = self.columns if columns is None else columns
        return [cells[arch] for cells in self.cells.values() for _, arch, *_ in columns]

    def rows(self, results: Mapping[Cell, RunResult], columns=None) -> List[Dict]:
        """The rows with ``columns`` (default: all), read from ``results``
        (which must hold their cells) and nothing else."""
        columns = self.columns if columns is None else columns
        rows = []
        for label, cells in self.cells.items():
            row: Dict[str, Any] = {self.label_field: label}
            for key, arch, metric, digits in columns:
                value = metric(results[cells[arch]])
                row[key] = value if digits is None else round(value, digits)
            if self.paper_field:
                row["paper"] = PAPER[self.key][label][self.paper_field]
            rows.append(row)
        return rows


#: Every table and ablation, by key, in declaration order.
CATALOGUE: Dict[str, Table] = {}


def _declare(rows: Iterable[str] = CONFIGURATIONS, archs=None, **fields) -> Table:
    """Register an entry; ``archs`` crosses ``rows`` (configurations) with
    named architectures into ``cells``."""
    if archs is not None:
        fields["cells"] = {
            label: {name: Cell(label, arch) for name, arch in archs.items()}
            for label in rows
        }
    table = Table(**fields)
    CATALOGUE[table.key] = table
    return table


def render(result: Dict) -> str:
    """Render any table result as aligned text."""
    headers = list(result["rows"][0])
    rows = [[row[h] for h in headers] for row in result["rows"]]
    return format_table(headers, rows, title=result.get("title"))


_RANDOM = ("conventional-random", "parallel-random")
_SEQUENTIAL = ("conventional-sequential", "parallel-sequential")
_SHADOW_1PTP = _shadow(n_pt_processors=1)
_SHADOW_2PTP = _shadow(n_pt_processors=2)


table1_logging_impact = _declare(
    name="table1_logging_impact",
    key="table1",
    title="Table 1. Impact of Logging",
    description="Table 1: impact of (logical) logging with one log disk.",
    archs={"without_log": BARE, "with_log": _logging()},
    columns=_exec_and_completion("without_log", "with_log"),
    scored=("exec_without_log", "exec_with_log"),
)

table2_log_utilization = _declare(
    name="table2_log_utilization",
    key="table2",
    title="Table 2. Log Characteristics (one log processor)",
    description="Table 2: log-disk utilization with one log processor.",
    archs={"logged": _logging()},
    columns=(("log_disk_utilization", "logged", _utilization("log_disks"), 3),),
    scored=True,
    paper_field="log_disk_utilization",
)


# Physical logging on the Table 3 testbed, one row per log-disk count; the
# last row repeats the bare machine across the policy columns.
table3_parallel_logging = _declare(
    name="table3_parallel_logging",
    key="table3",
    title="Table 3. Parallel Logging and Selection Algorithms "
    "(75 QPs, 2 parallel-access disks, 150 frames)",
    description="Table 3: physical logging, 1-5 log disks x 4 selection policies.",
    cells={
        n: {
            policy.value: Cell(
                "parallel-sequential",
                Arch(machine=TABLE3_MACHINE)
                if n == "w/o logging"
                else _logging(
                    TABLE3_MACHINE,
                    n_log_processors=n,
                    mode=LogMode.PHYSICAL,
                    selection=policy,
                ),
            )
            for policy in SelectionPolicy
        }
        for n in (1, 2, 3, 4, 5, "w/o logging")
    },
    columns=tuple(
        (f"{prefix}_{policy.value}", policy.value, metric, digits)
        for policy in SelectionPolicy
        for prefix, metric, digits in (("exec", EXEC, 2), ("compl", COMPLETION, 1))
    ),
    label_field="n_log_disks",
)

table4_shadow_impact = _declare(
    name="table4_shadow_impact",
    key="table4",
    title="Table 4. Impact of the Shadow Mechanism",
    description="Table 4: impact of the shadow mechanism, 1 vs 2 PT processors.",
    archs={"bare": BARE, "1ptp": _SHADOW_1PTP, "2ptp": _SHADOW_2PTP},
    columns=_exec_and_completion("bare", "1ptp", "2ptp"),
    scored=("exec_bare", "exec_1ptp", "exec_2ptp"),
)

table5_shadow_utilization = _declare(
    name="table5_shadow_utilization",
    key="table5",
    title="Table 5. Average Utilization of Data and Page-Table Disks",
    description="Table 5: average utilization of data and page-table disks.",
    archs={"bare": BARE, "1ptp": _SHADOW_1PTP, "2ptp": _SHADOW_2PTP},
    columns=(
        ("bare_data", "bare", _utilization("data_disks"), 2),
        ("1ptp_data", "1ptp", _utilization("data_disks"), 2),
        ("1ptp_pt", "1ptp", _utilization("pt_disks"), 2),
        ("2ptp_data", "2ptp", _utilization("data_disks"), 2),
        ("2ptp_pt", "2ptp", _utilization("pt_disks"), 2),
    ),
)

table6_pt_buffer = _declare(
    name="table6_pt_buffer",
    key="table6",
    title="Table 6. Execution Time per Page (1 Page-Table Processor)",
    description="Table 6: page-table buffer size, 1 PT processor, random txns.",
    rows=_RANDOM,
    archs={
        "bare": BARE,
        **{f"buffer_{n}": _shadow(pt_buffer_pages=n) for n in (10, 25, 50)},
    },
    scored=True,
)

table7_sequential_shadow = _declare(
    name="table7_sequential_shadow",
    key="table7",
    title="Table 7. Execution Time per Page (Sequential Transactions)",
    description="Table 7: sequential txns — clustered / scrambled / overwriting.",
    rows=_SEQUENTIAL,
    archs={
        "bare": BARE,
        "clustered": _shadow(clustered=True),
        "scrambled": _shadow(clustered=False),
        "overwriting": Arch(OverwritingArchitecture),
    },
    scored=True,
)

table8_random_overwriting = _declare(
    name="table8_random_overwriting",
    key="table8",
    title="Table 8. Execution Time per Page (Random Transactions)",
    description="Table 8: random txns — thru page-table vs overwriting.",
    rows=_RANDOM,
    archs={
        "bare": BARE,
        "thru_pt": _shadow(),
        "overwriting": Arch(OverwritingArchitecture),
    },
    scored=True,
)

table9_differential_impact = _declare(
    name="table9_differential_impact",
    key="table9",
    title="Table 9. Impact of the Differential File Mechanism",
    description="Table 9: differential files, basic vs optimal query processing.",
    archs={
        "bare": BARE,
        "basic": _differential(optimal=False),
        "optimal": _differential(optimal=True),
    },
    columns=_exec_and_completion("bare", "basic", "optimal"),
    scored=("exec_bare", "exec_basic", "exec_optimal"),
)

table10_output_fraction = _declare(
    name="table10_output_fraction",
    key="table10",
    title="Table 10. Effect of Output Fraction on Execution Time per Page",
    description="Table 10: effect of the output fraction (optimal strategy).",
    archs={
        "bare": BARE,
        **{
            f"output_{int(f * 100)}pct": _differential(output_fraction=f)
            for f in (0.10, 0.20, 0.50)
        },
    },
    scored=True,
)

table11_differential_size = _declare(
    name="table11_differential_size",
    key="table11",
    title="Table 11. Effect of Size of Differential Files",
    description="Table 11: effect of differential-file size (nonlinear degradation).",
    archs={
        "bare": BARE,
        **{
            f"size_{int(s * 100)}pct": _differential(size_fraction=s)
            for s in (0.10, 0.15, 0.20)
        },
    },
    scored=True,
)

table12_comparison = _declare(
    name="table12_comparison",
    key="table12",
    title="Table 12. Average Execution Time per Page (in ms)",
    description="Table 12: grand comparison of all recovery architectures.",
    archs={
        "bare": BARE,
        "logging": _logging(),
        "shadow_b10": _shadow(pt_buffer_pages=10),
        "shadow_b50": _shadow(pt_buffer_pages=50),
        "shadow_2ptp": _SHADOW_2PTP,
        "scrambled": _shadow(clustered=False),
        "overwriting": Arch(OverwritingArchitecture),
        "differential": _differential(),
        "command_logging": Arch(CommandLoggingArchitecture),
        "redo_wal": Arch(RedoOnlyWalArchitecture),
    },
    scored=True,
)


# ----------------------------------------------------------------- ablations
ablation_interconnect = _declare(
    name="ablation_interconnect",
    key="interconnect",
    title="Ablation (Sec 4.1.3): QP-LP interconnect bandwidth and routing",
    description="Section 4.1.3: logging is insensitive to the QP<->LP medium.",
    rows=("conventional-random", "parallel-sequential"),
    archs={
        **{
            f"link_{mb_s}MBs": _logging(
                routing=FragmentRouting.LINK, link_bandwidth_mb_s=mb_s
            )
            for mb_s in (1.0, 0.1, 0.01)
        },
        "through_cache": _logging(routing=FragmentRouting.CACHE),
    },
)

# Version selection doubles disk space, so the database is halved to fit
# the same drives; every column runs on the shrunken database.
_HALF_DB = {"db_pages": 60_000}

ablation_version_selection = _declare(
    name="ablation_version_selection",
    key="version-selection",
    title="Ablation (Sec 4.2.5): version selection vs thru page-table",
    description="Section 4.2.5: version selection vs thru page-table.",
    archs={
        "bare": Arch(machine=_HALF_DB),
        "thru_pt": _shadow(_HALF_DB),
        "version_selection": Arch(VersionSelectionArchitecture, machine=_HALF_DB),
    },
)

ablation_overwriting_variants = _declare(
    name="ablation_overwriting_variants",
    key="overwriting-variants",
    title="Ablation (Sec 3.2.2.2): overwriting no-undo vs no-redo",
    description="Section 3.2.2.2: the no-undo vs the no-redo overwriting variant.",
    archs={
        "no_undo": Arch(OverwritingArchitecture, OverwritingMode.NO_UNDO),
        "no_redo": Arch(OverwritingArchitecture, OverwritingMode.NO_REDO),
    },
)

# The paper's controllers serve requests in arrival order; this prices what
# a shortest-seek-time-first queue would have bought the conventional
# configurations (parallel-access drives already coalesce whole cylinders).
ablation_disk_scheduling = _declare(
    name="ablation_disk_scheduling",
    key="disk-scheduling",
    title="Ablation (extension): FCFS vs SSTF disk scheduling",
    description="Extension: FCFS vs SSTF data-disk scheduling on the bare machine.",
    rows=("conventional-random", "conventional-sequential"),
    archs={
        policy: Arch(machine={"disk_scheduling": policy}) for policy in ("fcfs", "sstf")
    },
)

# Background checkpoints force every log processor's partial page and write
# one checkpoint page per log disk, overlapped with data processing, so
# throughput should not move even at aggressive intervals.
ablation_checkpointing = _declare(
    name="ablation_checkpointing",
    key="checkpointing",
    title="Ablation (Sec 3.1): checkpointing in parallel with processing",
    description="Section 3.1's claim: parallel checkpointing costs ~nothing.",
    rows=("conventional-random", "parallel-sequential"),
    archs={
        "no_checkpoints": _logging(checkpoint_interval_ms=None),
        **{
            f"every_{int(ms)}ms": _logging(checkpoint_interval_ms=ms)
            for ms in (2000.0, 500.0)
        },
    },
)


# The paper's workload is uniform; skew shows performance is driven by I/O
# patterns, not lock contention, until the hot set is pathologically small.
# Parallel logging on conventional-random, one row per hot-set size, with
# the lock conflicts and restarts it causes.
ablation_hotspot = _declare(
    name="ablation_hotspot",
    key="hotspot",
    title="Ablation (extension): hotspot skew under parallel logging",
    description="Extension: skewed (hotspot) reference strings under logging.",
    cells={
        "uniform" if hotspot is None else f"hot_{hotspot:g}": {
            "logged": Cell(
                "conventional-random", _logging(workload={"hotspot_fraction": hotspot})
            )
        }
        for hotspot in (None, 0.1, 0.005)
    },
    columns=(
        ("exec_ms_per_page", "logged", EXEC, 2),
        ("lock_blocks", "logged", methodcaller("counter", "lock_blocks"), None),
        ("restarts", "logged", attrgetter("n_restarts"), None),
    ),
    label_field="workload",
)

#: The CLI's two views of the catalogue.
TABLES: Dict[int, Table] = {
    int(key[len("table"):]): table
    for key, table in CATALOGUE.items()
    if key in PAPER
}
ABLATIONS: Dict[str, Table] = {
    key: table for key, table in CATALOGUE.items() if key not in PAPER
}
