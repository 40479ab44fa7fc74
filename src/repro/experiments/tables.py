"""The catalogue: every paper table and ablation, declared once.

Almost every table of the paper's Section 4 has one shape: configurations
as rows, recovery-architecture variants as columns, one metric of one run
in each cell.  A :class:`Table` declares that layout — its rows, its named
architectures (each a factory plus machine overrides), its columns as
``(key, architecture, metric, digits)`` and the columns fidelity scores —
and calling it runs each (row, architecture) pair once and returns
``{"title", "rows", "paper"}``, each row's keys in declared order.
``render(result)`` turns any result into an aligned plain-text table.

Table 3 (log-disk counts as rows) and the hotspot ablation (workloads as
rows, counters in the cells) keep a plain row builder, registered the
same way.  The CLI, fidelity scoring and the benchmark grids all read
:data:`CATALOGUE`; none keeps a table list of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter, methodcaller
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.core.bare import BareArchitecture
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
from repro.experiments.paper import CONFIG_NAMES, PAPER
from repro.experiments.runner import (
    CONFIGURATIONS,
    ExperimentSettings,
    run_configuration,
)
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
TABLE3_MACHINE = {
    "n_query_processors": 75,
    "cache_frames": 150,
    "prefetch_window": 48,
}

#: Cell metrics: each maps a ``RunResult`` to one number.
EXEC = attrgetter("execution_time_per_page")
COMPLETION = attrgetter("mean_completion_ms")


def _utilization(resource: str) -> Callable:
    return methodcaller("utilization", resource)


class Arch(NamedTuple):
    """A named column architecture: a zero-argument factory (``None`` runs
    the bare machine) and the machine overrides its runs use."""

    factory: Optional[Callable] = None
    machine: Optional[Mapping[str, Any]] = None


BARE = Arch()


def _logging(**config) -> Arch:
    return Arch(partial(ParallelLoggingArchitecture, LoggingConfig(**config)))


def _shadow(**config) -> Arch:
    return Arch(partial(PageTableShadowArchitecture, ShadowConfig(**config)))


def _differential(**config) -> Arch:
    return Arch(partial(DifferentialFileArchitecture, DifferentialConfig(**config)))


Column = Tuple[str, str, Callable, int]


@dataclass(frozen=True)
class Table:
    """One paper table or ablation, declared once.

    ``columns`` defaults to one execution-time column per architecture,
    keyed by its name.  ``scored`` names the columns fidelity pairs with
    the paper (``True``: every column).  ``paper_field`` repeats that
    column's paper value in each row under ``"paper"``.  ``build``
    replaces the engine with a plain row builder.  An entry pickles by
    reference to its module-level ``name``.
    """

    name: str
    key: str  # "table1".."table12" (the PAPER key) or the ablation's CLI name
    title: str
    description: str
    archs: Mapping[str, Arch]
    columns: Tuple[Column, ...] = ()
    rows: Tuple[str, ...] = CONFIG_NAMES
    scored: Union[bool, Tuple[str, ...]] = ()
    label_field: str = "configuration"
    paper_field: Optional[str] = None
    build: Optional[Callable[[ExperimentSettings], List[Dict]]] = None

    def __post_init__(self) -> None:
        if not self.columns:
            columns = tuple((name, name, EXEC, 2) for name in self.archs)
            object.__setattr__(self, "columns", columns)

    def __reduce__(self) -> str:
        return self.name

    def __call__(self, settings: Optional[ExperimentSettings] = None) -> Dict:
        settings = settings or ExperimentSettings()
        rows = (self.build or self._rows)(settings)
        return {"title": self.title, "rows": rows, "paper": PAPER.get(self.key)}

    @property
    def scored_columns(self) -> Tuple[str, ...]:
        if self.scored is True:
            return tuple(key for key, *_ in self.columns)
        return self.scored or ()

    def _rows(self, settings: ExperimentSettings) -> List[Dict]:
        rows = []
        for label in self.rows:
            config = CONFIGURATIONS[label]
            runs = {
                name: run_configuration(
                    config, arch.factory, settings, machine_overrides=arch.machine
                )
                for name, arch in self.archs.items()
            }
            row: Dict[str, Any] = {self.label_field: label}
            for key, arch, metric, digits in self.columns:
                row[key] = round(metric(runs[arch]), digits)
            if self.paper_field:
                row["paper"] = PAPER[self.key][label][self.paper_field]
            rows.append(row)
        return rows


#: Every table and ablation, by key, in declaration order.
CATALOGUE: Dict[str, Table] = {}


def _declare(**fields) -> Table:
    table = Table(**fields)
    CATALOGUE[table.key] = table
    return table


def render(result: Dict) -> str:
    """Render any table result as aligned text."""
    rows = result["rows"]
    headers = list(rows[0].keys())
    return format_table(
        headers,
        [[row[h] for h in headers] for row in rows],
        title=result.get("title"),
    )


_RANDOM = ("conventional-random", "parallel-random")
_SEQUENTIAL = ("conventional-sequential", "parallel-sequential")
_SHADOW_1PTP = _shadow(n_pt_processors=1)
_SHADOW_2PTP = _shadow(n_pt_processors=2)


table1_logging_impact = _declare(
    name="table1_logging_impact",
    key="table1",
    title="Table 1. Impact of Logging",
    description="Table 1: impact of (logical) logging with one log disk.",
    archs={"bare": BARE, "logged": _logging()},
    columns=(
        ("exec_without_log", "bare", EXEC, 2),
        ("exec_with_log", "logged", EXEC, 2),
        ("completion_without_log", "bare", COMPLETION, 1),
        ("completion_with_log", "logged", COMPLETION, 1),
    ),
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


def _table3_rows(settings: ExperimentSettings) -> List[Dict]:
    """Physical logging on the Table 3 testbed, one row per log-disk count;
    the last row repeats the bare machine across the policy columns."""
    config = CONFIGURATIONS["parallel-sequential"]
    bare = run_configuration(config, None, settings, machine_overrides=TABLE3_MACHINE)
    rows = []
    for n in (1, 2, 3, 4, 5, "w/o logging"):
        row: Dict[str, Any] = {"n_log_disks": n}
        for policy in SelectionPolicy:
            if n == "w/o logging":
                result = bare
            else:
                logging = _logging(
                    n_log_processors=n, mode=LogMode.PHYSICAL, selection=policy
                )
                result = run_configuration(
                    config, logging.factory, settings, machine_overrides=TABLE3_MACHINE
                )
            row[f"exec_{policy.value}"] = round(result.execution_time_per_page, 2)
            row[f"compl_{policy.value}"] = round(result.mean_completion_ms, 1)
        rows.append(row)
    return rows


table3_parallel_logging = _declare(
    name="table3_parallel_logging",
    key="table3",
    title="Table 3. Parallel Logging and Selection Algorithms "
    "(75 QPs, 2 parallel-access disks, 150 frames)",
    description="Table 3: physical logging, 1-5 log disks x 4 selection policies.",
    archs={},
    label_field="n_log_disks",
    build=_table3_rows,
)

table4_shadow_impact = _declare(
    name="table4_shadow_impact",
    key="table4",
    title="Table 4. Impact of the Shadow Mechanism",
    description="Table 4: impact of the shadow mechanism, 1 vs 2 PT processors.",
    archs={"bare": BARE, "1ptp": _SHADOW_1PTP, "2ptp": _SHADOW_2PTP},
    columns=(
        ("exec_bare", "bare", EXEC, 2),
        ("exec_1ptp", "1ptp", EXEC, 2),
        ("exec_2ptp", "2ptp", EXEC, 2),
        ("completion_bare", "bare", COMPLETION, 1),
        ("completion_1ptp", "1ptp", COMPLETION, 1),
        ("completion_2ptp", "2ptp", COMPLETION, 1),
    ),
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
    columns=(
        ("exec_bare", "bare", EXEC, 2),
        ("exec_basic", "basic", EXEC, 2),
        ("exec_optimal", "optimal", EXEC, 2),
        ("completion_bare", "bare", COMPLETION, 1),
        ("completion_basic", "basic", COMPLETION, 1),
        ("completion_optimal", "optimal", COMPLETION, 1),
    ),
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
        "bare": Arch(BareArchitecture),
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
        "bare": Arch(None, _HALF_DB),
        "thru_pt": Arch(_shadow().factory, _HALF_DB),
        "version_selection": Arch(VersionSelectionArchitecture, _HALF_DB),
    },
)

ablation_overwriting_variants = _declare(
    name="ablation_overwriting_variants",
    key="overwriting-variants",
    title="Ablation (Sec 3.2.2.2): overwriting no-undo vs no-redo",
    description="Section 3.2.2.2: the no-undo vs the no-redo overwriting variant.",
    archs={
        "no_undo": Arch(partial(OverwritingArchitecture, OverwritingMode.NO_UNDO)),
        "no_redo": Arch(partial(OverwritingArchitecture, OverwritingMode.NO_REDO)),
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
        policy: Arch(None, {"disk_scheduling": policy}) for policy in ("fcfs", "sstf")
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


def _hotspot_rows(settings: ExperimentSettings) -> List[Dict]:
    """Parallel logging on conventional-random under b/c-rule skew: one row
    per hot-set size, with the lock conflicts and restarts it causes."""
    rows = []
    for hotspot in (None, 0.1, 0.005):
        result = run_configuration(
            CONFIGURATIONS["conventional-random"],
            _logging().factory,
            settings,
            workload_overrides={"hotspot_fraction": hotspot},
        )
        rows.append(
            {
                "workload": "uniform" if hotspot is None else f"hot_{hotspot:g}",
                "exec_ms_per_page": round(result.execution_time_per_page, 2),
                "lock_blocks": result.counter("lock_blocks"),
                "restarts": result.n_restarts,
            }
        )
    return rows


# The paper's workload is uniform; skew shows performance is driven by I/O
# patterns, not lock contention, until the hot set is pathologically small.
ablation_hotspot = _declare(
    name="ablation_hotspot",
    key="hotspot",
    title="Ablation (extension): hotspot skew under parallel logging",
    description="Extension: skewed (hotspot) reference strings under logging.",
    archs={},
    label_field="workload",
    build=_hotspot_rows,
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
