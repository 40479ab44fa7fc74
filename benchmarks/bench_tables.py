"""Every catalogued paper table and ablation, one grid each.

The tables themselves live in :data:`repro.experiments.tables.CATALOGUE`;
this module keeps only what belongs to the benchmark, keyed by catalogue
key: the column the trajectory gate watches (``GATES``) and the shape
each table's rows must keep (``SHAPES``, each grid's check; an
ablation's shape quotes what the paper says where it gives no table).
A catalogue entry without a gate or a shape fails at import.

``python -m repro bench table02`` runs one grid, writes its
``BENCH_<name>.json`` and checks the shape;
``tests/test_experiments_pins.py`` checks the same shapes on the
committed rows.
"""

from typing import Callable, Dict, List

from benchmarks._harness import BENCH_SEED, catalogue_grids
from repro.bench import BenchSpecError
from repro.experiments.tables import CATALOGUE

#: The column whose mean each grid gates on.
GATES = {
    "table1": "exec_with_log",
    "table2": "log_disk_utilization",
    "table3": "exec_cyclic",
    "table4": "exec_1ptp",
    "table5": "1ptp_pt",
    "table6": "buffer_50",
    "table7": "clustered",
    "table8": "thru_pt",
    "table9": "exec_optimal",
    "table10": "output_20pct",
    "table11": "size_15pct",
    "table12": "logging",
    "interconnect": "through_cache",
    "version-selection": "version_selection",
    "overwriting-variants": "no_undo",
    "disk-scheduling": "sstf",
    "checkpointing": "every_500ms",
    "hotspot": "exec_ms_per_page",
}

Rows = List[Dict]

#: ``SHAPES[key](rows)`` asserts the paper's shape on one table's rows.
SHAPES: Dict[str, Callable[[Rows], None]] = {}


def _shape(key: str):
    def register(check: Callable[[Rows], None]) -> Callable[[Rows], None]:
        SHAPES[key] = check
        return check

    return register


@_shape("table1")
def logging_keeps_throughput(rows: Rows) -> None:
    """Collecting recovery data overlaps data processing."""
    for row in rows:
        # Logging must not degrade throughput by more than ~10 %.
        assert row["exec_with_log"] <= 1.10 * row["exec_without_log"], row


@_shape("table2")
def one_log_disk_idles(rows: Rows) -> None:
    """The data-page rate cannot keep a single log disk busy."""
    by_config = {row["configuration"]: row for row in rows}
    assert by_config["conventional-random"]["log_disk_utilization"] < 0.08
    assert (
        by_config["parallel-sequential"]["log_disk_utilization"]
        > by_config["conventional-random"]["log_disk_utilization"]
    )


@_shape("table3")
def log_disks_relieve_physical_logging(rows: Rows) -> None:
    """One log disk saturates under physical logging; more restore
    performance, and txn-mod selection is the loser."""
    rows = {row["n_log_disks"]: row for row in rows}
    # One log disk is the bottleneck; three make it much better.
    assert rows[1]["exec_cyclic"] > 1.8 * rows["w/o logging"]["exec_cyclic"]
    assert rows[3]["exec_cyclic"] < 0.75 * rows[1]["exec_cyclic"]
    # txn-mod never recovers fully (few concurrent transactions).
    assert rows[5]["exec_txn_mod"] > rows[5]["exec_random"]


@_shape("table4")
def second_pt_processor_annuls_shadow_cost(rows: Rows) -> None:
    """One PT processor degrades random loads; a second annuls it;
    sequential loads barely notice the mechanism."""
    rows = {row["configuration"]: row for row in rows}
    rand = rows["conventional-random"]
    assert rand["exec_1ptp"] > 1.04 * rand["exec_bare"]
    assert rand["exec_2ptp"] < rand["exec_1ptp"]
    seq = rows["conventional-sequential"]
    assert seq["exec_1ptp"] <= 1.10 * seq["exec_bare"]


@_shape("table5")
def pt_disk_saturates(rows: Rows) -> None:
    """On random loads one PT disk saturates while the data disks starve."""
    rows = {row["configuration"]: row for row in rows}
    rand = rows["conventional-random"]
    assert rand["1ptp_pt"] > 0.9          # PT disk saturated
    assert rand["1ptp_data"] < rand["bare_data"] - 0.05  # data disks starve
    assert rand["2ptp_pt"] < rand["1ptp_pt"] - 0.2       # relief with 2 procs
    assert rows["conventional-sequential"]["1ptp_pt"] < 0.2


@_shape("table6")
def pt_buffer_annuls_shadow_cost(rows: Rows) -> None:
    """Larger page-table buffers turn PT-disk reads into hits."""
    for row in rows:
        assert row["buffer_10"] > row["bare"]          # small buffer hurts
        assert row["buffer_50"] < row["buffer_10"]     # big buffer recovers
        assert row["buffer_50"] <= 1.08 * row["bare"]  # ...nearly fully


@_shape("table7")
def scrambling_collapses_sequential(rows: Rows) -> None:
    """Scrambled placement collapses sequential loads; overwriting stays
    close to bare on parallel-access disks."""
    rows = {row["configuration"]: row for row in rows}
    conv = rows["conventional-sequential"]
    par = rows["parallel-sequential"]
    assert conv["scrambled"] > 1.5 * conv["clustered"]
    assert par["scrambled"] > 4 * par["bare"]          # the 10x collapse
    assert par["overwriting"] < 0.4 * par["scrambled"]  # overwriting wins back
    assert conv["overwriting"] > 1.3 * conv["bare"]


@_shape("table8")
def overwriting_loses_on_random(rows: Rows) -> None:
    """Three I/Os per update make overwriting the worst random-load option."""
    for row in rows:
        assert row["overwriting"] > row["bare"]
    conv = next(
        r for r in rows if r["configuration"] == "conventional-random"
    )
    assert conv["overwriting"] > 1.1 * conv["thru_pt"]


@_shape("table9")
def basic_differential_is_cpu_bound(rows: Rows) -> None:
    """The basic strategy flattens every configuration; the optimal one
    recovers random loads but still hurts sequential ones."""
    basics = [row["exec_basic"] for row in rows]
    # CPU-bound flattening: all four basic numbers within 25 % of each other.
    assert max(basics) < 1.25 * min(basics)
    for row in rows:
        assert row["exec_optimal"] < 0.65 * row["exec_basic"]
    parseq = next(
        r for r in rows if r["configuration"] == "parallel-sequential"
    )
    assert parseq["exec_optimal"] > 3 * parseq["exec_bare"]


@_shape("table10")
def output_fraction_grows_sublinearly(rows: Rows) -> None:
    """Page fragmentation makes small output fractions pay already."""
    for row in rows:
        # Quintupling the output fraction costs far less than 5x.
        assert row["output_50pct"] < 1.35 * row["output_10pct"], row
        assert row["output_10pct"] >= row["bare"] * 0.95


@_shape("table11")
def differential_size_degrades_nonlinearly(rows: Rows) -> None:
    """Growing A/D files saturate the query processors ever faster."""
    for row in rows:
        e10, e15, e20 = row["size_10pct"], row["size_15pct"], row["size_20pct"]
        assert e10 < e15 < e20, row
        assert (e20 - e15) > (e15 - e10), f"growth not accelerating: {row}"


@_shape("table12")
def logging_tracks_bare(rows: Rows) -> None:
    """The paper's conclusion: parallel logging tracks the bare machine
    everywhere, and every rival collapses somewhere."""
    rows = {row["configuration"]: row for row in rows}
    for name, row in rows.items():
        # The headline: logging within 15 % of bare everywhere.
        assert row["logging"] <= 1.15 * row["bare"], name
    # Each rival collapses somewhere.
    assert rows["parallel-sequential"]["scrambled"] > 4 * rows["parallel-sequential"]["bare"]
    assert rows["conventional-random"]["overwriting"] > 1.25 * rows["conventional-random"]["bare"]
    assert rows["parallel-sequential"]["differential"] > 3 * rows["parallel-sequential"]["bare"]


@_shape("interconnect")
def interconnect_barely_matters(rows: Rows) -> None:
    """Fragment delays are absorbed in the log processor's idle gaps.

    Paper (Section 4.1.3, no table given):
      performance 'quite insensitive' to 1.0 / 0.1 / 0.01 MB/s links
      performance 'not affected' by routing fragments through the cache
    """
    for row in rows:
        values = [v for k, v in row.items() if k != "configuration"]
        assert max(values) <= 1.12 * min(values), row


@_shape("version-selection")
def version_selection_loses(rows: Rows) -> None:
    """Fetching both versions lengthens every random read.

    Paper (Section 4.2.5, no table given):
      'the average time to access a data page will increase'
      'the version selection algorithm will have poor performance'
      'requires substantial redundant storage to hold versions'
    """
    for row in rows:
        if "random" in row["configuration"]:
            assert row["version_selection"] > row["bare"], row


@_shape("overwriting-variants")
def overwriting_variants_run(rows: Rows) -> None:
    """Both variants price every configuration.

    Paper (Section 3.2.2.2 describes both; Tables 7-8 evaluate no-undo):
      no-redo: shadows saved to scratch, homes overwritten eagerly
      no-undo: currents parked in scratch, shadows overwritten at commit
    """
    for row in rows:
        assert row["no_undo"] > 0 and row["no_redo"] > 0


@_shape("disk-scheduling")
def sstf_cannot_hurt(rows: Rows) -> None:
    """Short queues leave SSTF little to gain, and nothing to lose.

    Paper:
      (not studied — 1985 controllers were FCFS; extension ablation)
    """
    for row in rows:
        assert row["sstf"] <= 1.03 * row["fcfs"], row


@_shape("checkpointing")
def checkpoints_need_no_quiescing(rows: Rows) -> None:
    """Background checkpoints overlap data-page processing.

    Paper (Section 3.1, details in ref [13]):
      'system checkpointing can be performed in parallel with the normal
       data processing and logging activities without complete system
       quiescing'
    """
    for row in rows:
        assert row["every_500ms"] <= 1.06 * row["no_checkpoints"], row


@_shape("hotspot")
def only_tiny_hot_sets_contend(rows: Rows) -> None:
    """Moderate skew stays near uniform cost; a tiny hot set contends.

    Paper:
      (uniform workload only; hotspot skew is an extension ablation)
    """
    rows = {row["workload"]: row for row in rows}
    # A pathologically small hot set (0.5 % of the database) drives up
    # conflicts and restarts...
    assert rows["hot_0.005"]["lock_blocks"] > rows["uniform"]["lock_blocks"]
    assert rows["hot_0.005"]["restarts"] >= rows["uniform"]["restarts"]
    # ...while a conventional 80/20-style skew stays near uniform cost.
    assert (
        rows["hot_0.1"]["exec_ms_per_page"]
        <= 1.15 * rows["uniform"]["exec_ms_per_page"]
    )


if not set(GATES) == set(SHAPES) == set(CATALOGUE):
    raise BenchSpecError(
        f"gates {sorted(GATES)} and shapes {sorted(SHAPES)} must cover "
        f"the catalogue {sorted(CATALOGUE)}"
    )

GRIDS = catalogue_grids(GATES, SHAPES, seed=BENCH_SEED)
