"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro tables                 # list the experiments
    python -m repro table 3                # regenerate the paper's Table 3
    python -m repro table 12 -n 15         # grand comparison, smaller load
    python -m repro ablation interconnect  # Section 4.1.3 ablation
    python -m repro predict --parallel --sequential
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Any, Callable, Iterable, List, Optional

from repro.analysis import predict_bottleneck
from repro.bench import (
    diff_dirs,
    gate,
    load_grids,
    render_entries,
    render_grid,
    run_grid,
    write_grid_artifacts,
)
from repro.bench.spec import BenchSpecError
from repro.faults import FaultPlan, run_crashtest, run_scenario
from repro.experiments import ExperimentSettings
from repro.experiments.fidelity import fidelity_summary
from repro.experiments.runner import CONFIGURATIONS
from repro.experiments.tables import ABLATIONS, TABLES, render
from repro.experiments.tracing import (
    SIM_ARCHITECTURES,
    render_diff,
    run_traced,
    trace_diff,
)
from repro.loadgen.arrivals import PROCESSES, ArrivalConfig
from repro.loadgen.loadtest import DEFAULT_MULTIPLIERS, sweep_architectures
from repro.loadgen.runner import DEGRADED_STATES
from repro.machine import MachineConfig
from repro.registry import add_arch_argument, resolve_archs
from repro.resilience import run_scrubtest, run_survivetest
from repro.trace import (
    render_flame,
    render_timeline,
    to_chrome_trace,
    validate_chrome_trace,
    write_json,
)

__all__ = ["main"]

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Recovery Architectures for Multiprocessor "
            "Database Machines' (Agrawal & DeWitt, 1985)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="list the reproducible experiments")

    table = sub.add_parser("table", help="regenerate one paper table")
    table.add_argument("number", type=int, choices=sorted(TABLES))
    table.add_argument(
        "-n",
        "--transactions",
        type=int,
        default=30,
        help="transactions per simulated run (default 30)",
    )
    table.add_argument("--seed", type=int, default=1985, help="machine seed")

    ablation = sub.add_parser("ablation", help="run one ablation study")
    ablation.add_argument("name", choices=sorted(ABLATIONS))
    ablation.add_argument("-n", "--transactions", type=int, default=30)
    ablation.add_argument("--seed", type=int, default=1985)

    fidelity = sub.add_parser(
        "fidelity", help="score the reproduction against the paper, cell by cell"
    )
    fidelity.add_argument("-n", "--transactions", type=int, default=30)
    fidelity.add_argument("--seed", type=int, default=1985)

    crashtest = _harness_parser(
        sub,
        "crashtest",
        "crash-recovery correctness sweep (see docs/FAULTS.md)",
        "crash",
        "the full report(s)",
    )
    crashtest.add_argument(
        "-n",
        "--transactions",
        type=int,
        default=10,
        help="transactions in the seeded workload (default 10)",
    )
    crashtest.add_argument(
        "--budget",
        type=int,
        default=None,
        help="crash points per architecture (seeded sample; default: all)",
    )
    crashtest.add_argument(
        "--plan",
        dest="plan_path",
        help="replay one failing fault-plan JSON instead of sweeping",
    )

    survive = _harness_parser(
        sub,
        "survivetest",
        "degraded-mode survival sweep over permanent component "
        "failures (see docs/RESILIENCE.md)",
        "degrade",
        "the availability report(s)",
    )
    survive.add_argument(
        "-n",
        "--transactions",
        type=int,
        default=12,
        help="transactions in the seeded workload (default 12)",
    )

    _harness_parser(
        sub,
        "scrubtest",
        "silent-corruption sweep: inject rot per target site, check "
        "detection before committed reads, repair, and re-verify "
        "(see docs/INTEGRITY.md)",
        "corrupt",
        "the detection/repair report(s)",
    )

    loadtest = _harness_parser(
        sub,
        "loadtest",
        "open-system offered-load sweep: goodput vs load, collapse "
        "knee, degraded-state comparison (see docs/LOADGEN.md)",
        "sweep",
        "every sweep report",
        seed_help="machine seed",
    )
    loadtest.add_argument(
        "-n",
        "--transactions",
        type=int,
        default=24,
        help="transactions offered per sweep cell (default 24)",
    )
    loadtest.add_argument(
        "--loads",
        default=",".join(f"{m:g}" for m in DEFAULT_MULTIPLIERS),
        help="comma list of offered-load multiples of calibrated capacity",
    )
    loadtest.add_argument(
        "--arrival",
        default="poisson",
        choices=sorted(PROCESSES),
        help="arrival process per cell (default: poisson)",
    )
    loadtest.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        help="goodput SLO in ms (default: 2.5x closed-batch mean completion)",
    )
    loadtest.add_argument(
        "--states",
        default="healthy,dead-lp,mirrored-degraded",
        help="comma list of machine states to sweep "
        f"(subset of {','.join(DEGRADED_STATES)}; dead-lp needs "
        "log-processor quorum and is skipped elsewhere)",
    )

    trace = sub.add_parser(
        "trace",
        help="traced run: phase breakdown, timeline, Chrome trace "
        "(see docs/TRACE.md)",
    )
    add_arch_argument(
        trace,
        SIM_ARCHITECTURES,
        default="logging",
        help_text="architecture to trace (default: logging)",
    )
    trace.add_argument(
        "--config",
        default="parallel-random",
        choices=sorted(CONFIGURATIONS),
        help="machine/workload configuration (default: parallel-random)",
    )
    trace.add_argument("-n", "--transactions", type=int, default=10)
    trace.add_argument("--seed", type=int, default=1985)
    trace.add_argument(
        "-o",
        "--output",
        help="write Chrome/Perfetto trace JSON here (with --arch all, "
        "one file per architecture: <output>.<arch>.json)",
    )
    trace.add_argument(
        "--timeline", action="store_true", help="print the ASCII timeline too"
    )

    diff = sub.add_parser(
        "trace-diff",
        help="attribute the completion-time gap between two architectures "
        "to phases",
    )
    diff.add_argument("arch_a", choices=sorted(SIM_ARCHITECTURES))
    diff.add_argument("arch_b", choices=sorted(SIM_ARCHITECTURES))
    diff.add_argument(
        "--config",
        default="parallel-random",
        choices=sorted(CONFIGURATIONS),
        help="machine/workload configuration (default: parallel-random)",
    )
    diff.add_argument("-n", "--transactions", type=int, default=10)
    diff.add_argument("--seed", type=int, default=1985)

    bench = sub.add_parser(
        "bench",
        help="run the declarative benchmark grids, write schema-validated "
        "BENCH_<name>.json artifacts and run each grid's check; exit 1 if a "
        "check fails (see docs/BENCH.md)",
    )
    bench.add_argument(
        "names", nargs="*", help="grid names to run (default: every grid)"
    )
    bench.add_argument(
        "--dir",
        dest="bench_dir",
        default="benchmarks",
        help="benchmark tree holding bench_*.py grid specs (default: benchmarks)",
    )
    bench.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes per grid; artifacts are byte-identical to -j 1",
    )
    bench.add_argument(
        "--write-baselines",
        action="store_true",
        help="also refresh the committed BENCH_*.json baselines at the repo "
        "root (the parent of --dir)",
    )
    bench.add_argument(
        "--list",
        dest="list_grids",
        action="store_true",
        help="list the discovered grids and their cell counts, run nothing",
    )

    benchdiff = sub.add_parser(
        "bench-diff",
        help="diff fresh grid artifacts against the committed BENCH_*.json "
        "baselines; non-zero exit on regression (see docs/BENCH.md)",
    )
    benchdiff.add_argument(
        "names", nargs="*", help="grid names to compare (default: all)"
    )
    benchdiff.add_argument(
        "--dir",
        dest="bench_dir",
        default="benchmarks",
        help="benchmark tree (default: benchmarks)",
    )
    benchdiff.add_argument(
        "--baseline",
        help="baseline artifact dir (default: the repo root, parent of --dir)",
    )
    benchdiff.add_argument(
        "--current",
        help="fresh artifact dir (default: <dir>/output)",
    )
    benchdiff.add_argument(
        "--tolerance",
        type=float,
        help="override every grid's declared relative tolerance",
    )
    benchdiff.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print the cells that stayed within tolerance",
    )

    predict = sub.add_parser(
        "predict", help="analytic bottleneck prediction for a configuration"
    )
    predict.add_argument("--parallel", action="store_true", help="parallel-access disks")
    predict.add_argument("--sequential", action="store_true", help="sequential transactions")
    predict.add_argument("--qps", type=int, default=25, help="query processors")
    predict.add_argument("--disks", type=int, default=2, help="data disks")
    predict.add_argument("--frames", type=int, default=100, help="cache frames")
    return parser


def _harness_parser(
    sub,
    name: str,
    help_text: str,
    verb: str,
    report: str,
    seed_help: str = "workload seed",
) -> argparse.ArgumentParser:
    """A fault-harness subcommand with its shared --seed, --arch and --json."""
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("--seed", type=int, default=1985, help=seed_help)
    add_arch_argument(
        parser, help_text=f"recovery architecture to {verb} (default: all)"
    )
    parser.add_argument(
        "--json", dest="json_path", help=f"write {report} to this JSON file"
    )
    return parser


def _settings(args) -> ExperimentSettings:
    return ExperimentSettings(n_transactions=args.transactions, seed=args.seed)


def _run_crashtest(args) -> int:
    if args.plan_path:
        if args.arch == "all":
            print("replay needs a single --arch", file=sys.stderr)
            return 2
        with open(args.plan_path) as handle:
            plan = FaultPlan.from_json(handle.read())
        result = run_scenario(
            args.arch, args.seed, plan, n_transactions=args.transactions
        )
        print(f"{args.arch}: crashed_at={result.crashed_at} outcome={result.outcome}")
        for violation in result.violations:
            print(f"  {violation['kind']}: {violation['detail']}")
        return 1 if result.violations else 0

    return _drive(
        (
            run_crashtest(
                arch, args.seed, n_transactions=args.transactions, budget=args.budget
            )
            for arch in resolve_archs(args.arch)
        ),
        args.json_path,
    )


def _run_survivetest(args) -> int:
    return _drive(
        (
            run_survivetest(arch, args.seed, n_transactions=args.transactions)
            for arch in resolve_archs(args.arch)
        ),
        args.json_path,
    )


def _run_scrubtest(args) -> int:
    return _drive(
        (run_scrubtest(arch, args.seed) for arch in resolve_archs(args.arch)),
        args.json_path,
    )


def _run_loadtest(args) -> int:
    try:
        multipliers = [float(tok) for tok in args.loads.split(",") if tok.strip()]
        if not multipliers or any(m <= 0 for m in multipliers):
            raise ValueError
    except ValueError:
        print(f"bad --loads {args.loads!r}: need positive numbers", file=sys.stderr)
        return 2
    states = [tok.strip() for tok in args.states.split(",") if tok.strip()]
    unknown = [s for s in states if s not in DEGRADED_STATES]
    if unknown or not states:
        print(
            f"bad --states {args.states!r}: pick from "
            f"{','.join(DEGRADED_STATES)}",
            file=sys.stderr,
        )
        return 2
    reports = sweep_architectures(
        resolve_archs(args.arch),
        states,
        seed=args.seed,
        n_per_cell=args.transactions,
        multipliers=multipliers,
        arrival=ArrivalConfig(process=args.arrival),
        slo_ms=args.slo_ms,
    )
    # The sweep contract: oracles hold in every cell AND the swept range
    # actually exhibits the overload collapse.  Several reports share an
    # architecture, so the JSON is a list.
    return _drive(
        reports,
        args.json_path,
        keyed=False,
        passed=lambda report: report.ok and report.knee() is not None,
        end="\n\n",
    )


def _drive(
    reports: Iterable[Any],
    json_path: Optional[str],
    keyed: bool = True,
    passed: Callable[[Any], bool] = lambda report: report.ok,
    end: str = "\n",
) -> int:
    """The harness CLIs' one drive loop: print each report's ``summary()``,
    write ``json_path`` (a dict keyed by architecture, or a list when not
    ``keyed``), and exit 1 unless every report ``passed``."""
    done = []
    for report in reports:
        print(report.summary(), end=end)
        done.append(report)
    if json_path:
        payload: Any = [json.loads(report.to_json()) for report in done]
        if keyed:
            payload = {r.architecture: p for r, p in zip(done, payload)}
        with open(json_path, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
        print(f"wrote {json_path}")
    return 0 if all(passed(report) for report in done) else 1


def _bench_dirs(args):
    """(output dir, repo-root baseline dir) for a benchmark tree."""
    output_dir = os.path.join(args.bench_dir, "output")
    root_dir = os.path.dirname(os.path.abspath(args.bench_dir))
    return output_dir, root_dir


def _run_bench(args) -> int:
    try:
        grids = load_grids(args.bench_dir, args.names or None)
    except (BenchSpecError, ImportError) as error:
        print(error, file=sys.stderr)
        return 2
    if args.list_grids:
        for name, grid in grids.items():
            toggles = ",".join(t.name for t in grid.toggles) or "-"
            print(
                f"{name:>28}: {len(grid.cells())} cells, "
                f"gate {grid.primary_metric} "
                f"(tol {grid.tolerance:.0%}), toggles: {toggles}"
            )
        return 0
    if not __debug__:
        # Checks are assert statements, which -O strips: every one would pass.
        print("bench: grid checks need asserts; run without -O", file=sys.stderr)
        return 2
    output_dir, root_dir = _bench_dirs(args)
    baseline_dir = root_dir if args.write_baselines else None
    failed = 0
    for i, (name, grid) in enumerate(grids.items()):
        result = run_grid(grid, jobs=args.jobs)
        if i:
            print()
        print(render_grid(result))
        paths = write_grid_artifacts(result, output_dir, baseline_dir)
        print("wrote " + ", ".join(paths))
        try:
            grid.check(result)
        except AssertionError as error:
            failed += 1
            print(
                f"bench: {name} check FAILED at {_failed_assert(error)}",
                file=sys.stderr,
            )
        else:
            print(f"{name}: check passed")
    return 1 if failed else 0


def _failed_assert(error: AssertionError) -> str:
    """``file:line: source`` of the assert that raised, plus its message."""
    frame = traceback.extract_tb(error.__traceback__)[-1]
    where = f"{frame.filename}:{frame.lineno}: {frame.line}"
    return f"{where}: {error}" if str(error) else where


def _run_bench_diff(args) -> int:
    output_dir, root_dir = _bench_dirs(args)
    baseline_dir = args.baseline or root_dir
    current_dir = args.current or output_dir
    entries = diff_dirs(
        baseline_dir, current_dir, names=args.names or None,
        tolerance=args.tolerance,
    )
    print(render_entries(entries, verbose=args.verbose))
    if not gate(entries):
        print("bench-diff: trajectory gate FAILED", file=sys.stderr)
        return 1
    return 0


def _run_trace(args) -> int:
    archs = resolve_archs(args.arch, SIM_ARCHITECTURES)
    for i, arch in enumerate(archs):
        run = run_traced(arch, args.config, _settings(args))
        if i:
            print()
        print(
            render_flame(
                run.breakdown,
                title=f"{arch} on {run.configuration} "
                f"(mean completion {run.result.mean_completion_ms:.1f} ms, "
                f"critical resource: {run.critical})",
            )
        )
        percentiles = "  ".join(
            f"{name}={run.percentiles[name]:.1f} ms" for name in sorted(run.percentiles)
        )
        print(f"completion percentiles: {percentiles}")
        if args.timeline:
            print(render_timeline(run.tracer))
        if args.output:
            events = to_chrome_trace(run.tracer, process_name=f"repro.{arch}")
            count = validate_chrome_trace(events)
            if args.arch == "all":
                stem = args.output[:-5] if args.output.endswith(".json") else args.output
                path = f"{stem}.{arch}.json"
            else:
                path = args.output
            write_json(events, path)
            print(f"wrote {path} ({count} events)")
    return 0


def _run_trace_diff(args) -> int:
    run_a, run_b, rows = trace_diff(
        args.arch_a, args.arch_b, args.config, _settings(args)
    )
    print(
        f"{run_a.architecture} vs {run_b.architecture} on {run_a.configuration} "
        f"({args.transactions} txns, seed {args.seed})"
    )
    print(render_diff(run_a, run_b, rows))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "tables":
        for number in sorted(TABLES):
            print(f"table {number:>2}: {TABLES[number].description}")
        for name in sorted(ABLATIONS):
            print(f"ablation {name}: {ABLATIONS[name].description}")
        return 0

    if args.command in ("table", "ablation"):
        entry = TABLES[args.number] if args.command == "table" else ABLATIONS[args.name]
        print(render(entry(_settings(args))))
        return 0

    if args.command == "fidelity":
        print(fidelity_summary(_settings(args)).render())
        return 0

    if args.command == "crashtest":
        return _run_crashtest(args)

    if args.command == "survivetest":
        return _run_survivetest(args)

    if args.command == "scrubtest":
        return _run_scrubtest(args)

    if args.command == "loadtest":
        return _run_loadtest(args)

    if args.command == "bench":
        return _run_bench(args)

    if args.command == "bench-diff":
        return _run_bench_diff(args)

    if args.command == "trace":
        return _run_trace(args)

    if args.command == "trace-diff":
        return _run_trace_diff(args)

    if args.command == "predict":
        config = MachineConfig(
            n_query_processors=args.qps,
            n_data_disks=args.disks,
            cache_frames=args.frames,
            parallel_data_disks=args.parallel,
        )
        report = predict_bottleneck(config, sequential=args.sequential)
        kind = "parallel-access" if args.parallel else "conventional"
        load = "sequential" if args.sequential else "random"
        print(f"configuration : {args.qps} QPs, {args.disks} {kind} disks, {load} load")
        print(f"bottleneck    : {report.bottleneck}")
        print(f"predicted     : {report.ms_per_page:.2f} ms/page")
        print(f"  disk-bound  : {report.disk_bound:.2f} ms/page")
        print(f"  cpu-bound   : {report.cpu_bound:.2f} ms/page")
        return 0

    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
