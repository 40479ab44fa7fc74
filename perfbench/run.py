"""Host-speed benchmark of the simulator and the recovery harnesses.

One command per workload, run from the repository root::

    python3 perfbench/run.py --workload paper-batch --seed 1985 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing and the
profiler off: it runs the workload's units back to back (one caller, a
closed loop) for ``--seconds`` host seconds, always finishing the first
pass.  ``--trace 1`` runs the first five passes three times — once with
spans around every public call, twice under ``cProfile`` — and reports the
per-layer metrics; the two profiled runs must give identical counts.  It
writes its spans and metrics to ``.perfbench/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the metrics, the workloads and the baseline.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import layers  # sibling modules: the script's directory is on sys.path
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 1985
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: sha256 of the first pass's simulated results at ``DEFAULT_SEED``.  A
#: host-speed change must not move one simulated byte, so a mismatch
#: counts as a failure.
PINNED_DIGESTS = {
    "paper-batch": "2e73402e2d511a38a19c7aff05093d5955cfb6a6022f04b1e91bfd6620d43d1b",
    "crash-sweep": "b8faa674f87cd000c564554c17807343f083cb0724e5405bfafdee74ad15120b",
    "traced-open": "4065c6e1fac83cd2b32e55a8f6c7900d0700053aec5b1c9bead227714aa9158a",
}
#: Passes each ``--trace 1`` run covers (fixed work, so counts repeat).
TRACED_PASSES = 5
#: Failure messages shown before the result line.
SHOWN_FAILURES = 10


class Tally:
    """Outcomes and (normalised) timings of the units one run executed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.scenario_s: List[float] = []
        self.txns = 0
        self.txn_s = 0.0
        self.wall_s = 0.0
        self.norm_s = 0.0
        self.counters: Dict[str, int] = {}
        #: (uid, simulated output) of every pass-0 unit, in run order.
        self.outputs: List[tuple] = []

    def add(self, unit, result, first_pass: bool) -> None:
        self.attempted += 1
        self.failures.extend(f"{unit.uid}: {line}" for line in result.failures)
        for name, value in result.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        if first_pass:
            self.outputs.append((unit.uid, result.output))

    def settle(self, timed: List[tuple], scale: float) -> None:
        """Book ``(unit, txns, wall seconds)`` records at one speed scale."""
        for unit, txns, wall in timed:
            self.wall_s += wall
            self.norm_s += wall * scale
            if unit.scenario:
                self.scenario_s.append(wall * scale)
            if unit.txn:
                self.txns += txns
                self.txn_s += wall * scale
        timed.clear()


def run_pass(workload, seed: int, index: int, rec, tally: Tally):
    """Run pass ``index`` unit by unit; yields ``(unit, txns, wall seconds)``."""
    for unit in workload.units(workload.inputs(seed, index, rec)):
        with rec.span("unit", unit=unit.uid):
            start = layers.now()
            result = unit.run(rec)
            elapsed = layers.now() - start
        tally.add(unit, result, first_pass=index == 0)
        yield unit, result.txns, elapsed


def run_traced_passes(workload, seed: int, rec, tally: Tally) -> float:
    """Run passes ``0 .. TRACED_PASSES - 1`` in full; returns their wall seconds."""
    start = layers.now()
    for index in range(TRACED_PASSES):
        for _ in run_pass(workload, seed, index, rec, tally):
            pass
    return layers.now() - start


def check_digest(name: str, seed: int, digest: str, failures: List[str]) -> None:
    print(f"{name} seed={seed} first-pass digest {digest}")
    pinned = PINNED_DIGESTS.get(name) if seed == DEFAULT_SEED else None
    if pinned is not None and digest != pinned:
        failures.append(f"first-pass digest {digest} != pinned {pinned}")


def setup_seconds(name: str, seed: int) -> float:
    """Median of fresh-interpreter set-ups (import plus pass-0 generation),
    each normalised by the reference kernel timed in the same child."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        setup_s, kernel_s = map(float, done.stdout.split()[-2:])
        samples.append(setup_s * speed.REFERENCE_S / kernel_s)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, seed: int, seconds: float) -> tuple:
    """End-to-end metrics, tracing and profiler off, in normalised seconds."""
    speed.pin_to_one_cpu()
    setup_s = setup_seconds(workload.name, seed)
    rec = layers.Recorder(enabled=False)
    tally = Tally()
    probe = speed.SpeedProbe()
    timed: List[tuple] = []
    deadline = layers.now() + seconds
    index = 0
    while index == 0 or layers.now() < deadline:
        for record in run_pass(workload, seed, index, rec, tally):
            timed.append(record)
            if probe.due():
                tally.settle(timed, probe.scale())
            if index > 0 and layers.now() >= deadline:
                break
        if index == 0:
            digest = workloads.pass_digest(tally.outputs)
            check_digest(workload.name, seed, digest, tally.failures)
        index += 1
    tally.settle(timed, probe.scale())
    n = len(tally.scenario_s)
    print(f"{tally.attempted} units in {index} passes, {n} scenarios, {tally.txns} "
          f"transactions; {tally.wall_s:.1f} wall s = {tally.norm_s:.1f} normalised s")
    metrics = {
        "setup_s": (setup_s, "s"),
        "txn_per_s": (tally.txns / tally.txn_s, "1/s"),
        "scenarios_per_s": (n / sum(tally.scenario_s), "1/s"),
        "scenario_ms_p50": (1000.0 * layers.percentile(tally.scenario_s, 50.0), "ms"),
        "scenario_ms_p90": (1000.0 * layers.percentile(tally.scenario_s, 90.0), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return tally, metrics


def counted_functions() -> Dict[str, list]:
    """Profiler call counts reported per layer: name -> functions counted."""
    from repro.faults import FaultInjector
    from repro.hardware.disk import DiskRequest
    from repro.integrity import page_checksum, record_checksum
    from repro.machine.machine import DatabaseMachine
    from repro.sim.core import Environment, Process, Timeout

    return {
        "sim.steps": [Environment.step],
        "sim.resumes": [Process._resume],
        "sim.timeouts": [Timeout.__init__],
        "sim.processes": [Process.__init__],
        "hardware.disk_requests": [DiskRequest.__init__],
        "machine.page_pipelines": [DatabaseMachine._data_page_pipeline],
        "integrity.checksums": [page_checksum, record_checksum],
        "faults.crossings": [FaultInjector.reached],
    }


#: Public result counters the units report, summed over the traced passes.
RESULT_COUNTERS = ("machine.restarts", "machine.admission_rejected", "trace.spans")
STORAGE_CALLS = ("begin", "write", "commit", "abort", "checkpoint", "crash", "recover")


def traced_run(workload, seed: int) -> tuple:
    """Per-layer metrics from spans and two profiled runs of the traced passes."""
    rec = layers.Recorder()
    tally = Tally()
    plain_s = run_traced_passes(workload, seed, rec, tally)
    digest = workloads.pass_digest(tally.outputs)
    check_digest(workload.name, seed, digest, tally.failures)

    functions = counted_functions()
    profiles = []
    for attempt in (1, 2):
        run_tally = Tally()
        profiler = cProfile.Profile()
        profiler.enable()
        elapsed = run_traced_passes(workload, seed, layers.Recorder(enabled=False), run_tally)
        profiler.disable()
        stats = pstats.Stats(profiler).stats
        counts = layers.call_counts(stats, functions)
        counts.update({name: run_tally.counters.get(name, 0) for name in RESULT_COUNTERS})
        profiles.append((elapsed, stats, counts))
        tally.attempted += run_tally.attempted
        tally.failures.extend(f"profiled run {attempt}: {f}" for f in run_tally.failures)
        if workloads.pass_digest(run_tally.outputs) != digest:
            tally.failures.append(f"profiled run {attempt} digest differs from the first run")
    counts = profiles[0][2]
    for name in counts:
        if counts[name] != profiles[1][2][name]:
            tally.failures.append(
                f"count {name} differs across traced runs: "
                f"{counts[name]} != {profiles[1][2][name]}"
            )
    if workload.name == "traced-open":
        tally.failures.extend(workloads.untraced_mismatches(
            seed, dict(tally.outputs), layers.Recorder(enabled=False)))
        tally.attempted += len(tally.outputs)

    def total_s(name: str) -> float:
        return sum(rec.durations(name))

    def quantile_us(name: str, q: float) -> float:
        samples = rec.durations(name)
        return 1e6 * layers.percentile(samples, q) if samples else 0.0

    metrics = {}
    for layer, seconds in layers.self_time_by_layer(profiles[0][1]).items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    builds = rec.durations("machine.build")
    metrics["machine.build_ms"] = (
        1000.0 * statistics.median(builds) if builds else 0.0, "ms"
    )
    metrics["trace.analysis_s"] = (total_s("trace.analysis"), "s")
    metrics["trace.export_s"] = (total_s("trace.export"), "s")
    metrics["loadgen.arrivals_s"] = (total_s("loadgen.arrivals"), "s")
    metrics["workload.generate_s"] = (total_s("workload.generate"), "s")
    for call in STORAGE_CALLS:
        metrics[f"storage.{call}_us_p50"] = (quantile_us(f"storage.{call}", 50.0), "us")
        metrics[f"storage.{call}_us_p99"] = (quantile_us(f"storage.{call}", 99.0), "us")
    metrics["bench.profile_overhead_x"] = (profiles[0][0] / plain_s, "x")
    print(f"{TRACED_PASSES} passes {plain_s:.2f} s with spans, {profiles[0][0]:.2f} s and "
          f"{profiles[1][0]:.2f} s profiled; {len(rec.spans)} spans")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-{seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "digest": digest,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": rec.to_json(),
    }))
    print(f"wrote {path.relative_to(ROOT)}")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-batch", "crash-sweep", "traced-open"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    global workloads
    import workloads  # imports the program, so only after the check above

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        tally, metrics = traced_run(workload, args.seed)
    else:
        tally, metrics = timed_run(workload, args.seed, args.seconds)
    for line in tally.failures[:SHOWN_FAILURES]:
        print(f"FAIL {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    failed = len(tally.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
