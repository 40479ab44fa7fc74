"""End-to-end tracing tests: zero perturbation, exact attribution.

These are the acceptance checks of the tracing subsystem: attaching a
tracer changes *nothing* measurable (traced and untraced runs return
equal ``RunResult``s), the phase breakdown partitions completion time
exactly, and a traced architecture pair attributes its completion-time
gap phase by phase — the quantitative explanation behind a Table 12
comparison.
"""

import pytest

from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.experiments.runner import ExperimentSettings, run_configuration, CONFIGURATIONS
from repro.experiments.tracing import SIM_ARCHITECTURES, render_diff, run_traced, trace_diff
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.sim import RandomStreams
from repro.trace import Tracer

SMALL = ExperimentSettings(n_transactions=8)


class TestZeroPerturbation:
    @pytest.mark.parametrize("arch", sorted(SIM_ARCHITECTURES))
    def test_traced_metrics_equal_untraced(self, arch):
        config = CONFIGURATIONS["parallel-random"]
        # Version pairs double disk space; match the ablation's halved db.
        overrides = {"db_pages": 60_000} if arch == "version-selection" else None
        untraced = run_configuration(
            config, SIM_ARCHITECTURES[arch], settings=SMALL, machine_overrides=overrides
        )
        traced = run_configuration(
            config,
            SIM_ARCHITECTURES[arch],
            settings=SMALL,
            machine_overrides=overrides,
            tracer=Tracer(),
        )
        assert traced == untraced

    def test_percentiles_match_run_result_exactly(self):
        run = run_traced("logging", settings=SMALL)
        assert run.percentiles == run.result.completion_percentiles

    def test_breakdown_sums_to_mean_completion(self):
        run = run_traced("logging", settings=SMALL)
        assert sum(run.breakdown.values()) == pytest.approx(
            run.result.mean_completion_ms
        )


class TestAttribution:
    def test_table12_pair_deltas_sum_to_the_gap(self):
        run_a, run_b, rows = trace_diff("logging", "shadow-pt", settings=SMALL)
        gap = run_b.result.mean_completion_ms - run_a.result.mean_completion_ms
        assert sum(delta for _, _, _, delta in rows) == pytest.approx(gap)
        text = render_diff(run_a, run_b, rows)
        assert "delta" in text and "total" in text

    def test_every_architecture_traces_its_own_phases(self):
        expected = {
            "logging": "wal.wait",
            "shadow-pt": "pt.update",
            "overwriting": "scratch.write",
            "differential": "append",
        }
        for arch, phase in sorted(expected.items()):
            run = run_traced(arch, settings=SMALL)
            assert run.tracer.named(phase), f"{arch} recorded no {phase} spans"

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            run_traced("nonesuch", settings=SMALL)
        with pytest.raises(ValueError, match="unknown configuration"):
            run_traced("logging", configuration="nonesuch", settings=SMALL)


class TestTransactionLifecycle:
    """Per-transaction events, read off the spans of a bare-machine run."""

    @pytest.fixture(scope="class")
    def run(self):
        tracer = Tracer()
        config = MachineConfig()
        txns = generate_transactions(
            WorkloadConfig(n_transactions=4, max_pages=40),
            config.db_pages,
            RandomStreams(3).stream("workload"),
        )
        DatabaseMachine(config, None, tracer=tracer).run(txns)
        return tracer, txns

    def test_one_committed_txn_span_per_transaction(self, run):
        tracer, txns = run
        spans = tracer.named("txn")
        assert sorted(s.tid for s in spans) == sorted(t.tid for t in txns)
        assert all(s.args["status"] == "committed" for s in spans)
        assert all(s.end >= s.start for s in spans)

    def test_page_reads_and_durable_writes_match_the_load(self, run):
        tracer, txns = run
        assert len(tracer.named("io.data.read")) == sum(t.n_reads for t in txns)
        durable = [m for m in tracer.instants if m.name == "page.durable"]
        assert sum(m.args["pages"] for m in durable) == sum(t.n_writes for t in txns)

    def test_every_pipeline_span_is_closed(self, run):
        tracer, _ = run
        assert not tracer.open_spans()


class TestFaultInstants:
    def test_fault_point_and_crash_recorded(self):
        tracer = Tracer()
        config = MachineConfig(mpl=2)
        txns = generate_transactions(
            WorkloadConfig(n_transactions=6, max_pages=40),
            config.db_pages,
            RandomStreams(5).stream("workload"),
        )
        plan = FaultPlan.of(
            FaultSpec(FaultKind.CRASH, hook="machine.commit", occurrence=2),
            seed=config.seed,
        )
        injector = FaultInjector(plan)
        machine = DatabaseMachine(config, None, tracer=tracer, faults=injector)
        injector.arm(machine)
        machine.run(txns)
        hooks = {m.args.get("hook") for m in tracer.instants if m.name == "fault.point"}
        assert "machine.commit" in hooks
        crashes = [m for m in tracer.instants if m.name == "machine.crash"]
        assert len(crashes) == 1
        assert tracer.open_spans(), "crash should cut spans open"
