"""Shape tests: the paper's qualitative findings must hold in the simulator.

These are the reproduction's scientific assertions — orderings, ratios and
crossovers from the paper's Tables 1-12 — run on a reduced transaction load
to keep the suite quick.  Absolute values are checked loosely (the authors'
simulator internals are unpublished); *who wins and by roughly what factor*
is checked tightly.
"""

import pytest

from repro.core import (
    DifferentialConfig,
    DifferentialFileArchitecture,
    LoggingConfig,
    LogMode,
    OverwritingArchitecture,
    PageTableShadowArchitecture,
    ParallelLoggingArchitecture,
    SelectionPolicy,
    ShadowConfig,
    VersionSelectionArchitecture,
)
from repro.experiments import CONFIGURATIONS, ExperimentSettings, run_configuration
from repro.experiments.tables import TABLE3_MACHINE

SETTINGS = ExperimentSettings(n_transactions=12)

CONV_RAND = CONFIGURATIONS["conventional-random"]
PAR_RAND = CONFIGURATIONS["parallel-random"]
CONV_SEQ = CONFIGURATIONS["conventional-sequential"]
PAR_SEQ = CONFIGURATIONS["parallel-sequential"]


@pytest.fixture(scope="module")
def bare():
    return {
        name: run_configuration(config, None, SETTINGS)
        for name, config in CONFIGURATIONS.items()
    }


class TestBareMachineShape:
    """Table 1 'without log' column: the four configurations order as in
    the paper: par-seq << conv-seq < par-rand <= conv-rand ~ 18 ms."""

    def test_conventional_random_near_disk_bound_anchor(self, bare):
        # Two IBM-3350s at ~36 ms/random access => ~18 ms/page.
        assert 15.0 <= bare["conventional-random"].execution_time_per_page <= 21.0

    def test_sequential_beats_random_on_conventional(self, bare):
        assert (
            bare["conventional-sequential"].execution_time_per_page
            < 0.8 * bare["conventional-random"].execution_time_per_page
        )

    def test_parallel_sequential_is_dramatically_faster(self, bare):
        assert (
            bare["parallel-sequential"].execution_time_per_page
            < 0.3 * bare["conventional-sequential"].execution_time_per_page
        )

    def test_parallel_disks_never_hurt_random(self, bare):
        assert (
            bare["parallel-random"].execution_time_per_page
            <= 1.05 * bare["conventional-random"].execution_time_per_page
        )

    def test_data_disks_saturated_except_nothing(self, bare):
        assert bare["conventional-random"].utilization("data_disks") > 0.9

    def test_qps_poorly_utilized_except_parallel_sequential(self, bare):
        assert bare["conventional-random"].utilization("qp") < 0.25
        assert bare["parallel-sequential"].utilization("qp") > 0.5


class TestLoggingShape:
    """Tables 1-2: logical logging is (nearly) free; one log disk idles."""

    @pytest.fixture(scope="class")
    def logged(self):
        return {
            name: run_configuration(
                config, lambda: ParallelLoggingArchitecture(LoggingConfig()), SETTINGS
            )
            for name, config in CONFIGURATIONS.items()
        }

    def test_logging_does_not_hurt_throughput(self, bare, logged):
        for name in CONFIGURATIONS:
            assert (
                logged[name].execution_time_per_page
                <= 1.10 * bare[name].execution_time_per_page
            ), name

    def test_log_disk_utilization_tiny(self, logged):
        assert logged["conventional-random"].utilization("log_disks") < 0.08
        # The parallel-sequential machine updates pages much faster, so its
        # log disk is busier (paper: 0.13 vs 0.02) but still far from busy.
        assert (
            logged["conventional-random"].utilization("log_disks")
            < logged["parallel-sequential"].utilization("log_disks")
            < 0.5
        )

    def test_few_pages_blocked_waiting_for_log(self, logged):
        assert logged["conventional-random"].averages["blocked_pages"] < 10


class TestTable3Shape:
    """Physical logging on the fast machine saturates one log disk; more
    log disks restore performance; txn-mod selection is the loser."""

    #: Selection-policy contrasts need a longer run to rise above noise.
    SETTINGS3 = ExperimentSettings(n_transactions=24)

    @pytest.fixture(scope="class")
    def results(self):
        def run(n, policy=SelectionPolicy.CYCLIC):
            return run_configuration(
                PAR_SEQ,
                lambda: ParallelLoggingArchitecture(
                    LoggingConfig(
                        n_log_processors=n, mode=LogMode.PHYSICAL, selection=policy
                    )
                ),
                self.SETTINGS3,
                machine_overrides=TABLE3_MACHINE,
            )

        return {
            "bare": run_configuration(
                PAR_SEQ, None, self.SETTINGS3, machine_overrides=TABLE3_MACHINE
            ),
            1: run(1),
            3: run(3),
            5: run(5),
            "txn_mod_4": run(4, SelectionPolicy.TXN_MOD),
            "random_4": run(4, SelectionPolicy.RANDOM),
        }

    def test_one_log_disk_is_the_bottleneck(self, results):
        assert (
            results[1].execution_time_per_page
            > 1.8 * results["bare"].execution_time_per_page
        )
        assert results[1].utilization("log_disks") > 0.9

    def test_more_log_disks_restore_performance(self, results):
        assert results[3].execution_time_per_page < 0.75 * results[1].execution_time_per_page
        assert results[5].execution_time_per_page <= 1.02 * results[3].execution_time_per_page

    def test_txn_mod_selection_loses(self, results):
        # Few concurrent transactions funnel everything to few log disks.
        assert (
            results["txn_mod_4"].execution_time_per_page
            > 1.05 * results["random_4"].execution_time_per_page
        )

    def test_blocked_pages_pile_up_behind_one_log_disk(self, results):
        assert results[1].averages["blocked_pages"] > 2.5 * results[5].averages["blocked_pages"]

    def test_data_disk_accesses_increase_with_log_bottleneck(self, results):
        assert results[1].counter("data_disk_accesses") > results[5].counter(
            "data_disk_accesses"
        )


class TestShadowShape:
    """Tables 4-6: 1 PT processor bottlenecks random loads; 2 PT
    processors or a bigger buffer annul it; sequential loads barely care."""

    #: PT pipelining effects need a longer run to rise above noise.
    SETTINGS_PT = ExperimentSettings(n_transactions=24)

    @pytest.fixture(scope="class")
    def shadow(self):
        def run(config_name, **shadow_kwargs):
            return run_configuration(
                CONFIGURATIONS[config_name],
                lambda: PageTableShadowArchitecture(ShadowConfig(**shadow_kwargs)),
                self.SETTINGS_PT,
            )

        return {
            "rand_1ptp": run("conventional-random"),
            "rand_2ptp": run("conventional-random", n_pt_processors=2),
            "rand_b50": run("conventional-random", pt_buffer_pages=50),
            "seq_clustered": run("conventional-sequential"),
            "seq_scrambled": run("conventional-sequential", clustered=False),
            "parseq_scrambled": run("parallel-sequential", clustered=False),
        }

    @pytest.fixture(scope="class")
    def bare_pt(self):
        return run_configuration(CONV_RAND, None, self.SETTINGS_PT)

    def test_one_pt_processor_degrades_random(self, bare_pt, shadow):
        assert (
            shadow["rand_1ptp"].execution_time_per_page
            > 1.04 * bare_pt.execution_time_per_page
        )
        assert shadow["rand_1ptp"].utilization("pt_disks") > 0.9

    def test_pt_bottleneck_starves_data_disks(self, bare_pt, shadow):
        assert (
            shadow["rand_1ptp"].utilization("data_disks")
            < bare_pt.utilization("data_disks") - 0.05
        )

    def test_two_pt_processors_annul_degradation(self, bare_pt, shadow):
        assert (
            shadow["rand_2ptp"].execution_time_per_page
            <= 1.06 * bare_pt.execution_time_per_page
        )

    def test_bigger_buffer_annuls_degradation(self, shadow):
        assert (
            shadow["rand_b50"].execution_time_per_page
            < shadow["rand_1ptp"].execution_time_per_page
        )

    def test_sequential_barely_touches_the_page_table(self, bare, shadow):
        # <= 2 PT pages per transaction: PT disk nearly idle (paper: 0.06).
        assert shadow["seq_clustered"].utilization("pt_disks") < 0.2

    def test_scrambling_destroys_sequential_performance(self, shadow):
        assert (
            shadow["seq_scrambled"].execution_time_per_page
            > 1.5 * shadow["seq_clustered"].execution_time_per_page
        )

    def test_scrambling_is_catastrophic_on_parallel_disks(self, shadow):
        # Paper: 1.92 -> 18.54, a ~10x collapse; demand at least 4x.
        bare_parseq = run_configuration(PAR_SEQ, None, self.SETTINGS_PT)
        assert (
            shadow["parseq_scrambled"].execution_time_per_page
            > 4 * bare_parseq.execution_time_per_page
        )


class TestOverwritingShape:
    """Tables 7-8: overwriting loses on conventional disks and random
    loads, wins back on parallel-access disks with sequential loads."""

    @pytest.fixture(scope="class")
    def overwriting(self):
        return {
            name: run_configuration(
                config, lambda: OverwritingArchitecture(), SETTINGS
            )
            for name, config in CONFIGURATIONS.items()
        }

    def test_random_overwriting_worse_than_thru_pt(self, overwriting):
        thru_pt = run_configuration(
            CONV_RAND, lambda: PageTableShadowArchitecture(ShadowConfig()), SETTINGS
        )
        assert (
            overwriting["conventional-random"].execution_time_per_page
            > 1.1 * thru_pt.execution_time_per_page
        )

    def test_conventional_overwriting_expensive(self, bare, overwriting):
        assert (
            overwriting["conventional-random"].execution_time_per_page
            > 1.25 * bare["conventional-random"].execution_time_per_page
        )

    def test_parallel_sequential_overwriting_stays_good(self, bare, overwriting):
        """The paper's headline for overwriting: on parallel-access disks a
        sequential transaction's scratch reads and overwrites batch into
        very few accesses (2.31 vs 1.92), while scrambled shadow collapses
        to 18.5."""
        scrambled = run_configuration(
            PAR_SEQ,
            lambda: PageTableShadowArchitecture(ShadowConfig(clustered=False)),
            SETTINGS,
        )
        ow = overwriting["parallel-sequential"].execution_time_per_page
        assert ow < 2.0 * bare["parallel-sequential"].execution_time_per_page
        assert ow < 0.4 * scrambled.execution_time_per_page


class TestDifferentialShape:
    """Tables 9-11: basic saturates the QPs everywhere; optimal recovers
    much of it; degradation grows nonlinearly with differential size."""

    @pytest.fixture(scope="class")
    def diff(self):
        def run(config_name, **kwargs):
            return run_configuration(
                CONFIGURATIONS[config_name],
                lambda: DifferentialFileArchitecture(DifferentialConfig(**kwargs)),
                SETTINGS,
            )

        return {
            "basic_rand": run("conventional-random", optimal=False),
            "basic_parseq": run("parallel-sequential", optimal=False),
            "opt_rand": run("conventional-random"),
            "opt_parseq": run("parallel-sequential"),
            "opt_rand_15": run("conventional-random", size_fraction=0.15),
            "opt_rand_20": run("conventional-random", size_fraction=0.20),
        }

    def test_basic_saturates_query_processors(self, diff):
        assert diff["basic_rand"].utilization("qp") > 0.9
        assert diff["basic_parseq"].utilization("qp") > 0.9

    def test_basic_flattens_all_configurations(self, diff):
        """CPU-bound: the basic approach costs about the same everywhere."""
        a = diff["basic_rand"].execution_time_per_page
        b = diff["basic_parseq"].execution_time_per_page
        assert abs(a - b) / max(a, b) < 0.25

    def test_optimal_much_cheaper_than_basic(self, diff):
        assert (
            diff["opt_rand"].execution_time_per_page
            < 0.65 * diff["basic_rand"].execution_time_per_page
        )

    def test_optimal_still_hurts_parallel_sequential_badly(self, bare, diff):
        # Paper: 1.9 -> 13.9; demand at least 3x.
        assert (
            diff["opt_parseq"].execution_time_per_page
            > 3 * bare["parallel-sequential"].execution_time_per_page
        )

    def test_nonlinear_degradation_with_size(self, diff):
        e10 = diff["opt_rand"].execution_time_per_page
        e15 = diff["opt_rand_15"].execution_time_per_page
        e20 = diff["opt_rand_20"].execution_time_per_page
        assert e10 < e15 < e20
        assert (e20 - e15) > (e15 - e10)  # growth accelerates


class TestVersionSelectionShape:
    """Section 4.2.5: version selection lengthens every read transfer."""

    def test_version_selection_slower_than_bare(self):
        overrides = {"db_pages": 60_000}
        bare = run_configuration(CONV_RAND, None, SETTINGS, machine_overrides=overrides)
        version = run_configuration(
            CONV_RAND,
            lambda: VersionSelectionArchitecture(),
            SETTINGS,
            machine_overrides=overrides,
        )
        assert (
            version.execution_time_per_page > 1.03 * bare.execution_time_per_page
        )


class TestGrandComparisonShape:
    """Table 12's bottom line: parallel logging is the best *overall*
    recovery architecture — its collection of recovery data overlaps data
    processing, so it stays near the bare machine in every configuration,
    while each rival collapses somewhere (shadow when clustering cannot be
    maintained, overwriting on conventional disks, differential files
    everywhere the QPs saturate)."""

    @pytest.fixture(scope="class")
    def logging_results(self, bare):
        return {
            name: run_configuration(
                config, lambda: ParallelLoggingArchitecture(LoggingConfig()), SETTINGS
            )
            for name, config in CONFIGURATIONS.items()
        }

    def test_logging_stays_near_bare_everywhere(self, bare, logging_results):
        for name in CONFIGURATIONS:
            assert (
                logging_results[name].execution_time_per_page
                <= 1.15 * bare[name].execution_time_per_page
            ), name

    def test_every_rival_collapses_somewhere(self, logging_results):
        rivals = {
            # Shadow without the physical-clustering assumption.
            "scrambled-shadow": (
                "parallel-sequential",
                lambda: PageTableShadowArchitecture(ShadowConfig(clustered=False)),
            ),
            "overwriting": (
                "conventional-random",
                lambda: OverwritingArchitecture(),
            ),
            "differential": (
                "parallel-sequential",
                lambda: DifferentialFileArchitecture(DifferentialConfig()),
            ),
        }
        for rival_name, (config_name, factory) in rivals.items():
            rival = run_configuration(CONFIGURATIONS[config_name], factory, SETTINGS)
            assert (
                rival.execution_time_per_page
                > 1.3 * logging_results[config_name].execution_time_per_page
            ), f"{rival_name} did not collapse on {config_name}"

    def test_logging_beats_rivals_on_random_loads(self, logging_results):
        """On the random configurations every alternative is strictly
        worse than logging (paper Table 12, first two rows)."""
        for name in ("conventional-random", "parallel-random"):
            config = CONFIGURATIONS[name]
            for factory in (
                lambda: PageTableShadowArchitecture(ShadowConfig()),
                lambda: OverwritingArchitecture(),
                lambda: DifferentialFileArchitecture(DifferentialConfig()),
            ):
                rival = run_configuration(config, factory, SETTINGS)
                assert (
                    logging_results[name].execution_time_per_page
                    <= 1.05 * rival.execution_time_per_page
                ), name


class TestSensitivities:
    """One machine or workload knob varied on the bare machine."""

    SETTINGS8 = ExperimentSettings(n_transactions=8)

    def run(self, config, machine=None, workload=None):
        return run_configuration(
            config,
            None,
            self.SETTINGS8,
            machine_overrides=machine,
            workload_overrides=workload,
        )

    def test_cache_frames_matter_for_parallel_sequential(self):
        """The paper's anticipatory-reading argument: parallel-access disks
        need free frames to batch big reads; starving the cache hurts."""
        starved = self.run(PAR_SEQ, machine={"cache_frames": 40})
        ample = self.run(PAR_SEQ, machine={"cache_frames": 100})
        assert (
            starved.execution_time_per_page > 1.2 * ample.execution_time_per_page
        )

    def test_cache_frames_do_not_matter_for_conventional_random(self):
        """Random loads on conventional disks are seek-bound; frames beyond
        the working set buy nothing."""
        a = self.run(CONV_RAND, machine={"cache_frames": 40}).execution_time_per_page
        b = self.run(CONV_RAND, machine={"cache_frames": 150}).execution_time_per_page
        assert abs(a - b) / max(a, b) < 0.10

    def test_more_writes_cost_more(self):
        # Completion time grows with the write set (more write-backs),
        # even though exec/page normalizes by operations.
        reads = self.run(CONV_RAND, workload={"write_fraction": 0.0})
        writes = self.run(CONV_RAND, workload={"write_fraction": 0.5})
        assert writes.mean_completion_ms > reads.mean_completion_ms

    def test_mpl_stretches_completion_not_throughput(self):
        """With a 32-deep read-ahead window, even one transaction keeps
        both disks busy: raising the multiprogramming level leaves
        machine throughput flat and only stretches per-transaction
        completion times (the queueing view of the paper's metrics)."""
        solo = self.run(CONV_RAND, machine={"mpl": 1})
        crowded = self.run(CONV_RAND, machine={"mpl": 4})
        a, b = solo.execution_time_per_page, crowded.execution_time_per_page
        assert abs(a - b) / max(a, b) < 0.05
        assert crowded.mean_completion_ms > 1.5 * solo.mean_completion_ms
