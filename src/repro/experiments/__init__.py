"""The paper's experiments: one catalogue of tables, their runner, fidelity.

Every table (1-12) of the paper's evaluation, and each ablation, is one
declared :class:`~repro.experiments.tables.Table` in
:data:`~repro.experiments.tables.CATALOGUE`: its rows, its named
architectures and its columns.  Calling an entry, e.g.
``table1_logging_impact(settings)``, runs its simulations and returns
structured rows; ``PAPER[table][row][column]`` holds the published numbers
under the same labels.  The CLI, ``repro fidelity`` and the benchmark
grids under ``benchmarks/`` all read the catalogue.
"""

from repro.experiments.paper import PAPER
from repro.experiments.runner import (
    CONFIGURATIONS,
    Configuration,
    ExperimentSettings,
    run_configuration,
)
from repro.experiments.tables import (
    ablation_checkpointing,
    ablation_disk_scheduling,
    ablation_hotspot,
    ablation_interconnect,
    ablation_overwriting_variants,
    ablation_version_selection,
    table1_logging_impact,
    table2_log_utilization,
    table3_parallel_logging,
    table4_shadow_impact,
    table5_shadow_utilization,
    table6_pt_buffer,
    table7_sequential_shadow,
    table8_random_overwriting,
    table9_differential_impact,
    table10_output_fraction,
    table11_differential_size,
    table12_comparison,
)

__all__ = [
    "CONFIGURATIONS",
    "Configuration",
    "ExperimentSettings",
    "PAPER",
    "ablation_checkpointing",
    "ablation_disk_scheduling",
    "ablation_hotspot",
    "ablation_interconnect",
    "ablation_overwriting_variants",
    "ablation_version_selection",
    "run_configuration",
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
