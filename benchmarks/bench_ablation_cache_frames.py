"""Ablation: cache-frame sensitivity (the anticipatory-reading argument).

The paper leans on cache-frame availability twice: "more cache frames were
available for anticipatory paging than the disks could feed" (Section
4.1.1, why logging's blocked pages are harmless) and "availability of
fewer cache frames severely affects the performance of the parallel-access
disks" (Section 4.1.2, why the Table 3 log bottleneck cascades).  This
ablation sweeps the frame count directly.  Expected shape: the
parallel-sequential machine collapses when frames are scarce (its cylinder
batches shrink), while conventional-random barely notices.
"""

from typing import Any, Dict

from benchmarks._harness import (
    BENCH_SEED,
    BENCH_SETTINGS,
    paper_block,
    run_grid_bench,
)
from repro.bench import Grid
from repro.experiments import CONFIGURATIONS, run_configuration

FRAME_COUNTS = (40, 70, 100, 150)

PAPER_TEXT = paper_block(
    "Paper (Sections 4.1.1-4.1.2):",
    [
        "'more cache frames were available for anticipatory paging than",
        " the disks could feed' (baseline machine)",
        "'availability of fewer cache frames severely affects the",
        " performance of the parallel-access disks'",
    ],
)


def cache_frames_cell(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    result = run_configuration(
        CONFIGURATIONS[params["configuration"]],
        settings=BENCH_SETTINGS.with_overrides(seed=seed),
        machine_overrides={"cache_frames": params["cache_frames"]},
    )
    return {"exec_ms_per_page": round(result.execution_time_per_page, 2)}


GRID = Grid(
    name="ablation_cache_frames",
    title="Ablation: execution time per page vs cache frames",
    seed=BENCH_SEED,
    runner=cache_frames_cell,
    parameters={
        "configuration": ["conventional-random", "parallel-sequential"],
        "cache_frames": list(FRAME_COUNTS),
    },
    primary_metric="exec_ms_per_page",
)


def test_ablation_cache_frames(benchmark):
    result = run_grid_bench(benchmark, GRID, PAPER_TEXT)

    def exec_ms(config, frames):
        return result.metric(configuration=config, cache_frames=frames)

    assert exec_ms("parallel-sequential", FRAME_COUNTS[0]) > 1.2 * exec_ms(
        "parallel-sequential", FRAME_COUNTS[-1]
    )
    values = [exec_ms("conventional-random", n) for n in FRAME_COUNTS]
    assert max(values) < 1.10 * min(values)
