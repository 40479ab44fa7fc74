"""Compare all recovery architectures, as in the paper's Table 12.

Runs the bare machine plus every recovery architecture on the same
transaction load (common random numbers) in the four paper configurations
and prints execution time per page side by side — the reproduction of the
paper's grand-comparison table, at a reduced load so it finishes in under
a minute.

Run:  python examples/compare_recovery_architectures.py
"""

from repro.experiments import ExperimentSettings, table12_comparison
from repro.experiments.paper import PAPER
from repro.experiments.tables import render
from repro.metrics import format_table


def main() -> None:
    settings = ExperimentSettings(n_transactions=15)
    result = table12_comparison(settings)
    print(render(result))
    print()

    # The 1985 table has no column for the modern challengers, so the
    # paper's rows are printed over the paper's own keys.
    paper_table = PAPER["table12"]
    columns = list(next(iter(paper_table.values())))
    paper_rows = [
        [config] + [paper[k] for k in columns] for config, paper in paper_table.items()
    ]
    print(
        format_table(
            ["configuration"] + columns,
            paper_rows,
            title="Paper's Table 12 (for comparison)",
        )
    )
    print()
    print(
        "Shape to look for: logging tracks the bare machine everywhere;\n"
        "scrambled shadow and differential files collapse on sequential\n"
        "loads; overwriting hurts on conventional disks but recovers on\n"
        "parallel-access disks with sequential transactions."
    )


if __name__ == "__main__":
    main()
