"""The paper's published numbers, table by table.

One layout for every table: ``PAPER[table][row label][column key]``, with
the same row labels and column keys as the rows the catalogue in
:mod:`repro.experiments.tables` measures.  A cell the paper does not print
is absent.  Execution times are ms/page, completion times ms,
utilizations fractions.
"""

from __future__ import annotations

__all__ = ["PAPER", "CONFIG_NAMES"]

CONFIG_NAMES = (
    "conventional-random",
    "parallel-random",
    "conventional-sequential",
    "parallel-sequential",
)


def _policies(exec_ms, completion_ms):
    """One Table 3 row: exec and completion for the four selection policies."""
    row = {}
    policies = ("cyclic", "random", "qp_mod", "txn_mod")
    for policy, exec_value, completion in zip(policies, exec_ms, completion_ms):
        row[f"exec_{policy}"] = exec_value
        row[f"compl_{policy}"] = completion
    return row


PAPER = {
    # Table 1: impact of (logical) logging, one log disk.
    "table1": {
        "conventional-random": {
            "exec_without_log": 18.0, "exec_with_log": 17.9,
            "completion_without_log": 7398.4, "completion_with_log": 7543.2,
        },
        "parallel-random": {
            "exec_without_log": 16.6, "exec_with_log": 16.5,
            "completion_without_log": 6476.0, "completion_with_log": 6649.9,
        },
        "conventional-sequential": {
            "exec_without_log": 11.0, "exec_with_log": 11.4,
            "completion_without_log": 4016.5, "completion_with_log": 4333.5,
        },
        "parallel-sequential": {
            "exec_without_log": 1.9, "exec_with_log": 2.0,
            "completion_without_log": 758.1, "completion_with_log": 862.2,
        },
    },
    # Table 2: log-disk utilization with one log processor.
    "table2": {
        "conventional-random": {"log_disk_utilization": 0.02},
        "parallel-random": {"log_disk_utilization": 0.02},
        "conventional-sequential": {"log_disk_utilization": 0.02},
        "parallel-sequential": {"log_disk_utilization": 0.13},
    },
    # Table 3: physical logging, 75 QPs, 2 parallel-access disks, 150 frames;
    # rows are log-disk counts.  The paper prints one no-logging figure across
    # the four policy columns; it sits under the cyclic ones.
    "table3": {
        1: _policies((5.1, 5.1, 5.1, 5.1), (4518.1, 4518.1, 4518.1, 4518.1)),
        2: _policies((2.5, 2.6, 2.6, 2.7), (1999.5, 2104.3, 2232.0, 2165.4)),
        3: _policies((1.7, 1.8, 1.8, 2.1), (1078.9, 1137.2, 1135.7, 1381.8)),
        4: _policies((1.5, 1.5, 1.5, 2.0), (830.7, 854.6, 837.8, 1137.5)),
        5: _policies((1.3, 1.4, 1.3, 2.0), (716.3, 741.7, 714.1, 1128.4)),
        "w/o logging": {"exec_cyclic": 0.9, "compl_cyclic": 430.6},
    },
    # Table 4: impact of the shadow mechanism (PT buffer = 10).
    "table4": {
        "conventional-random": {
            "exec_bare": 18.00, "exec_1ptp": 20.51, "exec_2ptp": 17.99,
            "completion_bare": 7398.41, "completion_1ptp": 8367.19,
            "completion_2ptp": 7758.92,
        },
        "parallel-random": {
            "exec_bare": 16.62, "exec_1ptp": 20.49, "exec_2ptp": 16.69,
            "completion_bare": 6476.04, "completion_1ptp": 8352.91,
            "completion_2ptp": 6962.23,
        },
        "conventional-sequential": {
            "exec_bare": 11.01, "exec_1ptp": 10.98, "exec_2ptp": 10.99,
            "completion_bare": 4016.46, "completion_1ptp": 4066.86,
            "completion_2ptp": 4061.19,
        },
        "parallel-sequential": {
            "exec_bare": 1.92, "exec_1ptp": 1.94, "exec_2ptp": 1.93,
            "completion_bare": 758.06, "completion_1ptp": 829.34,
            "completion_2ptp": 816.29,
        },
    },
    # Table 5: average utilization of data and page-table disks.
    "table5": {
        "conventional-random": {
            "bare_data": 0.99, "1ptp_data": 0.86, "1ptp_pt": 1.00, "2ptp_pt": 0.60,
        },
        "parallel-random": {
            "bare_data": 1.00, "1ptp_data": 0.85, "1ptp_pt": 1.00, "2ptp_pt": 0.64,
        },
        "conventional-sequential": {
            "bare_data": 0.75, "1ptp_data": 0.75, "1ptp_pt": 0.06, "2ptp_pt": 0.03,
        },
        "parallel-sequential": {
            "bare_data": 0.92, "1ptp_data": 0.90, "1ptp_pt": 0.34, "2ptp_pt": 0.16,
        },
    },
    # Table 6: execution time/page, 1 PT processor, random transactions.
    "table6": {
        "conventional-random": {
            "bare": 18.00, "buffer_10": 20.51, "buffer_25": 18.02, "buffer_50": 18.01,
        },
        "parallel-random": {
            "bare": 16.62, "buffer_10": 20.49, "buffer_25": 17.18, "buffer_50": 16.70,
        },
    },
    # Table 7: execution time/page, sequential transactions.
    "table7": {
        "conventional-sequential": {
            "bare": 11.01, "clustered": 10.98, "scrambled": 20.74, "overwriting": 24.08,
        },
        "parallel-sequential": {
            "bare": 1.92, "clustered": 1.94, "scrambled": 18.54, "overwriting": 2.31,
        },
    },
    # Table 8: execution time/page, random transactions.
    "table8": {
        "conventional-random": {"bare": 18.00, "thru_pt": 20.51, "overwriting": 26.94},
        "parallel-random": {"bare": 16.62, "thru_pt": 20.49, "overwriting": 21.65},
    },
    # Table 9: impact of the differential-file mechanism.
    "table9": {
        "conventional-random": {
            "exec_bare": 18.0, "exec_basic": 37.8, "exec_optimal": 19.2,
            "completion_basic": 11589.8, "completion_optimal": 6634.3,
        },
        "parallel-random": {
            "exec_bare": 16.6, "exec_basic": 37.7, "exec_optimal": 18.0,
            "completion_basic": 11565.1, "completion_optimal": 6207.6,
        },
        "conventional-sequential": {
            "exec_bare": 11.0, "exec_basic": 37.6, "exec_optimal": 17.8,
            "completion_basic": 11443.7, "completion_optimal": 5795.5,
        },
        "parallel-sequential": {
            "exec_bare": 1.9, "exec_basic": 37.6, "exec_optimal": 13.9,
            "completion_basic": 11368.8, "completion_optimal": 4573.5,
        },
    },
    # Table 10: effect of the output fraction (optimal strategy).
    "table10": {
        "conventional-random": {
            "bare": 18.0, "output_10pct": 19.2, "output_20pct": 19.2, "output_50pct": 20.3,
        },
        "parallel-random": {
            "bare": 16.6, "output_10pct": 18.0, "output_20pct": 18.0, "output_50pct": 18.9,
        },
        "conventional-sequential": {
            "bare": 11.0, "output_10pct": 17.8, "output_20pct": 17.9, "output_50pct": 17.8,
        },
        "parallel-sequential": {
            "bare": 1.9, "output_10pct": 13.9, "output_20pct": 13.9, "output_50pct": 13.6,
        },
    },
    # Table 11: effect of the size of the differential files.
    "table11": {
        "conventional-random": {
            "bare": 18.0, "size_10pct": 19.2, "size_15pct": 24.8, "size_20pct": 37.0,
        },
        "parallel-random": {
            "bare": 16.6, "size_10pct": 18.0, "size_15pct": 24.4, "size_20pct": 37.0,
        },
        "conventional-sequential": {
            "bare": 11.0, "size_10pct": 17.8, "size_15pct": 25.8, "size_20pct": 39.6,
        },
        "parallel-sequential": {
            "bare": 1.9, "size_10pct": 13.9, "size_15pct": 23.5, "size_20pct": 36.4,
        },
    },
    # Table 12: grand comparison, execution time per page.
    "table12": {
        "conventional-random": {
            "bare": 18.0, "logging": 17.9, "shadow_b10": 20.5, "shadow_b50": 18.0,
            "shadow_2ptp": 18.0, "scrambled": 20.5, "overwriting": 26.9, "differential": 19.2,
        },
        "parallel-random": {
            "bare": 16.6, "logging": 16.5, "shadow_b10": 20.5, "shadow_b50": 16.7,
            "shadow_2ptp": 16.7, "scrambled": 20.5, "overwriting": 21.6, "differential": 18.0,
        },
        "conventional-sequential": {
            "bare": 11.0, "logging": 11.4, "shadow_b10": 11.0, "shadow_b50": 11.0,
            "shadow_2ptp": 11.0, "scrambled": 20.7, "overwriting": 24.1, "differential": 17.8,
        },
        "parallel-sequential": {
            "bare": 1.9, "logging": 2.0, "shadow_b10": 1.9, "shadow_b50": 1.9,
            "shadow_2ptp": 1.9, "scrambled": 18.5, "overwriting": 2.3, "differential": 13.9,
        },
    },
}
