"""Workload model: transactions described by their page-reference behaviour.

Exactly as in the paper (Section 4), a transaction is modeled by the number
of pages it accesses — Uniform(1, 250) — with either a *random* or a
*sequential* reference string, and a write set that is a random 20 % subset
of its read set.
"""

from repro.workload.generator import WorkloadConfig, generate_transactions
from repro.workload.transaction import Transaction, TransactionStatus

__all__ = [
    "Transaction",
    "TransactionStatus",
    "WorkloadConfig",
    "generate_transactions",
]
