"""Transaction-load generation (paper Section 4).

* Pages accessed per transaction: Uniform(MIN_PAGES, max_pages) = U(1, 250).
* Reference string: *random* — distinct pages drawn uniformly from the
  database; *sequential* — a run of consecutive pages starting at a uniform
  position.
* Write set: a uniformly random subset of the read set, ``write_fraction``
  (20 %) of the pages read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.workload.transaction import Transaction

__all__ = ["WorkloadConfig", "generate_transactions"]

#: Fewest pages a transaction accesses.
MIN_PAGES = 1

#: Probability that a reference lands in the hot region of a hotspot load.
HOTSPOT_PROBABILITY = 0.8


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of a transaction load.

    ``hotspot_fraction`` extends the paper's uniform model with b/c-rule
    skew (e.g. 0.2/0.8: ``HOTSPOT_PROBABILITY`` = 80 % of references hit
    the hottest 20 % of pages) for contention studies; it defaults off,
    giving the paper's workload.
    """

    n_transactions: int = 60
    max_pages: int = 250
    write_fraction: float = 0.2
    sequential: bool = False
    #: Fraction of the database that is "hot" (None = uniform, the paper).
    hotspot_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_transactions < 1:
            raise ValueError("need at least one transaction")
        if self.max_pages < MIN_PAGES:
            raise ValueError(f"bad page range [{MIN_PAGES}, {self.max_pages}]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(f"write_fraction {self.write_fraction} not in [0, 1]")
        if self.hotspot_fraction is not None and not 0.0 < self.hotspot_fraction < 1.0:
            raise ValueError(
                f"hotspot_fraction {self.hotspot_fraction} not in (0, 1)"
            )


def generate_transactions(
    config: WorkloadConfig, db_pages: int, rng: random.Random
) -> List[Transaction]:
    """Generate the transaction load for a database of ``db_pages`` pages."""
    if db_pages < config.max_pages:
        raise ValueError(
            f"database ({db_pages} pages) smaller than the largest "
            f"transaction ({config.max_pages} pages)"
        )
    transactions = []
    for tid in range(config.n_transactions):
        n_pages = rng.randint(MIN_PAGES, config.max_pages)
        if config.sequential:
            start = _sequential_start(config, db_pages, n_pages, rng)
            reads = tuple(range(start, start + n_pages))
        elif config.hotspot_fraction is not None:
            reads = _hotspot_sample(config, db_pages, n_pages, rng)
        else:
            reads = tuple(rng.sample(range(db_pages), n_pages))
        n_writes = round(config.write_fraction * n_pages)
        writes = frozenset(rng.sample(reads, n_writes)) if n_writes else frozenset()
        transactions.append(
            Transaction(
                tid=tid,
                read_pages=reads,
                write_pages=writes,
                sequential=config.sequential,
            )
        )
    return transactions


def _sequential_start(
    config: WorkloadConfig, db_pages: int, n_pages: int, rng: random.Random
) -> int:
    """Start of a sequential run, biased into the hot region if one exists."""
    limit = db_pages - n_pages
    if config.hotspot_fraction is None:
        return rng.randrange(limit + 1)
    hot_limit = max(0, int(config.hotspot_fraction * db_pages) - n_pages)
    if rng.random() < HOTSPOT_PROBABILITY:
        return rng.randrange(hot_limit + 1)
    return rng.randrange(limit + 1)


def _hotspot_sample(
    config: WorkloadConfig, db_pages: int, n_pages: int, rng: random.Random
):
    """Distinct pages with b/c-rule skew toward the hot prefix."""
    hot_pages = max(n_pages, int(config.hotspot_fraction * db_pages))
    chosen = set()
    while len(chosen) < n_pages:
        if rng.random() < HOTSPOT_PROBABILITY:
            page = rng.randrange(hot_pages)
        else:
            page = rng.randrange(db_pages)
        chosen.add(page)
    reads = list(chosen)
    rng.shuffle(reads)
    return tuple(reads)
