"""Open-system arrival processes over the seeded random streams.

The paper's workload is a closed batch: all transactions exist at time
zero and the multiprogramming level alone paces them.  An open system
instead *offers* transactions on a schedule independent of completions.
This module generates those schedules, deterministically, from named
:class:`~repro.sim.rng.RandomStreams` streams (``arrival.poisson``,
``arrival.diurnal``), so the same seed yields the same arrival instants
under every architecture — the common-random-numbers discipline the
experiments rely on.

Two processes, both expressed as a time-varying rate ``r(t)`` sampled by
thinning (candidates at the peak rate, accepted with ``r(t)/r_max``):

* **poisson** — homogeneous rate ``rate_tps``;
* **diurnal** — a sinusoidal profile
  ``rate_tps * (1 + DIURNAL_AMPLITUDE * sin(2*pi*t/DIURNAL_PERIOD_MS))``,
  the classic day/night load shape compressed to simulation scale.

Scripted **spikes** multiply the rate inside ``[start, start+duration)``
windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.sim.rng import RandomStreams

__all__ = ["ArrivalConfig", "ArrivalSchedule", "PROCESSES", "Spike", "generate_arrivals"]

#: The registered arrival processes.
PROCESSES = ("poisson", "diurnal")

#: Period and relative amplitude of the diurnal profile.
DIURNAL_PERIOD_MS = 60_000.0
DIURNAL_AMPLITUDE = 0.8


@dataclass(frozen=True)
class Spike:
    """A scripted load spike: the rate is multiplied inside the window."""

    start_ms: float
    duration_ms: float
    multiplier: float = 4.0

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.duration_ms <= 0:
            raise ValueError(f"bad spike window [{self.start_ms}, +{self.duration_ms}]")
        if self.multiplier <= 0:
            raise ValueError(f"spike multiplier must be > 0, got {self.multiplier}")

    def covers(self, t_ms: float) -> bool:
        return self.start_ms <= t_ms < self.start_ms + self.duration_ms


@dataclass(frozen=True)
class ArrivalConfig:
    """Parameters of one open-system arrival schedule."""

    process: str = "poisson"
    #: Long-run offered load, transactions per second.
    rate_tps: float = 4.0
    #: Schedule length (the generator stops after this many arrivals).
    n_arrivals: int = 30
    spikes: Tuple[Spike, ...] = ()

    def __post_init__(self) -> None:
        if self.process not in PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.process!r}; "
                f"pick one of {PROCESSES}"
            )
        if self.rate_tps <= 0:
            raise ValueError(f"offered rate must be > 0 tps, got {self.rate_tps}")
        if self.n_arrivals < 1:
            raise ValueError("need at least one arrival")

    def spike_multiplier(self, t_ms: float) -> float:
        """The combined scripted-spike rate multiplier at ``t_ms``."""
        factor = 1.0
        for spike in self.spikes:
            if spike.covers(t_ms):
                factor *= spike.multiplier
        return factor


@dataclass(frozen=True)
class ArrivalSchedule:
    """A generated schedule: arrival instants plus generation metadata."""

    config: ArrivalConfig
    times_ms: Tuple[float, ...]
    #: Scripted spike starts (traced as ``arrival.spike`` instants).
    spike_starts_ms: Tuple[float, ...] = ()

    @property
    def offered(self) -> int:
        return len(self.times_ms)

    def interarrivals_ms(self) -> List[float]:
        return [
            b - a for a, b in zip(self.times_ms, self.times_ms[1:])
        ]


def _peak_multiplier(config: ArrivalConfig) -> float:
    """An upper bound on the scripted-spike multiplier (overlaps compound)."""
    factor = 1.0
    for spike in config.spikes:
        if spike.multiplier > 1.0:
            factor *= spike.multiplier
    return factor


def _base_rate_per_ms(config: ArrivalConfig, t_ms: float) -> float:
    """The profile rate (before spikes) at ``t_ms``, in arrivals/ms."""
    rate = config.rate_tps / 1000.0
    if config.process == "diurnal":
        rate *= 1.0 + DIURNAL_AMPLITUDE * math.sin(
            2.0 * math.pi * t_ms / DIURNAL_PERIOD_MS
        )
    return rate


def _thinned_times(config: ArrivalConfig, rng):
    """Generator of accepted arrival instants by thinning at the peak rate."""
    peak = (
        (config.rate_tps / 1000.0)
        * (1.0 + DIURNAL_AMPLITUDE if config.process == "diurnal" else 1.0)
        * _peak_multiplier(config)
    )
    t = 0.0
    while True:
        t += rng.expovariate(peak)
        rate = _base_rate_per_ms(config, t) * config.spike_multiplier(t)
        if rng.random() < rate / peak:
            yield t


def _poisson_like(config: ArrivalConfig, rng) -> List[float]:
    out: List[float] = []
    for t in _thinned_times(config, rng):
        out.append(t)
        if len(out) >= config.n_arrivals:
            break
    return out


def generate_arrivals(
    config: ArrivalConfig, streams: RandomStreams
) -> ArrivalSchedule:
    """Generate one deterministic arrival schedule.

    ``streams`` should be a dedicated factory (e.g.
    ``RandomStreams(seed).fork("arrivals")``) so arrival draws never
    interleave with the machine's own streams.
    """
    if config.process == "diurnal":
        times = _poisson_like(config, streams.stream("arrival.diurnal"))
    else:
        times = _poisson_like(config, streams.stream("arrival.poisson"))
    return ArrivalSchedule(
        config=config,
        times_ms=tuple(times),
        spike_starts_ms=tuple(s.start_ms for s in config.spikes),
    )
