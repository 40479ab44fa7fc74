"""Discrete-event simulation kernel.

A small, dependency-free, simpy-style kernel: simulation *processes* are
Python generators that yield :class:`Event` objects (timeouts, resource
requests, other processes) and are resumed when those events fire.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def clock(env, name, tick):
...     while env.now < 2:
...         log.append((name, env.now))
...         yield env.timeout(tick)
>>> _ = env.process(clock(env, "fast", 0.5))
>>> _ = env.process(clock(env, "slow", 1.0))
>>> env.run(until=2)
>>> log[0]
('fast', 0)
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.monitor import (
    CounterStat,
    OrderingMonitor,
    OrderingViolation,
    SampleStat,
    TimeWeightedStat,
    UtilizationTracker,
)
from repro.sim.resources import Container, Resource
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "CounterStat",
    "Environment",
    "Event",
    "OrderingMonitor",
    "OrderingViolation",
    "Process",
    "RandomStreams",
    "Resource",
    "SampleStat",
    "SimulationError",
    "TimeWeightedStat",
    "Timeout",
    "UtilizationTracker",
]
