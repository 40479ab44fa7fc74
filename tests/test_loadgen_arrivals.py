"""Tests for the open-system arrival processes (repro.loadgen.arrivals)."""

import math

import pytest

from repro.loadgen import arrivals
from repro.loadgen.arrivals import ArrivalConfig, Spike, generate_arrivals
from repro.sim.rng import RandomStreams


def schedule(**kwargs):
    seed = kwargs.pop("seed", 1985)
    return generate_arrivals(
        ArrivalConfig(**kwargs), RandomStreams(seed).fork("arrivals")
    )


class TestPoisson:
    def test_interarrival_mean_matches_rate(self):
        # 400 samples at 10 tps: the mean inter-arrival should sit near
        # 100 ms (standard error ~5 ms; the fixed seed pins the draw).
        sched = schedule(process="poisson", rate_tps=10.0, n_arrivals=400)
        gaps = sched.interarrivals_ms()
        mean = sum(gaps) / len(gaps)
        assert 85.0 <= mean <= 115.0

    def test_interarrival_cv_is_exponential(self):
        # Exponential inter-arrivals have CV = 1.
        sched = schedule(process="poisson", rate_tps=10.0, n_arrivals=400)
        gaps = sched.interarrivals_ms()
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / (len(gaps) - 1)
        cv = math.sqrt(var) / mean
        assert 0.8 <= cv <= 1.2

    def test_times_strictly_ordered_and_positive(self):
        sched = schedule(process="poisson", n_arrivals=100)
        assert all(t > 0 for t in sched.times_ms)
        assert list(sched.times_ms) == sorted(sched.times_ms)


class TestDiurnal:
    def test_profile_integral_preserves_rate(self, monkeypatch):
        # The sinusoid integrates to zero over a full period, so over
        # many periods the empirical rate matches rate_tps.
        monkeypatch.setattr(arrivals, "DIURNAL_PERIOD_MS", 5_000.0)
        sched = schedule(process="diurnal", rate_tps=10.0, n_arrivals=500)
        rate = 1000.0 * sched.offered / sched.times_ms[-1]
        assert 8.0 <= rate <= 12.0

    def test_first_half_period_busier_than_second(self, monkeypatch):
        # sin is positive on the first half-period, negative on the
        # second: arrivals concentrate in the rising half.
        period = 10_000.0
        monkeypatch.setattr(arrivals, "DIURNAL_PERIOD_MS", period)
        sched = schedule(process="diurnal", rate_tps=10.0, n_arrivals=500)
        first = sum(1 for t in sched.times_ms if (t % period) < period / 2)
        second = sched.offered - first
        assert first > 1.5 * second


class TestSpikes:
    def test_spike_window_concentrates_arrivals(self):
        spike = Spike(start_ms=1_000.0, duration_ms=1_000.0, multiplier=6.0)
        sched = schedule(
            process="poisson", rate_tps=4.0, n_arrivals=300, spikes=(spike,)
        )
        in_window = sum(1 for t in sched.times_ms if spike.covers(t))
        span = sched.times_ms[-1]
        base_expectation = 300 * spike.duration_ms / span
        assert in_window > 2.0 * base_expectation
        assert sched.spike_starts_ms == (1_000.0,)


class TestDeterminism:
    @pytest.mark.parametrize("process", ["poisson", "diurnal"])
    def test_same_seed_same_schedule(self, process):
        a = schedule(process=process, n_arrivals=80, seed=7)
        b = schedule(process=process, n_arrivals=80, seed=7)
        assert a.times_ms == b.times_ms

    def test_different_seed_different_schedule(self):
        a = schedule(process="poisson", n_arrivals=80, seed=7)
        b = schedule(process="poisson", n_arrivals=80, seed=8)
        assert a.times_ms != b.times_ms

    def test_processes_draw_distinct_streams(self, monkeypatch):
        # Each process owns a named stream; schedules differ by process.
        monkeypatch.setattr(arrivals, "DIURNAL_AMPLITUDE", 0.0)
        a = schedule(process="poisson", n_arrivals=40)
        b = schedule(process="diurnal", n_arrivals=40)
        # amplitude 0 makes diurnal a homogeneous Poisson too, but the
        # draws come from a different named stream.
        assert a.times_ms != b.times_ms


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"process": "lunar"},
            {"rate_tps": 0.0},
            {"n_arrivals": 0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ArrivalConfig(**kwargs)

    def test_bad_spike_rejected(self):
        with pytest.raises(ValueError):
            Spike(start_ms=-1.0, duration_ms=10.0)
        with pytest.raises(ValueError):
            Spike(start_ms=0.0, duration_ms=10.0, multiplier=0.0)
