"""Unit tests for the simulation kernel primitives."""

import math

import numpy as np
import pytest

from repro.core.base import StaticTuner
from repro.experiments.runner import make_session
from repro.noise import lognormal_factor
from repro.endpoint.load import ExternalLoad, LoadSchedule
from repro.sim.clock import SimClock, boundary_tick
from repro.sim.rng import STREAM_NAMES, RngStreams
from repro.sim.trace import EpochRecord, StepRecord, Trace


class TestSimClock:
    def test_advances_without_drift(self):
        clk = SimClock(dt=0.1)
        for _ in range(10_000):
            clk.advance()
        assert clk.now == pytest.approx(1000.0, abs=1e-9)

    def test_ticks_for_exact_multiple(self):
        assert SimClock(dt=1.0).ticks_for(30.0) == 30
        assert SimClock(dt=0.5).ticks_for(30.0) == 60

    def test_ticks_for_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            SimClock(dt=1.0).ticks_for(30.5)

    def test_rejects_bad_dt_and_backwards(self):
        with pytest.raises(ValueError):
            SimClock(dt=0.0)
        with pytest.raises(ValueError):
            SimClock().advance(-1)


class TestBoundaryTick:
    """One rule resolves every threshold to a tick: the first ``n >= 1``
    with ``n * dt >= t``."""

    def test_limits_land_on_whole_steps(self):
        # 3000 x ``+= 0.1`` falls short of 300; 3000 * 0.1 does not, so
        # a 300 s transfer ends on step 3000 and a 30 s epoch on 300.
        assert boundary_tick(300.0, 0.1) == 3000
        assert boundary_tick(30.0 - 1e-9, 0.1) == 300
        assert boundary_tick(30.0 - 1e-9, 0.3) == 100
        assert boundary_tick(30.0, 0.7) == 43  # 42 * 0.7 < 30
        assert boundary_tick(0.0, 0.25) == 1  # never before the first step
        for dt in (0.1, 0.3, 0.7, 1.0, 0.25):
            for t in (0.05, 29.999999999, 95.35, 171.0, 1800.0):
                n = boundary_tick(t, dt)
                assert n * dt >= t
                assert n == 1 or (n - 1) * dt < t

    def test_change_ticks_follow_schedule_lookup(self):
        sched = LoadSchedule([
            (0.0, ExternalLoad(ext_cmp=16)),
            (95.35, ExternalLoad(ext_cmp=4)),
            (171.0, ExternalLoad()),
        ])
        for dt in (0.1, 0.3, 0.7):
            ticks = [boundary_tick(c, dt) for c in sched.change_times]
            assert len(ticks) == 2
            for m in ticks:
                assert sched.at(m * dt) != sched.at((m - 1) * dt)


class TestRestartTicks:
    """A restart window is whole dead steps plus a lead fraction."""

    def _session(self, dt):
        s = make_session("s", "p", StaticTuner(), duration_s=60.0)
        s.bind_dt(dt)
        return s

    def test_divmod_splits_dead_steps_and_lead(self):
        s = self._session(0.1)
        s.begin_restart(0.35)
        assert s.dead_ticks == 3
        assert s.lead_s == math.fmod(0.35, 0.1)
        assert 0.0 < s.lead_s < 0.1
        assert s.restarting
        s.begin_restart(0.0)
        assert (s.dead_ticks, s.lead_s, s.restarting) == (0, 0.0, False)

    def test_dyadic_split_matches_the_decaying_float(self):
        # At power-of-two steps every ``rr - dt`` is exact, so the split
        # is the one the former decaying counter reached step by step.
        for dt in (1.0, 0.5, 0.25):
            s = self._session(dt)
            for dead_s in (0.35, 2.0, 7.3, 26.999):
                rr, steps = dead_s, 0
                while rr >= dt:
                    rr -= dt
                    steps += 1
                s.begin_restart(dead_s)
                assert (s.dead_ticks, s.lead_s) == (steps, rr)
                assert s.restart_remaining == dead_s


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a, b = RngStreams(42), RngStreams(42)
        assert a.throughput_noise.random() == b.throughput_noise.random()
        assert a.faults.random() == b.faults.random()

    def test_streams_are_independent(self):
        a, b = RngStreams(42), RngStreams(42)
        a.restart_jitter.random()  # consuming one stream ...
        # ... must not perturb another.
        assert a.throughput_noise.random() == b.throughput_noise.random()

    def test_different_seeds_differ(self):
        assert RngStreams(1).misc.random() != RngStreams(2).misc.random()

    def test_unknown_stream_raises(self):
        with pytest.raises(AttributeError):
            RngStreams(0).nope
        with pytest.raises(KeyError):
            RngStreams(0).stream("nope")

    def test_all_streams_exist(self):
        s = RngStreams(0)
        for name in STREAM_NAMES:
            assert s.stream(name) is getattr(s, name)


class TestLognormalFactor:
    def test_sigma_zero_is_exactly_one(self):
        assert lognormal_factor(np.random.default_rng(0), 0.0) == 1.0

    def test_mean_is_one(self):
        rng = np.random.default_rng(0)
        draws = [lognormal_factor(rng, 0.3) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(1.0, abs=0.02)

    def test_always_positive(self):
        rng = np.random.default_rng(1)
        assert all(lognormal_factor(rng, 1.0) > 0 for _ in range(100))

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            lognormal_factor(np.random.default_rng(0), -0.1)


class TestTrace:
    def _epoch(self, i, start, observed=100.0):
        return EpochRecord(
            index=i, start=start, duration=30.0, params=(2,),
            observed=observed, best_case=observed * 1.2,
            bytes_moved=observed * 30 * 1e6,
        )

    def test_step_accessors(self):
        t = Trace()
        t.add_step(StepRecord(0.0, 50.0, False, 50e6))
        t.add_step(StepRecord(1.0, 70.0, True, 70e6))
        assert t.step_times().tolist() == [0.0, 1.0]
        assert t.step_rates().tolist() == [50.0, 70.0]
        assert t.total_bytes == pytest.approx(120e6)

    def test_epoch_indices_must_be_consecutive(self):
        t = Trace()
        t.add_epoch(self._epoch(0, 0.0))
        with pytest.raises(ValueError):
            t.add_epoch(self._epoch(2, 30.0))

    def test_epoch_param_trajectory(self):
        t = Trace()
        t.add_epoch(self._epoch(0, 0.0))
        t.add_epoch(self._epoch(1, 30.0))
        assert t.epoch_param(0).tolist() == [2, 2]

    def test_mean_observed_time_weighted(self):
        t = Trace()
        t.add_epoch(self._epoch(0, 0.0, observed=100.0))
        t.add_epoch(self._epoch(1, 30.0, observed=200.0))
        assert t.mean_observed() == pytest.approx(150.0)
        assert t.mean_observed(from_time=30.0) == pytest.approx(200.0)
        assert t.mean_observed(to_time=30.0) == pytest.approx(100.0)

    def test_mean_observed_empty_window_raises(self):
        t = Trace()
        t.add_epoch(self._epoch(0, 0.0))
        with pytest.raises(ValueError):
            t.mean_observed(from_time=1e6)

    def test_mean_best_case(self):
        t = Trace()
        t.add_epoch(self._epoch(0, 0.0, observed=100.0))
        assert t.mean_best_case() == pytest.approx(120.0)
