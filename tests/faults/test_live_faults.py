"""Fault campaigns on the live path: tune_live resilience and the
hardened subprocess runner."""

import os
import signal
import time

import pytest

from repro.checkpoint.replay import replay_epochs
from repro.core import NmTuner, StaticTuner
from repro.core.params import concurrency_space
from repro.core.registry import make_tuner
from repro.experiments.runner import make_session, run_single
from repro.experiments.scenarios import ANL_UC
from repro.faults import (
    BLACKOUT,
    OBS_LOSS,
    SESSION_ABORT,
    CircuitBreaker,
    EpochFault,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
)
from repro.live import (
    BYTE_PUMP_PROGRESS,
    SubprocessEpochRunner,
    parse_last_count,
    tune_live,
)

SPACE = concurrency_space(max_nc=32)
NO_SLEEP = lambda s: None  # noqa: E731


def _deterministic_runner(calls=None):
    def run_epoch(nc, np_, duration_s):
        if calls is not None:
            calls.append((nc, np_, duration_s))
        return nc * 1e6 * duration_s

    return run_epoch


class TestTuneLiveFaults:
    def test_blackout_skips_the_runner_and_zeroes_the_epoch(self):
        calls = []
        res = tune_live(
            StaticTuner(), SPACE, (4,), _deterministic_runner(calls),
            epoch_s=10.0, max_epochs=4,
            fault_schedule=FaultSchedule.blackout(1, duration=2),
            sleep=NO_SLEEP,
        )
        assert [c is not None for c in calls]
        assert len(calls) == 2  # epochs 0 and 3 only
        by_index = {e.index: e for e in res.epochs}
        for i in (1, 2):
            assert by_index[i].faulted
            assert by_index[i].fault == BLACKOUT
            assert by_index[i].bytes_moved == 0.0
            assert not by_index[i].tuned

    def test_stream_crash_credits_partial_bytes(self):
        sched = FaultSchedule(
            (FaultEvent("stream-crash", 1, at_fraction=0.5),)
        )
        res = tune_live(
            StaticTuner(), SPACE, (4,), _deterministic_runner(),
            epoch_s=10.0, max_epochs=3, fault_schedule=sched,
            sleep=NO_SLEEP,
        )
        crash = res.epochs[1]
        assert crash.faulted
        assert crash.bytes_moved == pytest.approx(4 * 1e6 * 5.0)
        assert not crash.tuned

    def test_obs_loss_runs_but_withholds_the_measurement(self):
        observed = []

        class Spy(StaticTuner):
            def propose(self, x0, space):
                x = space.fbnd(x0)
                while True:
                    f = yield x
                    observed.append(f)

        sched = FaultSchedule((FaultEvent(OBS_LOSS, 1),))
        res = tune_live(
            Spy(), SPACE, (4,), _deterministic_runner(),
            epoch_s=10.0, max_epochs=3, fault_schedule=sched,
            sleep=NO_SLEEP,
        )
        lost = res.epochs[1]
        assert not lost.faulted and lost.fault == OBS_LOSS
        assert lost.bytes_moved > 0
        assert not lost.tuned
        assert len(observed) == 2  # epochs 0 and 2

    def test_raising_run_epoch_does_not_crash_the_loop(self):
        def flaky(nc, np_, duration_s):
            if len(seen) == 1:
                seen.append("boom")
                raise RuntimeError("tool exploded")
            seen.append("ok")
            return 1e6

        seen = []
        res = tune_live(StaticTuner(), SPACE, (2,), flaky,
                        epoch_s=5.0, max_epochs=3, sleep=NO_SLEEP)
        assert len(res.epochs) == 3
        bad = res.epochs[1]
        assert bad.faulted and bad.fault == "epoch-fault"
        assert bad.bytes_moved == 0.0
        assert not bad.tuned
        assert res.epochs[2].tuned  # the loop recovered

    def test_epoch_fault_partial_bytes_are_credited(self):
        def dying(nc, np_, duration_s):
            raise EpochFault("died", kind="launch-failure",
                             partial_bytes=7e6)

        res = tune_live(StaticTuner(), SPACE, (2,), dying,
                        epoch_s=5.0, max_epochs=1, sleep=NO_SLEEP)
        assert res.epochs[0].bytes_moved == 7e6
        assert res.epochs[0].fault == "launch-failure"

    def test_backoff_served_through_sleep_and_escalating(self):
        slept = []
        res = tune_live(
            StaticTuner(), SPACE, (2,), _deterministic_runner(),
            epoch_s=10.0, max_epochs=4,
            fault_schedule=FaultSchedule.blackout(0, duration=3),
            retry_policy=RetryPolicy(base_backoff_s=1.0, backoff_factor=2.0,
                                     jitter_frac=0.0),
            sleep=lambda s: slept.append(s),
        )
        backoffs = [s for s in slept if s != 10.0]
        assert backoffs == [1.0, 2.0, 4.0]
        assert res.epochs[-1].retries == 3

    def test_abort_without_budget_fails_the_run(self):
        res = tune_live(
            StaticTuner(), SPACE, (2,), _deterministic_runner(),
            epoch_s=10.0, max_epochs=6,
            fault_schedule=FaultSchedule.abort(2),
            retry_policy=RetryPolicy(max_retries_per_session=0,
                                     jitter_frac=0.0),
            sleep=NO_SLEEP,
        )
        assert res.failed
        assert len(res.epochs) == 3
        assert res.epochs[-1].fault == "session-abort"

    def test_breaker_pins_fallback_params_and_suppresses_tuner(self):
        res = tune_live(
            NmTuner(), SPACE, (16,), _deterministic_runner(),
            epoch_s=10.0, max_epochs=10,
            fault_schedule=FaultSchedule.blackout(2, duration=2),
            retry_policy=RetryPolicy(jitter_frac=0.0),
            breaker=CircuitBreaker(failure_threshold=2, cooldown_epochs=2),
            sleep=NO_SLEEP,
        )
        open_epochs = [e for e in res.epochs if e.breaker == "open"]
        assert open_epochs, "breaker never opened"
        for e in open_epochs:
            assert e.params[0] == 2  # safe default nc
            assert not e.tuned
        # after cooldown the run returns to tuned epochs
        assert res.epochs[-1].breaker in ("closed", "half-open")

    def test_campaign_replays_identically_with_fake_runner(self):
        def once():
            return tune_live(
                NmTuner(), SPACE, (8,), _deterministic_runner(),
                epoch_s=10.0, max_epochs=12,
                fault_schedule=FaultSchedule.bursts(
                    5, n_epochs=12, n_bursts=2, burst_len=2
                ),
                retry_policy=RetryPolicy(jitter_frac=0.0),
                breaker=CircuitBreaker(failure_threshold=2,
                                       cooldown_epochs=1),
                sleep=NO_SLEEP,
            )

        a, b = once(), once()
        assert a.epochs == b.epochs
        assert a.failed == b.failed

    def test_total_bytes_stop_condition_still_respected(self):
        res = tune_live(StaticTuner(), SPACE, (4,), _deterministic_runner(),
                        epoch_s=10.0, total_bytes=50e6, sleep=NO_SLEEP)
        assert res.total_bytes == pytest.approx(50e6)

    def test_sim_and_live_take_the_same_recovery_transitions(self):
        """One campaign — two blackout bursts, a retry budget, a breaker
        and an abort within budget — through run_single and through
        tune_live with a fake runner: throughput differs, but every
        epoch's fault, retry and breaker columns agree, and replay
        verifies the simulated records."""
        campaign = FaultSchedule.bursts(
            2, n_epochs=20, n_bursts=2, burst_len=3
        ).merge(FaultSchedule.abort(10))

        def kit():
            return dict(
                fault_schedule=campaign,
                retry_policy=RetryPolicy(max_retries_per_session=12),
                breaker=CircuitBreaker(failure_threshold=2,
                                       cooldown_epochs=2),
            )

        sim = run_single(ANL_UC, make_tuner("nm", 3), duration_s=600.0,
                         seed=3, cache=False, **kit())
        live = tune_live(make_tuner("nm", 3), SPACE, (2,),
                         _deterministic_runner(), epoch_s=30.0,
                         max_epochs=20, sleep=NO_SLEEP, **kit())

        def columns(rows):
            return [(r.fault, r.faulted, r.retries, r.breaker, r.tuned)
                    for r in rows]

        assert len(sim.epochs) == 20 and not live.failed
        assert columns(sim.epochs) == columns(live.epochs)
        assert {"open", "half-open"} <= {r.breaker for r in sim.epochs}
        assert SESSION_ABORT in {r.fault for r in sim.epochs}
        assert sim.epochs[-1].retries > 0
        session = make_session("main", ANL_UC.main_path,
                               make_tuner("nm", 3), duration_s=600.0)
        kw = kit()
        replay = replay_epochs(
            make_tuner("nm", 3), session.space, session.x0, sim.epochs,
            retry_policy=kw["retry_policy"], breaker=kw["breaker"],
        )
        assert replay.epochs_replayed == 20


class TestParseLastCount:
    def test_takes_last_parseable_line(self):
        assert parse_last_count("100\n200\n300\n") == 300.0

    def test_skips_truncated_final_line(self):
        assert parse_last_count("1024\n2048\n30") == 30.0
        assert parse_last_count("1024\n2048\ngarbage") == 2048.0

    def test_empty_output_is_zero(self):
        assert parse_last_count("") == 0.0
        assert parse_last_count("\n \n") == 0.0


class TestSubprocessRunnerHardening:
    def test_child_killed_mid_epoch_partial_bytes_counted_and_reaped(self):
        procs = []

        def kill_after_delay(copy, proc):
            procs.append(proc)
            time.sleep(0.6)
            os.kill(proc.pid, signal.SIGKILL)

        runner = SubprocessEpochRunner(
            BYTE_PUMP_PROGRESS, parse_bytes=parse_last_count,
            on_launch=kill_after_delay,
        )
        total = runner(1, 2, 2.0)
        # the progress lines before SIGKILL credit the partial epoch
        assert total > 0
        assert procs[0].returncode == -signal.SIGKILL
        assert procs[0].poll() is not None  # reaped

    def test_run_completes_when_one_of_two_children_dies(self):
        procs = []

        def kill_first(copy, proc):
            procs.append(proc)
            if copy == 0:
                time.sleep(0.4)
                proc.kill()

        runner = SubprocessEpochRunner(
            BYTE_PUMP_PROGRESS, parse_bytes=parse_last_count,
            on_launch=kill_first,
        )
        total = runner(2, 2, 1.2)
        assert total > 0
        assert all(p.returncode is not None for p in procs)
        assert procs[0].returncode == -signal.SIGKILL

    def test_launch_retry_recovers_from_transient_failure(self, tmp_path):
        exe = tmp_path / "flaky"
        slept = []

        def sleep_and_heal(s):
            slept.append(s)
            exe.write_text("#!/bin/sh\necho 100\n")
            exe.chmod(0o755)

        runner = SubprocessEpochRunner(
            str(exe), parse_bytes=float,
            launch_retries=2, launch_backoff_s=0.1, sleep=sleep_and_heal,
        )
        assert runner(1, 1, 0.5) == 100.0
        assert slept == [0.1]

    def test_exhausted_launch_retries_raise_epoch_fault(self, tmp_path):
        runner = SubprocessEpochRunner(
            str(tmp_path / "definitely-missing"), parse_bytes=float,
            launch_retries=1, launch_backoff_s=0.0, sleep=NO_SLEEP,
        )
        with pytest.raises(EpochFault) as exc_info:
            runner(1, 1, 0.5)
        assert exc_info.value.kind == "launch-failure"
        assert exc_info.value.partial_bytes == 0.0

    def test_partial_bytes_from_copies_launched_before_the_failure(
        self, tmp_path
    ):
        good = tmp_path / "exe0"
        good.write_text("#!/bin/sh\necho 50\n")
        good.chmod(0o755)
        runner = SubprocessEpochRunner(
            str(tmp_path / "exe{copy}"), parse_bytes=float,
        )
        with pytest.raises(EpochFault) as exc_info:
            runner(2, 1, 0.5)
        assert exc_info.value.partial_bytes == 50.0

    def test_unparseable_output_of_dead_child_counts_zero(self, tmp_path):
        exe = tmp_path / "crasher"
        exe.write_text("#!/bin/sh\necho not-a-number\nexit 3\n")
        exe.chmod(0o755)
        runner = SubprocessEpochRunner(str(exe), parse_bytes=float)
        assert runner(1, 1, 0.5) == 0.0

    def test_unparseable_output_of_healthy_child_still_raises(self, tmp_path):
        exe = tmp_path / "weird"
        exe.write_text("#!/bin/sh\necho not-a-number\nexit 0\n")
        exe.chmod(0o755)
        runner = SubprocessEpochRunner(str(exe), parse_bytes=float)
        with pytest.raises(ValueError):
            runner(1, 1, 0.5)

    def test_reap_errors_other_than_a_timeout_surface(self):
        """The final reap swallows only a timed wait's TimeoutExpired;
        any other error from ``wait`` reaches the caller."""
        procs = []

        def break_reap(copy, proc):
            procs.append(proc)

            def wait(timeout=None):
                raise ChildProcessError("reap failed")

            proc.wait = wait
            raise RuntimeError("hook failed mid-launch")

        runner = SubprocessEpochRunner(
            BYTE_PUMP_PROGRESS, parse_bytes=parse_last_count,
            on_launch=break_reap,
        )
        try:
            with pytest.raises(ChildProcessError, match="reap failed"):
                runner(1, 2, 5.0)
        finally:
            for p in procs:
                del p.wait  # the class's own wait reaps the child
                p.wait(timeout=5.0)
        assert procs[0].returncode == -signal.SIGKILL

    def test_validation(self):
        with pytest.raises(ValueError):
            SubprocessEpochRunner("x", parse_bytes=float, launch_retries=-1)
        with pytest.raises(ValueError):
            SubprocessEpochRunner("x", parse_bytes=float,
                                  launch_backoff_s=-1.0)


class TestLiveCampaignWithBytePump:
    def test_fault_retry_breaker_transitions_replay_identically(self):
        def once():
            runner = SubprocessEpochRunner(
                BYTE_PUMP_PROGRESS, parse_bytes=parse_last_count,
            )
            return tune_live(
                NmTuner(), SPACE, (2,), runner,
                epoch_s=0.4, max_epochs=8,
                fault_schedule=FaultSchedule.blackout(1, duration=2),
                retry_policy=RetryPolicy(base_backoff_s=0.01,
                                         jitter_frac=0.0),
                breaker=CircuitBreaker(failure_threshold=2,
                                       cooldown_epochs=2),
                sleep=NO_SLEEP,
            )

        a, b = once(), once()
        assert a.transitions() == b.transitions()
        assert [e.retries for e in a.epochs] == [e.retries for e in b.epochs]
        assert any(e.breaker == "open" for e in a.epochs)
        # real bytes moved, outside the blackout
        assert a.total_bytes > 0
