"""Resume end to end: a killed journaled run, continued, must be
bit-identical to the same run uninterrupted — sim traces down to the
step records, live runs down to the parameter trajectory."""

import json

import pytest

from repro.checkpoint import (
    JournalWriter,
    read_journal,
    resume_live_state,
    resume_run,
    run_journaled,
    trace_from_journal,
    warm_start_x0,
)
from repro.core.params import concurrency_space
from repro.core.registry import make_tuner
from repro.experiments.runner import make_session, run_single
from repro.experiments.scenarios import ANL_UC, SCENARIOS
from repro.faults import (
    OBS_LOSS,
    STREAM_CRASH,
    CircuitBreaker,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
)
from repro.live import tune_live
from repro.sim.engine import Engine, EngineConfig, JointController

DURATION = 600.0


def _campaign():
    return FaultSchedule([
        FaultEvent(kind=STREAM_CRASH, epoch=3, duration=2),
        FaultEvent(kind=OBS_LOSS, epoch=8, duration=1),
    ])


def _reference(tuner_name: str, seed: int):
    return run_single(
        SCENARIOS["anl-uc"], make_tuner(tuner_name, seed),
        duration_s=DURATION, seed=seed,
        fault_schedule=_campaign(), retry_policy=RetryPolicy(),
        breaker=CircuitBreaker(),
    )


def _journaled(path, tuner_name: str, seed: int):
    return run_journaled(
        path, scenario="anl-uc", tuner=tuner_name, seed=seed,
        duration_s=DURATION,
        fault_schedule=_campaign(), retry_policy=RetryPolicy(),
        breaker=CircuitBreaker(),
    )


def _truncate_after(path, n_epochs: int) -> None:
    """Keep the journal up to (and including) the n-th epoch's snapshot —
    the on-disk state of a process killed right after it."""
    kept, seen = [], 0
    with open(path, "rb") as f:
        for line in f.read().splitlines(keepends=True):
            rec = json.loads(line)
            if rec["kind"] == "end":
                continue
            kept.append(line)
            if rec["kind"] == "epoch":
                seen += 1
            if seen == n_epochs and rec["kind"] == "snapshot":
                break
    with open(path, "wb") as f:
        f.writelines(kept)


def _as_format_1(path) -> None:
    """Rewrite every snapshot in the float-seconds layout of the format-1
    engine (``epoch_elapsed``/``restart_remaining``, no tick counts) —
    the on-disk state an earlier version of the engine left behind."""
    lines = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["kind"] == "snapshot":
            state = rec["state"]
            state["format"] = 1
            for sess in state["sessions"].values():
                sess["epoch_elapsed"] = float(sess.pop("epoch_ticks"))
                sess["restart_remaining"] = (
                    sess.pop("dead_ticks") + sess.pop("lead_s"))
                del sess["transfer"]["ticks"]
        lines.append(json.dumps(rec, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n")


class TestSimResumeBitIdentity:
    @pytest.mark.parametrize("tuner_name", ["nm", "cs", "bandit"])
    @pytest.mark.parametrize("cut", [1, 7, 13])
    def test_kill_and_resume_equals_uninterrupted(self, tmp_path,
                                                  tuner_name, cut):
        ref = _reference(tuner_name, seed=11)
        path = tmp_path / "run.jnl"
        _journaled(path, tuner_name, seed=11)
        _truncate_after(path, cut)
        resumed = resume_run(path)
        assert resumed.epochs == ref.epochs
        assert resumed.steps == ref.steps
        assert read_journal(path).ended

    def test_journaled_run_equals_plain_run(self, tmp_path):
        ref = _reference("nm", seed=2)
        trace = _journaled(tmp_path / "run.jnl", "nm", seed=2)
        assert trace.epochs == ref.epochs
        assert trace.steps == ref.steps

    def test_resume_after_torn_final_record(self, tmp_path):
        ref = _reference("nm", seed=2)
        path = tmp_path / "run.jnl"
        _journaled(path, "nm", seed=2)
        _truncate_after(path, 6)
        with open(path, "ab") as f:
            f.write(b'{"kind":"epoch","session":"ma')  # crash mid-write
        with pytest.warns(UserWarning):
            resumed = resume_run(path)
        assert resumed.epochs == ref.epochs

    def test_resume_with_header_only_runs_from_scratch(self, tmp_path):
        ref = _reference("nm", seed=2)
        path = tmp_path / "run.jnl"
        _journaled(path, "nm", seed=2)
        with open(path, "rb") as f:
            header = f.read().splitlines(keepends=True)[0]
        path.write_bytes(header)
        resumed = resume_run(path)
        assert resumed.epochs == ref.epochs

    def test_resume_of_finished_journal_reconstructs(self, tmp_path):
        path = tmp_path / "run.jnl"
        trace = _journaled(path, "nm", seed=2)
        again = resume_run(path)
        assert again.epochs == trace.epochs
        assert again.steps == trace.steps


class TestJournalGuards:
    def test_run_journaled_refuses_existing_journal(self, tmp_path):
        path = tmp_path / "run.jnl"
        _journaled(path, "nm", seed=0)
        with pytest.raises(FileExistsError, match="resume"):
            _journaled(path, "nm", seed=0)

    def test_resume_requires_a_run_header(self, tmp_path):
        path = tmp_path / "bare.jnl"
        with JournalWriter(path) as w:
            w.write_snapshot({"tick": 0})
        with pytest.raises(ValueError, match="header"):
            resume_run(path)

    def test_format_1_snapshot_is_refused_untouched(self, tmp_path):
        path = tmp_path / "run.jnl"
        _journaled(path, "nm", seed=0)
        _truncate_after(path, 7)
        _as_format_1(path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="snapshot format 1"):
            resume_run(path)
        assert path.read_bytes() == before

    def test_unknown_scenario_in_header(self, tmp_path):
        path = tmp_path / "run.jnl"
        _journaled(path, "nm", seed=0)
        raw = path.read_text().splitlines()
        header = json.loads(raw[0])
        header["run"]["scenario"] = "mars-base"
        raw[0] = json.dumps(header)
        path.write_text("\n".join(raw) + "\n")
        _truncate_after(path, 2)
        with pytest.raises(ValueError, match="scenario"):
            resume_run(path)

    def test_journaling_joint_sessions_is_refused(self, tmp_path):
        scenario = ANL_UC
        sessions = [
            make_session("a", "anl-uc", make_tuner("nm"),
                         duration_s=DURATION),
        ]
        controller = JointController.__new__(JointController)
        with JournalWriter(tmp_path / "j.jnl") as w:
            with pytest.raises(ValueError, match="jointly"):
                Engine(
                    topology=scenario.build_topology(),
                    host=scenario.host,
                    sessions=sessions,
                    controllers=[controller],
                    config=EngineConfig(seed=0),
                    journal=w,
                )


class TestWarmStart:
    def test_warm_start_seeds_from_best_journaled_epoch(self, tmp_path):
        first = tmp_path / "first.jnl"
        _journaled(first, "nm", seed=5)
        best = warm_start_x0(first)
        assert best is not None and best[0] > 2  # climbed off the default
        second = tmp_path / "second.jnl"
        run_journaled(
            second, scenario="anl-uc", tuner="nm", seed=5,
            duration_s=DURATION, warm_start_from=first,
        )
        warm_trace = trace_from_journal(second)
        assert warm_trace.epochs[0].params == best

    def test_warm_start_from_journal_without_tuned_epochs(self, tmp_path):
        path = tmp_path / "empty.jnl"
        with JournalWriter(path) as w:
            w.write_header({"run": {}})
        assert warm_start_x0(path) is None
        # run_journaled falls back to the default start
        out = tmp_path / "out.jnl"
        run_journaled(out, scenario="anl-uc", tuner="nm",
                      duration_s=DURATION, warm_start_from=path)
        assert trace_from_journal(out).epochs[0].params == (2,)


class TestLiveResume:
    def _runner(self, nc, np_, duration_s):
        rate_mbps = 60.0 * min(nc, 20) - 30.0 * max(0, nc - 20)
        return max(rate_mbps, 1.0) * 1e6 * duration_s

    def _run(self, journal=None, resume=None, breaker=None):
        return tune_live(
            make_tuner("nm", 7), concurrency_space(max_nc=64), (2,),
            self._runner, epoch_s=30.0, max_epochs=14,
            sleep=lambda s: None,
            fault_schedule=FaultSchedule(
                [FaultEvent(kind=STREAM_CRASH, epoch=4, duration=1)]
            ),
            retry_policy=RetryPolicy(),
            breaker=breaker if breaker is not None else CircuitBreaker(),
            journal=journal, resume=resume,
        )

    def test_live_kill_resume_matches_uninterrupted(self, tmp_path):
        ref = self._run()
        path = tmp_path / "live.jnl"
        with JournalWriter(path) as w:
            self._run(journal=w)
        _truncate_after(path, 6)
        breaker = CircuitBreaker()
        state = resume_live_state(
            path, make_tuner("nm", 7), concurrency_space(max_nc=64), (2,),
            retry_policy=RetryPolicy(), breaker=breaker,
        )
        with JournalWriter(path) as w:
            resumed = self._run(journal=w, resume=state, breaker=breaker)
        assert resumed.epochs == ref.epochs
        assert resumed.params_trajectory() == ref.params_trajectory()
        assert read_journal(path).ended

    def test_live_resume_requires_live_snapshot(self, tmp_path):
        path = tmp_path / "sim.jnl"
        _journaled(path, "nm", seed=0)
        with pytest.raises(ValueError, match="live"):
            resume_live_state(
                path, make_tuner("nm", 0), concurrency_space(max_nc=64),
                (2,),
            )
