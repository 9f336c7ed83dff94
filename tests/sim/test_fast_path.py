"""Fast-path equivalence: the allocation-memo engine vs. the reference.

``EngineConfig(fast_path=True)`` (the default) caches the allocation
phase on change-point state; ``fast_path=False`` recomputes everything
every step.  Both must produce **bit-identical** traces — epoch records
AND step records — because the memo only skips recomputing a pure
function of its key.  These tests pin that contract across every engine
feature that interacts with the cache key: tuners, faults and breaker
transitions, varying load schedules, multi-session pairs with epoch
offsets, step sizes that no binary fraction represents, the joint
controller, finite-byte transfers, partial ``run(until_s=...)``, zero
noise, and crash/resume.
"""

import json
import math

import pytest

from repro.core.registry import make_tuner
from repro.endpoint.load import ExternalLoad, LoadSchedule
from repro.experiments.figures import varying_load_schedule
from repro.experiments.runner import (
    make_session,
    run_joint,
    run_pair,
    run_single,
)
from repro.experiments.scenarios import ANL_UC, SCENARIOS
from repro.faults import (
    BLACKOUT,
    OBS_LOSS,
    STREAM_CRASH,
    CircuitBreaker,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
)
from repro.gridftp.transfer import TransferSpec
from repro.sim.engine import Engine, EngineConfig
from repro.sim.session import ParamMap, TransferSession
from repro.units import MB

DURATION = 600.0
SEED = 11


def assert_bit_identical(ref, fast):
    """Step- and epoch-level record equality (dataclass ==, no tolerance)."""
    assert fast.epochs == ref.epochs
    assert fast.steps == ref.steps


def _fault_kit():
    return dict(
        fault_schedule=FaultSchedule([
            FaultEvent(kind=STREAM_CRASH, epoch=3, duration=2),
            FaultEvent(kind=BLACKOUT, epoch=7, duration=3),
            FaultEvent(kind=OBS_LOSS, epoch=12, duration=1),
        ]),
        retry_policy=RetryPolicy(),
        breaker=CircuitBreaker(failure_threshold=2, cooldown_epochs=3),
    )


def _single(tuner_name, *, fast_path, **kw):
    return run_single(
        SCENARIOS["anl-uc"], make_tuner(tuner_name, SEED),
        duration_s=DURATION, seed=SEED, fast_path=fast_path, **kw,
    )


@pytest.mark.parametrize("tuner_name", ["default", "cd", "cs", "nm"])
def test_tuner_runs_are_bit_identical(tuner_name):
    assert_bit_identical(
        _single(tuner_name, fast_path=False),
        _single(tuner_name, fast_path=True),
    )


@pytest.mark.parametrize("tuner_name", ["cs", "nm"])
def test_fault_campaigns_are_bit_identical(tuner_name):
    assert_bit_identical(
        _single(tuner_name, fast_path=False, **_fault_kit()),
        _single(tuner_name, fast_path=True, **_fault_kit()),
    )


def test_varying_load_schedule_is_bit_identical():
    schedule = varying_load_schedule(switch_at_s=DURATION / 2)
    assert_bit_identical(
        _single("nm", fast_path=False, load=schedule),
        _single("nm", fast_path=True, load=schedule),
    )


def test_tune_np_2d_search_is_bit_identical():
    assert_bit_identical(
        _single("nm", fast_path=False, tune_np=True),
        _single("nm", fast_path=True, tune_np=True),
    )


def test_pair_is_bit_identical():
    def run(fast_path):
        return run_pair(
            ANL_UC, make_tuner("nm", SEED), make_tuner("cs", SEED),
            path_a="anl-uc", path_b="anl-tacc",
            duration_s=DURATION, seed=SEED, fast_path=fast_path,
        )

    ref, fast = run(False), run(True)
    for name in ref:
        assert_bit_identical(ref[name], fast[name])


def test_joint_controller_is_bit_identical():
    def run(fast_path):
        return run_joint(
            ANL_UC, make_tuner("nm", SEED),
            path_a="anl-uc", path_b="anl-tacc",
            duration_s=DURATION, seed=SEED, fast_path=fast_path,
        )

    ref, fast = run(False), run(True)
    for name in ref:
        assert_bit_identical(ref[name], fast[name])


# -- custom engines: offsets, finite bytes, partial runs, zero noise --------


def _engine(*, fast_path, sessions=None, noise_sigma_step=0.02):
    scenario = SCENARIOS["anl-uc"]
    if sessions is None:
        sessions = [make_session(
            "main", scenario.main_path, make_tuner("nm", SEED),
            duration_s=DURATION,
        )]
    return Engine(
        topology=scenario.build_topology(),
        host=scenario.host,
        sessions=sessions,
        schedule=LoadSchedule.constant(ExternalLoad()),
        config=EngineConfig(
            seed=SEED, fast_path=fast_path,
            noise_sigma_step=noise_sigma_step,
        ),
    )


def _offset_sessions(duration=DURATION):
    """Two sessions whose epochs close on *different* steps, so one
    session's dispatch changes the other's allocation mid-epoch."""
    scenario = SCENARIOS["anl-uc"]
    out = []
    for name, path, offset in (
        ("a", "anl-uc", 0.0), ("b", "anl-tacc", 7.0),
    ):
        spec = TransferSpec(
            name=name, path_name=path, total_bytes=math.inf,
            max_duration_s=duration, epoch_s=30.0, epoch_offset_s=offset,
        )
        out.append(TransferSession(
            spec, make_tuner("nm", SEED),
            make_session("tmp", path, make_tuner("nm", SEED),
                         duration_s=duration).space,
            (2,),
            param_map=ParamMap.nc_only(fixed_np=8),
            restart_each_epoch=True,
        ))
    return out


def test_epoch_offsets_are_bit_identical():
    ref = _engine(fast_path=False, sessions=_offset_sessions()).run()
    fast = _engine(fast_path=True, sessions=_offset_sessions()).run()
    for name in ref:
        assert_bit_identical(ref[name], fast[name])


@pytest.mark.parametrize("kit", ["offset-pair", "faulted"])
@pytest.mark.parametrize("dt", [0.1, 0.3, 0.7])
def test_non_dyadic_step_sizes_are_bit_identical(dt, kit):
    """At step sizes that no binary fraction represents, the memo's
    change-point key must see every epoch close, restart end and load
    change on the reference loop's step — with offset epochs, a 30 s
    epoch that ``dt`` does not divide, load changes that fall between
    ticks, and retry backoff stretching restart windows."""
    load = LoadSchedule([
        (0.0, ExternalLoad(ext_cmp=16, ext_tfr=64)),
        (95.35, ExternalLoad(ext_cmp=16, ext_tfr=16)),
        (171.0, ExternalLoad(ext_cmp=4)),
    ])

    def sessions():
        if kit == "offset-pair":
            return _offset_sessions(duration=240.05)
        return [make_session(
            "main", "anl-uc", make_tuner("cs", SEED), duration_s=DURATION,
            **_fault_kit(),
        )]

    def run(fast_path):
        scenario = SCENARIOS["anl-uc"]
        return Engine(
            topology=scenario.build_topology(), host=scenario.host,
            sessions=sessions(), schedule=load,
            config=EngineConfig(dt=dt, seed=SEED, fast_path=fast_path),
        ).run()

    ref, fast = run(False), run(True)
    for name in ref:
        assert_bit_identical(ref[name], fast[name])


def test_finite_bytes_transfer_is_bit_identical():
    def sessions():
        scenario = SCENARIOS["anl-uc"]
        spec = TransferSpec(
            name="main", path_name=scenario.main_path,
            total_bytes=200_000 * MB, max_duration_s=DURATION,
            epoch_s=30.0,
        )
        base = make_session("tmp", scenario.main_path,
                            make_tuner("nm", SEED), duration_s=DURATION)
        return [TransferSession(
            spec, make_tuner("nm", SEED), base.space, (2,),
            param_map=ParamMap.nc_only(fixed_np=8),
            restart_each_epoch=True,
        )]

    ref = _engine(fast_path=False, sessions=sessions()).run()["main"]
    fast = _engine(fast_path=True, sessions=sessions()).run()["main"]
    assert ref.steps[-1].time < DURATION - 1.0, (
        "finite transfer should finish early for this to test completion"
    )
    assert_bit_identical(ref, fast)


def test_partial_run_until_s_is_bit_identical():
    ref = _engine(fast_path=False)
    ref.run(until_s=333.0)
    ref_trace = ref.run()["main"]
    fast = _engine(fast_path=True)
    fast.run(until_s=333.0)
    fast_trace = fast.run()["main"]
    assert_bit_identical(ref_trace, fast_trace)


def test_zero_step_noise_is_bit_identical():
    # sigma_step == 0 means lognormal_factor never draws: the cache
    # alone must not change anything.
    ref = _engine(fast_path=False, noise_sigma_step=0.0).run()["main"]
    fast = _engine(fast_path=True, noise_sigma_step=0.0).run()["main"]
    assert_bit_identical(ref, fast)


# -- crash/resume against the reference engine ------------------------------


def _truncate_after(path, n_epochs: int) -> None:
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


@pytest.mark.parametrize("cut", [2, 9])
def test_kill_and_resume_matches_reference_engine(tmp_path, cut):
    """A fast-path run journaled, truncated mid-run (the on-disk state
    of a SIGKILL), and resumed must equal the *reference* engine's
    uninterrupted run — resume restores RNG state mid-stream and drops
    the memo, so any stale cache entry would surface here."""
    from repro.checkpoint import resume_run, run_journaled

    ref = _single("cs", fast_path=False, **_fault_kit())
    path = tmp_path / "run.jnl"
    run_journaled(
        path, scenario="anl-uc", tuner="cs", seed=SEED,
        duration_s=DURATION, **_fault_kit(),
    )
    _truncate_after(path, cut)
    resumed = resume_run(path)
    assert_bit_identical(ref, resumed)
