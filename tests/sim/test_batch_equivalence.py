"""Batch-vs-scalar equivalence: the struct-of-arrays engine's contract.

Every trace a :class:`~repro.sim.batch.BatchEngine` lane produces must
be **bit-identical** — epoch records AND step records, dataclass ``==``
with no tolerance — to the scalar :func:`run_single` call with the same
arguments.  These tests pin that contract across the tuner matrix on
both stock scenarios with the fast path on and off, across
heterogeneous populations (mixed tuners, durations, load schedules, a
2-D ``tune_np`` lane), at step sizes no binary fraction represents,
across faulted lanes under every recovery policy, plus the
:class:`BatchEngine` construction-time validation.
"""

import dataclasses
import math

import pytest

from repro.core.registry import make_tuner
from repro.endpoint.load import ExternalLoad
from repro.experiments.batch import (
    SingleRunSpec,
    dispatch_fallback_reasons,
    dispatch_timings,
    fallback_reasons,
    occupancy,
    run_batch,
)
from repro.experiments.figures import varying_load_schedule
from repro.experiments.runner import (
    build_single_engine,
    make_session,
    run_single,
)
from repro.experiments.scenarios import ANL_TACC, ANL_UC
from repro.faults import (
    BLACKOUT,
    KINDS,
    LINK_DEGRADE,
    LOAD_SPIKE,
    OBS_LOSS,
    SESSION_ABORT,
    STREAM_CRASH,
    CircuitBreaker,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
)
from repro.sim.batch import BatchEngine, unbatchable_reason
from repro.sim.engine import Engine, EngineConfig, LoadSchedule
from repro.sim.session import TransferSession

DURATION = 240.0
SEED = 5


def assert_bit_identical(ref, got):
    assert got.epochs == ref.epochs
    assert got.steps == ref.steps


def _run_scalar(spec: SingleRunSpec):
    return run_single(
        spec.scenario, spec.tuner, load=spec.load,
        duration_s=spec.duration_s, epoch_s=spec.epoch_s,
        tune_np=spec.tune_np, fixed_np=spec.fixed_np, x0=spec.x0,
        seed=spec.seed, max_nc=spec.max_nc,
        fault_schedule=spec.fault_schedule,
        retry_policy=spec.retry_policy, breaker=spec.breaker,
        fast_path=spec.fast_path, cache=False,
    )


def _assert_batch_matches_scalar(specs, *, batch):
    """The whole population, batched vs. run one `run_single` at a time.

    Tuner objects are stateless factories (each ``start`` builds a
    fresh driver), so reusing the same spec objects on both paths is
    exactly what production callers do.
    """
    refs = [_run_scalar(s) for s in specs]
    got = run_batch(specs, batch=batch, cache=False)
    assert len(got) == len(refs)
    for ref, trace in zip(refs, got):
        assert_bit_identical(ref, trace)


@pytest.mark.parametrize("scenario", [ANL_UC, ANL_TACC],
                         ids=["anl-uc", "anl-tacc"])
@pytest.mark.parametrize("fast_path", [True, False],
                         ids=["fast", "reference"])
def test_tuner_matrix_is_bit_identical(scenario, fast_path):
    """cd/cs/nm/default × stock scenarios × fast_path on/off, one batch."""
    specs = [
        SingleRunSpec(
            scenario, make_tuner(name, SEED), duration_s=DURATION,
            seed=SEED, fast_path=fast_path,
        )
        for name in ("default", "cd", "cs", "nm")
    ]
    _assert_batch_matches_scalar(specs, batch=4)


def test_heterogeneous_population_is_bit_identical():
    """Mixed scenarios, tuners, seeds, durations, loads — including a
    varying-load schedule, a 2-D ``tune_np`` lane, and retry-policy and
    circuit-breaker lanes with no faults (they batch, and dispatch
    through the round's pre-drawn factors) — in undersized chunks so
    lanes of different shapes share a chunk."""
    specs = [
        SingleRunSpec(ANL_UC, make_tuner("cd", SEED), duration_s=DURATION,
                      seed=SEED),
        SingleRunSpec(ANL_UC, make_tuner("cs", SEED + 1),
                      duration_s=DURATION / 2, seed=SEED + 1,
                      load=ExternalLoad(ext_cmp=16)),
        SingleRunSpec(ANL_TACC, make_tuner("nm", SEED), seed=SEED,
                      duration_s=DURATION,
                      load=varying_load_schedule(DURATION / 2)),
        SingleRunSpec(ANL_TACC, make_tuner("nm", SEED), seed=SEED,
                      duration_s=DURATION, tune_np=True),
        SingleRunSpec(ANL_UC, make_tuner("default", SEED), seed=SEED + 2,
                      duration_s=DURATION, x0=(16,), fixed_np=1),
        SingleRunSpec(ANL_UC, make_tuner("cd", SEED),
                      duration_s=DURATION, seed=SEED,
                      retry_policy=RetryPolicy()),
        SingleRunSpec(ANL_TACC, make_tuner("cs", SEED + 3),
                      duration_s=DURATION, seed=SEED + 3,
                      breaker=CircuitBreaker()),
    ]
    _assert_batch_matches_scalar(specs, batch=4)


def test_homogeneous_seed_replicates_are_bit_identical():
    """The bench shape: one scenario/tuner, seeds fanned — the case the
    shared allocation-group memo and homogeneous span shortcut serve."""
    specs = [
        SingleRunSpec(ANL_UC, make_tuner("cd", seed), duration_s=DURATION,
                      seed=seed)
        for seed in range(SEED, SEED + 8)
    ]
    _assert_batch_matches_scalar(specs, batch=8)


def test_unbatchable_specs_fall_back_per_run():
    """A fault-schedule lane rides the batch beside its clean siblings
    (a fault scales only its own rate) — results identical, nothing
    charged to the per-run scalar fallback."""
    faulty = SingleRunSpec(
        ANL_UC, make_tuner("cs", SEED), duration_s=DURATION, seed=SEED,
        fault_schedule=FaultSchedule(
            [FaultEvent(kind=STREAM_CRASH, epoch=2, duration=1)]
        ),
        retry_policy=RetryPolicy(),
    )
    clean = [
        SingleRunSpec(ANL_UC, make_tuner("cd", seed), duration_s=DURATION,
                      seed=seed)
        for seed in (SEED, SEED + 1, SEED + 2)
    ]
    before, reasons_before = occupancy(), fallback_reasons()
    _assert_batch_matches_scalar([clean[0], faulty, *clean[1:]], batch=4)
    delta = occupancy() - before
    assert delta.batched == 4
    assert delta.fallback == 0
    assert delta.chunks == 1
    assert fallback_reasons() == reasons_before


# -- population dispatch -----------------------------------------------------


@pytest.mark.parametrize("tuner_name", ["cd", "cs", "gss"],
                         ids=lambda name: f"population-{name}")
def test_population_dispatch_matrix_is_bit_identical(tuner_name):
    """Population-dispatch lanes stay bit-identical to run_single across
    the supported tuners (nm and retry-policy lanes cover the scalar
    ladder)."""
    specs = [
        SingleRunSpec(ANL_UC, make_tuner(tuner_name, seed),
                      duration_s=DURATION, seed=seed)
        for seed in range(SEED, SEED + 4)
    ]
    before = dispatch_timings()["population_lanes"]
    _assert_batch_matches_scalar(specs, batch=4)
    assert dispatch_timings()["population_lanes"] == before + 4


def test_mixed_tuner_population_routes_nm_to_ladder():
    """Mixed cd/nm lanes: the nm lanes keep the scalar dispatch ladder
    (tallied once per lane under dispatch:unsupported-tuner), the cd
    lanes ride one population — everything bit-identical to serial."""
    specs = [
        SingleRunSpec(ANL_UC, make_tuner("cd", SEED), duration_s=DURATION,
                      seed=SEED),
        SingleRunSpec(ANL_UC, make_tuner("nm", SEED), duration_s=DURATION,
                      seed=SEED),
        SingleRunSpec(ANL_UC, make_tuner("cd", SEED + 1),
                      duration_s=DURATION, seed=SEED + 1),
        SingleRunSpec(ANL_UC, make_tuner("nm", SEED + 1),
                      duration_s=DURATION, seed=SEED + 1),
    ]
    before = dispatch_fallback_reasons().get(
        "dispatch:unsupported-tuner", 0)
    timings_before = dispatch_timings()
    _assert_batch_matches_scalar(specs, batch=4)
    assert (dispatch_fallback_reasons()["dispatch:unsupported-tuner"]
            == before + 2)
    after = dispatch_timings()
    assert after["population_lanes"] >= timings_before["population_lanes"] + 2
    assert after["ladder_lanes"] >= timings_before["ladder_lanes"] + 2
    # The phase clocks only move forward.
    for key in ("span", "close", "dispatch"):
        assert after["phase_s"][key] >= timings_before["phase_s"][key]


def test_recovery_machinery_lane_keeps_ladder_with_reason():
    """A retry-policy lane batches its spans but keeps the scalar
    dispatch ladder, tallied under dispatch:recovery-machinery."""
    specs = [
        SingleRunSpec(ANL_UC, make_tuner("cd", SEED), duration_s=DURATION,
                      seed=SEED, retry_policy=RetryPolicy()),
        SingleRunSpec(ANL_UC, make_tuner("cd", SEED + 1),
                      duration_s=DURATION, seed=SEED + 1),
    ]
    before = dispatch_fallback_reasons().get(
        "dispatch:recovery-machinery", 0)
    _assert_batch_matches_scalar(specs, batch=2)
    assert (dispatch_fallback_reasons()["dispatch:recovery-machinery"]
            == before + 1)


# -- non-dyadic step sizes ---------------------------------------------------


def _lane(dt, tuner_name, seed, *, offset=0.0, duration=DURATION,
          load=None, **recovery):
    """A single-session engine at step size ``dt`` (``build_single_engine``
    fixes ``dt = 1``), with an optional first-epoch offset and fault
    schedule, retry policy and breaker."""
    tuner = make_tuner(tuner_name, seed)
    base = make_session("main", ANL_UC.main_path, tuner,
                        duration_s=duration)
    session = TransferSession(
        dataclasses.replace(base.spec, epoch_offset_s=offset),
        tuner, base.space, base.x0, param_map=base.param_map,
        restart_each_epoch=base.restart_each_epoch, **recovery,
    )
    return Engine(
        topology=ANL_UC.build_topology(), host=ANL_UC.host,
        sessions=[session],
        schedule=load if load is not None
        else LoadSchedule.constant(ExternalLoad()),
        config=EngineConfig(dt=dt, seed=seed),
    )


def _non_dyadic_lanes(dt, mix):
    """Lockstep seed replicates, or lanes mixing tuners, epoch offsets,
    durations and a load schedule whose changes fall between ticks."""
    if mix == "lockstep":
        return [_lane(dt, "cd", SEED + j) for j in range(4)]
    load = LoadSchedule([
        (0.0, ExternalLoad(ext_cmp=16, ext_tfr=64)),
        (95.35, ExternalLoad(ext_cmp=16, ext_tfr=16)),
        (171.0, ExternalLoad(ext_cmp=4)),
    ])
    return [
        _lane(dt, "cd", SEED, offset=7.3, load=load),
        _lane(dt, "nm", SEED + 1, duration=180.05),
        _lane(dt, "cd", SEED + 2, load=load),
        _lane(dt, "cs", SEED + 3, offset=11.0, duration=200.0),
    ]


@pytest.mark.parametrize("mix", ["lockstep", "mixed"])
@pytest.mark.parametrize("dt", [0.1, 0.3, 0.7])
def test_non_dyadic_step_sizes_are_bit_identical(dt, mix):
    """At step sizes no binary fraction represents, batch lanes must
    close epochs, finish and change load on the scalar loop's tick: the
    same boundary rule, evaluated once per span instead of per step."""
    refs = [e.run()["main"] for e in _non_dyadic_lanes(dt, mix)]
    got = BatchEngine(_non_dyadic_lanes(dt, mix)).run()
    for ref, traces in zip(refs, got):
        assert_bit_identical(ref, traces["main"])


#: Every fault kind by hand, with stream crashes on an epoch's first
#: step and on its last, and an abort after two retried faults.
HAND_PLACED = FaultSchedule((
    FaultEvent(STREAM_CRASH, 1, at_fraction=0.0),
    FaultEvent(LINK_DEGRADE, 2, duration=2, severity=0.4),
    FaultEvent(STREAM_CRASH, 4, at_fraction=0.999),
    FaultEvent(OBS_LOSS, 5),
    FaultEvent(SESSION_ABORT, 6),
    FaultEvent(LOAD_SPIKE, 7, duration=2, severity=1.5),
    FaultEvent(BLACKOUT, 9, duration=3),
))


def _faulted_lanes(dt, recovery):
    """A hand-placed campaign, a seeded campaign over all six kinds, a
    breaker-tripping blackout burst and a clean lane, under one recovery
    policy.  With ``retry`` the session budget of 2 runs out at the
    hand-placed abort, which ends that lane early."""
    def kit():
        kw = {}
        if recovery != "none":
            kw["retry_policy"] = RetryPolicy(max_retries_per_session=2)
        if recovery == "retry+breaker":
            kw["breaker"] = CircuitBreaker(failure_threshold=2,
                                           cooldown_epochs=2)
        return kw

    duration = 2 * DURATION
    return [
        _lane(dt, "cd", SEED, duration=duration,
              fault_schedule=HAND_PLACED, **kit()),
        _lane(dt, "nm", SEED + 1, duration=duration,
              fault_schedule=FaultSchedule.bernoulli(
                  SEED, 16, 0.4, kinds=KINDS), **kit()),
        _lane(dt, "cs", SEED + 2, duration=duration,
              fault_schedule=FaultSchedule.bursts(SEED, 16, 2, 3),
              **kit()),
        _lane(dt, "gss", SEED + 3, duration=duration, **kit()),
    ]


@pytest.mark.parametrize("recovery", ["none", "retry", "retry+breaker"])
@pytest.mark.parametrize("dt", [1.0, 0.25, 0.1])
def test_faulted_lanes_are_bit_identical(dt, recovery):
    """Faulted lanes batch beside clean ones: the span kernel applies
    each step's fault factor last, by the step loop's own rule, so
    every lane matches its scalar run — and none falls back."""
    scalar = _faulted_lanes(dt, recovery)
    refs = [e.run()["main"] for e in scalar]
    lanes = _faulted_lanes(dt, recovery)
    assert [unbatchable_reason(e) for e in lanes] == [None] * len(lanes)
    got = BatchEngine(lanes).run()
    for ref, traces in zip(refs, got):
        assert_bit_identical(ref, traces["main"])
    assert any(r.faulted for r in refs[0].epochs)
    # A lane whose abort exhausted the budget stops where run() stops.
    assert ([e.clock.tick for e in lanes]
            == [e.clock.tick for e in scalar])


# -- BatchEngine construction-time validation --------------------------------


def _engine(**kw):
    kw.setdefault("duration_s", DURATION)
    kw.setdefault("seed", SEED)
    return build_single_engine(
        kw.pop("scenario", ANL_UC), kw.pop("tuner", make_tuner("cd", SEED)),
        schedule=kw.pop("schedule",
                        LoadSchedule.constant(ExternalLoad())),
        **kw,
    )


def test_batch_engine_rejects_empty_and_reused_engines():
    with pytest.raises(ValueError):
        BatchEngine([])
    e = _engine()
    with pytest.raises(ValueError):
        BatchEngine([e, e])


def test_batch_engine_rejects_unbatchable_members():
    eligible = _engine()
    assert unbatchable_reason(eligible) is None
    started = _engine()
    started.run()
    assert unbatchable_reason(started) == "engine already started"
    with pytest.raises(ValueError):
        BatchEngine([eligible, started])


def test_batch_engine_rejects_mismatched_alloc_groups():
    with pytest.raises(ValueError):
        BatchEngine([_engine(), _engine()], alloc_groups=[0])


def test_unbatchable_reason_classifies_finite_bytes():
    engine = _engine()
    assert math.isinf(engine.sessions[0].spec.total_bytes)
    engine.sessions[0].spec = dataclasses.replace(
        engine.sessions[0].spec, total_bytes=1e9
    )
    assert unbatchable_reason(engine) == "finite-bytes transfer"
