"""Integer-tick session clocks: epochs last exactly ``n * dt`` on every path.

A session's elapsed time, epoch time and restart window are step counts,
so at a step size that no binary fraction represents (0.1, 0.3) a
transfer ends and an epoch closes on the step the boundary rule names —
``n * dt >= t`` — instead of wherever repeated ``+= dt`` additions land.
Each path that advances time (the reference loop, the fast path, a
batch-engine lane, a fleet shard batched or scalar, a fleet service)
must agree on that step.
"""

import pytest

from repro.core.registry import make_tuner
from repro.endpoint.load import ExternalLoad, LoadSchedule
from repro.experiments.runner import make_session
from repro.experiments.scenarios import ANL_UC, SCENARIOS
from repro.faults import FaultSchedule, RetryPolicy
from repro.service import FleetService
from repro.service.shard import FleetShard
from repro.service.tenant import COMPLETED, Tenant, TenantSpec
from repro.sim.batch.engine import BatchEngine
from repro.sim.engine import Engine, EngineConfig

DT = 0.1
DURATION = 300.0  # 3000 x ``+= 0.1`` is 299.9999999999997, 3000 * 0.1 is 300


def _engine(fast_path: bool, *, dt: float = DT, seed: int = 5,
            load: ExternalLoad = ExternalLoad(ext_cmp=16),
            **recovery) -> Engine:
    session = make_session("main", ANL_UC.main_path, make_tuner("cd", seed),
                           duration_s=DURATION, **recovery)
    return Engine(
        topology=ANL_UC.build_topology(), host=ANL_UC.host,
        sessions=[session],
        schedule=LoadSchedule.constant(load),
        config=EngineConfig(dt=dt, seed=seed, fast_path=fast_path),
    )


def _assert_exact(trace, epochs: int = 10) -> None:
    assert len(trace.steps) == 3000
    assert len(trace.epochs) == epochs
    assert [r.duration for r in trace.epochs] == [30.0] * epochs
    assert [r.start for r in trace.epochs] == [
        i * 300 * DT for i in range(epochs)]


def test_single_run_paths_take_exactly_n_steps():
    ref = _engine(fast_path=False).run()["main"]
    _assert_exact(ref)
    fast = _engine(fast_path=True).run()["main"]
    lane = BatchEngine([_engine(fast_path=True)]).run()[0]["main"]
    for trace in (fast, lane):
        assert trace.epochs == ref.epochs
        assert trace.steps == ref.steps


def test_fleet_shard_windows_take_exactly_n_steps():
    traces = []
    for batch in (True, False):
        shard = FleetShard(SCENARIOS["anl-uc"], seed=1, dt=DT,
                           epoch_s=30.0, batch=batch)
        assert shard.window_ticks == 300
        tenant = Tenant(TenantSpec(tenant="t", scenario="anl-uc",
                                   tuner="cd", seed=0, epochs=10))
        shard.attach(tenant)
        session = shard.session("t")
        while shard.active:
            shard.step_epoch()
        assert tenant.state == COMPLETED
        _assert_exact(session.trace)
        traces.append(session.trace)
        if batch:
            # A tenant alone on its shard keeps each restart as a dead
            # prefix inside the span: one span per window.
            assert shard.lane_widths() == {1: 10}
    assert traces[0].epochs == traces[1].epochs
    assert traces[0].steps == traces[1].steps


@pytest.mark.parametrize("dt", [0.1, 0.2])
def test_restart_capped_on_the_step_grid_moves_no_negative_bytes(dt):
    """A retry backoff that reaches the 27.0 s restart cap: at dt 0.1 and
    0.2 the remainder of ``divmod(27.0, dt)`` lies within float error of
    a whole step, which is one more dead step, not a ~1e-15 s lead step
    whose slow-start ramp cancels to a negative rate."""
    def engine(fast_path):
        return _engine(fast_path, dt=dt, seed=0, load=ExternalLoad(),
                       fault_schedule=FaultSchedule.blackout(1, 6),
                       retry_policy=RetryPolicy())

    ref = engine(False).run()["main"]
    assert min(step.bytes_moved for step in ref.steps) >= 0.0
    assert len(ref.epochs) == 10
    fast = engine(True).run()["main"]
    lane = BatchEngine([engine(True)]).run()[0]["main"]
    for trace in (fast, lane):
        assert trace.epochs == ref.epochs
        assert trace.steps == ref.steps


def test_begin_restart_folds_a_whole_step_remainder():
    session = make_session("main", ANL_UC.main_path, make_tuner("cd", 0),
                           duration_s=DURATION)
    session.bind_dt(DT)
    session.begin_restart(27.0)  # divmod: (269.0, 0.0999999999999985)
    assert (session.dead_ticks, session.lead_s) == (270, 0.0)
    session.begin_restart(2.55)  # an ordinary remainder stays the lead
    assert session.dead_ticks == 25
    assert 0.0 < session.lead_s < DT


def _fleet(dt: float, batch: bool) -> FleetService:
    fleet = FleetService(seed=3, dt=dt, epoch_s=30.0, batch=batch)
    tuners = ("cd", "cs", "gss", "nm")
    for i in range(8):
        fleet.submit({"tenant": f"f{i}",
                      "scenario": ("anl-uc", "anl-tacc")[i % 2],
                      "tuner": tuners[i % 4], "seed": i,
                      "epochs": 3 + i % 2})
    fleet.drive()
    return fleet


@pytest.mark.parametrize("dt", [0.1, 0.3])
def test_fleet_serves_non_dyadic_step_sizes(dt):
    batched, scalar = _fleet(dt, True), _fleet(dt, False)
    assert batched.status()["fusion"]["rounds"] > 0
    for name, tenant in batched.tenants.items():
        assert tenant.state == COMPLETED
        assert len(tenant.records) == tenant.spec.epochs
        assert {r.duration for r in tenant.records} == {30.0}
        assert tenant.records == scalar.tenants[name].records, name


def test_fleet_rejects_an_epoch_that_is_not_whole_steps():
    with pytest.raises(ValueError, match="multiple of dt"):
        FleetService(dt=0.7, epoch_s=30.0)
