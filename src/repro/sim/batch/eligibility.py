"""Which engine configurations the span kernel can express.

The span kernel (:mod:`repro.sim.batch.shard`) advances batch lanes —
single-session, duration-limited runs (:mod:`repro.sim.batch.engine`) —
and fleet-shard windows in lockstep.  Everything it cannot express
falls back to the scalar engine: per run for a batch
(:func:`unbatchable_reason`), per window for a shard
(:func:`unbatchable_lane_reason`), so a mixed population always
completes with bit-identical results.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.sim.session import TransferSession


def unbatchable_reason(engine: "Engine") -> str | None:
    """Why ``engine`` cannot join a batch, or ``None`` if it can.

    The batch path expresses exactly the configuration space whose span
    structure is predictable from step arithmetic alone: one
    driver-owned session per engine, infinite bytes with a duration
    limit (completion cannot depend on the bytes moved), and no
    mid-epoch state the span solver does not model (fault schedules,
    joint controllers, sink-driven tenants, journals, live
    instrumentation).  Retry policies and circuit breakers *are*
    supported: with no faults they act only inside the epoch dispatch,
    where the span kernel calls the engine's own ``_dispatch_epoch``.
    """
    if engine._started:
        return "engine already started"
    if engine.controllers:
        return "joint controllers"
    if engine.epoch_sink is not None:
        return "sink-driven sessions"
    if engine.journal is not None:
        return "journaled run"
    if engine.obs is not None and engine.obs.active:
        return "instrumented run"
    if len(engine.sessions) != 1:
        return "multi-session substrate"
    s = engine.sessions[0]
    if s.driver is None:
        return "session has no tuner driver"
    if s.fault_schedule is not None:
        return "fault schedule"
    if not math.isinf(s.spec.total_bytes):
        return "finite-bytes transfer"
    if s.spec.max_duration_s is None:
        return "unbounded duration"
    if s.disk_cap_fn is not None:
        return "disk-cap model"
    return None


def unbatchable_lane_reason(session: "TransferSession") -> str | None:
    """Why one *substrate session* blocks its shard's batched window,
    or ``None`` if it can ride a vectorized span.

    A fleet shard's lanes share one engine, so this is the per-session
    analogue of :func:`unbatchable_reason`: anything whose mid-epoch
    behavior the span kernel does not model forces the *whole window*
    onto the scalar loop (sessions are coupled through the max-min
    allocation — one lane's fault changes every other lane's rate).  A fault
    schedule only blocks while it is still *active*: once every event
    lies behind the session's epoch index the schedule is inert (rate
    factor 1.0, no fault kinds) and the session rejoins the lanes —
    this is how blackout-struck shards rebin back to batched windows.
    """
    sched = session.fault_schedule
    if sched is not None and sched.last_epoch >= session.epoch_index:
        return "fault schedule"
    if session.retry_state is not None:
        return "retry policy"
    if session.breaker is not None:
        return "circuit breaker"
    if not math.isinf(session.spec.total_bytes):
        return "finite-bytes transfer"
    if session.spec.max_duration_s is None:
        return "unbounded duration"
    if session.disk_cap_fn is not None:
        return "disk-cap model"
    return None


#: Reasons a lane's window-end dispatch steps its scalar generator
#: instead of riding a tuner population (repro.sim.batch.dispatch).
#: Unlike the batch/window reasons above these are advisory per *lane*:
#: a dispatch-fallback lane still rides the vectorized spans — only its
#: proposals stay per-lane python.
DISPATCH_UNSUPPORTED = "dispatch:unsupported-tuner"
DISPATCH_RECOVERY = "dispatch:recovery-machinery"
DISPATCH_INSTRUMENTED = "dispatch:instrumented-run"
DISPATCH_LATE_JOIN = "dispatch:late-join"


def dispatch_fallback_reason(
    engine: "Engine", session: "TransferSession"
) -> str | None:
    """Why one lane's epoch dispatch cannot join a tuner population.

    Population dispatch replaces the scalar ladder's clean path
    (``driver.observe`` → ``_adopt``) with one ``(B,)``-array step, so
    it requires exactly the lanes on which the ladder is guaranteed to
    *take* the clean path every epoch: no retry/breaker/fault machinery
    (those consume extra RNG draws and can reroute the dispatch), no
    observability bus (the ladder emits per-dispatch tuner events), and
    a driver that knows its :class:`~repro.core.base.Tuner` so lanes can
    be grouped by class.  Lanes failing any test keep the scalar ladder,
    tallied once per lane under these reasons.
    """
    if engine.obs is not None:
        return DISPATCH_INSTRUMENTED
    if (session.retry_state is not None
            or session.breaker is not None
            or session.fault_schedule is not None):
        return DISPATCH_RECOVERY
    driver = session.driver
    if driver is None or getattr(driver, "tuner", None) is None:
        return DISPATCH_UNSUPPORTED
    return None
