"""Which engine configurations the span kernel can express.

The span kernel (:mod:`repro.sim.batch.shard`) advances batch lanes —
single-session, duration-limited runs (:mod:`repro.sim.batch.engine`) —
and fleet-shard windows in lockstep.  A batch run the kernel cannot
express falls back to its own scalar engine
(:func:`unbatchable_reason`), so a mixed population always completes
with bit-identical results.  Fleet shards need no check: every session
:meth:`~repro.service.shard.FleetShard.attach` builds moves infinite
bytes for a bounded duration with no disk cap, and fault schedules
(blackouts included) ride the kernel.
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
    mid-epoch state the span solver does not model (joint controllers,
    sink-driven tenants, journals, live instrumentation).  Fault
    schedules, retry policies and circuit breakers *are* supported: a
    fault only scales its own session's per-step rate (one more factor
    in the span chain), and recovery acts inside the epoch dispatch,
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
    if not math.isinf(s.spec.total_bytes):
        return "finite-bytes transfer"
    if s.spec.max_duration_s is None:
        return "unbounded duration"
    if s.disk_cap_fn is not None:
        return "disk-cap model"
    return None


#: Reasons a lane's window-end dispatch steps its scalar generator
#: instead of riding a tuner population (repro.sim.batch.dispatch).
#: Unlike the batch reasons above these are advisory per *lane*:
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
