"""One fleet shard: a shared substrate advancing many tenant sessions.

A :class:`FleetShard` owns one :class:`~repro.sim.engine.Engine` built
from a named scenario — one fluid network + endpoint CPU model that all
of the shard's tenants contend on (competing traffic is *endogenous*:
every tenant is a real session in the max-min allocation, not an
``ext.tfr`` knob).  Tenant sessions are driverless at the engine level;
the engine dispatches every closed control epoch to the shard's
``epoch_sink``, where the shard feeds the tenant's own tuner under the
robustness ladder:

1. faulted / obs-lost epochs never reach the tuner (the fault-aware
   invariant, as in :class:`repro.core.monitor.FaultFilterMonitor`);
2. poisoned observations (NaN/inf/negative) are quarantined: counted,
   added to the tenant's skip set (so restarts withhold them again),
   and the parameters held;
3. the tuner call runs under the tenant's op deadline
   (:class:`~repro.service.backpressure.OpGuard`); a crash or overrun
   is caught *here* — it never propagates into the engine step loop —
   and a supervised tenant is restarted from its epoch records with
   bit-identical tuner state (:mod:`repro.service.supervisor`);
4. a standing steer override replaces the proposal (after the tuner
   observed the epoch, so replay stays aligned).

Because a rebuild consumes no engine RNG draws and the sink's proposal
is deterministic, a crashed-and-restarted tenant's trajectory — epochs
AND steps — is identical to an uninterrupted twin's.
"""

from __future__ import annotations

import math
import time
from collections import Counter

from repro.endpoint.load import ExternalLoad, LoadSchedule
from repro.experiments.batch import BatchOccupancy
from repro.faults.schedule import FaultSchedule
from repro.gridftp.transfer import TransferSpec
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.service.backpressure import OpGuard
from repro.service.fusion import advance_fused
from repro.service.supervisor import Supervisor
from repro.service.tenant import COMPLETED, FAILED, RUNNING, Tenant
from repro.sim.batch.shard import ShardSpanEngine
from repro.sim.clock import SimClock
from repro.sim.engine import Engine, EngineConfig
from repro.sim.session import TransferSession
from repro.sim.trace import EpochRecord


class InjectedCrash(RuntimeError):
    """A chaos-scheduled tenant crash (storm tests)."""


class FleetShard:
    """All tenants of one scenario on one shared engine."""

    def __init__(
        self,
        scenario,
        *,
        seed: int = 0,
        dt: float = 1.0,
        epoch_s: float = 30.0,
        metrics: MetricsRegistry | None = None,
        supervisor: Supervisor | None = None,
        load: LoadSchedule | None = None,
        clock=time.perf_counter,
        batch: bool = True,
    ) -> None:
        if epoch_s <= 0:
            raise ValueError("epoch_s must be a positive multiple of dt")
        #: Steps per control-epoch window (``epoch_s`` in whole steps).
        self.window_ticks = SimClock(dt).ticks_for(epoch_s)
        self.scenario = scenario
        self.epoch_s = epoch_s
        self.metrics = metrics
        self.supervisor = supervisor if supervisor is not None else Supervisor()
        self._clock = clock
        self.engine = Engine(
            topology=scenario.build_topology(),
            host=scenario.host,
            sessions=[],
            schedule=(load if load is not None
                      else LoadSchedule.constant(ExternalLoad())),
            config=EngineConfig(dt=dt, seed=seed),
            epoch_sink=self._sink,
        )
        #: Whether epoch windows ride the vectorized span engine when
        #: every lane is eligible (bit-identical either way — the
        #: serial shard is the reference the equivalence tests pin).
        self.batch = batch
        self._span = ShardSpanEngine(self.engine) if batch else None
        #: Wall seconds per phase of this shard's solo batched windows
        #: (fused rounds are timed in the fleet's ``fusion`` stats).
        self._phase_s = {"span": 0.0, "close": 0.0, "dispatch": 0.0}
        self._batched = 0
        self._fallback = 0
        self._chunks = 0
        self._fused = 0
        self._latency_hist = (
            None if metrics is None else metrics.histogram(
                "repro_fleet_epoch_latency_seconds",
                LATENCY_BUCKETS_S,
                scenario=scenario.name,
            )
        )
        self.tenants: dict[str, Tenant] = {}
        self._sessions: dict[str, TransferSession] = {}
        #: Callback fired for every closed tenant epoch (fleet journal).
        self.on_epoch = None

    # -- membership ------------------------------------------------------

    @property
    def active(self) -> int:
        return len(self._sessions)

    def attach(self, tenant: Tenant) -> None:
        """Admit one tenant onto the shared substrate."""
        if tenant.name in self.tenants:
            raise ValueError(f"tenant {tenant.name!r} already on this shard")
        spec = TransferSpec(
            name=tenant.name,
            path_name=self.scenario.main_path,
            total_bytes=math.inf,
            max_duration_s=tenant.spec.epochs * self.epoch_s,
            epoch_s=self.epoch_s,
        )
        x0 = (tenant.driver.current if tenant.driver is not None
              else tenant.x0)
        session = TransferSession(
            spec,
            None,
            tenant.space,
            x0,
            param_map=tenant.param_map,
            restart_each_epoch=tenant.restart_each_epoch,
        )
        self.engine.add_session(session)
        self.tenants[tenant.name] = tenant
        self._sessions[tenant.name] = session
        tenant.state = RUNNING

    def session(self, name: str) -> TransferSession:
        return self._sessions[name]

    def mid_epoch(self) -> bool:
        """True while any active session is inside a control epoch."""
        return any(s.epoch_ticks for s in self._sessions.values())

    # -- stepping --------------------------------------------------------

    def step_epoch(self) -> list[Tenant]:
        """Advance the substrate one control-epoch window; returns the
        tenants that reached a terminal state this round.

        With batching on, the whole window runs on
        :class:`ShardSpanEngine` spans through the window driver
        :func:`~repro.service.fusion.advance_fused` (bit-identical
        epochs AND steps to the scalar loop, blackouts included: a
        fault scales only its own session's rate).  ``batch=False``
        steps the scalar loop — the reference shard."""
        if self.active:
            steps = self.window_ticks
            if self.batch:
                stats = advance_fused([self], steps)
                for phase, secs in stats["phase_s"].items():
                    self._phase_s[phase] += secs
                self._batched += self.active
                self._chunks += 1
                path = "batched"
            else:
                for _ in range(steps):
                    self.engine.step_once()
                self._fallback += self.active
                path = "scalar"
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_fleet_epochs_total",
                    scenario=self.scenario.name, path=path,
                ).inc(float(self.active))
        return self.reap()

    def fusible(self) -> bool:
        """Whether this window can join a cross-shard fused advance:
        batching on and at least one active lane."""
        return self.batch and self.active > 0

    def note_fused_window(self) -> list[Tenant]:
        """Account one window the fleet's fused driver already advanced
        (repro.service.fusion) and retire finished tenants — the fused
        sibling of :meth:`step_epoch`'s bookkeeping tail."""
        lanes = self.active
        self._batched += lanes
        self._fused += lanes
        self._chunks += 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_fleet_epochs_total",
                scenario=self.scenario.name, path="fused",
            ).inc(float(lanes))
        return self.reap()

    # -- batching introspection ------------------------------------------

    def occupancy(self) -> BatchOccupancy:
        """Tenant-epochs served by each path since shard start."""
        return BatchOccupancy(
            batched=self._batched,
            fallback=self._fallback,
            chunks=self._chunks,
        )

    def lane_widths(self) -> dict[int, int]:
        """Realized span-width distribution: {live lanes -> spans}."""
        if self._span is None:
            return {}
        return dict(self._span.lane_widths)

    def fused_epochs(self) -> int:
        """Tenant-epochs served through cross-shard fused windows (a
        subset of the batched count)."""
        return self._fused

    def phase_seconds(self) -> dict[str, float]:
        """Wall seconds per phase (span advance, epoch close, tuner
        dispatch) of this shard's solo batched windows since shard
        start; fused windows are timed in the fleet's fusion stats."""
        if self._span is None:
            return {}
        return dict(self._phase_s)

    def dispatch_groups(self) -> dict[str, int]:
        """Active tenants per homogeneous dispatch group ("ladder" =
        tenants that must take the full per-epoch dispatch ladder)."""
        groups: Counter = Counter()
        for name in self._sessions:
            key = self.tenants[name].dispatch_group
            label = "ladder" if key is None else "/".join(map(str, key))
            groups[label] += 1
        return dict(groups)

    def reap(self) -> list[Tenant]:
        """Retire finished sessions from the engine."""
        finished: list[Tenant] = []
        for name in [n for n, s in self._sessions.items() if s.done]:
            session = self._sessions.pop(name)
            self.engine.remove_session(name)
            tenant = self.tenants[name]
            # The engine never dispatches a done session's final epoch
            # (no tuner observes it — same contract as driver-owned
            # sessions); harvest it from the trace so the tenant's
            # record journal holds the complete history.
            for rec in session.trace.epochs[len(tenant.records):]:
                tenant.records.append(rec)
                if self.on_epoch is not None:
                    self.on_epoch(tenant, rec)
            if not tenant.terminal:
                tenant.finish(COMPLETED, "epoch-budget-reached")
            finished.append(tenant)
        return finished

    def cancel(self, name: str, reason: str = "cancelled") -> None:
        """Stop a running tenant; its session is retired on the next
        reap (the engine only removes finished sessions)."""
        session = self._sessions.get(name)
        if session is not None:
            session.failed = True

    def inject_blackout(self, duration_epochs: int = 1) -> None:
        """Black out every active session for the next
        ``duration_epochs`` control epochs (each session's *own* next
        epoch — the shard-outage drill of the acceptance storm)."""
        if duration_epochs < 1:
            raise ValueError("duration_epochs must be >= 1")
        for session in self._sessions.values():
            black = FaultSchedule.blackout(
                session.epoch_index, duration_epochs
            )
            session.fault_schedule = (
                black if session.fault_schedule is None
                else session.fault_schedule.merge(black)
            )

    # -- the epoch sink (runs inside the engine's dispatch) --------------

    def _sink(
        self, session: TransferSession, rec: EpochRecord
    ) -> tuple[int, ...] | None:
        tenant = self.tenants[session.name]
        t0 = self._clock()
        try:
            proposal = self._dispatch(tenant, rec)
        except Exception as exc:  # absolute backstop: isolate the shard
            tenant.finish(FAILED, f"dispatch-error: {type(exc).__name__}")
            session.failed = True
            proposal = None
        finally:
            if self._latency_hist is not None:
                self._latency_hist.observe(max(0.0, self._clock() - t0))
        tenant.records.append(rec)
        tenant.updates.push({
            "epoch": rec.index,
            "params": list(rec.params),
            "observed_mbps": rec.observed,
            "faulted": rec.faulted,
        })
        if self.on_epoch is not None:
            self.on_epoch(tenant, rec)
        if proposal is not None and not tenant.space.contains(proposal):
            proposal = tenant.space.fbnd(proposal)
        return proposal

    def _dispatch(
        self, tenant: Tenant, rec: EpochRecord
    ) -> tuple[int, ...] | None:
        # Homogeneous fast path: a clean epoch of a grouped tenant (no
        # chaos, no deadline, no pin, no standing steer) feeds the
        # tuner directly — semantically identical to the ladder below,
        # which for exactly this case reduces to an inline
        # ``driver.observe`` under ``OpGuard(None)`` with the same
        # crash recovery.  NaN observations fail the ``>= 0.0`` guard
        # and fall through to the quarantine arm of the ladder.
        if (rec.tuned
                and not tenant.terminal
                and tenant.steer_override is None
                and tenant.dispatch_group is not None
                and rec.observed >= 0.0
                and math.isfinite(rec.observed)):
            try:
                return tenant.driver.observe(rec.observed)
            except Exception as exc:
                return self._recover(tenant, rec, rec.observed, exc)
        return self._dispatch_ladder(tenant, rec)

    def _dispatch_ladder(
        self, tenant: Tenant, rec: EpochRecord
    ) -> tuple[int, ...] | None:
        if not rec.tuned:
            # Faulted or obs-lost: the tuner observes nothing and the
            # engine's recovery ladder holds the parameters.
            tenant.faulted_epochs += 1
            return None
        if tenant.degraded or tenant.driver is None or tenant.terminal:
            return None  # pinned (or already failed): hold

        observed = rec.observed
        chaos = tenant.chaos
        if chaos is not None and rec.index in chaos.poison_epochs:
            observed = float("nan")
        if not math.isfinite(observed) or observed < 0:
            # Poisoned observation: quarantined, never fed to the tuner.
            tenant.quarantined += 1
            tenant.skipped.add(rec.index)
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_fleet_quarantined_total",
                    scenario=self.scenario.name,
                ).inc()
            return self._steered(tenant, None)

        def feed() -> tuple[int, ...]:
            if (chaos is not None and rec.index in chaos.crash_epochs
                    and rec.index not in tenant.skipped):
                raise InjectedCrash(f"chaos crash at epoch {rec.index}")
            return tenant.driver.observe(observed)

        guard = OpGuard(tenant.spec.op_deadline_s)
        try:
            proposal = guard.call(f"tuner-observe[{tenant.name}]", feed)
        except Exception as exc:
            proposal = self._recover(tenant, rec, observed, exc)
        return self._steered(tenant, proposal)

    def _recover(
        self,
        tenant: Tenant,
        rec: EpochRecord,
        observed: float,
        exc: Exception,
    ) -> tuple[int, ...] | None:
        """A tuner crash/deadline overrun: quarantine, then either a
        supervised journal restart or a recorded failure."""
        if not tenant.spec.supervised:
            tenant.finish(FAILED, f"tuner-crash: {type(exc).__name__}")
            self._sessions[tenant.name].failed = True
            return None
        try:
            # Rebuild from the records *before* this epoch (the current
            # one is appended after dispatch), then feed it the current
            # observation: the fresh driver lands in the bit-identical
            # state an uninterrupted tuner would hold.
            self.supervisor.restart(tenant)
            proposal = tenant.driver.observe(observed)
        except Exception as rexc:
            tenant.finish(FAILED, f"restart-failed: {type(rexc).__name__}")
            self._sessions[tenant.name].failed = True
            return None
        if self.metrics is not None:
            self.metrics.counter(
                "repro_fleet_restarts_total", scenario=self.scenario.name,
            ).inc()
        return proposal

    @staticmethod
    def _steered(
        tenant: Tenant, proposal: tuple[int, ...] | None
    ) -> tuple[int, ...] | None:
        if tenant.steer_override is not None:
            proposal = tenant.steer_override
            tenant.steer_override = None
            tenant.steered = True
        return proposal
