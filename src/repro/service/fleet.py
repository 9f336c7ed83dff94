"""The fleet service: submit/observe/steer/cancel over shared shards.

A :class:`FleetService` composes the pieces into one long-running
tuning service:

* one :class:`~repro.service.shard.FleetShard` per named scenario
  (tenants are sharded by the path/endpoint they transfer over);
* one :class:`~repro.service.admission.AdmissionController` in front
  (bounded queue, token-bucket admit rate, shed-with-reason, and a
  sustained-overload breaker that pins late admits to the safe Globus
  default);
* a :class:`~repro.service.supervisor.Supervisor` restarting crashed
  supervised tenants bit-identically from their epoch records;
* fleet Prometheus metrics
  (``repro_fleet_{tenants,admitted,shed,restarts,breaker_transitions}_total``
  plus the ``repro_fleet_epoch_latency_seconds`` histogram) and an
  optional append-only epoch journal
  (:class:`~repro.checkpoint.journal.JournalWriter`) that
  ``repro top --follow`` can watch live.

Time advances in **pump rounds**: one round admits from the queue,
advances every shard by one control-epoch span, retires finished
tenants, and feeds the overload breaker.  Between rounds every session
sits exactly on an epoch boundary, which is what makes
:meth:`FleetService.drain` cheap: finish the round, shed the queue
with a recorded reason, journal final statuses, exit 0.

The service itself is single-threaded and deterministic (same seeds,
same submit order → bit-identical tenant trajectories); the HTTP layer
(:mod:`repro.service.http`) serializes access with one lock.
"""

from __future__ import annotations

from pathlib import Path

from repro.checkpoint.journal import JournalWriter
from repro.experiments.scenarios import SCENARIOS
from repro.obs.metrics import MetricsRegistry
from repro.service.admission import REASON_DRAINING, AdmissionController
from repro.service.fusion import advance_fused
from repro.service.shard import FleetShard
from repro.service.supervisor import Supervisor
from repro.service.tenant import (
    CANCELLED,
    DRAINED,
    QUEUED,
    SHED,
    Tenant,
    TenantChaos,
    TenantSpec,
)

#: Fleet epoch default: much shorter than the paper's 30 s control epoch
#: — a service round, not a GridFTP relaunch cadence; tests override it.
DEFAULT_EPOCH_S = 30.0


class FleetService:
    """A multi-tenant tuning fleet over shared simulated substrates."""

    def __init__(
        self,
        scenarios: dict | None = None,
        *,
        capacity: int = 64,
        queue_limit: int = 128,
        admit_rate: float | None = None,
        burst: float = 8.0,
        seed: int = 0,
        dt: float = 1.0,
        epoch_s: float = DEFAULT_EPOCH_S,
        journal_path: str | Path | None = None,
        metrics: MetricsRegistry | None = None,
        batch: bool = True,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.supervisor = Supervisor()
        self.admission = AdmissionController(
            capacity=capacity, queue_limit=queue_limit,
            admit_rate=admit_rate, burst=burst,
        )
        self.admission.breaker.on_transition = self._on_breaker
        self.epoch_s = epoch_s
        self.batch = batch
        self._fusion_stats: dict = {
            "rounds": 0, "epochs": 0, "chains": 0, "rows": 0,
            "widths": {},
            "phase_s": {"span": 0.0, "close": 0.0, "dispatch": 0.0},
        }
        scn = scenarios if scenarios is not None else dict(SCENARIOS)
        if not scn:
            raise ValueError("need at least one scenario shard")
        self.shards: dict[str, FleetShard] = {}
        for i, (name, scenario) in enumerate(sorted(scn.items())):
            shard = FleetShard(
                scenario, seed=seed + i, dt=dt, epoch_s=epoch_s,
                metrics=self.metrics, supervisor=self.supervisor,
                batch=batch,
            )
            shard.on_epoch = self._on_epoch
            self.shards[name] = shard
        #: Every tenant ever admitted (running and terminal).
        self.tenants: dict[str, Tenant] = {}
        #: Chaos staged for queued tenants (applied at admit time).
        self._pending_chaos: dict[str, TenantChaos | None] = {}
        #: Every submit's decision doc, by tenant — the shed-reason
        #: record the acceptance storm audits.
        self.decisions: dict[str, dict] = {}
        self.round = 0
        self.drained = False
        self.journal: JournalWriter | None = None
        if journal_path is not None:
            self.journal = JournalWriter(journal_path)
            self.journal.write_header({
                "service": "fleet",
                "scenarios": sorted(self.shards),
                "capacity": capacity,
                "queue_limit": queue_limit,
                "epoch_s": epoch_s,
                "seed": seed,
                "batch": batch,
            })

    # -- internal hooks --------------------------------------------------

    @property
    def now_s(self) -> float:
        """Fleet time: rounds completed so far, in epoch seconds."""
        return self.round * self.epoch_s

    def _on_breaker(self, old: str, new: str) -> None:
        self.metrics.counter(
            "repro_fleet_breaker_transitions_total", to=new
        ).inc()
        if self.journal is not None:
            self.journal.write_section(
                "admission-breaker", {"old": old, "new": new,
                                      "round": self.round}
            )

    def _on_epoch(self, tenant: Tenant, rec) -> None:
        if self.journal is not None:
            self.journal.write_epoch(tenant.name, rec, [])

    # -- the public API --------------------------------------------------

    def submit(
        self,
        spec: TenantSpec | dict,
        *,
        chaos: TenantChaos | None = None,
    ) -> dict:
        """Admit/queue/shed one tenant; returns the decision doc."""
        if isinstance(spec, dict):
            spec = TenantSpec.from_dict(spec)
        if self.drained:
            return self._record_shed(spec, REASON_DRAINING)
        if spec.tenant in self.decisions:
            doc = {"tenant": spec.tenant, "admitted": False,
                   "queued": False, "degraded": False,
                   "reason": "duplicate-tenant"}
            self.metrics.counter(
                "repro_fleet_shed_total", reason="duplicate-tenant"
            ).inc()
            return doc
        if spec.scenario not in self.shards:
            raise ValueError(
                f"unknown scenario {spec.scenario!r}; shards: "
                f"{sorted(self.shards)}"
            )
        self.metrics.counter("repro_fleet_tenants_total").inc()
        decision = self.admission.submit(spec, self.now_s)
        doc = decision.to_dict()
        self.decisions[spec.tenant] = doc
        if decision.admitted:
            self._admit(spec, decision.degraded, chaos)
        elif decision.queued:
            self._pending_chaos[spec.tenant] = chaos
        else:
            self.metrics.counter(
                "repro_fleet_shed_total", reason=decision.reason
            ).inc()
        return doc

    def _record_shed(self, spec: TenantSpec, reason: str) -> dict:
        doc = {"tenant": spec.tenant, "admitted": False, "queued": False,
               "degraded": False, "reason": reason}
        self.decisions[spec.tenant] = doc
        self.metrics.counter("repro_fleet_shed_total", reason=reason).inc()
        return doc

    def _admit(
        self, spec: TenantSpec, degraded: bool, chaos: TenantChaos | None
    ) -> Tenant:
        tenant = Tenant(spec, degraded=degraded, chaos=chaos)
        self.tenants[spec.tenant] = tenant
        self.shards[spec.scenario].attach(tenant)
        self.metrics.counter(
            "repro_fleet_admitted_total",
            mode="degraded" if degraded else "normal",
        ).inc()
        if self.journal is not None:
            self.journal.write_section("admit", {
                "tenant": spec.tenant, "round": self.round,
                "degraded": degraded, "spec": spec.to_dict(),
            })
        return tenant

    def observe(self, name: str) -> dict:
        """Current status document for one tenant."""
        tenant = self.tenants.get(name)
        if tenant is not None:
            return tenant.status()
        decision = self.decisions.get(name)
        if decision is None:
            raise KeyError(f"unknown tenant {name!r}")
        if decision.get("queued") and not self.drained:
            return {"tenant": name, "state": QUEUED,
                    "reason": "", "epochs_done": 0}
        return {"tenant": name, "state": SHED,
                "reason": decision.get("reason", ""), "epochs_done": 0}

    def steer(self, name: str, params) -> dict:
        """Override the tenant's next clean-epoch parameters (operator
        intervention; the tuner still observes the epoch, so restarts
        stay replay-consistent)."""
        tenant = self._live_tenant(name)
        if tenant.degraded:
            raise ValueError(f"tenant {name!r} is degraded-pinned")
        override = tenant.space.fbnd(tuple(int(v) for v in params))
        tenant.steer_override = override
        if self.journal is not None:
            self.journal.write_section("steer", {
                "tenant": name, "round": self.round,
                "params": list(override),
            })
        return {"tenant": name, "params": list(override)}

    def cancel(self, name: str) -> dict:
        """Stop a queued or running tenant (reason recorded)."""
        tenant = self.tenants.get(name)
        if tenant is None:
            # Maybe still queued (no Tenant built yet).
            for spec in list(self.admission.queue):
                if spec.tenant == name:
                    self.admission.queue.remove(spec)
                    self._pending_chaos.pop(name, None)
                    self.decisions[name] = {
                        "tenant": name, "admitted": False, "queued": False,
                        "degraded": False, "reason": "cancelled",
                    }
                    return {"tenant": name, "state": CANCELLED}
            raise KeyError(f"unknown tenant {name!r}")
        if tenant.terminal:
            return {"tenant": name, "state": tenant.state}
        tenant.finish(CANCELLED, "cancel-requested")
        self.shards[tenant.spec.scenario].cancel(name)
        if self.journal is not None:
            self.journal.write_section("cancel", {
                "tenant": name, "round": self.round,
            })
        return {"tenant": name, "state": CANCELLED}

    def _live_tenant(self, name: str) -> Tenant:
        tenant = self.tenants.get(name)
        if tenant is None:
            raise KeyError(f"unknown (or not yet admitted) tenant {name!r}")
        if tenant.terminal:
            raise ValueError(f"tenant {name!r} is {tenant.state}")
        return tenant

    # -- driving ---------------------------------------------------------

    def pump(self) -> dict:
        """One service round: promote from the queue, advance every
        shard one control epoch, retire finished tenants, feed the
        overload breaker.

        With batching on, every shard with active tenants joins one
        cross-shard fused advance (same dt and window length by
        construction, so their clocks stay compatible); a lone active
        shard takes its own :meth:`FleetShard.step_epoch` path.  Either
        way each shard's trajectory is bit-identical — shards share no
        state and no RNG streams."""
        if self.drained:
            raise RuntimeError("fleet already drained")
        for spec, degraded in self.admission.promote(self.now_s):
            self._admit(spec, degraded, self._pending_chaos.pop(
                spec.tenant, None))
        finished: list[Tenant] = []
        fused = [sh for sh in self.shards.values() if sh.fusible()]
        if len(fused) < 2:
            fused = []  # nothing to amortize across
        if fused:
            stats = advance_fused(fused, fused[0].window_ticks)
            self._note_fusion(stats, fused)
            for shard in fused:
                finished.extend(shard.note_fused_window())
        skip = {id(sh) for sh in fused}
        for shard in self.shards.values():
            if id(shard) in skip:
                continue
            finished.extend(shard.step_epoch())
        if finished:
            self.admission.release(len(finished))
        self.admission.end_round()
        self.round += 1
        return {
            "round": self.round,
            "active": self.active_count(),
            "queued": self.admission.queued(),
            "finished": [t.name for t in finished],
        }

    def _note_fusion(self, stats: dict, shards: list) -> None:
        f = self._fusion_stats
        f["rounds"] += 1
        f["epochs"] += sum(sh.active for sh in shards)
        f["chains"] += stats["chains"]
        f["rows"] += stats["rows"]
        for w, n in stats["widths"].items():
            f["widths"][w] = f["widths"].get(w, 0) + n
        for key, v in stats["phase_s"].items():
            f["phase_s"][key] += v

    def drive(self, max_rounds: int = 10_000) -> int:
        """Pump until every admitted tenant is terminal and the queue is
        empty; returns the number of rounds run."""
        start = self.round
        while (self.active_count() or self.admission.queued()):
            if self.round - start >= max_rounds:
                raise RuntimeError(
                    f"fleet did not settle within {max_rounds} rounds"
                )
            self.pump()
        return self.round - start

    def active_count(self) -> int:
        return sum(shard.active for shard in self.shards.values())

    def inject_blackout(self, scenario: str, duration_epochs: int = 1) -> None:
        """Black out one shard (acceptance-storm drill)."""
        self.shards[scenario].inject_blackout(duration_epochs)

    # -- shutdown --------------------------------------------------------

    def drain(self) -> dict:
        """Graceful shutdown: stop admitting, shed the queue with a
        recorded reason, finish in-flight epochs, journal final
        statuses.  Idempotent."""
        if self.drained:
            return {"drained": 0, "shed": 0}
        for spec in self.admission.drain():
            self._pending_chaos.pop(spec.tenant, None)
            self._record_shed(spec, REASON_DRAINING)
        # Between rounds every session sits on an epoch boundary; if a
        # caller drains mid-round (a signal landed inside pump), finish
        # the in-flight epochs first.
        drained = 0
        for shard in self.shards.values():
            while shard.mid_epoch():
                shard.engine.step_once()
            shard.reap()
            for tenant in shard.tenants.values():
                if not tenant.terminal:
                    tenant.finish(DRAINED, "service-drained")
                    drained += 1
        self.admission.release(drained)
        self.drained = True
        if self.journal is not None:
            self.journal.write_section("drain", {
                "round": self.round,
                "tenants": {t.name: t.status()
                            for t in self.tenants.values()},
            })
            self.journal.write_end()
            self.journal.close()
        shed = sum(1 for d in self.decisions.values()
                   if d.get("reason") == REASON_DRAINING)
        return {"drained": drained, "shed": shed}

    # -- introspection ---------------------------------------------------

    def status(self) -> dict:
        """Fleet-level status document."""
        states: dict[str, int] = {}
        for tenant in self.tenants.values():
            states[tenant.state] = states.get(tenant.state, 0) + 1
        latency = None
        fam = self.metrics.collect().get(
            "repro_fleet_epoch_latency_seconds", {})
        hists = list(fam.values())
        if hists:
            merged = hists[0]
            for h in hists[1:]:
                merged = merged.merge(h)
            latency = {"p50_s": merged.quantile(0.5),
                       "p99_s": merged.quantile(0.99),
                       "count": merged.count}
        return {
            "round": self.round,
            "drained": self.drained,
            "active": self.active_count(),
            "queued": self.admission.queued(),
            "degrading": self.admission.degrading,
            "breaker": self.admission.breaker.state,
            "states": states,
            "restarts": self.supervisor.restarts,
            "epoch_latency": latency,
            "shards": {name: shard.active
                       for name, shard in self.shards.items()},
            "batch": {
                name: {
                    "enabled": shard.batch,
                    "occupancy": shard.occupancy().to_dict(),
                    "fused_epochs": shard.fused_epochs(),
                    "lane_widths": {
                        str(w): n
                        for w, n in sorted(shard.lane_widths().items())
                    },
                    "dispatch_groups": shard.dispatch_groups(),
                    "phase_s": shard.phase_seconds(),
                }
                for name, shard in self.shards.items()
            },
            "fusion": {
                "rounds": self._fusion_stats["rounds"],
                "epochs": self._fusion_stats["epochs"],
                "chains": self._fusion_stats["chains"],
                "rows": self._fusion_stats["rows"],
                "widths": {
                    str(w): n for w, n in
                    sorted(self._fusion_stats["widths"].items())
                },
                "phase_s": dict(self._fusion_stats["phase_s"]),
            },
        }

    def prometheus(self) -> str:
        return self.metrics.render_prometheus()
