"""Batched fleet shards: vectorized windows bit-identical to the scalar loop.

Every test here drives *twin shards* — one batched, one scalar — from
the same seed and asserts the strongest equivalence the substrate
offers: identical epoch records AND identical step traces, tenant by
tenant.  The batched path is an optimization, never a semantic.
"""

from repro.experiments.scenarios import SCENARIOS
from repro.faults import (
    BLACKOUT,
    LINK_DEGRADE,
    LOAD_SPIKE,
    OBS_LOSS,
    STREAM_CRASH,
    FaultSchedule,
)
from repro.service.shard import FleetShard
from repro.service.tenant import COMPLETED, Tenant, TenantChaos, TenantSpec

EPOCH_S = 5.0


def _shard(batch: bool, *, seed: int = 1) -> FleetShard:
    return FleetShard(SCENARIOS["anl-uc"], seed=seed, dt=1.0,
                      epoch_s=EPOCH_S, batch=batch)


def _tenant(name: str, *, epochs: int = 4, tuner: str = "cd",
            seed: int = 0, chaos: TenantChaos | None = None) -> Tenant:
    spec = TenantSpec(tenant=name, scenario="anl-uc", tuner=tuner,
                      seed=seed, epochs=epochs, supervised=True)
    return Tenant(spec, chaos=chaos)


def _attach_all(shard: FleetShard, tenants: list[Tenant]):
    """Attach and keep the substrate sessions (the shard reaps them on
    completion; the step traces must survive for comparison)."""
    sessions = {}
    for t in tenants:
        shard.attach(t)
        sessions[t.name] = shard.session(t.name)
    return sessions


def _drive(shard: FleetShard, max_rounds: int = 100) -> None:
    for _ in range(max_rounds):
        shard.step_epoch()
        if not shard.active:
            return
    raise AssertionError("shard did not settle")


def _assert_twins_equal(tenants_a, sessions_a, tenants_b, sessions_b):
    for x, y in zip(tenants_a, tenants_b):
        assert x.records == y.records, f"epoch records diverge: {x.name}"
        assert (sessions_a[x.name].trace.steps
                == sessions_b[y.name].trace.steps), (
            f"step traces diverge: {x.name}")
        assert x.state == y.state
        assert x.restarts == y.restarts


def _twin_storm(make_tenants, *, seed: int = 1):
    batched, scalar = _shard(True, seed=seed), _shard(False, seed=seed)
    ta, tb = make_tenants(), make_tenants()
    sa, sb = _attach_all(batched, ta), _attach_all(scalar, tb)
    _drive(batched)
    _drive(scalar)
    _assert_twins_equal(ta, sa, tb, sb)
    return batched, ta


class TestBatchedWindowEquivalence:
    def test_homogeneous_population_fully_batched(self):
        shard, tenants = _twin_storm(lambda: [
            _tenant(f"h{i}", epochs=4, seed=i) for i in range(8)
        ])
        assert all(t.state == COMPLETED for t in tenants)
        occ = shard.occupancy()
        assert occ.fallback == 0
        assert occ.batched > 0

    def test_heterogeneous_tuners_and_staggered_budgets(self):
        """Different tuners and epoch budgets per lane: lane membership
        shrinks as tenants finish, and every rebinned window stays
        bit-identical."""
        shard, _ = _twin_storm(lambda: [
            _tenant(f"t{i}", epochs=3 + (i % 3) * 2,
                    tuner=("cd", "nm", "spsa")[i % 3], seed=i)
            for i in range(8)
        ])
        # The population narrows 8 -> 5 -> 2 as budgets expire; each
        # width must have run at least one span.
        widths = shard.lane_widths()
        assert set(widths) == {8, 5, 2}
        assert shard.occupancy().fallback == 0

    def test_mid_storm_supervised_restart_rebinds_lanes(self):
        """A tenant crash at epoch 2 exercises the supervisor inside a
        batched storm — the restarted lane's replayed dispatch and the
        surviving lanes' windows all stay bit-identical."""
        shard, tenants = _twin_storm(lambda: [
            _tenant(f"c{i}", epochs=5, seed=i,
                    chaos=TenantChaos(crash_epochs=(2,)) if i == 3
                    else None)
            for i in range(8)
        ])
        assert tenants[3].restarts == 1
        assert all(t.state == COMPLETED for t in tenants)
        # The crash lives in the dispatch, not the window: every
        # window still vectorizes.
        assert shard.occupancy().fallback == 0


class TestMixedShardFallback:
    def test_blackout_falls_back_then_rebins(self):
        """A blackout scales only its own sessions' rates (the shared
        allocation reads no fault state), so the struck windows stay
        batched like every other — bit-identical throughout, nothing
        falls back to the scalar loop."""
        batched, scalar = _shard(True), _shard(False)
        ta = [_tenant(f"b{i}", epochs=5, seed=i) for i in range(8)]
        tb = [_tenant(f"b{i}", epochs=5, seed=i) for i in range(8)]
        sa, sb = _attach_all(batched, ta), _attach_all(scalar, tb)
        for rnd in range(100):
            if rnd == 2:
                batched.inject_blackout(1)
                scalar.inject_blackout(1)
            batched.step_epoch()
            scalar.step_epoch()
            if not batched.active and not scalar.active:
                break
        _assert_twins_equal(ta, sa, tb, sb)
        assert any(r.faulted for r in ta[0].records)
        occ = batched.occupancy()
        assert occ.fallback == 0
        assert occ.batched == scalar.occupancy().fallback

    def test_blackout_restart_crash_storm(self):
        """The kitchen sink: blackout round, a supervised crash, and
        staggered budgets in one shard."""
        batched, scalar = _shard(True, seed=3), _shard(False, seed=3)

        def mk():
            return [
                _tenant(f"m{i}", epochs=3 + (i % 2) * 3,
                        tuner=("cd", "nm")[i % 2], seed=i,
                        chaos=TenantChaos(crash_epochs=(1,)) if i == 0
                        else None)
                for i in range(6)
            ]

        ta, tb = mk(), mk()
        sa, sb = _attach_all(batched, ta), _attach_all(scalar, tb)
        for rnd in range(100):
            if rnd == 3:
                batched.inject_blackout(2)
                scalar.inject_blackout(2)
            batched.step_epoch()
            scalar.step_epoch()
            if not batched.active and not scalar.active:
                break
        _assert_twins_equal(ta, sa, tb, sb)
        assert ta[0].restarts == 1
        occ = batched.occupancy()
        assert occ.fallback == 0 and occ.batched > 0

    def test_bernoulli_campaigns_on_every_other_tenant(self):
        """Seeded campaigns of crashes, blackouts, lost measurements,
        degraded links and load spikes on every other tenant: faulted
        and clean lanes share every window, which stays batched."""
        kinds = (STREAM_CRASH, BLACKOUT, OBS_LOSS, LINK_DEGRADE, LOAD_SPIKE)

        def mk():
            return [_tenant(f"q{i}", epochs=8, seed=i,
                            tuner=("cd", "nm", "cs")[i % 3])
                    for i in range(6)]

        batched, scalar = _shard(True, seed=5), _shard(False, seed=5)
        ta, tb = mk(), mk()
        sa, sb = _attach_all(batched, ta), _attach_all(scalar, tb)
        for sessions in (sa, sb):
            for i, name in enumerate(sessions):
                if i % 2 == 0:
                    sessions[name].fault_schedule = FaultSchedule.bernoulli(
                        seed=i, n_epochs=8, fault_rate=0.5, kinds=kinds)
        _drive(batched)
        _drive(scalar)
        _assert_twins_equal(ta, sa, tb, sb)
        assert {r.fault for t in ta for r in t.records} >= {
            STREAM_CRASH, BLACKOUT, OBS_LOSS}
        occ = batched.occupancy()
        assert occ.fallback == 0
        assert occ.batched == scalar.occupancy().fallback


class TestCrossShardFusion:
    NAMES = ["anl-uc", "anl-tacc"]
    #: Tuners per shard.  "pairs": every shard's spans break at its
    #: tenants' dead ends.  "lone+shared": a tenant alone on its shard
    #: (restarts stay dead prefixes inside the span) fused with a
    #: three-tenant shard (spans break at each dead end).
    MIXES = {
        "pairs": {"anl-uc": ("cd", "nm"), "anl-tacc": ("cd", "nm")},
        "lone+shared": {"anl-uc": ("cd",),
                        "anl-tacc": ("cd", "nm", "cs")},
    }

    def _fleet(self, *, batch: bool = True, names=None, seed: int = 2,
               mix: str = "pairs"):
        from repro.service import FleetService

        names = self.NAMES if names is None else names
        fleet = FleetService(
            {n: SCENARIOS[n] for n in names}, seed=seed, dt=1.0,
            epoch_s=EPOCH_S, batch=batch,
        )
        i = 0
        for n in self.NAMES:
            for tuner in self.MIXES[mix][n]:
                i += 1
                if n in names:
                    fleet.submit({"tenant": f"f{i}", "scenario": n,
                                  "tuner": tuner, "seed": i,
                                  "epochs": 3 + (i % 2)})
        fleet.drive()
        return fleet

    def _assert_fused_matches_unfused_and_scalar(self, mix: str):
        fused = self._fleet(mix=mix)
        scalar = self._fleet(batch=False, mix=mix)
        # Unfused: each scenario alone in a singleton fleet (which never
        # fuses), seeded as the two-shard fleet seeds that shard
        # (sorted scenario order: anl-tacc, then anl-uc).
        plain = {}
        for offset, n in enumerate(sorted(self.NAMES)):
            solo = self._fleet(names=[n], seed=2 + offset, mix=mix)
            assert solo.status()["fusion"]["rounds"] == 0
            plain.update(solo.tenants)
        assert fused.status()["fusion"]["rounds"] > 0
        for name in fused.tenants:
            a = fused.tenants[name].records
            assert a == plain[name].records, name
            assert a == scalar.tenants[name].records, name
        return fused

    def test_fused_fleet_is_bit_identical_to_unfused_and_scalar(self):
        self._assert_fused_matches_unfused_and_scalar("pairs")

    def test_fused_lone_and_shared_shards_match_unfused_and_scalar(self):
        """One fused round holds both restart rules: the lone tenant's
        dead prefix and the shared shard's dead-end breaks."""
        fused = self._assert_fused_matches_unfused_and_scalar("lone+shared")
        batch = fused.status()["batch"]
        assert set(batch["anl-uc"]["lane_widths"]) == {"1"}
        assert "3" in batch["anl-tacc"]["lane_widths"]
        assert batch["anl-uc"]["fused_epochs"] > 0
        assert batch["anl-tacc"]["fused_epochs"] > 0

    def test_fusion_surfaces_in_status_and_metrics(self):
        fleet = self._fleet()
        doc = fleet.status()
        fusion = doc["fusion"]
        assert "enabled" not in fusion
        assert fusion["rounds"] > 0
        assert fusion["chains"] > 0
        assert fusion["rows"] >= fusion["chains"]
        # Chains stacked rows from both shards at least once.
        assert any(int(w) > 1 for w in fusion["widths"])
        assert set(fusion["phase_s"]) == {"span", "close", "dispatch"}
        assert all(v > 0.0 for v in fusion["phase_s"].values())
        for name in ("anl-uc", "anl-tacc"):
            block = doc["batch"][name]
            assert block["fused_epochs"] > 0
            assert block["occupancy"]["fallback"] == 0
            # Every window fused: fused rounds are timed once, in the
            # fleet's fusion stats, never on a shard's own clock.
            assert block["fused_epochs"] == block["occupancy"]["batched"]
            assert block["phase_s"] == {
                "span": 0.0, "close": 0.0, "dispatch": 0.0}
        text = fleet.prometheus()
        assert 'repro_fleet_epochs_total' in text
        assert 'path="fused"' in text

    def test_singleton_fleet_never_fuses(self):
        from repro.service import FleetService

        fleet = FleetService({"anl-uc": SCENARIOS["anl-uc"]}, seed=2,
                             dt=1.0, epoch_s=EPOCH_S)
        fleet.submit({"tenant": "solo", "scenario": "anl-uc",
                      "tuner": "cd", "seed": 0, "epochs": 2})
        fleet.drive()
        doc = fleet.status()
        assert doc["fusion"]["rounds"] == 0
        assert doc["fusion"]["phase_s"] == {
            "span": 0.0, "close": 0.0, "dispatch": 0.0}
        block = doc["batch"]["anl-uc"]
        assert block["fused_epochs"] == 0
        assert block["occupancy"]["batched"] > 0
        # Solo windows are timed on the shard's own clock, all phases.
        assert all(v > 0.0 for v in block["phase_s"].values())

    def test_blocked_shard_drops_out_of_fusion_then_rejoins(self):
        """A blackout on one shard no longer blocks it: both shards fuse
        every window, and trajectories match the never-fused twins
        throughout."""
        from repro.service import FleetService

        def build(batch):
            names = ["anl-uc", "anl-tacc"]
            fleet = FleetService({n: SCENARIOS[n] for n in names},
                                 seed=4, dt=1.0, epoch_s=EPOCH_S,
                                 batch=batch)
            for i, n in enumerate(names):
                for j in range(3):
                    fleet.submit({"tenant": f"x{i}{j}", "scenario": n,
                                  "tuner": "cd", "seed": 10 * i + j,
                                  "epochs": 5})
            for rnd in range(100):
                if rnd == 1:
                    fleet.inject_blackout("anl-uc", 1)
                fleet.pump()
                if not fleet.active_count():
                    break
            return fleet

        fused = build(True)
        scalar = build(False)
        for name in fused.tenants:
            assert (fused.tenants[name].records
                    == scalar.tenants[name].records), name
        assert any(r.faulted for r in fused.tenants["x00"].records)
        doc = fused.status()
        for block in doc["batch"].values():
            assert block["occupancy"]["fallback"] == 0
            assert block["fused_epochs"] == block["occupancy"]["batched"]


class TestOccupancySurface:
    def test_scalar_shard_reports_pure_fallback(self):
        shard = _shard(False)
        tenants = [_tenant(f"s{i}", epochs=2, seed=i) for i in range(3)]
        _attach_all(shard, tenants)
        _drive(shard)
        occ = shard.occupancy()
        assert occ.batched == 0
        assert occ.fallback > 0
        assert shard.lane_widths() == {}

    def test_dispatch_groups_label_active_tenants(self):
        shard = _shard(True)
        shard.attach(_tenant("g1", epochs=4, seed=0))
        shard.attach(_tenant("g2", epochs=4, seed=1))
        shard.step_epoch()
        groups = shard.dispatch_groups()
        assert sum(groups.values()) == 2
        assert len(groups) == 1  # same tuner/np/nc spec -> one group

    def test_fleet_status_exposes_batch_block(self):
        from repro.service import FleetService

        fleet = FleetService({"anl-uc": SCENARIOS["anl-uc"]}, seed=1,
                             dt=1.0, epoch_s=EPOCH_S)
        fleet.submit({"tenant": "s1", "scenario": "anl-uc", "tuner": "cd",
                      "seed": 0, "epochs": 2})
        fleet.drive()
        doc = fleet.status()
        assert doc["shards"] == {"anl-uc": 0}
        block = doc["batch"]["anl-uc"]
        assert block["enabled"] is True
        occ = block["occupancy"]
        assert occ["batched"] > 0 and occ["fallback"] == 0
        assert "fallback_reasons" not in block
        assert set(block["lane_widths"]) == {"1"}
        assert block["dispatch_groups"] == {}
