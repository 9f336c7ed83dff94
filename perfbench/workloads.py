"""The in-process workloads: ``sweep``, ``campaign`` and ``observed``.

Each workload generates its inputs from the seed, then repeats one
*pass* over them for the measurement window.  A pass is what a user
runs once:

* ``sweep``    — ``run_many(specs, jobs=1, batch=64, cache=False)``
  (``repro run --reps N --batch``) over a fixed study;
* ``campaign`` — ``run_campaign(CampaignScale.full(seed), batch=64,
  cache=<fresh dir store>)`` into an empty cache, then again against
  the filled cache (``repro campaign --batch 64`` twice);
* ``observed`` — the sweep's tuners and loads one run at a time through
  ``run_journaled`` with ``Instrumentation.on()`` and a JSONL event log
  (``repro run --journal J --events E``), one run in four under a
  seeded fault schedule with retries and a circuit breaker.

Program calls go through module attributes (``batch.run_many``), never
names imported into this file, so the tracer's wrappers see them.
Passes are timed net of the time the program blocks in ``os.fsync``
(see :class:`harness.FsyncClock`); the wait and the number of calls are
kept beside each pass, and so is the factor that takes its time to the
reference host speed, from :class:`harness.HostSpeed` samples taken
just before and just after it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import FsyncClock, HostSpeed, Outcome

TUNERS = ("cd", "cs", "gss", "nm")
SCENARIO_NAMES = ("anl-uc", "anl-tacc")
#: Sweep loads; ``run_journaled`` takes constant loads only, so the
#: observed workload runs the varying schedule's first (heavier) phase.
SWEEP_LOADS = ("none", "cmp16", "varying")
OBSERVED_LOADS = ("none", "cmp16", "cmp16+tfr64")
DURATION_S = 1800.0
BATCH = 64
#: Seed replicates per sweep configuration: 24 configurations x 16 =
#: 384 runs, six full 64-lane chunks.
SWEEP_REPS = 16
#: Lanes per sweep pass compared against ``run_single``.
SWEEP_CHECK_LANES = 8
#: Observed runs under a fault schedule per 12-run pass: one in four.
OBSERVED_FAULTED = 3
OBSERVED_FAULT_RATE = 0.2


@dataclass
class PassResult:
    wall_s: float
    runs: int
    epochs: int
    fsyncs: int = 0
    fsync_s: float = 0.0
    #: Factor from this pass's times to the reference host speed.
    scale: float = 1.0
    extra: dict = field(default_factory=dict)

    @classmethod
    def between(cls, start: Mark, end: Mark, runs: int, epochs: int,
                host: tuple[float, float], extra: dict | None = None
                ) -> PassResult:
        """The pass from ``start`` to ``end``, with the host-speed
        samples taken just before and just after it."""
        return cls(end.t - start.t, runs, epochs, end.fsyncs - start.fsyncs,
                   end.fsync_s - start.fsync_s, HostSpeed.scale(host),
                   extra or {})

    @property
    def net_s(self) -> float:
        """Wall time less the time blocked in ``os.fsync``."""
        return self.wall_s - self.fsync_s

    @property
    def ref_s(self) -> float:
        """:attr:`net_s` at the reference host speed."""
        return self.net_s * self.scale


@dataclass(frozen=True)
class Mark:
    """A point in a pass: clock time and fsync tallies so far."""

    t: float
    fsyncs: int
    fsync_s: float


def _trace_digest(trace) -> str:
    """SHA-256 of the trace's canonical JSON (epochs AND steps): equal
    digests mean bit-identical traces, and a digest keeps the window's
    memory independent of how many runs it held."""
    from repro.sim.traceio import trace_to_dict

    doc = json.dumps(trace_to_dict(trace), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.choice(2**31 - 1, size=n, replace=False)]


class Workload:
    """One workload: inputs from a seed, a repeatable pass, checks."""

    name = ""
    #: Whether set-up probe processes also time a first (cold) pass.
    cold_pass_probed = True

    def __init__(self, seed: int, workdir: Path, fsync: FsyncClock,
                 speed: HostSpeed) -> None:
        self.seed = seed
        self.workdir = workdir
        self.fsync = fsync
        self.speed = speed
        self.rng = np.random.default_rng(seed)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), *self.fsync.read())

    def setup(self) -> dict:
        """Import the program, generate inputs; returns their summary."""
        raise NotImplementedError

    def run_pass(self, index: int, region=contextlib.nullcontext
                 ) -> PassResult:
        """One pass; ``region()`` wraps exactly the timed part."""
        raise NotImplementedError

    def check(self, outcome: Outcome) -> None:
        raise NotImplementedError

    def counters(self) -> dict:
        """Program counters read around a traced pass."""
        return {}

    def layer_counters(self, before: dict, after: dict) -> dict:
        """Per-layer metrics derived from counter deltas (``ctr``)."""
        return {}


# -- sweep -------------------------------------------------------------------


def _sweep_load(name: str):
    from repro.endpoint.load import ExternalLoad
    from repro.experiments import figures

    if name == "none":
        return None
    if name == "varying":
        return figures.varying_load_schedule(1000.0)
    return ExternalLoad.parse(name)


def batch_counters() -> dict:
    from repro.experiments import batch

    occ = batch.occupancy()
    t = batch.dispatch_timings()
    return {"occ": occ, "phase_s": dict(t["phase_s"]),
            "population_lanes": t["population_lanes"],
            "ladder_lanes": t["ladder_lanes"]}


def batch_layer(before: dict, after: dict) -> dict:
    occ = after["occ"] - before["occ"]
    pop = after["population_lanes"] - before["population_lanes"]
    lad = after["ladder_lanes"] - before["ladder_lanes"]
    phase = {k: after["phase_s"][k] - before["phase_s"][k]
             for k in after["phase_s"]}
    return {
        "sim.batch.span_s": phase["span"],
        "sim.batch.close_s": phase["close"],
        "sim.batch.dispatch_s": phase["dispatch"],
        "sim.batch.population_share": pop / (pop + lad) if pop + lad else 0.0,
        "sim.batch.fallback_share": occ.fallback_rate,
        "sim.batch.chunks": occ.chunks,
    }


class Sweep(Workload):
    name = "sweep"

    def setup(self) -> dict:
        from repro.core.registry import make_tuner
        from repro.experiments import batch
        from repro.experiments.scenarios import SCENARIOS

        configs = [(s, load, t) for s in SCENARIO_NAMES
                   for load in SWEEP_LOADS for t in TUNERS]
        seeds = _seeds(self.rng, len(configs) * SWEEP_REPS)
        self.specs = []
        for i, (scen, load, tuner) in enumerate(configs):
            for r in range(SWEEP_REPS):
                seed = seeds[i * SWEEP_REPS + r]
                self.specs.append(batch.SingleRunSpec(
                    scenario=SCENARIOS[scen], tuner=make_tuner(tuner, seed),
                    load=_sweep_load(load), duration_s=DURATION_S,
                    seed=seed,
                ))
        self.check_idx = sorted(int(i) for i in self.rng.choice(
            len(self.specs), size=SWEEP_CHECK_LANES, replace=False))
        self.checked: dict[int, str] = {}
        return {"runs_per_pass": len(self.specs), "batch": BATCH,
                "configs": len(configs), "reps": SWEEP_REPS,
                "duration_s": DURATION_S, "tuners": list(TUNERS),
                "loads": list(SWEEP_LOADS),
                "scenarios": list(SCENARIO_NAMES),
                "checked_lanes": self.check_idx}

    def run_pass(self, index: int, region=contextlib.nullcontext
                 ) -> PassResult:
        from repro.experiments import batch

        gc.collect()
        before = self.speed.sample()
        with region():
            start = self.mark()
            traces = batch.run_many(self.specs, jobs=1, batch=BATCH,
                                    cache=False)
            end = self.mark()
        host = (before, self.speed.sample())
        epochs = sum(len(t.epochs) for t in traces)
        if not self.checked:
            self.checked = {i: _trace_digest(traces[i])
                            for i in self.check_idx}
        n = len(traces)
        del traces
        return PassResult.between(start, end, n, epochs, host)

    def check(self, outcome: Outcome) -> None:
        from repro.experiments import runner

        for i, got in self.checked.items():
            s = self.specs[i]
            ref = runner.run_single(
                s.scenario, s.tuner, load=s.load, duration_s=s.duration_s,
                seed=s.seed, cache=False)
            outcome.check(_trace_digest(ref) == got,
                          f"sweep lane {i} differs from run_single")

    def counters(self) -> dict:
        return batch_counters()

    def layer_counters(self, before: dict, after: dict) -> dict:
        return batch_layer(before, after)


# -- campaign ----------------------------------------------------------------


CAMPAIGN_UNITS = ("fig1", "fig5-7", "tacc", "fig8", "fig9", "fig10", "fig11")


class Campaign(Workload):
    name = "campaign"
    cold_pass_probed = False  # every pair starts from an empty cache

    def setup(self) -> dict:
        from repro.cache.store import RunCache  # noqa: F401 - import cost
        from repro.experiments import campaign

        self.scale = campaign.CampaignScale.full(self.seed)
        self.documents: list[tuple[str, str]] = []
        self.results: list[tuple] = []
        self.stores: list = []
        self.runs = 0
        self.epochs = 0
        return {"scale": "full", "batch": BATCH,
                "duration_s": self.scale.duration_s,
                "fig1_duration_s": self.scale.fig1_duration_s,
                "fig1_reps": self.scale.fig1_reps,
                "units": list(CAMPAIGN_UNITS)}

    def _count_work(self, store) -> None:
        """Runs and control epochs one campaign serves (from the filled
        cache; deterministic, so counted once)."""
        keys = list(dict.fromkeys(k for k, _ in store.key_log))
        hits = store.get_traces_many(keys)
        self.runs = len(keys)
        self.epochs = sum(len(t.epochs) for traces in hits.values()
                          for t in traces.values())

    def run_pass(self, index: int, region=contextlib.nullcontext
                 ) -> PassResult:
        from repro.cache.store import RunCache
        from repro.experiments import campaign

        root = self.workdir / f"cache-{index}"
        shutil.rmtree(root, ignore_errors=True)
        gc.collect()
        before = self.speed.sample()
        with region():
            m0 = self.mark()
            cold_store = RunCache(root)
            cold = campaign.run_campaign(self.scale, batch=BATCH,
                                         cache=cold_store)
            m1 = self.mark()
            warm_store = RunCache(root)
            warm = campaign.run_campaign(self.scale, batch=BATCH,
                                         cache=warm_store)
            m2 = self.mark()
        host = (before, self.speed.sample())
        self.documents.append((cold.document(), warm.document()))
        self.results.append((cold, warm))
        self.stores.append((cold_store, warm_store))
        if not self.runs:
            self._count_work(cold_store)
        shutil.rmtree(root, ignore_errors=True)
        # Entries are fsynced on write; start the next pass with no dirty
        # pages left by this one.
        os.sync()
        cold_pass = PassResult.between(m0, m1, self.runs, self.epochs, host)
        warm_pass = PassResult.between(m1, m2, self.runs, self.epochs, host)
        return PassResult.between(m0, m2, 2 * self.runs, 2 * self.epochs,
                                  host, {
            "cold_s": cold_pass.ref_s, "warm_s": warm_pass.ref_s,
            "cold_wall_s": cold_pass.wall_s, "warm_wall_s": warm_pass.wall_s,
            "cold_fsyncs": cold_pass.fsyncs, "warm_fsyncs": warm_pass.fsyncs,
            "cold_unit_s": dict(cold.unit_seconds),
            "warm_unit_s": dict(warm.unit_seconds),
            "warm_hit_rate": warm.cache_hit_rate,
        })

    def check(self, outcome: Outcome) -> None:
        first = self.documents[0][0] if self.documents else None
        for i, (cold, warm) in enumerate(self.documents):
            outcome.check(warm == cold,
                          f"campaign pass {i}: warm report differs from cold")
            outcome.check(cold == first,
                          f"campaign pass {i}: cold report differs from "
                          "pass 0")

    def counters(self) -> dict:
        return {**batch_counters(), "passes": len(self.results)}

    def layer_counters(self, before: dict, after: dict) -> dict:
        out = batch_layer(before, after)
        cold, warm = self.results[before["passes"]]
        for unit in CAMPAIGN_UNITS:
            out[f"experiments.unit.{unit}.cold_s"] = cold.unit_seconds[unit]
            out[f"experiments.unit.{unit}.warm_s"] = warm.unit_seconds[unit]
        out.update(cache_layer(self.stores[before["passes"]]))
        return out


def cache_layer(stores) -> dict:
    """Cache traffic of the given (fresh) stores."""
    hits = sum(s.hits for s in stores)
    misses = sum(s.misses for s in stores)
    retries = errors = 0
    for s in stores:
        c = s.health().get("counters", {})
        retries += c.get("retries", 0)
        errors += c.get("errors", 0)
    return {
        "cache.written_mb": sum(s.written_bytes for s in stores) / 1e6,
        "cache.read_mb": sum(s.read_bytes for s in stores) / 1e6,
        "cache.gets": hits + misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.backend_retries": retries,
        "cache.backend_errors": errors,
    }


# -- observed ----------------------------------------------------------------


@dataclass
class ObservedRun:
    config: dict
    trace_digest: str
    emitted: int
    written: int
    logged: int
    journal_ended: bool
    journal_bytes: int
    retries: float
    breaker_transitions: float
    faulted_epochs: int
    epochs: int


def _counter_total(metrics, name: str) -> float:
    fam = metrics.collect().get(name, {})
    return float(sum(c.value for c in fam.values()))


class Observed(Workload):
    name = "observed"

    def setup(self) -> dict:
        from repro.checkpoint import journal, resume  # noqa: F401
        from repro.obs import Instrumentation, JsonlEventLog  # noqa: F401

        self.runs: list[ObservedRun] = []
        (self.workdir / "observed").mkdir(parents=True, exist_ok=True)
        return {"runs_per_pass": len(TUNERS) * len(OBSERVED_LOADS),
                "faulted_per_pass": OBSERVED_FAULTED,
                "fault_rate": OBSERVED_FAULT_RATE,
                "duration_s": DURATION_S, "tuners": list(TUNERS),
                "loads": list(OBSERVED_LOADS),
                "scenarios": list(SCENARIO_NAMES)}

    def _pass_inputs(self, index: int) -> list[dict]:
        """One pass: every tuner x load once, half on each scenario
        (alternating between passes), fresh seeds and fault draws from
        the workload's seeded stream."""
        from repro.faults import CircuitBreaker, FaultSchedule, RetryPolicy

        configs = [
            (SCENARIO_NAMES[(i + j + index) % 2], load, tuner)
            for i, tuner in enumerate(TUNERS)
            for j, load in enumerate(OBSERVED_LOADS)
        ]
        seeds = _seeds(self.rng, len(configs))
        faulted = set(int(i) for i in self.rng.choice(
            len(configs), size=OBSERVED_FAULTED, replace=False))
        n_epochs = int(DURATION_S // 30.0)
        out = []
        for i, (scen, load, tuner) in enumerate(configs):
            cfg = {"scenario": scen, "load": load, "tuner": tuner,
                   "seed": seeds[i]}
            if i in faulted:
                cfg["fault_schedule"] = FaultSchedule.bernoulli(
                    int(self.rng.integers(2**31 - 1)), n_epochs,
                    OBSERVED_FAULT_RATE)
                cfg["retry_policy"] = RetryPolicy()
                cfg["breaker"] = CircuitBreaker()
            out.append(cfg)
        return out

    def run_pass(self, index: int, region=contextlib.nullcontext
                 ) -> PassResult:
        from repro.checkpoint import journal, resume
        from repro.obs import Instrumentation, JsonlEventLog
        from repro.obs.exporters import read_event_log

        inputs = self._pass_inputs(index)
        base = self.workdir / "observed" / f"pass-{index}"
        base.mkdir(parents=True, exist_ok=True)
        done = []
        gc.collect()
        before = self.speed.sample()
        with region():
            start = self.mark()
            for i, cfg in enumerate(inputs):
                jpath = base / f"run-{i}.journal"
                epath = base / f"run-{i}.events"
                obs = Instrumentation.on()
                log = JsonlEventLog(epath).attach_to(obs.bus)
                trace = resume.run_journaled(
                    jpath, duration_s=DURATION_S, obs=obs, **cfg)
                log.close()
                done.append((cfg, trace, jpath, epath, obs, log))
            end = self.mark()
        host = (before, self.speed.sample())
        epochs = 0
        for cfg, trace, jpath, epath, obs, log in done:
            faulted = sum(1 for e in trace.epochs if e.faulted)
            epochs += len(trace.epochs)
            self.runs.append(ObservedRun(
                config=cfg, trace_digest=_trace_digest(trace),
                emitted=obs.bus.total_emitted, written=log.written,
                logged=len(read_event_log(epath)),
                journal_ended=journal.read_journal(jpath).ended,
                journal_bytes=jpath.stat().st_size,
                retries=_counter_total(obs.metrics, "repro_retries_total"),
                breaker_transitions=_counter_total(
                    obs.metrics, "repro_breaker_transitions_total"),
                faulted_epochs=faulted, epochs=len(trace.epochs),
            ))
        # Start every pass with no dirty pages left by the last one, so
        # its fsyncs do not pay for an earlier pass's writeback.
        shutil.rmtree(base)
        os.sync()
        return PassResult.between(start, end, len(done), epochs, host)

    def check(self, outcome: Outcome) -> None:
        from repro.core.registry import make_tuner
        from repro.endpoint.load import ExternalLoad
        from repro.experiments import runner
        from repro.experiments.scenarios import SCENARIOS
        from repro.faults import CircuitBreaker

        for n, run in enumerate(self.runs):
            cfg = run.config
            breaker = cfg.get("breaker")
            ref = runner.run_single(
                SCENARIOS[cfg["scenario"]],
                make_tuner(cfg["tuner"], cfg["seed"]),
                load=ExternalLoad.parse(cfg["load"]),
                duration_s=DURATION_S, seed=cfg["seed"],
                fault_schedule=cfg.get("fault_schedule"),
                retry_policy=cfg.get("retry_policy"),
                breaker=(None if breaker is None
                         else CircuitBreaker.from_dict(breaker.to_dict())),
                cache=False,
            )
            outcome.check(_trace_digest(ref) == run.trace_digest,
                          f"observed run {n} ({cfg['tuner']}/{cfg['load']}/"
                          f"{cfg['scenario']}) differs from run_single")
            outcome.check(run.journal_ended,
                          f"observed run {n}: journal not ended")
            outcome.check(
                run.logged == run.emitted == run.written,
                f"observed run {n}: event log holds {run.logged} events, "
                f"bus published {run.emitted}")

    def counters(self) -> dict:
        return {"runs": len(self.runs)}

    def layer_counters(self, before: dict, after: dict) -> dict:
        runs = self.runs[before["runs"]:after["runs"]]
        epochs = sum(r.epochs for r in runs)
        faulted = sum(r.faulted_epochs for r in runs)
        return {
            "faults.faulted_epochs": faulted,
            "faults.faulted_share": faulted / epochs if epochs else 0.0,
            "faults.retries": sum(r.retries for r in runs),
            "faults.breaker_transitions": sum(
                r.breaker_transitions for r in runs),
            "checkpoint.written_mb": sum(
                r.journal_bytes for r in runs) / 1e6,
        }


WORKLOADS = {w.name: w for w in (Sweep, Campaign, Observed)}
