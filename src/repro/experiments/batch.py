"""Batched execution of independent single-transfer runs.

:func:`run_batch` takes a list of :class:`SingleRunSpec` — one
:func:`~repro.experiments.runner.run_single` call as plain data — and
advances the batchable ones in lockstep through the struct-of-arrays
:class:`~repro.sim.batch.BatchEngine`, ``batch`` lanes at a time.  The
contract is the scalar one: every returned trace is **bit-identical**
(epochs AND steps) to ``run_single`` on the same arguments, cache keys
are the very keys ``run_single`` computes (a batch-warmed cache serves
scalar callers and vice versa), and specs the batch engine cannot
express (live instrumentation, and the engine shapes no spec builds:
finite bytes, joint controllers, journals — see
:func:`~repro.sim.batch.unbatchable_reason`) fall back to their own
scalar engine per spec, automatically.  Fault schedules, retry
policies and breakers batch.

:func:`run_many` composes the lane axis with the process axis: specs
are cut into one-chunk tasks (``batch`` specs each) and fanned over
``jobs`` workers, so a campaign can be wide *and* deep.  Like the run
cache, the lane width travels ambiently — :func:`batching` exports it
via the ``REPRO_BATCH`` environment variable, which pool workers
inherit — so figure generators deep in a campaign pick the width up
without threading a parameter through every signature.

Occupancy (how many runs rode a batch, how many fell back, chunk
utilization) accumulates in per-process counters, snapshot via
:func:`occupancy`; the campaign layer reports per-unit deltas and warns
when fallbacks dominate.
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.cache import keys as cache_keys
from repro.cache.replay import replay_traces
from repro.cache.runtime import CacheSpec, activated, resolve_cache
from repro.core.base import Tuner
from repro.endpoint.load import ExternalLoad, LoadSchedule
from repro.faults import CircuitBreaker, FaultSchedule, RetryPolicy
from repro.sim.batch import BatchEngine, unbatchable_reason
from repro.sim.engine import EngineConfig
from repro.sim.trace import Trace

from repro.experiments.parallel import pool_map, resolve_jobs
from repro.experiments.runner import EPOCH_S, _schedule, build_single_engine
from repro.experiments.scenarios import Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instrument import Instrumentation

__all__ = [
    "DEFAULT_BATCH",
    "DEFAULT_FALLBACK_WARN",
    "ENV_BATCH",
    "ENV_BATCH_WARN",
    "BatchOccupancy",
    "SingleRunSpec",
    "batching",
    "dispatch_fallback_reasons",
    "dispatch_timings",
    "fallback_reasons",
    "occupancy",
    "resolve_batch",
    "resolve_fallback_warn",
    "run_batch",
    "run_many",
]

ENV_BATCH = "REPRO_BATCH"
ENV_BATCH_WARN = "REPRO_BATCH_WARN"

#: Campaign warning threshold: warn when more than this fraction of
#: simulated runs fell off the batch path.
DEFAULT_FALLBACK_WARN = 0.10

#: Lane width when batching is requested without a number (CLI bare
#: ``--batch``).  64 keeps the span matrices comfortably cache-resident
#: while amortizing the per-span python overhead across enough lanes.
DEFAULT_BATCH = 64


def resolve_batch(batch: int | None) -> int:
    """Normalize a ``batch=`` knob to a lane width (0 = batching off).

    ``None`` consults the ``REPRO_BATCH`` environment variable (unset
    or empty means off), so the width set by :func:`batching` — or by
    ``repro campaign --batch`` around a pool fan-out — reaches workers
    that pass ``batch=None``.  Negative widths are rejected; ``1``
    behaves like ``0`` (a one-lane batch is the scalar loop with extra
    ceremony).
    """
    if batch is None:
        raw = os.environ.get(ENV_BATCH, "").strip()
        if not raw:
            return 0
        try:
            batch = int(raw)
        except ValueError:
            raise ValueError(
                f"unrecognized {ENV_BATCH}={raw!r}; expected an integer "
                "lane width (0 disables batching)"
            ) from None
    batch = int(batch)
    if batch < 0:
        raise ValueError("batch must be >= 0 (0 = batching off)")
    return batch


def resolve_fallback_warn(value: float | None = None) -> float:
    """Normalize the campaign's batch-fallback warning threshold.

    ``None`` consults the ``REPRO_BATCH_WARN`` environment variable
    (unset or empty means the stock 10%), so operators can tighten or
    relax the warning fleet-wide without touching call sites.  The
    threshold is a fraction of simulated runs; negative values are
    rejected, and anything >= 1.0 effectively disables the warning.
    """
    if value is None:
        raw = os.environ.get(ENV_BATCH_WARN, "").strip()
        if not raw:
            return DEFAULT_FALLBACK_WARN
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"unrecognized {ENV_BATCH_WARN}={raw!r}; expected a "
                "fraction of simulated runs (e.g. 0.10)"
            ) from None
    value = float(value)
    if value < 0.0:
        raise ValueError("batch fallback warn threshold must be >= 0")
    return value


@contextlib.contextmanager
def batching(batch: int | None) -> Iterator[int]:
    """Export a lane-width decision to this process *and* its children.

    ``None`` leaves the ambient setting (if any) in force; ``0`` forces
    batching off for the scope, pool workers included; a positive width
    enables it.  Yields the resolved width; always restores the
    previous environment on exit.  The exact analogue of
    :func:`repro.cache.runtime.activated` for the batch axis.
    """
    if batch is None:
        yield resolve_batch(None)
        return
    width = resolve_batch(batch)
    saved = os.environ.get(ENV_BATCH)
    os.environ[ENV_BATCH] = str(width)
    try:
        yield width
    finally:
        if saved is None:
            os.environ.pop(ENV_BATCH, None)
        else:
            os.environ[ENV_BATCH] = saved


@dataclass(frozen=True)
class SingleRunSpec:
    """One :func:`~repro.experiments.runner.run_single` call as data.

    Field names, types, and defaults mirror ``run_single``'s signature
    exactly (minus the per-call plumbing — ``journal``/``obs``/``cache``
    — which stays on the executor), so a spec list is a declarative
    sweep and the cache key of a spec is the key the equivalent scalar
    call computes.
    """

    scenario: Scenario
    tuner: Tuner
    load: ExternalLoad | LoadSchedule | None = None
    duration_s: float = 1800.0
    epoch_s: float = EPOCH_S
    tune_np: bool = False
    fixed_np: int = 8
    x0: tuple[int, ...] | None = None
    seed: int = 0
    max_nc: int = 512
    fault_schedule: FaultSchedule | None = None
    retry_policy: RetryPolicy | None = None
    breaker: CircuitBreaker | None = None
    fast_path: bool = True


@dataclass(frozen=True)
class BatchOccupancy:
    """How a population of runs was executed (per-process totals).

    ``batched``/``fallback`` count *simulated* runs by path; ``cached``
    runs did no simulation at all; ``chunks`` is the number of
    :class:`~repro.sim.batch.BatchEngine` instances launched, so
    ``batched / chunks`` is the realized lane occupancy.
    """

    batched: int = 0
    fallback: int = 0
    cached: int = 0
    chunks: int = 0

    def __add__(self, other: "BatchOccupancy") -> "BatchOccupancy":
        return BatchOccupancy(
            self.batched + other.batched, self.fallback + other.fallback,
            self.cached + other.cached, self.chunks + other.chunks,
        )

    def __sub__(self, other: "BatchOccupancy") -> "BatchOccupancy":
        return BatchOccupancy(
            self.batched - other.batched, self.fallback - other.fallback,
            self.cached - other.cached, self.chunks - other.chunks,
        )

    @property
    def simulated(self) -> int:
        return self.batched + self.fallback

    @property
    def fallback_rate(self) -> float:
        """Fraction of simulated runs that fell back to the scalar
        engine (0.0 when nothing was simulated)."""
        return self.fallback / self.simulated if self.simulated else 0.0

    @property
    def runs_per_chunk(self) -> float:
        """Realized lanes per launched batch (0.0 without batches)."""
        return self.batched / self.chunks if self.chunks else 0.0

    def to_dict(self) -> dict:
        """JSON-ready snapshot (status documents, bench results)."""
        return {
            "batched": self.batched,
            "fallback": self.fallback,
            "cached": self.cached,
            "chunks": self.chunks,
            "fallback_rate": self.fallback_rate,
            "runs_per_chunk": self.runs_per_chunk,
        }


#: Per-process occupancy totals (the batch analogue of the cache's
#: hit/miss counters): every width>1 ``run_batch`` call accumulates
#: here, and the campaign layer reads per-unit deltas.  Pool workers
#: each carry their own totals, exactly like :attr:`RunCache.key_log`.
_counts = BatchOccupancy()
_fallback_reasons: Counter = Counter()
#: Advisory per-lane dispatch fallbacks (``dispatch:*`` reasons from
#: :mod:`repro.sim.batch.eligibility`) — kept SEPARATE from the batch
#: fallback tally above, whose values sum to the occupancy's
#: ``fallback`` count (a dispatch-fallback lane still rode the batch).
_dispatch_reasons: Counter = Counter()
_dispatch_lanes: Counter = Counter()
_phase_s: Counter = Counter()


def occupancy() -> BatchOccupancy:
    """Snapshot of this process's cumulative batch occupancy."""
    return _counts


def fallback_reasons() -> dict[str, int]:
    """Per-reason fallback counts accumulated in this process."""
    return dict(_fallback_reasons)


def dispatch_fallback_reasons() -> dict[str, int]:
    """Per-reason tally of batch lanes whose window-end dispatches kept
    the scalar ladder instead of a tuner population, once per lane
    (``dispatch:*`` reasons).  Advisory: these lanes still rode the
    vectorized spans."""
    return dict(_dispatch_reasons)


def dispatch_timings() -> dict:
    """Cumulative per-phase wall seconds of this process's batch runs
    (span advance vs epoch close vs tuner dispatch) plus the dispatch
    routing split (population vs ladder lanes)."""
    return {
        "phase_s": {
            "span": float(_phase_s["span"]),
            "close": float(_phase_s["close"]),
            "dispatch": float(_phase_s["dispatch"]),
        },
        "population_lanes": int(_dispatch_lanes["population"]),
        "ladder_lanes": int(_dispatch_lanes["ladder"]),
    }


def _harvest_engine(engine: BatchEngine) -> None:
    """Fold one finished batch engine's dispatch/timing accounting into
    the per-process counters."""
    _phase_s.update(engine.phase_s)
    d = engine.dispatcher
    _dispatch_reasons.update(d.fallback_reasons)
    _dispatch_lanes["population"] += d.population_lanes
    _dispatch_lanes["ladder"] += d.ladder_lanes


def _spec_key(spec: SingleRunSpec, schedule: LoadSchedule,
              config: EngineConfig) -> str:
    """The spec's content address — ``run_single``'s key, verbatim."""
    return cache_keys.run_key("single", cache_keys.single_run_components(
        scenario=spec.scenario, tuner=spec.tuner, schedule=schedule,
        duration_s=spec.duration_s, epoch_s=spec.epoch_s,
        tune_np=spec.tune_np, fixed_np=spec.fixed_np, x0=spec.x0,
        seed=spec.seed, max_nc=spec.max_nc,
        fault_schedule=spec.fault_schedule,
        retry_policy=spec.retry_policy, breaker=spec.breaker,
        engine_config=config,
    ))


def _spec_engine(spec: SingleRunSpec, schedule: LoadSchedule,
                 obs: "Instrumentation | None"):
    return build_single_engine(
        spec.scenario, spec.tuner, schedule=schedule,
        duration_s=spec.duration_s, epoch_s=spec.epoch_s,
        tune_np=spec.tune_np, fixed_np=spec.fixed_np, x0=spec.x0,
        seed=spec.seed, max_nc=spec.max_nc,
        fault_schedule=spec.fault_schedule,
        retry_policy=spec.retry_policy, breaker=spec.breaker,
        fast_path=spec.fast_path, obs=obs,
    )


def _spec_meta(spec: SingleRunSpec) -> dict:
    return {
        "kind": "single", "scenario": spec.scenario.name,
        "tuner": spec.tuner.name, "seed": int(spec.seed),
        "duration_s": float(spec.duration_s),
    }


def run_batch(
    specs: Iterable[SingleRunSpec],
    *,
    batch: int | None = None,
    cache: CacheSpec = None,
    obs: "Instrumentation | None" = None,
) -> list[Trace]:
    """Run every spec; returns one trace per spec, in spec order.

    Cache hits are collected first through one batched
    :meth:`~repro.cache.store.RunCache.get_traces_many` probe (the keys
    are ``run_single``'s, so batch and scalar callers share entries and
    hit/miss accounting matches a spec-by-spec probe).  Remaining specs
    become fresh engines; the batchable ones advance ``batch`` lanes at
    a time through :class:`~repro.sim.batch.BatchEngine` with
    allocation-memo groups shared per ``(scenario, tune_np, fixed_np)``
    substrate, and the rest run their own scalar engine.  Either way
    every result is bit-identical — epochs AND steps — to the
    equivalent ``run_single`` call, and computed results are stored
    under the shared keys.

    ``batch=None`` consults the ambient width (:func:`batching` /
    ``REPRO_BATCH``); width <= 1 degrades to the plain scalar loop
    without charging occupancy counters.  An *active* ``obs`` forces
    every simulated spec onto the scalar path (live instrumentation is
    outside the batch engine's contract) with events emitted live, and
    cache hits replay their event stream exactly as ``run_single``
    does.
    """
    global _counts
    specs = list(specs)
    if not specs:
        return []
    width = resolve_batch(batch)
    schedules = [_schedule(s.load) for s in specs]
    configs = [
        EngineConfig(seed=s.seed, fast_path=s.fast_path) for s in specs
    ]
    store = resolve_cache(cache)
    results: list[Trace | None] = [None] * len(specs)
    keys: list[str | None] = [None] * len(specs)
    ncached = 0
    if store is not None:
        if obs is not None and obs.metrics is not None:
            store.bind_metrics(obs.metrics)
        if obs is not None and obs.active:
            store.bind_bus(obs.bus)
        for i, spec in enumerate(specs):
            keys[i] = _spec_key(spec, schedules[i], configs[i])
        hits = store.get_traces_many(dict.fromkeys(keys))
        for i, key in enumerate(keys):
            traces = hits.get(key)
            if traces is not None and "main" in traces:
                replay_traces(obs, traces)
                results[i] = traces["main"]
                ncached += 1

    pending = [i for i in range(len(specs)) if results[i] is None]
    engines = {i: _spec_engine(specs[i], schedules[i], obs) for i in pending}

    def finish(i: int, traces: dict[str, Trace]) -> None:
        results[i] = traces["main"]
        if store is not None and keys[i] is not None:
            store.put_traces(keys[i], traces, meta=_spec_meta(specs[i]))

    if width <= 1:
        # Batching off: the plain scalar loop.  Occupancy is not
        # charged — nothing *fell back*, batching was never requested.
        for i in pending:
            finish(i, engines[i].run())
        return results  # type: ignore[return-value]

    lanes: list[int] = []
    fellback: list[int] = []
    for i in pending:
        reason = unbatchable_reason(engines[i])
        if reason is None:
            lanes.append(i)
        else:
            fellback.append(i)
            _fallback_reasons[reason] += 1

    # Lanes built on the same substrate (scenario singleton + parameter
    # mapping) share allocation-memo entries — the dominant lever on
    # batch throughput for seed replicates.  Scenario identity is
    # stable for the call's duration (specs hold strong references).
    groups: dict[tuple, int] = {}

    def group_of(spec: SingleRunSpec) -> int:
        key = (id(spec.scenario), spec.tune_np, spec.fixed_np)
        return groups.setdefault(key, len(groups))

    nchunks = 0
    for lo in range(0, len(lanes), width):
        chunk = lanes[lo:lo + width]
        engine = BatchEngine(
            [engines[i] for i in chunk],
            alloc_groups=[group_of(specs[i]) for i in chunk],
        )
        for i, traces in zip(chunk, engine.run()):
            finish(i, traces)
        _harvest_engine(engine)
        nchunks += 1
    for i in fellback:
        finish(i, engines[i].run())
    _counts = _counts + BatchOccupancy(
        batched=len(lanes), fallback=len(fellback),
        cached=ncached, chunks=nchunks,
    )
    return results  # type: ignore[return-value]


def _run_chunk(task: tuple[tuple[SingleRunSpec, ...], int]) -> list[Trace]:
    """One pool task: a chunk of specs at a fixed width (module-level
    so it pickles; the chunk's specs travel together, so shared
    scenario/tuner objects stay shared after unpickling and the
    allocation-group keying by identity still coalesces them)."""
    chunk, width = task
    return run_batch(list(chunk), batch=width)


def run_many(
    specs: Iterable[SingleRunSpec],
    *,
    jobs: int | None = 1,
    batch: int | None = None,
    cache: CacheSpec = None,
) -> list[Trace]:
    """Fan a spec list over processes *and* lanes; traces in spec order.

    The two axes compose: specs are cut into chunks of ``batch`` (one
    :class:`~repro.sim.batch.BatchEngine` launch each; single specs
    when batching is off) and the chunks are distributed over ``jobs``
    processes by :func:`~repro.experiments.parallel.pool_map`.  Results
    are bit-identical at every ``(jobs, batch)`` combination, so the
    figure generators route through here unconditionally.  ``cache``
    activates the run cache for the scope, workers included
    (:func:`~repro.cache.runtime.activated`); occupancy counters
    accumulate in whichever process ran the chunk.
    """
    specs = list(specs)
    width = resolve_batch(batch)
    njobs = resolve_jobs(jobs)
    with activated(cache):
        if njobs <= 1 or len(specs) <= 1:
            return run_batch(specs, batch=width)
        size = max(1, width)
        tasks = [
            (tuple(specs[lo:lo + size]), width)
            for lo in range(0, len(specs), size)
        ]
        out: list[Trace] = []
        for chunk_traces in pool_map(_run_chunk, tasks, jobs=njobs):
            out.extend(chunk_traces)
        return out
