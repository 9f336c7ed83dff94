"""Struct-of-arrays batch engine: B independent runs in lockstep.

:class:`BatchEngine` advances B independent scalar engines (seeds ×
scenarios × tuners, one session each) on one shared tick grid, with the
per-step arithmetic vectorized across the run axis ("lanes").  The
scalar engine stays the bit-exactness reference: a batched lane
produces *identical* epochs and step records to ``engine.run()`` on the
same engine object.

Each lane is a single-session shard: its engine gets a
:class:`~repro.sim.batch.shard.ShardSpanEngine` span state, and the one
lockstep driver, :func:`~repro.sim.batch.shard.advance_spans`, runs
every lane to its done tick — the same span loop, row gatherer, matrix
chain and close/dispatch round that advance a fleet shard's window.  A
lane is alone on its engine, so its restart stays a dead prefix inside
the span.  What the batch adds:

* validation — every lane batchable
  (:func:`~repro.sim.batch.eligibility.unbatchable_reason`), one shared
  ``dt``;
* allocation groups — lanes built on one substrate pass the same
  ``alloc_groups`` id and share the driver's allocation memo, keyed by
  ``(group, load, params)``;
* a :class:`~repro.sim.batch.dispatch.PopulationDispatcher`: cd/cs/gss
  lanes advance as tuner populations that replay the ladder's clean
  path draw for draw; every other lane takes the engine's own
  ``_dispatch_epoch`` in the driver's round, so the retry/breaker
  ladder is shared code, not a re-implementation.

Each lane draws from its own seeded :class:`~repro.sim.rng.RngStreams`,
so only within-lane order matters and lanes are independent.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.batch.dispatch import PopulationDispatcher
from repro.sim.batch.eligibility import unbatchable_reason
from repro.sim.batch.shard import ShardSpanEngine, advance_spans
from repro.sim.engine import Engine
from repro.sim.trace import Trace


class BatchEngine:
    """Advance several single-session scalar engines in lockstep.

    Parameters
    ----------
    engines:
        Fresh (un-started) engines, one lane each.  Every lane must be
        batchable (:func:`unbatchable_reason` returns ``None``) and all
        lanes must share one ``dt``.  Heterogeneous seeds, tuners,
        scenarios, durations, epoch offsets, and load schedules are
        fine.
    alloc_groups:
        Optional one int per lane: lanes with equal ids share
        allocation-memo entries and must therefore be built on
        equivalent substrates (same topology/host/client/config
        semantics — e.g. the same scenario and param mapping).  Default
        gives every lane its own group (always correct, fewer hits).
    """

    def __init__(
        self,
        engines: Sequence[Engine],
        *,
        alloc_groups: Sequence[int] | None = None,
    ) -> None:
        engines = list(engines)
        if not engines:
            raise ValueError("BatchEngine needs at least one engine")
        if len({id(e) for e in engines}) != len(engines):
            raise ValueError("duplicate engine objects in batch")
        problems = [
            f"lane {i}: {reason}"
            for i, e in enumerate(engines)
            if (reason := unbatchable_reason(e)) is not None
        ]
        if problems:
            raise ValueError(
                "unbatchable engines (route them to the scalar path): "
                + "; ".join(problems)
            )
        dts = {e.config.dt for e in engines}
        if len(dts) != 1:
            raise ValueError(f"lanes must share one dt, got {sorted(dts)}")
        if alloc_groups is None:
            alloc_groups = range(len(engines))
        alloc_groups = [int(g) for g in alloc_groups]
        if len(alloc_groups) != len(engines):
            raise ValueError("alloc_groups must have one entry per engine")

        self.engines = engines
        self._groups = alloc_groups
        self.dispatcher = PopulationDispatcher()
        #: Wall seconds per phase (satellite of the dispatch work):
        #: vectorized span advance vs batched close vs tuner dispatch.
        self.phase_s = {"span": 0.0, "close": 0.0, "dispatch": 0.0}

    def run(self) -> list[dict[str, Trace]]:
        """Advance every lane to completion; returns one ``run()``-shaped
        trace dict per lane, in lane order."""
        sessions = [e.sessions[0] for e in self.engines]
        # Batched lanes start at tick 0 and finish by duration or by
        # failing in a dispatch (finite-bytes lanes never batch).
        stats = advance_spans(
            [ShardSpanEngine(e) for e in self.engines],
            [s.done_tick for s in sessions],
            groups=self._groups, dispatcher=self.dispatcher,
        )
        for phase, secs in stats["phase_s"].items():
            self.phase_s[phase] += secs
        for e, s in zip(self.engines, sessions):
            # ``run()`` stops stepping once its session is done: a lane
            # that failed early ends on its failing tick.
            e.clock.tick = s.state.ticks
        return [{s.name: s.trace} for s in sessions]
