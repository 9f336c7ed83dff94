"""Struct-of-arrays batch engine: B independent runs in lockstep.

:class:`BatchEngine` advances B independent scalar engines (seeds ×
scenarios × tuners, one session each) on one shared tick grid, with the
per-step arithmetic vectorized across the run axis ("lanes").  The
scalar engine stays the bit-exactness reference: a batched lane
produces *identical* epochs and step records to ``engine.run()`` on the
same engine object.

How
---
The step loop is replaced by a *span* loop.  A span is the longest run
of ticks on which no lane hits a change point — an epoch closure, a
transfer-duration completion, or a load-schedule transition.  Span
length is integer tick arithmetic on the sessions' close and done
ticks and the schedules' change ticks (:func:`~repro.sim.clock.
boundary_tick`), so boundaries land on the scalar loop's tick.  Within
a span, every per-lane quantity is a row in a ``(lanes, span)`` matrix:

* each lane's restart window becomes a dead prefix of its ``run_s``
  row (its dead ticks move nothing, the lead step runs
  ``dt - lead_s``), so a lane's restart can end inside a span — lanes
  are independent, unlike a shard's;
* step-jitter draws come from one sized ``Generator.normal`` call per
  lane (numpy's sized draws produce the identical value sequence and
  end state as n scalar calls — the RNG-order contract);
* the slow-start ramp, rate, bytes-moved and epoch-accumulator
  arithmetic is the one matrix chain both batch paths share,
  :func:`~repro.sim.batch.shard._span_chain`.

At span ends, epochs close through
:func:`~repro.sim.batch.closing.close_epochs` (the scalar close as
sized numpy passes) and dispatch through a
:class:`~repro.sim.batch.dispatch.PopulationDispatcher`: cd/cs/gss
lanes advance as tuner populations that replay the ladder's clean path
draw for draw, and every other lane takes the scalar engine's own
``_dispatch_epoch``, so the retry/breaker ladder is shared code, not a
re-implementation.  Each lane draws from its own seeded
:class:`~repro.sim.rng.RngStreams`, so only within-lane order matters
and lanes are independent.

Allocation (CPU shares → flow groups → max-min fair share) only changes
at change points; the batch engine memoizes it across lanes *and*
spans, keyed by ``(alloc_group, load, params)``.  Lanes that share a
scenario substrate pass the same ``alloc_group`` id and hit each
other's entries.

Step records are materialized once at the end of the run from the
columnar buffers — the dominant cost of a batched run is building the
per-step dataclasses, not simulating.
"""

from __future__ import annotations

from itertools import chain, repeat
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.sim.batch.closing import close_epochs
from repro.sim.batch.dispatch import PopulationDispatcher, take_std_normals
from repro.sim.batch.eligibility import unbatchable_reason
from repro.sim.batch.shard import _span_chain
from repro.sim.clock import boundary_tick
from repro.sim.engine import Engine
from repro.sim.trace import StepRecord, Trace


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
        self.dt: float = engines[0].config.dt
        self._groups = alloc_groups
        self._sessions = [e.sessions[0] for e in engines]
        # Allocation memo: (group, load, params) -> (cmp_frac, rate, eta)
        # for the *live* (not restarting) configuration.  cmp_frac is
        # restart-independent (_cpu_shares only filters done sessions),
        # and the rate is only consumed on steps with run_s > 0, where
        # the scalar path sees the live allocation too.
        self._alloc_memo: dict = {}
        # Load changes a lane lives to see (its done tick ends the run).
        self._change_ticks = [
            [m for c in e.schedule.change_times
             if (m := boundary_tick(c, self.dt)) < s.done_tick]
            for e, s in zip(engines, self._sessions)
        ]
        # Deferred columnar step buffers, one list of row arrays per
        # lane; records are materialized once at the end of the run.
        n = len(engines)
        self._col_t: list[list] = [[] for _ in range(n)]
        self._col_rate: list[list] = [[] for _ in range(n)]
        self._col_mv: list[list] = [[] for _ in range(n)]
        self._col_flag: list[list] = [[] for _ in range(n)]
        self.dispatcher = PopulationDispatcher()
        #: Wall seconds per phase (satellite of the dispatch work):
        #: vectorized span advance vs batched close vs tuner dispatch.
        self.phase_s = {"span": 0.0, "close": 0.0, "dispatch": 0.0}

    # -- public API ------------------------------------------------------

    def run(self) -> list[dict[str, Trace]]:
        """Advance every lane to completion; returns one ``run()``-shaped
        trace dict per lane, in lane order."""
        for e in self.engines:
            e._ensure_started()
        # Per-lane invariants, resolved once (attribute chains and the
        # RngStreams __getattr__ indirection are measurable across
        # thousands of lane-spans): (engine, session, schedule.at,
        # noise sigma, ramp tau, jitter generator, the lane's constant
        # load when its schedule never changes, else None).
        self._lane = [
            (
                e,
                s,
                e.schedule.at,
                e.config.noise_sigma_step,
                e._tau[s.name],
                e.rng.throughput_noise,
                None if self._change_ticks[i] else e.schedule.at(0.0),
            )
            for i, (e, s) in enumerate(zip(self.engines, self._sessions))
        ]
        sessions = self._sessions
        engines = self.engines
        clocks = [e.clock for e in engines]
        change_ticks = self._change_ticks
        changing = [i for i, ticks in enumerate(change_ticks) if ticks]
        # Batched lanes start at tick 0 and only finish by duration
        # (finite-bytes and fault-schedule lanes never batch), so each
        # lane's next epoch close (``due``: its epoch's first tick plus
        # its close tick, capped at its done tick) is an absolute tick.
        done_tick = [s.done_tick for s in sessions]
        due = [min(s.close_tick, d) for s, d in zip(sessions, done_tick)]
        dt = self.dt
        tick = 0
        active = list(range(len(sessions)))
        while active:
            # The span ends at the earliest change point of any lane.
            end = min([due[i] for i in active])
            for i in changing:
                for c in change_ticks[i]:
                    if tick < c < end:
                        end = c
            if end <= tick:
                raise RuntimeError(
                    "batch span prediction collapsed to zero steps")
            t0 = perf_counter()
            self._advance_span(active, tick, end - tick)
            tick = end
            t1 = perf_counter()
            self.phase_s["span"] += t1 - t0
            closers = [i for i in active if due[i] == tick]
            if not closers:
                continue
            recs = close_epochs([sessions[i] for i in closers], tick * dt)
            for i in closers:
                clocks[i].tick = tick
                nxt = tick + sessions[i].close_tick
                due[i] = nxt if nxt < done_tick[i] else done_tick[i]
            t2 = perf_counter()
            self.dispatcher.dispatch([
                (i, engines[i], sessions[i], rec)
                for i, rec in zip(closers, recs)
                if tick < done_tick[i]
            ])
            self.phase_s["close"] += t2 - t1
            self.phase_s["dispatch"] += perf_counter() - t2
            active = [i for i in active if tick < done_tick[i]]
        self._materialize()
        return [{s.name: s.trace} for s in self._sessions]

    # -- span advance ----------------------------------------------------

    def _live_alloc(self, i: int, e: Engine, s, load):
        key = (self._groups[i], load, s.params)
        hit = self._alloc_memo.get(key)
        if hit is None:
            saved = s.dead_ticks
            s.dead_ticks = 0  # force the live configuration
            try:
                cmp_frac, alloc, eta = e._allocation_phase(load)
            finally:
                s.dead_ticks = saved
            hit = (cmp_frac, alloc.get(s.name), eta)
            self._alloc_memo[key] = hit
        return hit

    def _advance_span(self, active: list[int], tick0: int, k: int) -> None:
        dt = self.dt
        lane = self._lane
        groups = self._groups
        alloc_get = self._alloc_memo.get
        L = len(active)
        t0 = tick0 * dt
        t_row = (tick0 + np.arange(k)) * dt

        RS = np.full((L, k), dt)  # per-step running seconds
        Z = np.zeros((L, k))  # normal draws under the step jitter
        c1 = np.zeros(L)  # alloc * eta * noise_factor
        # Per-lane scalars gathered as python lists (a list append is
        # cheaper than a numpy scalar store) and converted once.
        tau_l: list[float] = []
        tss0_l: list[float] = []
        er0_l: list[float] = []
        eb0_l: list[float] = []
        frozen_tss: list[int] = []
        flag_rows: list[list[bool]] = []
        # Rows filled with raw buffered standard normals; scaled to
        # loc + sigma*z in one matrix op after the loop (tiny per-row
        # ufunc calls cost more than the draws they replace).
        buf_rows: list[int] = []
        z_loc = np.zeros(L)
        z_sig = np.zeros(L)
        # Restart-prefix flag rows are tiny and read-only downstream
        # (materialize just iterates them) — rows with the same prefix
        # length share one list.
        shared_flags: list = [None] * (k + 1)

        for row, i in enumerate(active):
            e, s, sched_at, sigma, tau_i, jit_gen, const_load = lane[i]
            load = const_load if const_load is not None else sched_at(t0)
            hit = alloc_get((groups[i], load, s.params))
            if hit is None:
                hit = self._live_alloc(i, e, s, load)
            cmp_frac, rate, eta = hit
            # The closing step of any dispatch-bearing epoch is live
            # (restart dead time is capped at 0.9 epochs and only
            # charged at dispatch), so the live cmp_frac is what the
            # scalar loop leaves in _last_cmp_frac at every dispatch.
            e._last_cmp_frac = cmp_frac
            tau_l.append(tau_i)
            tss0_l.append(s.time_since_start)
            er0_l.append(s.epoch_run_s)
            eb0_l.append(s.epoch_bytes)
            s.advance_ticks(k)

            # Restart prefix: the window's dead ticks inside the span,
            # then dt - lead_s on the first live step.
            dead = s.dead_ticks
            fm = dead if dead < k else k
            if fm:
                RS[row, :fm] = 0.0
            nflag = fm
            if fm < k:
                if s.lead_s > 0.0:
                    RS[row, fm] = dt - s.lead_s
                    nflag += 1
                    s.lead_s = 0.0
                s.dead_ticks = 0
            else:
                s.dead_ticks = dead - k
            flags = shared_flags[nflag]
            if flags is None:
                flags = shared_flags[nflag] = (
                    [True] * nflag + [False] * (k - nflag))
            flag_rows.append(flags)

            if rate is None:
                # Session absent from the allocation: the scalar path
                # moves nothing and does not advance the ramp clock.
                frozen_tss.append(row)
            else:
                n_draws = k - fm
                if sigma > 0.0 and n_draws > 0:
                    # One jitter per step with run_s > 0, in step order
                    # — the same draws the scalar loop makes.
                    if e._pop_buffered:
                        # Inlined take_std_normals fast path: the block
                        # buffer usually holds the whole span's draws.
                        buf = e._pop_z
                        pos = e._pop_zpos
                        end = pos + n_draws
                        if buf is not None and end <= buf.shape[0]:
                            Z[row, fm:] = buf[pos:end]
                            e._pop_zpos = end
                        else:
                            Z[row, fm:] = take_std_normals(e, n_draws)
                        z_loc[row] = -0.5 * sigma * sigma
                        z_sig[row] = sigma
                        buf_rows.append(row)
                    else:
                        Z[row, fm:] = jit_gen.normal(
                            -0.5 * sigma * sigma, sigma, size=n_draws
                        )
                c1[row] = (rate * eta) * s.noise_factor

        if buf_rows:
            # loc + sigma*z per element — bitwise the sized normal
            # draw.  Entries the scalar path never draws (dead steps,
            # sigma 0 rows) scale to a harmless finite value: their
            # run_s is 0.0, so rate/bytes records stay exact zeros.
            scaled = z_loc[:, None] + z_sig[:, None] * Z
            if len(buf_rows) == L:
                Z = scaled
            else:
                mask = np.zeros(L, dtype=bool)
                mask[buf_rows] = True
                Z = np.where(mask[:, None], scaled, Z)

        B, MV, RREC, er, eb = _span_chain(
            RS, Z, c1, np.asarray(tau_l), np.asarray(tss0_l),
            np.asarray(er0_l), np.asarray(eb0_l), dt,
        )

        frozen = set(frozen_tss)
        # Plain python floats: downstream consumers (close_epoch,
        # JSON cache entries) must not see np.float64.
        er_l = er.tolist()
        eb_l = eb.tolist()
        tss_l = B[:, -1].tolist()
        for row, i in enumerate(active):
            s = self._sessions[i]
            s.epoch_run_s = er_l[row]
            s.epoch_bytes = eb_l[row]
            if not frozen or row not in frozen:
                s.time_since_start = tss_l[row]
            self._col_t[i].append(t_row)
            self._col_rate[i].append(RREC[row])
            self._col_mv[i].append(MV[row])
            self._col_flag[i].append(flag_rows[row])

    # -- deferred record materialization ---------------------------------

    def _materialize(self) -> None:
        """Build every lane's StepRecord list from the columnar buffers.

        One C-speed ``map`` per lane, constructing through
        ``tuple.__new__(StepRecord, fields)`` to skip the NamedTuple's
        generated python-level ``__new__`` (~2x per record) —
        materialization would otherwise dominate the batched run.
        """
        # Lanes sharing the whole run on one epoch grid reference the
        # very same per-span time arrays; convert each distinct sequence
        # of spans once.
        times_cache: dict[tuple[int, ...], list[float]] = {}
        for i, s in enumerate(self._sessions):
            if not self._col_t[i]:
                continue
            tkey = tuple(id(a) for a in self._col_t[i])
            times = times_cache.get(tkey)
            if times is None:
                times = np.concatenate(self._col_t[i]).tolist()
                times_cache[tkey] = times
            rates = np.concatenate(self._col_rate[i]).tolist()
            moved = np.concatenate(self._col_mv[i]).tolist()
            flags = chain.from_iterable(self._col_flag[i])
            s.trace.steps.extend(map(
                tuple.__new__, repeat(StepRecord),
                zip(times, rates, flags, moved),
            ))
        # Cleared only after the loop: the id-keyed cache above needs
        # every span array kept alive until all lanes are materialized.
        n = len(self._sessions)
        self._col_t = [[] for _ in range(n)]
        self._col_rate = [[] for _ in range(n)]
        self._col_mv = [[] for _ in range(n)]
        self._col_flag = [[] for _ in range(n)]
