"""The vectorized span kernel: span state per engine, one lockstep driver.

Every batched path advances scalar :class:`~repro.sim.engine.Engine`
objects through :func:`advance_spans` and stays bit-identical (epochs
AND steps) to the same engines driven through ``step_once``:

* :class:`~repro.sim.batch.engine.BatchEngine` runs B independent
  single-session engines to completion, one span state each;
* a fleet shard's window (:func:`repro.service.fusion.advance_fused`)
  runs one multi-session engine — a shared substrate — or, fused, the
  windows of several shards at once.

:class:`ShardSpanEngine` is the per-engine state: the schedule's change
ticks, the realized span-width histogram and, for a lane a tuner
population adopted, its block buffer of standard normals
(:func:`~repro.sim.batch.dispatch.take_std_normals`).  Sessions on one
engine are *coupled* — they contend in one max-min allocation and share
one ``throughput_noise`` stream — while different engines share nothing
but the stacked arithmetic.

How
---
The step loop becomes a *span* loop.  An engine's span is the longest
run of ticks on which none of its sessions hits a change point — an
epoch close, a duration-done, a schedule load change — so its
allocation is constant.  Boundaries are integer tick arithmetic on the
sessions' counters (:func:`~repro.sim.clock.boundary_tick`).  Restarts
follow one rule with two cases:

* a session alone on its engine keeps its restart as a *dead prefix*
  inside the span (its dead ticks move nothing, the lead step runs
  ``dt - lead_s``): going live changes only its own rate, and its live
  allocation is what every drawing step sees;
* sessions that share an allocation break the span at each one's last
  dead step, since going live changes every *other* session's rate.

The driver steps every engine in lockstep sub-spans (the shortest span
across engines; splitting a span is exact, because tick counts add and
sized draws split at step boundaries into the same value sequence).
Per sub-span one row gatherer fills one preallocated ``(rows, steps)``
block — running seconds, step-jitter normals, the
``(alloc * eta) * noise_factor`` factor, ramp clocks and epoch
accumulators, and for a session with a fault in its current epoch the
per-step fault rate factors — and runs :func:`_span_chain` once.  A
fault scales only its own session's rate, after the ramp, and the
allocation reads no fault state, so faulted and clean sessions share
spans and no fault adds a span break.  Step jitter is one
sized draw per engine: laid out step-major over the drawing sessions
(``reshape(k, m).T``), the order the scalar loop consumes the shared
stream, or taken from the lane's block buffer.  Records materialize per
sub-span with the time floats shared across rows.

Allocations are computed once per engine span.  A lone session's is
memoized for the driver call on ``(alloc group, load, params)`` with
the session forced live (``cmp_frac`` ignores restarts, and the rate is
only read on live steps), so lanes built on one substrate share
entries.  At each tick where some engine hits a boundary, ONE
:func:`~repro.sim.batch.closing.close_epochs` call closes every boundary
session, in session order; a
:class:`~repro.sim.batch.dispatch.PopulationDispatcher`, when given,
takes the lanes its tuner populations advance, and every other close
dispatches through the engine's own ``_dispatch_epoch`` with its noise
and restart-jitter factors pre-drawn as one sized call per stream and
engine and one ``exp`` over the whole round.

The caller owns eligibility
(:func:`~repro.sim.batch.eligibility.unbatchable_reason` per batch
engine; a fleet shard's sessions are span-eligible by construction):
finite bytes, unbounded durations and disk caps stay on the scalar
loop.  Batched spans and ``step_once`` may be interleaved freely
between driver calls — both mutate the same engine and RNG streams in
the same order.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import groupby, repeat
from operator import itemgetter
from time import perf_counter

import numpy as np

from repro.sim.batch.closing import close_epochs
from repro.sim.batch.dispatch import take_std_normals
from repro.sim.clock import boundary_tick
from repro.sim.engine import Engine
from repro.sim.trace import StepRecord
from repro.units import MB


class ShardSpanEngine:
    """Span state for one engine: a fleet shard's shared substrate or
    one batch lane.  :func:`advance_spans` does the advancing."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.dt: float = engine.config.dt
        self._change_ticks: list[int] | None = None
        #: Histogram of realized lane widths: {live lanes -> spans run
        #: at that width}.  The bench reports this distribution.
        self.lane_widths: Counter = Counter()
        # Block buffer of the throughput-noise stream, set once a tuner
        # population adopts the lane (its span step jitter and epoch
        # noise interleave on that one generator, so neither can be
        # pre-drawn alone).  None: the lane draws from the stream.
        self._pop_z = None
        self._pop_zpos = 0
        # The schedule's load when it never changes (set by prepare).
        self._load = None

    def prepare(self) -> None:
        """One-time setup (idempotent): start the engine and resolve the
        schedule's change ticks (and its load, when it never changes)."""
        self.engine._ensure_started()
        if self._change_ticks is None:
            schedule = self.engine.schedule
            self._change_ticks = [
                boundary_tick(c, self.dt) for c in schedule.change_times
            ]
            if not self._change_ticks:
                self._load = schedule.at(0.0)

    def next_span(self, lanes: list, tick: int, kmax: int, group,
                  memo: dict) -> int:
        """The length of the engine's span from ``tick``: at most
        ``kmax``, up to the first change point — epoch close, duration
        done, load change and, when sessions share the engine, a last
        dead restart step.

        ``lanes`` holds one ``[session, c1, tau]`` per active session;
        each ``c1`` is set to the session's ``(alloc * eta) *
        noise_factor`` over the span (None: absent from the
        allocation).  Sets the engine's ``_last_cmp_frac`` as the scalar
        loop leaves it on every step of the span (restart dead time
        reads it at dispatch).  A lone session's live allocation is
        memoized in ``memo`` under ``(group, load, params)``:
        ``cmp_frac`` ignores restarts, and the rate is only read on
        live steps."""
        k = kmax
        for m in self._change_ticks:
            if m > tick and m - tick < k:
                k = m - tick
        e = self.engine
        load = self._load
        if load is None:
            load = e.schedule.at(tick * self.dt)
        if len(lanes) == 1:
            lane = lanes[0]
            s = lane[0]
            m = s.close_tick - s.epoch_ticks
            if m < k:
                k = m
            m = s.done_tick - s.state.ticks
            if m < k:
                k = m
            key = (group, load, s.params)
            hit = memo.get(key)
            if hit is None:
                saved = s.dead_ticks
                s.dead_ticks = 0  # force the live configuration
                try:
                    cmp_frac, alloc, eta = e._allocation_phase(load)
                finally:
                    s.dead_ticks = saved
                hit = memo[key] = (cmp_frac, alloc.get(s.name), eta)
            cmp_frac, rate, eta = hit
            e._last_cmp_frac = cmp_frac
            lane[1] = None if rate is None else (rate * eta) * s.noise_factor
            return k
        live = False
        for lane in lanes:
            s = lane[0]
            m = s.close_tick - s.epoch_ticks
            if m < k:
                k = m
            m = s.done_tick - s.state.ticks
            if m < k:
                k = m
            m = s.dead_ticks
            if not m:
                live = True
            elif m < k:
                k = m
        if not live and load.ext_cmp == 0 and load.ext_tfr == 0:
            # All sessions dead under a purely endogenous load:
            # ``_allocation_phase`` provably returns (0.0, {}, 1.0) —
            # no external compute share, no live flow, zero runnable
            # streams — so skip its population walk.
            cmp_frac, alloc, eta = 0.0, {}, 1.0
        else:
            cmp_frac, alloc, eta = e._allocation_phase(load)
        e._last_cmp_frac = cmp_frac
        for lane in lanes:
            s = lane[0]
            rate = alloc.get(s.name)
            lane[1] = None if rate is None else (rate * eta) * s.noise_factor
        return k


def advance_spans(spans, rem, *, groups=None, dispatcher=None) -> dict:
    """Advance each span state's engine ``rem[i]`` ticks in lockstep.

    Bit-identical to ``rem[i]`` ``step_once`` calls on each engine,
    every epoch close and tuner dispatch landing on its exact tick.
    ``groups`` gives each span state an allocation-memo group (default:
    its own); ``dispatcher`` (a
    :class:`~repro.sim.batch.dispatch.PopulationDispatcher`) may take
    lone lanes' dispatches, lane id = span index.  Every allocation
    memo, buffer and per-lane table here lives for this call only.

    Returns stats: ``chains`` (chain calls), ``rows`` (rows pushed
    through them), ``widths`` (histogram of rows per chain), and the
    wall seconds per phase (``span`` / ``close`` / ``dispatch``).
    """
    dts = {sp.dt for sp in spans}
    if len(dts) != 1:
        raise ValueError("fused shards must share one step size dt")
    dt = dts.pop()
    n = len(spans)
    if groups is None:
        groups = range(n)
    phase_s = {"span": 0.0, "close": 0.0, "dispatch": 0.0}
    widths: dict[int, int] = {}
    stats = {"chains": 0, "rows": 0, "widths": widths, "phase_s": phase_s}
    memo: dict = {}
    base: list[int] = []
    # Each engine's active sessions as [session, c1, tau] lanes.
    lanes: list[list] = []
    for sp in spans:
        sp.prepare()
        e = sp.engine
        base.append(e.clock.tick)
        lanes.append([[s, None, e._tau[s.name]]
                      for s in e.sessions if not s.done])
    due = [0] * n  # call-relative tick of each engine's next boundary
    work = [i for i in range(n) if rem[i] > 0 and lanes[i]]
    L = sum(len(lanes[i]) for i in work)  # most rows a sub-span can have
    stale = work  # engines at a boundary: plan their next span
    T = 0
    t0 = perf_counter()
    new = tuple.__new__
    while work:
        for i in stale:
            k = spans[i].next_span(
                lanes[i], base[i] + T, rem[i] - T, groups[i], memo)
            if k < 1:
                raise RuntimeError(
                    "span prediction collapsed to zero steps")
            due[i] = T + k
        end = min([due[i] for i in work])
        k = end - T

        # -- gather: one row per session live on some step ------------
        RS = np.full((L, k), dt)  # per-step running seconds
        Z = np.zeros((L, k))  # normal draws under the step jitter
        F = None  # per-step fault rate factors, once a row has a fault
        c1_l: list[float] = []
        tau_l: list[float] = []
        tss0_l: list[float] = []
        er0_l: list[float] = []
        eb0_l: list[float] = []
        row_lanes: list = []  # the lane of each row
        row_flags: list = []  # each row's restarting flags
        row_times: list = []  # each row's step times
        nrows = 0
        pop_rows: list[int] = []  # rows drawn from a block buffer
        pop_sigs: list[float] = []  # and their step sigma
        times: dict = {}  # first tick -> its k time floats, shared
        flag_rows: list = [None] * (k + 1)  # by restarting-prefix length
        t_tick = None
        for i in work:
            sp = spans[i]
            span_lanes = lanes[i]
            sp.lane_widths[len(span_lanes)] += 1
            tick0 = base[i] + T
            if tick0 != t_tick:
                t_tick = tick0
                t_list = times.get(tick0)
                if t_list is None:
                    t_list = times[tick0] = (
                        (tick0 + np.arange(k)) * dt).tolist()
            drawing: list[int] = []
            fm = 0  # dead prefix of a lone session's row
            for lane in span_lanes:
                s, c1, tau = lane
                dead = s.dead_ticks
                tick = s.epoch_ticks
                s.advance_ticks(k)
                if dead >= k:
                    # Dead the whole span: every scalar-path output is
                    # an exact zero (moved 0.0, run_s 0.0, x + 0.0 == x
                    # for the nonnegative accumulators).
                    s.dead_ticks = dead - k
                    s.trace.steps.extend(map(
                        new, repeat(StepRecord),
                        zip(t_list, repeat(0.0), repeat(True),
                            repeat(0.0)),
                    ))
                    continue
                row = nrows
                nrows += 1
                nflag = dead
                if dead:
                    RS[row, :dead] = 0.0
                    s.dead_ticks = 0
                    fm = dead
                lead = s.lead_s
                if lead > 0.0:
                    RS[row, dead] = dt - lead  # partial lead step
                    s.lead_s = 0.0
                    nflag += 1
                sched = s.fault_schedule
                if sched is not None and sched.events_at(s.epoch_index):
                    # The step loop's own rule, step by step: a stream
                    # crash zeroes the rate from its hit tick on.
                    if F is None:
                        F = np.ones((L, k))
                    F[row] = [s.fault_rate_factor(tick + j)
                              for j in range(k)]
                tau_l.append(tau)
                tss0_l.append(s.time_since_start)
                er0_l.append(s.epoch_run_s)
                eb0_l.append(s.epoch_bytes)
                if c1 is None:
                    # Absent from the allocation: the scalar path draws
                    # nothing, moves nothing, and does not advance the
                    # ramp clock.
                    c1_l.append(0.0)
                else:
                    c1_l.append(c1)
                    drawing.append(row)
                flags = flag_rows[nflag]
                if flags is None:
                    flags = flag_rows[nflag] = (
                        [True] * nflag + [False] * (k - nflag))
                row_lanes.append(lane)
                row_flags.append(flags)
                row_times.append(t_list)
            if not drawing:
                continue
            sigma = sp.engine.config.noise_sigma_step
            if sigma <= 0.0:
                continue
            # One jitter per drawing step, step-major over the drawing
            # sessions — the scalar loop's order.  A shared engine's
            # drawing rows have no dead prefix (the span broke there).
            if sp._pop_z is not None:
                row = drawing[0]
                m = k - fm
                buf = sp._pop_z
                pos = sp._pop_zpos
                if pos + m <= buf.shape[0]:
                    Z[row, fm:] = buf[pos:pos + m]
                    sp._pop_zpos = pos + m
                else:
                    Z[row, fm:] = take_std_normals(sp, m)
                pop_rows.append(row)
                pop_sigs.append(sigma)
                continue
            loc = -0.5 * sigma * sigma
            nd = len(drawing)
            if nd == 1:
                Z[drawing[0], fm:] = sp.engine._rng_noise.normal(
                    loc, sigma, size=k - fm)
            else:
                Z[drawing, :] = sp.engine._rng_noise.normal(
                    loc, sigma, size=k * nd).reshape(k, nd).T

        # -- one chain over the block, then commit ----------------------
        if nrows:
            if nrows < L:
                RS = RS[:nrows]
                Z = Z[:nrows]
                if F is not None:
                    F = F[:nrows]
            if pop_rows:
                # loc + sigma*z per element, loc = -0.5*sigma*sigma —
                # bitwise the sized normal draw.  Entries never drawn
                # (dead steps) scale to a harmless finite value: their
                # run_s is 0.0.
                sigs = np.array(pop_sigs)[:, None]
                locs = -0.5 * sigs * sigs
                if len(pop_rows) == nrows:
                    Z = locs + sigs * Z
                else:
                    Z[pop_rows] = locs + sigs * Z[pop_rows]
            B, MV, RREC, er, eb = _span_chain(
                RS, Z, np.array(c1_l), np.array(tau_l), np.array(tss0_l),
                np.array(er0_l), np.array(eb0_l), dt, F,
            )
            # Plain python floats: downstream consumers (close_epoch,
            # JSON cache entries, status documents) must not see
            # np.float64.
            for (s, c1, _), er_, eb_, tss, t_list, flags, rates, moved in zip(
                    row_lanes, er.tolist(), eb.tolist(), B[:, -1].tolist(),
                    row_times, row_flags, RREC, MV):
                s.epoch_run_s = er_
                s.epoch_bytes = eb_
                if c1 is not None:  # else the ramp clock stays put
                    s.time_since_start = tss
                # tuple.__new__ skips the NamedTuple's generated
                # __new__ (~2x per record).
                s.trace.steps.extend(map(
                    new, repeat(StepRecord),
                    zip(t_list, rates.tolist(), flags, moved.tolist()),
                ))
            stats["chains"] += 1
            stats["rows"] += nrows
            widths[nrows] = widths.get(nrows, 0) + 1
        T = end
        t1 = perf_counter()
        phase_s["span"] += t1 - t0

        bound = [i for i in work if due[i] == T]
        ended = _close_round(spans, bound, lanes, base, T, dt,
                             dispatcher, phase_s)
        t0 = perf_counter()
        stale = []
        for i in bound:
            if i in ended:
                lanes[i] = [ln for ln in lanes[i] if not ln[0].done]
            if lanes[i] and T < rem[i]:
                stale.append(i)
        if len(stale) < len(bound):
            gone = set(bound).difference(stale)
            work = [i for i in work if i not in gone]
    phase_s["span"] += perf_counter() - t0

    for i, sp in enumerate(spans):
        e = sp.engine
        e.clock.tick = base[i] + rem[i]
        # The batched spans bypassed the scalar fast path's allocation
        # cache; invalidate it so an interleaved scalar step recomputes
        # instead of trusting a stale entry.
        e._alloc_key = None
        e._alloc_val = None
    return stats


def _close_round(spans, bound, lanes, base, T, dt, dispatcher,
                 phase_s) -> set:
    """Close the boundary epochs of every engine in ``bound`` with one
    :func:`close_epochs` call, then dispatch them: population lanes
    through ``dispatcher``, the rest through ``_dispatch_epoch`` with
    pre-drawn factors and one ``exp`` over the round.  Closing every
    epoch before dispatching any is draw-neutral: closes consume no RNG
    and touch only their own session.

    Returns the engines with a session that ended — done at its
    duration, or failed in its dispatch; only closers can."""
    t0 = perf_counter()
    closers = []
    owners = []
    for i in bound:
        for lane in lanes[i]:
            s = lane[0]
            ticks = s.epoch_ticks
            if ticks and (ticks >= s.close_tick
                          or s.state.ticks >= s.done_tick):
                closers.append(s)
                owners.append(i)
    if not closers:
        return set()
    recs = close_epochs(closers, [(base[i] + T) * dt for i in owners])
    t1 = perf_counter()
    phase_s["close"] += t1 - t0
    # Span-eligible sessions move infinite bytes: they end at their
    # done tick, or by failing in their dispatch.
    ended = set()
    pending = []
    for i, s, rec in zip(owners, closers, recs):
        if s.state.ticks >= s.done_tick:
            ended.add(i)
        else:
            pending.append((i, spans[i], s, rec))
    if dispatcher is not None and pending:
        pending = dispatcher.dispatch(pending)
    if pending:
        _dispatch_predrawn(pending)
        # The scalar ladder can fail a session (exhausted retries, a
        # sink error); population lanes carry no such machinery.
        ended.update(item[0] for item in pending if item[2].failed)
    phase_s["dispatch"] += perf_counter() - t1
    return ended


def _dispatch_predrawn(pending) -> None:
    """Dispatch ``(span index, span, session, rec)`` closes through each
    engine's ``_dispatch_epoch`` with pre-drawn noise and restart-jitter
    factors."""
    # One sized draw per stream per engine (numpy's sized draws are the
    # value sequence of scalar draws; sigma 0 draws nothing, like
    # ``lognormal_factor``), in session order.
    parts = []
    # (engine, items, noise offset, rjit offset); None where sigma is 0.
    plan = []
    pos = 0
    for _, items in groupby(pending, key=itemgetter(0)):
        items = list(items)
        m = len(items)
        e = items[0][1].engine
        offsets = []
        for rng, sig in ((e._rng_noise, e.config.noise_sigma_epoch),
                         (e._rng_rjit, e.client.restart.jitter_sigma)):
            if sig > 0.0:
                parts.append(rng.normal(-0.5 * sig * sig, sig, size=m))
                offsets.append(pos)
                pos += m
            else:
                offsets.append(None)
        plan.append((e, items, *offsets))
    # Elementwise np.exp equals lognormal_factor's scalar np.exp.
    f = np.exp(np.concatenate(parts)).tolist() if parts else []
    for e, items, pn, pr in plan:
        for j, (_, _, s, rec) in enumerate(items):
            e._dispatch_epoch(
                s, rec,
                noise=1.0 if pn is None else f[pn + j],
                rjit=1.0 if pr is None else f[pr + j],
            )


def _span_chain(RS, Z, c1, tau, tss0, er0, eb0, dt, F=None):
    """The ramp/rate/bytes matrix chain of a span.

    The one vectorized form of the scalar loop's per-step arithmetic.
    Inputs hold one row per session: ``RS`` the per-step running seconds
    (0.0 on dead steps), ``Z`` the step-jitter normals (overwritten),
    ``c1`` the session's ``(alloc * eta) * noise_factor``, ``tau`` its
    slow-start constant, ``tss0``/``er0``/``eb0`` its ramp clock and
    epoch accumulators entering the span, and ``F`` (optional) its
    per-step fault rate factors, applied last as the scalar loop does
    (1.0 on clean rows: ``x * 1.0 == x``).

    Every operation is operand-for-operand the scalar loop's: buffer
    reuse via ``out=`` keeps the scalar operand order, and IEEE division
    is sign-symmetric, so ``B / -tau == -B / tau``.  Every operation is
    elementwise or a row-local ``axis=1`` fold, so rows from different
    engines may be stacked into one call with no change in any row's
    result.

    Returns ``(B, MV, RREC, er, eb)``: ramp-clock bounds (``B[:, j]`` is
    the ramp clock entering step ``j``; dead steps add 0.0, an exact
    no-op), per-step bytes, step-record rates, and the folded epoch
    accumulators.
    """
    L, k = RS.shape
    tau_col = tau[:, None]
    B = np.add.accumulate(
        np.concatenate([tss0[:, None], RS], axis=1), axis=1
    )
    A = B / np.negative(tau_col)
    # The scalar ramp uses math.exp, which differs from np.exp in the
    # last ulp; evaluate per element.
    E = np.fromiter(
        map(math.exp, A.ravel().tolist()),
        dtype=np.float64,
        count=L * (k + 1),
    ).reshape(L, k + 1)
    RSx = np.where(RS > 0.0, RS, 1.0)  # 0/0 guard on dead steps
    T = np.subtract(E[:, :-1], E[:, 1:])
    np.divide(tau_col, RSx, out=RSx)
    np.multiply(RSx, T, out=T)
    np.subtract(1.0, T, out=T)  # T = RAMP
    np.exp(Z, out=Z)  # per-element scalar np.exp (lognormal_factor)
    np.multiply(c1[:, None], Z, out=Z)
    np.multiply(Z, T, out=Z)  # Z = RATE = (c1 * J) * RAMP
    if F is not None:
        np.multiply(Z, F, out=Z)  # RATE * fault factor
    np.multiply(Z, MB, out=T)
    MV = T * RS  # (RATE * MB) * RS
    np.divide(MV, MB, out=T)
    np.divide(T, dt, out=Z)
    RREC = Z  # step-record rate: (MV / MB) / dt

    # Epoch accumulators: exact sequential left folds (np.sum's
    # pairwise reduction would round differently).
    er = np.add.accumulate(
        np.concatenate([er0[:, None], RS], axis=1), axis=1)[:, -1]
    eb = np.add.accumulate(
        np.concatenate([eb0[:, None], MV], axis=1), axis=1)[:, -1]
    return B, MV, RREC, er, eb
