"""Shared-substrate span engine: one shard's tenant lanes in lockstep.

:class:`ShardSpanEngine` holds the per-span steps that advance a
*multi-session* scalar :class:`~repro.sim.engine.Engine` — a fleet
shard's shared substrate — vectorizing the per-step arithmetic across
the session axis ("lanes") while staying bit-identical (epochs AND
steps) to the same engine driven through ``step_once``.  The window
driver is :func:`repro.service.fusion.advance_fused`: it runs a solo
shard's window and a fused multi-shard window alike.

BatchEngine's lanes are independent engines with independent RNG
streams, whereas a shard's lanes are *coupled* — they contend in one
max-min allocation and share one ``throughput_noise`` stream.
Coupling changes the span rules:

* a span breaks wherever the allocation can change, which now includes
  any lane's last dead restart step (a lane going live changes every
  *other* lane's rate, not just its own), on top of the epoch-close /
  duration-done / load-change breaks BatchEngine predicts.  Within a
  span the allocation is constant and is computed once with the
  engine's own ``_allocation_phase``;
* the scalar loop draws step jitter *step-major* (each step, every
  live-and-allocated session in session order) from the one shared
  stream.  One sized ``normal(size=k*m)`` reshaped ``(k, m)`` and
  transposed reproduces that exact interleave, because numpy's sized
  draws produce the identical value sequence as n scalar calls;
* window ends close epochs with the sessions' own ``close_epoch`` and
  dispatch through the engine's own ``_dispatch_epoch``, in session
  order, with the per-dispatch noise/restart-jitter factors pre-drawn
  as one sized call per stream (same sequence, same end state).
  Closing every epoch before dispatching any is draw-neutral: closes
  consume no RNG and touch only their own session.

The arithmetic inside a span is the one matrix chain,
:func:`_span_chain`, which BatchEngine calls too.  Span boundaries are
integer tick arithmetic on the sessions' step counters (epoch ticks to
the close tick, transfer ticks to the done tick, dead restart steps,
and the schedule's change ticks from
:func:`~repro.sim.clock.boundary_tick`), so the scalar engine remains
the single bit-exactness reference for both batch paths.

Membership (attach/reap) happens *between* windows in the fleet's pump
loop, and anything the span solver cannot express — an **active**
fault schedule, retry/breaker state, finite bytes — routes the whole
window to the scalar loop at the shard layer (see
:func:`~repro.sim.batch.eligibility.unbatchable_lane_reason`); once the
blocker passes, the next window batches again with no state handoff,
because both paths mutate the very same engine.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat

import numpy as np

from repro.sim.batch.closing import close_epochs
from repro.sim.clock import boundary_tick
from repro.sim.engine import Engine
from repro.sim.trace import StepRecord
from repro.units import MB


class ShardSpanEngine:
    """Vectorized span steps for one fleet shard's engine.

    The caller owns eligibility: every session must satisfy
    :func:`~repro.sim.batch.eligibility.unbatchable_lane_reason` is
    ``None`` for the whole window (the fleet shard checks at each
    window start and falls back wholesale otherwise).  Batched windows
    and ``step_once`` may be interleaved freely — both drive the same
    engine state and RNG streams in the same order.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.dt: float = engine.config.dt
        self._change_ticks: list[int] | None = None
        #: Histogram of realized lane widths: {live lanes -> spans run
        #: at that width}.  The bench reports this distribution.
        self.lane_widths: Counter = Counter()

    def prepare(self) -> None:
        """One-time window setup (idempotent): start the engine and
        resolve the shared schedule's change ticks."""
        self.engine._ensure_started()
        if self._change_ticks is None:
            self._change_ticks = [
                boundary_tick(c, self.dt)
                for c in self.engine.schedule.change_times
            ]

    def span_len(self, active: list, tick: int, kmax: int) -> int:
        """Longest span from ``tick`` (at most ``kmax``) on which no
        lane hits a change point — epoch close, duration done, last dead
        restart step — and the shared load stays constant."""
        k = kmax
        for s in active:
            m = min(s.close_tick - s.epoch_ticks,
                    s.done_tick - s.state.ticks)
            if m < k:
                k = m
            m = s.dead_ticks
            if m and m < k:
                k = m
        for m in self._change_ticks:
            if m > tick and m - tick < k:
                k = m - tick
        return k

    def close_pending(self) -> list:
        """Close every boundary epoch (batched, in session order) and
        return the ``(session, record)`` pairs still awaiting their
        tuner dispatch — *without* dispatching them, so the window
        driver can batch the dispatch exponentials over every shard's
        pending round."""
        e = self.engine
        closers = []
        for s in e.sessions:
            ticks = s.epoch_ticks
            if ticks and (ticks >= s.close_tick or s.done):
                closers.append(s)
        if not closers:
            return []
        recs = close_epochs(closers, e.clock.now)
        return [(s, rec) for s, rec in zip(closers, recs) if not s.done]

    def dispatch_normals(self, m: int):
        """The dispatch round's sized pre-draws for ``m`` epochs:
        ``(noise_z, rjit_z)`` raw normals per stream, None where the
        sigma is zero (``lognormal_factor`` draws nothing there).

        numpy's sized draws produce the exact value sequence of ``m``
        scalar draws, and the two streams are independent generators,
        so per-stream order is all that matters.  The ``exp`` is left
        to the window driver, which batches it over every shard's
        draws at once.
        """
        e = self.engine
        sig_n = e.config.noise_sigma_epoch
        zn = (e._rng_noise.normal(-0.5 * sig_n * sig_n, sig_n, size=m)
              if sig_n > 0.0 else None)
        sig_r = e.client.restart.jitter_sigma
        zr = (e._rng_rjit.normal(-0.5 * sig_r * sig_r, sig_r, size=m)
              if sig_r > 0.0 else None)
        return zn, zr

    def apply_dispatch(self, pending: list, noises, rjits) -> None:
        """Dispatch closed epochs in session order with pre-drawn
        per-epoch factors."""
        e = self.engine
        for (s, rec), noise, rjit in zip(pending, noises, rjits):
            e._dispatch_epoch(s, rec, noise=noise, rjit=rjit)

    def collect_span(self, active: list, tick0: int, k: int):
        """Phase 1 of a span: count ``k`` ticks on every lane, append
        dead rows' records, draw the live rows' step jitter, and gather
        the matrix-chain inputs.  Returns None when no live row needs the
        chain, else a context dict for :func:`_span_chain` /
        :meth:`commit_span`.

        The window driver (repro.service.fusion) collects each shard's
        context, stacks the input rows, and runs ONE chain — exact
        because the chain is elementwise plus row-local ``axis=1``
        folds, so rows are independent of their neighbours.
        """
        e = self.engine
        dt = self.dt
        load = e.schedule.at(tick0 * dt)
        self.lane_widths[len(active)] += 1

        live = [s for s in active if not s.dead_ticks]
        if not live and load.ext_cmp == 0 and load.ext_tfr == 0:
            # All lanes dead under a purely endogenous load:
            # ``_allocation_phase`` provably returns exactly
            # (0.0, {}, 1.0) here — no external compute task means no
            # EXT_CMP share, the live flow set is empty, and zero
            # runnable streams short-circuits the efficiency model —
            # so skip its full population walk.
            cmp_frac, alloc, eta = 0.0, {}, 1.0
        else:
            cmp_frac, alloc, eta = e._allocation_phase(load)
        # The value the scalar loop leaves in _last_cmp_frac on every
        # step of this span (restart dead time reads it at dispatch).
        e._last_cmp_frac = cmp_frac

        # Dead rows (dead restart steps across the whole span — the
        # span breaks at every lane's last dead step) need no matrix:
        # every scalar-path output is an exact zero (moved = 0.0,
        # run_s = 0.0, and x + 0.0 == x for the nonnegative
        # accumulators), so only the tick counters move and the
        # all-restarting records append.
        if len(live) < len(active):
            t_dead = ((tick0 + np.arange(k)) * dt).tolist()
            for s in active:
                if not s.dead_ticks:
                    continue
                s.advance_ticks(k)
                s.dead_ticks -= k
                s.trace.steps.extend(map(
                    tuple.__new__, repeat(StepRecord),
                    zip(t_dead, repeat(0.0), repeat(True),
                        repeat(0.0)),
                ))
            if not live:
                return None

        L = len(live)
        RS = np.full((L, k), dt)  # per-step running seconds
        Z = np.zeros((L, k))  # normal draws under the step jitter
        c1 = np.zeros(L)  # (alloc * eta) * noise_factor
        tau = np.empty(L)
        tss0 = np.empty(L)
        er0 = np.empty(L)
        eb0 = np.empty(L)
        frozen: list[int] = []  # rows whose ramp clock must not move
        nflags: list[int] = []  # restarting-flag prefix length per row
        draw_rows: list[int] = []  # rows drawing step jitter

        taus = e._tau
        sigma = e.config.noise_sigma_step

        for row, s in enumerate(live):
            tau[row] = taus[s.name]
            tss0[row] = s.time_since_start
            er0[row] = s.epoch_run_s
            eb0[row] = s.epoch_bytes
            s.advance_ticks(k)

            lead = s.lead_s
            if lead > 0.0:
                # Partial first step; fully live after.
                RS[row, 0] = dt - lead
                nflags.append(1)
                s.lead_s = 0.0
            else:
                nflags.append(0)
            rate = alloc.get(s.name)
            if rate is None:
                # Live but absent from the allocation (no flow group):
                # the scalar path draws nothing, moves nothing, and
                # does not advance the ramp clock — but epoch_run_s
                # still accumulates the step's run seconds.
                frozen.append(row)
                continue
            draw_rows.append(row)
            c1[row] = (rate * eta) * s.noise_factor

        # Shared-stream jitter: the scalar loop draws step-major (each
        # step, the drawing sessions in session order).  One sized draw
        # reshaped (k, m) and transposed reproduces that interleave
        # row-for-row.  Drawing rows draw at *every* span step (their
        # dead prefix is empty by the span break above).
        nd = len(draw_rows)
        if sigma > 0.0 and nd:
            Z[draw_rows, :] = e.rng.throughput_noise.normal(
                -0.5 * sigma * sigma, sigma, size=k * nd
            ).reshape(k, nd).T

        return {
            "live": live, "RS": RS, "Z": Z, "c1": c1, "tau": tau,
            "tss0": tss0, "er0": er0, "eb0": eb0,
            "frozen": set(frozen), "nflags": nflags,
        }

    def commit_span(self, ctx: dict, out: tuple, tick0: int,
                    k: int) -> None:
        """Phase 3 of a span: write the chain outputs back into the
        sessions and append their step records."""
        B, MV, RREC, er, eb = out
        t_list = ((tick0 + np.arange(k)) * self.dt).tolist()
        frozen_set = ctx["frozen"]
        nflags = ctx["nflags"]
        for row, s in enumerate(ctx["live"]):
            # Plain python floats: downstream consumers (close_epoch,
            # status documents) must not see np.float64.
            s.epoch_run_s = float(er[row])
            s.epoch_bytes = float(eb[row])
            if row not in frozen_set:
                s.time_since_start = float(B[row, -1])
            if nflags[row]:
                flags = [True] + [False] * (k - 1)
            else:
                flags = repeat(False, k)
            # tuple.__new__ skips the NamedTuple's generated __new__
            # (~2x per record); records materialize per span so a
            # window's closes see complete traces.
            s.trace.steps.extend(map(
                tuple.__new__, repeat(StepRecord),
                zip(t_list, RREC[row].tolist(), flags,
                    MV[row].tolist()),
            ))


def _span_chain(RS, Z, c1, tau, tss0, er0, eb0, dt):
    """Phase 2 of a span: the ramp/rate/bytes matrix chain.

    The one vectorized form of the scalar loop's per-step arithmetic,
    used by both batch paths.  Inputs hold one row per lane: ``RS`` the
    per-step running seconds (0.0 on dead steps), ``Z`` the step-jitter
    normals (overwritten), ``c1`` the lane's ``(alloc * eta) *
    noise_factor``, ``tau`` its slow-start constant, and
    ``tss0``/``er0``/``eb0`` its ramp clock and epoch accumulators
    entering the span.

    Every operation is operand-for-operand the scalar loop's: buffer
    reuse via ``out=`` keeps the scalar operand order, and IEEE division
    is sign-symmetric, so ``B / -tau == -B / tau``.  Every operation is
    elementwise or a row-local ``axis=1`` fold, so rows from different
    lanes or shards may be stacked into one call and split back with no
    change in any row's result.

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
