"""The batched shard window driver: one matrix chain over many shards.

:func:`advance_fused` advances every batched shard window — a solo
shard's (:meth:`repro.service.shard.FleetShard.step_epoch`) and a fused
round over several shards (:meth:`repro.service.fleet.FleetService.
pump`) alike.  Each fleet shard owns an independent engine (its own RNG
streams, its own clock), so shards never couple through state — but
when several shards advance through the same control-epoch window,
their vectorized spans run the *same arithmetic* on disjoint row sets.
The span chain (:func:`repro.sim.batch.shard._span_chain`) is
elementwise plus row-local ``axis=1`` folds: stacking rows from
different shards into one call and splitting the outputs back changes
no row's result.  The driver exploits exactly that:

* **lockstep spans** — each iteration takes the global minimum span
  length across the participating shards, collects every shard's
  matrix inputs with its own ``collect_span`` (per-shard allocation,
  per-shard jitter draws from that shard's own stream), stacks the
  rows, runs ONE chain, and commits each shard's slice back.  Splitting
  one shard's natural span at another shard's boundary is exact: the
  session clocks are tick counts (``a`` ticks then ``b`` ticks is
  ``a + b`` ticks), the step-major jitter draw splits at step
  boundaries into the identical value sequence, and the epoch
  accumulators carry their partial folds through the session state
  between sub-spans;
* **batched dispatch** — each shard's boundary closes produce a
  pending dispatch round; the per-round sized normal pre-draws still
  come from each shard's own streams in the serial order, but the
  ``exp`` runs once over every shard's draws concatenated (elementwise
  ``np.exp`` equals ``lognormal_factor``'s scalar ``np.exp`` per
  element), then each shard applies its slice through its own
  ``_dispatch_epoch``.

The result is bit-identical — epochs AND steps — to every shard
running ``step_once`` alone, while amortizing the numpy call overhead
across the whole fleet.  The driver times its span/close/dispatch
phases once; the caller decides whose clock they land on (a solo
window's shard, or the fleet's ``fusion`` stats for a fused round).
"""

from __future__ import annotations

from itertools import repeat
from time import perf_counter

import numpy as np

from repro.sim.batch.shard import _span_chain

#: Stacked keys of a span context, in :func:`_span_chain` operand
#: order; rows stack along axis 0 for the matrices and the per-row
#: vectors alike.
_CHAIN_KEYS = ("RS", "Z", "c1", "tau", "tss0", "er0", "eb0")


def advance_fused(shards, steps: int) -> dict:
    """Advance every shard's engine ``steps`` steps in lockstep.

    Bit-identical to ``steps`` ``step_once`` calls on each shard's
    engine, including every epoch close and tuner dispatch landing on
    its exact tick (shards share no state and no RNG streams — only the
    stacked arithmetic is shared).  Every shard must be span-eligible
    for the whole window (the caller checks
    :func:`~repro.sim.batch.eligibility.unbatchable_lane_reason` per
    lane) and all shards must share one step size.

    Returns window stats: ``chains`` (stacked chain calls), ``rows``
    (lane-spans pushed through them), ``widths`` (histogram of rows per
    chain), and the driver's wall seconds per phase.
    """
    spans = [sh._span for sh in shards]
    dts = {sp.dt for sp in spans}
    if len(dts) != 1:
        raise ValueError("fused shards must share one step size dt")
    dt = dts.pop()
    phase_s = {"span": 0.0, "close": 0.0, "dispatch": 0.0}
    stats = {"shards": len(spans), "chains": 0, "rows": 0,
             "widths": {}, "phase_s": phase_s}
    for sp in spans:
        sp.prepare()
    rem = [steps] * len(spans)
    while True:
        work = []
        for i, sp in enumerate(spans):
            if rem[i] <= 0:
                continue
            active = [s for s in sp.engine.sessions if not s.done]
            if not active:
                # Pure clock ticks: the scalar loop moves nothing and
                # closes nothing when every session is done.
                sp.engine.clock.tick += rem[i]
                rem[i] = 0
                continue
            work.append((i, sp, active))
        if not work:
            break
        t0 = perf_counter()
        k = min(sp.span_len(active, sp.engine.clock.tick, rem[i])
                for i, sp, active in work)
        if k < 1:
            raise RuntimeError(
                "shard span prediction collapsed to zero steps"
            )
        parts = []
        for i, sp, active in work:
            tick = sp.engine.clock.tick
            ctx = sp.collect_span(active, tick, k)
            if ctx is not None:
                parts.append((sp, tick, ctx))
        if parts:
            if len(parts) == 1:
                sp, tick, ctx = parts[0]
                out = _span_chain(
                    *(ctx[key] for key in _CHAIN_KEYS), dt)
                sp.commit_span(ctx, out, tick, k)
                width = len(ctx["live"])
            else:
                out = _span_chain(
                    *(np.concatenate(
                        [p[2][key] for p in parts], axis=0)
                      for key in _CHAIN_KEYS),
                    dt,
                )
                pos = 0
                for sp, tick, ctx in parts:
                    n = len(ctx["live"])
                    sub = tuple(a[pos:pos + n] for a in out)
                    sp.commit_span(ctx, sub, tick, k)
                    pos += n
                width = pos
            stats["chains"] += 1
            stats["rows"] += width
            stats["widths"][width] = stats["widths"].get(width, 0) + 1
        for i, sp, active in work:
            sp.engine.clock.tick += k
            rem[i] -= k
        t1 = perf_counter()
        phase_s["span"] += t1 - t0
        _close_fused([sp for _, sp, _ in work], phase_s)
    for sp in spans:
        # The batched window bypassed the scalar fast path's allocation
        # cache; invalidate it so an interleaved scalar step (the fleet
        # drain path) recomputes instead of trusting a stale entry.
        sp.engine._alloc_key = None
        sp.engine._alloc_val = None
    return stats


def _close_fused(spans, phase_s) -> None:
    """Close every shard's boundary epochs, then dispatch all pending
    rounds with one ``exp`` over the concatenated pre-draws."""
    t0 = perf_counter()
    chunks = []
    draws = []
    for sp in spans:
        pending = sp.close_pending()
        if not pending:
            continue
        zn, zr = sp.dispatch_normals(len(pending))
        chunks.append((sp, pending, zn, zr))
        if zn is not None:
            draws.append(zn)
        if zr is not None:
            draws.append(zr)
    t1 = perf_counter()
    phase_s["close"] += t1 - t0
    if not chunks:
        return
    flat = np.exp(np.concatenate(draws)) if draws else None
    pos = 0
    for sp, pending, zn, zr in chunks:
        m = len(pending)
        if zn is not None:
            noises = flat[pos:pos + m].tolist()
            pos += m
        else:
            noises = repeat(1.0)
        if zr is not None:
            rjits = flat[pos:pos + m].tolist()
            pos += m
        else:
            rjits = repeat(1.0)
        sp.apply_dispatch(pending, noises, rjits)
    phase_s["dispatch"] += perf_counter() - t1
