"""Fused shard windows: one span kernel over many fleet shards.

:func:`advance_fused` advances every batched shard window — a solo
shard's (:meth:`repro.service.shard.FleetShard.step_epoch`) and a fused
round over several shards (:meth:`repro.service.fleet.FleetService.
pump`) alike — through the span kernel's lockstep driver,
:func:`repro.sim.batch.shard.advance_spans`, the same driver that runs
batch lanes.  Each fleet shard owns an independent engine (its own RNG
streams, its own clock), so shards never couple through state; their
spans run the same arithmetic on disjoint row sets, which the driver
stacks into one matrix chain per lockstep sub-span, and their boundary
dispatch rounds share one ``exp``.

The result is bit-identical — epochs AND steps — to every shard running
``step_once`` alone.  The driver times its span/close/dispatch phases
once; the caller decides whose clock they land on (a solo window's
shard, or the fleet's ``fusion`` stats for a fused round).
"""

from __future__ import annotations

from repro.sim.batch.shard import advance_spans


def advance_fused(shards, steps: int) -> dict:
    """Advance every shard's engine ``steps`` steps in lockstep.

    Every shard must have batching on (a fleet shard's sessions are
    span-eligible by construction, faulted or not) and all shards must
    share one step size.

    Returns window stats: ``shards``, ``chains`` (stacked chain calls),
    ``rows`` (lane-spans pushed through them), ``widths`` (histogram of
    rows per chain), and the driver's wall seconds per phase.
    """
    stats = advance_spans([sh._span for sh in shards],
                          [steps] * len(shards))
    stats["shards"] = len(shards)
    return stats
