"""Vectorized batch paths: one span kernel beside the scalar reference.

:func:`~repro.sim.batch.shard.advance_spans` is the one lockstep driver:
it advances any set of engines through :class:`ShardSpanEngine` span
states — the B independent single-session lanes of a
:class:`BatchEngine` and the multi-session engines of fleet shards
alike — with one span loop, one row gatherer feeding one matrix chain,
and one close/dispatch round.  ``unbatchable_reason`` classifies which
configurations must stay on the scalar path.  Batched lanes are
bit-identical (epochs AND steps) to the scalar reference — see
DESIGN.md §15.
"""

from repro.sim.batch.eligibility import unbatchable_reason
from repro.sim.batch.engine import BatchEngine
from repro.sim.batch.shard import ShardSpanEngine

__all__ = [
    "BatchEngine",
    "ShardSpanEngine",
    "unbatchable_reason",
]
