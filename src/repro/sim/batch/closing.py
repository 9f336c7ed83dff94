"""Batched epoch close: ``TransferSession.close_epoch`` over the lane axis.

:func:`close_epochs` folds the per-session observed-throughput
aggregation (``MB / elapsed``, ``MB / run_s``) into one numpy pass and
assembles the :class:`~repro.sim.trace.EpochRecord` tuples through
``tuple.__new__`` — the same bulk-construction idiom the span kernel's
step records use.  Every record is bit-identical to the scalar
``close_epoch``: the division is elementwise IEEE double arithmetic in
the same operand order, ``start = now - epoch_elapsed`` is the scalar
subtraction per session, and all array results cross back into python
floats (downstream consumers — tuners, JSON cache entries — must never
see ``np.float64``).

The span kernel's close round (:func:`repro.sim.batch.shard.
advance_spans`) closes every boundary session of every engine — batch
lanes and fleet shards alike — with one call.
"""

from __future__ import annotations

import numpy as np

from repro.faults.breaker import OPEN as OPEN_STATE
from repro.faults.events import OBS_LOSS
from repro.sim.trace import EpochRecord


def close_epochs(sessions, nows) -> list[EpochRecord]:
    """Close one epoch on every session, in order; returns the records.

    Mirrors ``TransferSession.close_epoch(start_time=now - epoch_elapsed)``
    per session, ``nows`` holding each session's engine time, with the
    float aggregation batched across sessions.
    """
    new = tuple.__new__
    ee_l = [s.epoch_elapsed for s in sessions]
    er_l = [s.epoch_run_s for s in sessions]
    eb_l = [s.epoch_bytes for s in sessions]
    ee = np.asarray(ee_l)
    er = np.asarray(er_l)
    eb = np.asarray(eb_l)
    if (ee <= 0).any():
        raise ValueError("cannot close an empty epoch")
    mb = eb / 1e6
    observed = (mb / ee).tolist()
    best = np.where(er > 0, mb / np.where(er > 0, er, 1.0), 0.0).tolist()
    starts = (np.asarray(nows) - ee).tolist()

    out: list[EpochRecord] = []
    for j, s in enumerate(sessions):
        fault = (s.epoch_fault_kind()
                 if s.fault_schedule is not None else None)
        faulted = fault is not None and fault != OBS_LOSS
        breaker_state = (s.breaker.state if s.breaker is not None
                         else "closed")
        rec = new(EpochRecord, (
            s.epoch_index,
            starts[j],
            ee_l[j],
            s.params,
            observed[j],
            best[j],
            eb_l[j],
            faulted,
            fault,
            (s.retry_state.total_retries
             if s.retry_state is not None else 0),
            breaker_state,
            fault is None and breaker_state != OPEN_STATE,
        ))
        trace = s.trace
        if trace.epochs and rec.index != trace.epochs[-1].index + 1:
            raise ValueError(
                f"epoch indices must be consecutive; got {rec.index} "
                f"after {trace.epochs[-1].index}"
            )
        trace.epochs.append(rec)
        s._last_step_mark = s._epoch_step_mark
        s._epoch_step_mark = len(trace.steps)
        s.epoch_index += 1
        s.epoch_ticks = 0
        s.close_tick = s._later_close
        s.epoch_run_s = 0.0
        s.epoch_bytes = 0.0
        out.append(rec)
    return out
