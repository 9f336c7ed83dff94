"""Transfer specifications and byte accounting.

The paper's experiments transfer from ``/dev/zero`` to ``/dev/null`` — an
unbounded source — for a fixed wall-clock duration; Algorithms 1-3 are
written for a finite size ``s`` with remaining-bytes bookkeeping ``s'``.
:class:`TransferSpec` supports both: give ``total_bytes=math.inf`` with a
``max_duration_s``, or a finite size (or both; whichever ends first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TransferSpec:
    """Immutable description of one transfer job.

    Parameters
    ----------
    name:
        Unique session identifier, e.g. ``"anl-uc"``.
    path_name:
        Route in the topology the streams will follow.
    total_bytes:
        Data size ``s``; ``math.inf`` emulates /dev/zero sources.
    max_duration_s:
        Wall-clock limit; ``None`` for unlimited (finite sizes only).
    epoch_s:
        Control epoch length ``e`` (paper: 30 s).
    epoch_offset_s:
        Phase offset of the first epoch boundary.  The first control
        epoch lasts ``epoch_s + epoch_offset_s``; all later ones
        ``epoch_s``.  Desynchronizes the control loops of concurrent
        sessions — the "temporal ordering of control epochs" the paper's
        §IV-D speculates about.
    """

    name: str
    path_name: str
    total_bytes: float = math.inf
    max_duration_s: float | None = None
    epoch_s: float = 30.0
    epoch_offset_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("transfer name must be non-empty")
        if not self.path_name:
            raise ValueError("path_name must be non-empty")
        if self.total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        if math.isinf(self.total_bytes) and self.max_duration_s is None:
            raise ValueError(
                "an unbounded transfer needs a max_duration_s limit"
            )
        if self.max_duration_s is not None and self.max_duration_s <= 0:
            raise ValueError("max_duration_s must be positive")
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        if not 0 <= self.epoch_offset_s < self.epoch_s:
            raise ValueError("epoch_offset_s must be in [0, epoch_s)")


@dataclass
class TransferState:
    """Mutable progress of one transfer (the ``s'`` of the algorithms).

    Elapsed time is a step count: ``elapsed_s`` is ``ticks * dt``.
    """

    spec: TransferSpec
    remaining_bytes: float = math.nan  # set in __post_init__
    elapsed_s: float = 0.0
    ticks: int = 0

    def __post_init__(self) -> None:
        if math.isnan(self.remaining_bytes):
            self.remaining_bytes = self.spec.total_bytes

    @property
    def done(self) -> bool:
        """True once all bytes moved or the wall-clock limit is reached."""
        if self.remaining_bytes <= 0:
            return True
        limit = self.spec.max_duration_s
        return limit is not None and self.elapsed_s >= limit

    def account(self, nbytes: float, dt: float) -> float:
        """Consume up to ``nbytes`` over a ``dt``-second step.

        Returns the bytes actually moved (clipped to what remains).
        """
        if nbytes < 0 or dt <= 0:
            raise ValueError("need nbytes >= 0 and dt > 0")
        moved = min(nbytes, self.remaining_bytes)
        self.remaining_bytes -= moved
        self.ticks += 1
        self.elapsed_s = self.ticks * dt
        return moved

    # -- checkpoint support ----------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready progress state (``inf`` survives the round trip —
        Python's ``json`` writes/reads it as ``Infinity``)."""
        return {
            "remaining_bytes": self.remaining_bytes,
            "elapsed_s": self.elapsed_s,
            "ticks": self.ticks,
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (the spec is immutable and
        travels with the run configuration instead)."""
        self.remaining_bytes = float(state["remaining_bytes"])
        self.elapsed_s = float(state["elapsed_s"])
        self.ticks = int(state["ticks"])
