"""Time-series recording for simulation runs.

Two granularities are recorded:

* :class:`StepRecord` — one per simulation step (default 1 s): instantaneous
  rate, bytes moved, whether the session was inside a restart window.
* :class:`EpochRecord` — one per control epoch (default 30 s): the parameter
  vector used, observed (with-overhead) throughput, best-case (no-overhead)
  throughput, and bytes moved.  These are exactly the quantities the paper
  plots in Figures 5–11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class StepRecord(NamedTuple):
    """Instantaneous state of one session over one simulation step.

    A NamedTuple rather than a (frozen) dataclass: runs construct one
    record per simulated second, so the C-level tuple constructor is a
    measurable win for both the scalar step loop and the span kernel's
    bulk record construction — with the same immutability, field
    access, repr style, and equality semantics.
    """

    time: float  #: start of step, seconds
    rate: float  #: achieved rate over this step, MB/s (0 while restarting)
    restarting: bool  #: True if the step fell inside a restart window
    bytes_moved: float  #: bytes transferred during the step


class EpochRecord(NamedTuple):
    """Aggregate of one control epoch of a tuner-driven session.

    The fault/recovery fields default to the clean-epoch values so
    records from fault-free runs (and pre-fault trace files) read
    unchanged.  A NamedTuple for the same reason as :class:`StepRecord`
    (epoch closes are on the span kernel's per-epoch hot path).
    """

    index: int  #: epoch counter c
    start: float  #: epoch start time, seconds
    duration: float  #: epoch length, seconds
    params: tuple[int, ...]  #: parameter vector (e.g. (nc,) or (nc, np))
    observed: float  #: epoch-average throughput with restart overhead, MB/s
    best_case: float  #: epoch-average throughput excluding restart dead time
    bytes_moved: float  #: bytes transferred during the epoch
    faulted: bool = False  #: a hard fault (crash/abort/blackout) hit the epoch
    fault: str | None = None  #: fault kind (see repro.faults.events), if any
    retries: int = 0  #: cumulative retries the session consumed so far
    breaker: str = "closed"  #: circuit-breaker state governing the epoch
    tuned: bool = True  #: observation was fed to the tuner as genuine


@dataclass
class Trace:
    """All records of a single session's run, with convenience accessors."""

    label: str = ""
    steps: list[StepRecord] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)

    # -- recording -----------------------------------------------------

    def add_step(self, rec: StepRecord) -> None:
        self.steps.append(rec)

    def add_epoch(self, rec: EpochRecord) -> None:
        if self.epochs and rec.index != self.epochs[-1].index + 1:
            raise ValueError(
                f"epoch indices must be consecutive; got {rec.index} after "
                f"{self.epochs[-1].index}"
            )
        self.epochs.append(rec)

    # -- accessors -----------------------------------------------------

    @property
    def total_bytes(self) -> float:
        """Total bytes moved across all recorded steps."""
        return float(sum(s.bytes_moved for s in self.steps))

    def step_times(self) -> np.ndarray:
        return np.array([s.time for s in self.steps])

    def step_rates(self) -> np.ndarray:
        return np.array([s.rate for s in self.steps])

    def epoch_times(self) -> np.ndarray:
        return np.array([e.start for e in self.epochs])

    def epoch_observed(self) -> np.ndarray:
        return np.array([e.observed for e in self.epochs])

    def epoch_best_case(self) -> np.ndarray:
        return np.array([e.best_case for e in self.epochs])

    def epoch_param(self, dim: int) -> np.ndarray:
        """Trajectory of one parameter (e.g. dim 0 = nc) across epochs."""
        return np.array([e.params[dim] for e in self.epochs])

    def faulted_epochs(self) -> list[int]:
        """Indices of epochs a hard fault hit."""
        return [e.index for e in self.epochs if e.faulted]

    def breaker_states(self) -> list[str]:
        """Circuit-breaker state per epoch (all "closed" without one)."""
        return [e.breaker for e in self.epochs]

    def tuner_fed_epochs(self) -> list[int]:
        """Indices of epochs whose throughput reached the tuner."""
        return [e.index for e in self.epochs if e.tuned]

    def mean_observed(self, *, from_time: float = 0.0, to_time: float | None = None) -> float:
        """Time-weighted mean observed throughput over [from_time, to_time)."""
        sel = [
            e
            for e in self.epochs
            if e.start >= from_time and (to_time is None or e.start < to_time)
        ]
        if not sel:
            raise ValueError("no epochs in requested window")
        total_t = sum(e.duration for e in sel)
        return float(sum(e.observed * e.duration for e in sel) / total_t)

    def mean_best_case(self, *, from_time: float = 0.0, to_time: float | None = None) -> float:
        """Time-weighted mean best-case throughput over [from_time, to_time)."""
        sel = [
            e
            for e in self.epochs
            if e.start >= from_time and (to_time is None or e.start < to_time)
        ]
        if not sel:
            raise ValueError("no epochs in requested window")
        total_t = sum(e.duration for e in sel)
        return float(sum(e.best_case * e.duration for e in sel) / total_t)
