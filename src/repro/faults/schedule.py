"""Deterministic fault schedules and campaign builders.

A :class:`FaultSchedule` is an immutable set of :class:`FaultEvent`\\ s
indexed by control epoch.  It is pure data: two schedules built from the
same events (or the same seed) behave identically in the simulator and
the live adapter, which is what makes fault campaigns replayable —
running the same campaign twice yields identical fault, retry and
circuit-breaker transitions.

Campaign builders cover the usual experiment shapes:

* :meth:`FaultSchedule.bernoulli` — independent per-epoch faults at a
  given rate, pre-drawn from a seed;
* :meth:`FaultSchedule.bursts` — correlated failure bursts (an unstable
  period of several consecutive bad epochs), the regime circuit breakers
  exist for;
* :meth:`FaultSchedule.blackout` / :meth:`degradation` /
  :meth:`load_spike` — single hand-placed windows for targeted tests.

Schedules compose with :meth:`merge` and re-anchor with :meth:`shifted`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.events import (
    BLACKOUT,
    HARD_KINDS,
    LINK_DEGRADE,
    LOAD_SPIKE,
    OBS_LOSS,
    SESSION_ABORT,
    STREAM_CRASH,
    FaultEvent,
)

#: Default kind mix for random campaigns: mostly transient faults, the
#: occasional observation loss; no session aborts unless asked for.
DEFAULT_CAMPAIGN_KINDS = (STREAM_CRASH, BLACKOUT, OBS_LOSS)


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, epoch-indexed collection of fault events."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.epoch, e.kind, e.duration))
        )
        object.__setattr__(self, "events", ordered)

    # -- queries ---------------------------------------------------------

    def events_at(self, epoch: int) -> tuple[FaultEvent, ...]:
        """All events active at control epoch ``epoch``."""
        return tuple(e for e in self.events if e.active_at(epoch))

    def hard_fault_at(self, epoch: int) -> FaultEvent | None:
        """The most severe hard fault active at ``epoch`` (abort beats
        crash beats blackout), or None."""
        active = [e for e in self.events_at(epoch) if e.hard]
        if not active:
            return None
        rank = {k: i for i, k in enumerate(HARD_KINDS)}
        return min(active, key=lambda e: rank[e.kind])

    def rate_factor(self, epoch: int) -> float:
        """Combined soft-fault multiplier on achievable throughput."""
        factor = 1.0
        for e in self.events_at(epoch):
            if e.kind == LINK_DEGRADE:
                factor *= 1.0 - e.severity
            elif e.kind == LOAD_SPIKE:
                factor *= 1.0 / (1.0 + e.severity)
        return factor

    def observation_lost(self, epoch: int) -> bool:
        """True when the control channel drops this epoch's measurement."""
        return any(e.kind == OBS_LOSS for e in self.events_at(epoch))

    @property
    def last_epoch(self) -> int:
        """Last epoch any event touches (-1 for an empty schedule)."""
        return max((e.last_epoch for e in self.events), default=-1)

    def fault_epochs(self) -> tuple[int, ...]:
        """Sorted epochs with at least one hard fault active."""
        hit: set[int] = set()
        for e in self.events:
            if e.hard:
                hit.update(range(e.epoch, e.last_epoch + 1))
        return tuple(sorted(hit))

    def counts_by_kind(self) -> dict[str, int]:
        """Scheduled event count per fault kind (sorted by kind) — what
        ``repro info`` and the telemetry layer summarize a campaign by."""
        counts: dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return dict(sorted(counts.items()))

    # -- serialization ---------------------------------------------------

    def to_list(self) -> list[dict]:
        """JSON-ready event list (for journal headers)."""
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_list(cls, data: list[dict]) -> "FaultSchedule":
        """Inverse of :meth:`to_list`."""
        return cls(tuple(FaultEvent.from_dict(d) for d in data))

    # -- composition -----------------------------------------------------

    def merge(self, other: "FaultSchedule") -> "FaultSchedule":
        """Union of two schedules' events."""
        return FaultSchedule(self.events + other.events)

    def shifted(self, by_epochs: int) -> "FaultSchedule":
        """The same schedule starting ``by_epochs`` later."""
        if by_epochs < 0:
            raise ValueError("by_epochs must be non-negative")
        return FaultSchedule(
            tuple(
                FaultEvent(
                    kind=e.kind,
                    epoch=e.epoch + by_epochs,
                    duration=e.duration,
                    severity=e.severity,
                    at_fraction=e.at_fraction,
                )
                for e in self.events
            )
        )

    # -- builders --------------------------------------------------------

    @classmethod
    def blackout(cls, epoch: int, duration: int = 1) -> "FaultSchedule":
        """A single zero-byte window."""
        return cls((FaultEvent(BLACKOUT, epoch, duration),))

    @classmethod
    def abort(cls, epoch: int) -> "FaultSchedule":
        """A full-session kill at ``epoch``."""
        return cls((FaultEvent(SESSION_ABORT, epoch),))

    @classmethod
    def degradation(
        cls, epoch: int, duration: int, severity: float
    ) -> "FaultSchedule":
        """A lossy-link window scaling throughput by ``1 - severity``."""
        return cls((FaultEvent(LINK_DEGRADE, epoch, duration, severity),))

    @classmethod
    def load_spike(
        cls, epoch: int, duration: int, severity: float
    ) -> "FaultSchedule":
        """An endpoint load burst scaling throughput by ``1/(1+severity)``."""
        return cls((FaultEvent(LOAD_SPIKE, epoch, duration, severity),))

    @classmethod
    def bernoulli(
        cls,
        seed: int,
        n_epochs: int,
        fault_rate: float,
        kinds: tuple[str, ...] = DEFAULT_CAMPAIGN_KINDS,
    ) -> "FaultSchedule":
        """Independent per-epoch faults: each epoch faults with probability
        ``fault_rate``; the kind is drawn uniformly from ``kinds``.

        Fully determined by ``seed`` — the campaign is data, not a run-time
        coin flip, so replays are exact.
        """
        if n_epochs < 0:
            raise ValueError("n_epochs must be non-negative")
        if not 0 <= fault_rate <= 1:
            raise ValueError("fault_rate must be in [0, 1]")
        if not kinds:
            raise ValueError("kinds must be non-empty")
        rng = np.random.default_rng(seed)
        events = []
        for epoch in range(n_epochs):
            if rng.random() >= fault_rate:
                continue
            kind = kinds[int(rng.integers(len(kinds)))]
            at_fraction = float(rng.uniform(0.1, 0.9)) if kind == STREAM_CRASH else 0.0
            events.append(FaultEvent(kind, epoch, at_fraction=at_fraction))
        return cls(tuple(events))

    @classmethod
    def bursts(
        cls,
        seed: int,
        n_epochs: int,
        n_bursts: int,
        burst_len: int,
        kind: str = BLACKOUT,
    ) -> "FaultSchedule":
        """``n_bursts`` windows of ``burst_len`` consecutive faulted epochs
        at seeded-random starting points — the correlated-failure regime
        that trips a circuit breaker."""
        if n_epochs < 0 or n_bursts < 0:
            raise ValueError("n_epochs and n_bursts must be non-negative")
        if burst_len < 1:
            raise ValueError("burst_len must be >= 1")
        rng = np.random.default_rng(seed)
        events = []
        latest_start = max(0, n_epochs - burst_len)
        for _ in range(n_bursts):
            start = int(rng.integers(0, latest_start + 1))
            events.append(FaultEvent(kind, start, duration=burst_len))
        return cls(tuple(events))
