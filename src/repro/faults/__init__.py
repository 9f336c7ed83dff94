"""Fault injection, retry/backoff, and circuit-breaking fallback.

The resilience layer of the reproduction.  Transfers in the paper's
setting run in hostile conditions — external load, restarts that cost
17–50% of throughput (§IV), and a Globus service that "monitors and
retries transfers when there are faults".  This package makes those
conditions injectable and the recovery machinery explicit:

* :mod:`repro.faults.events` / :mod:`repro.faults.schedule` — a library
  of deterministic, seeded fault schedules (stream crash, session abort,
  blackout, link degradation, observation loss, load spikes) composable
  into campaigns; pure data, replayable exactly.
* :mod:`repro.faults.retry` — :class:`RetryPolicy`: exponential backoff
  with jitter, per-epoch and per-session retry budgets.
* :mod:`repro.faults.breaker` — :class:`CircuitBreaker`: after repeated
  failed epochs, fall back to the safe Globus default (nc=2, np=8) and
  probe for recovery later.
* :mod:`repro.faults.recovery` — :func:`recover_epoch`: the one
  per-epoch recovery ladder over a retry state and a breaker.

Both the simulator (:class:`repro.sim.session.TransferSession` /
:class:`repro.sim.engine.Engine`) and the live adapter
(:func:`repro.live.tune_live`) accept the same schedule + policy +
breaker triple and decide every epoch through :func:`recover_epoch`,
so an experiment hardened in simulation deploys unchanged.  A core guarantee holds in both paths: a faulted or absent
observation is never fed to a tuner as genuine throughput.
"""

from repro.faults.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.faults.corrupt import CORRUPTION_KINDS, corrupt_bytes
from repro.faults.errors import EpochFault, FaultError, SessionAborted
from repro.faults.events import (
    BLACKOUT,
    HARD_KINDS,
    KINDS,
    LINK_DEGRADE,
    LOAD_SPIKE,
    OBS_LOSS,
    SESSION_ABORT,
    SOFT_KINDS,
    STREAM_CRASH,
    FaultEvent,
)
from repro.faults.recovery import Recovery, fallback_params, recover_epoch
from repro.faults.retry import (
    SAFE_DEFAULT_NC,
    SAFE_DEFAULT_NP,
    RetryPolicy,
    RetryState,
)
from repro.faults.schedule import DEFAULT_CAMPAIGN_KINDS, FaultSchedule

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "RetryPolicy",
    "RetryState",
    "CircuitBreaker",
    "Recovery",
    "recover_epoch",
    "fallback_params",
    "FaultError",
    "EpochFault",
    "SessionAborted",
    # fault kinds
    "KINDS",
    "HARD_KINDS",
    "SOFT_KINDS",
    "STREAM_CRASH",
    "SESSION_ABORT",
    "BLACKOUT",
    "LINK_DEGRADE",
    "OBS_LOSS",
    "LOAD_SPIKE",
    "DEFAULT_CAMPAIGN_KINDS",
    # breaker states
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    # safe defaults
    "SAFE_DEFAULT_NC",
    "SAFE_DEFAULT_NP",
    # corruption fuzzer
    "CORRUPTION_KINDS",
    "corrupt_bytes",
]
