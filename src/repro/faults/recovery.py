"""The per-epoch recovery ladder, shared by every control loop.

After each closed control epoch, the simulator
(:meth:`repro.sim.engine.Engine._dispatch_epoch`), the live loop
(:func:`repro.live.tune_live`) and journal replay
(:func:`repro.checkpoint.replay.replay_epochs`) make the same decision
from the epoch's fault and the session's retry/breaker state:
:func:`recover_epoch` drives the bookkeeping and names the arm to take,
and each caller applies only its own effects (adopting parameters,
serving the backoff, emitting events).  One function means a campaign
takes the same fault, retry and breaker transitions on every path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.faults.breaker import OPEN, CircuitBreaker
from repro.faults.events import OBS_LOSS, SESSION_ABORT
from repro.faults.retry import RetryState

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.params import ParamSpace

# The arms of the ladder.
FAIL = "fail"  # a session abort past the retry budget: the transfer ends
FALLBACK = "fallback"  # breaker open: serve the safe default, no tuner
PROBE = "probe"  # cooldown over: relaunch with the standing proposal
RELAUNCH = "relaunch"  # the tool died: same parameters, after the backoff
HOLD = "hold"  # measurement lost: hold the parameters, observe nothing
OBSERVE = "observe"  # a clean epoch: feed the tuner


class Recovery(NamedTuple):
    """The arm :func:`recover_epoch` chose for one closed epoch.

    ``backoff_s`` is the delay to serve before a :data:`RELAUNCH` (0.0
    when no retry was charged); ``entering`` marks the :data:`FALLBACK`
    epoch on which the breaker opened, whose switch pays a relaunch.
    """

    arm: str
    backoff_s: float = 0.0
    entering: bool = False


def recover_epoch(
    fault: str | None,
    faulted: bool,
    retry_state: RetryState | None,
    breaker: CircuitBreaker | None,
    *,
    u: float | None = None,
    rng: "np.random.Generator | None" = None,
) -> Recovery:
    """Drive one epoch's retry/breaker bookkeeping; return the arm.

    The order is the contract every caller shares: the retry policy's
    per-epoch budget refills, the breaker records the epoch, a session
    abort past the budget fails the transfer, an open breaker pins the
    fallback (no retry is charged), the first epoch after the cooldown
    probes, a faulted epoch charges a retry while budgets allow, and a
    clean or obs-lost epoch resets the failure streak.

    ``u``/``rng`` shape the backoff jitter exactly as
    :meth:`~repro.faults.retry.RetryState.record_failure` takes them:
    a pre-drawn ``u`` in [-1, 1], else a draw from ``rng`` on a charged
    retry only, else the deterministic midpoint.
    """
    if retry_state is not None:
        retry_state.next_epoch()
    prev = breaker.state if breaker is not None else None
    if breaker is not None:
        breaker.record_epoch(faulted)
    if (fault == SESSION_ABORT and retry_state is not None
            and not retry_state.can_retry()):
        return Recovery(FAIL)
    if breaker is not None:
        if breaker.state == OPEN:
            return Recovery(FALLBACK, entering=prev != OPEN)
        if prev == OPEN:
            return Recovery(PROBE)
    if faulted:
        backoff = 0.0
        if retry_state is not None and retry_state.can_retry():
            backoff = retry_state.record_failure(rng=rng, u=u)
        return Recovery(RELAUNCH, backoff_s=backoff)
    if retry_state is not None:
        retry_state.record_success()
    return Recovery(HOLD if fault == OBS_LOSS else OBSERVE)


def fallback_params(
    breaker: CircuitBreaker,
    space: "ParamSpace",
    params: tuple[int, ...],
    nc_dim: int | None,
    np_dim: int | None,
) -> tuple[int, ...]:
    """The breaker's safe default mapped into a tuned space: the nc and
    np dimensions (``None``: not tuned, left as they are) take the
    fallback values, then snap into the space."""
    p = list(params)
    if nc_dim is not None:
        p[nc_dim] = breaker.fallback_nc
    if np_dim is not None:
        p[np_dim] = breaker.fallback_np
    return space.fbnd(tuple(p))
