"""Tuner-state reconstruction by observation replay.

Tuners are opaque generators (:class:`repro.core.base.TunerDriver`):
their search state cannot be pickled portably, and must not be — a
checkpoint format tied to generator internals would break on any
refactor.  Instead, resume *replays* the journaled epochs through a
fresh driver: the tuner receives exactly the observations it received
in the original run (and only those — faulted, obs-lost, and
breaker-fallback epochs are withheld, per the fault-aware tuning
invariant), so its generator ends up in the bit-identical state, RNG
and all (seeded tuners draw inside ``propose``, so a fresh ``start``
replays their internal randomness too).

The replay drives fresh :class:`~repro.faults.RetryPolicy` counters and
a :class:`~repro.faults.CircuitBreaker` through the recovery ladder
:meth:`repro.sim.engine.Engine._dispatch_epoch` and
:func:`repro.live.tune_live` share
(:func:`repro.faults.recovery.recover_epoch`), and *verifies* every
journaled epoch
against the recomputed trajectory — params, governing breaker state,
cumulative retries, and the tuned flag must all match, else
:class:`ReplayMismatchError` pinpoints the first divergent epoch.  A
journal that passes replay is guaranteed to put the resumed run in the
exact state the crashed run was in at its last complete epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import Tuner, TunerDriver
from repro.core.params import ParamSpace
from repro.faults.breaker import CLOSED, OPEN, CircuitBreaker
from repro.faults.recovery import (
    FAIL,
    FALLBACK,
    OBSERVE,
    PROBE,
    fallback_params,
    recover_epoch,
)
from repro.faults.retry import RetryPolicy, RetryState
from repro.sim.trace import EpochRecord


class ReplayMismatchError(RuntimeError):
    """The journal disagrees with the replayed trajectory.

    Raised before any resumed run continues: either the journal belongs
    to a different configuration (tuner, seed, space, fault machinery)
    or it was tampered with/damaged in a way the framing checks cannot
    see.
    """

    def __init__(self, epoch: int, field: str, expected, got) -> None:
        self.epoch = epoch
        self.field = field
        super().__init__(
            f"replay mismatch at epoch {epoch}: {field} expected "
            f"{expected!r}, journal has {got!r} — the journal does not "
            "match this run configuration"
        )


@dataclass
class ReplayResult:
    """Reconstructed control-loop state after replaying a journal prefix.

    ``driver.current`` is the tuner's standing proposal and ``params``
    the parameters the *next* epoch must run with (they differ while
    faults hold the session at its previous parameters or the breaker
    pins it at the fallback).
    """

    driver: TunerDriver
    params: tuple[int, ...]
    retry_state: RetryState | None
    breaker: CircuitBreaker | None
    failed: bool
    epochs_replayed: int


def replay_epochs(
    tuner: Tuner,
    space: ParamSpace,
    x0: tuple[int, ...],
    records: list[EpochRecord],
    *,
    retry_policy: RetryPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    nc_dim: int | None = 0,
    np_dim: int | None = None,
    verify: bool = True,
) -> ReplayResult:
    """Rebuild driver/retry/breaker state from journaled epoch records.

    ``breaker`` is reset and driven through the replay (pass the
    session's own instance so resume leaves it holding the right
    state).  With ``verify`` (the default) every record is checked
    against the recomputed trajectory; disable only in tests probing
    the mechanics.
    """
    driver = tuner.start(x0, space)
    retry_state = retry_policy.start() if retry_policy is not None else None
    if breaker is not None:
        breaker.reset()
    params = driver.current
    failed = False

    for i, rec in enumerate(records):
        governing = breaker.state if breaker is not None else CLOSED
        tuned = rec.fault is None and governing != OPEN
        if verify:
            if tuple(rec.params) != tuple(params):
                raise ReplayMismatchError(i, "params", tuple(params),
                                          tuple(rec.params))
            if rec.breaker != governing:
                raise ReplayMismatchError(i, "breaker", governing,
                                          rec.breaker)
            expected_retries = (retry_state.total_retries
                                if retry_state is not None else 0)
            if rec.retries != expected_retries:
                raise ReplayMismatchError(i, "retries", expected_retries,
                                          rec.retries)
            if rec.tuned != tuned:
                raise ReplayMismatchError(i, "tuned", tuned, rec.tuned)
        if failed:
            raise ReplayMismatchError(
                i, "failed", "no epochs after a session abort ended the "
                "run", "extra epoch record")

        # The jitter draw only shapes the backoff *delay*; the counters
        # the resumed run needs are u-independent.
        arm = recover_epoch(rec.fault, rec.faulted, retry_state, breaker,
                            u=0.0).arm
        if arm == FAIL:
            failed = True
        elif arm == FALLBACK:
            params = fallback_params(breaker, space, params, nc_dim, np_dim)
        elif arm == PROBE:
            params = driver.current  # probe with the standing proposal
        elif arm == OBSERVE:
            params = driver.observe(rec.observed)
        # A relaunch or a lost measurement holds the parameters.

    return ReplayResult(
        driver=driver,
        params=tuple(params),
        retry_state=retry_state,
        breaker=breaker,
        failed=failed,
        epochs_replayed=len(records),
    )
