"""Tuner-driven transfer sessions.

A :class:`TransferSession` binds together one transfer
(:class:`~repro.gridftp.transfer.TransferSpec`), the tuner controlling it,
the mapping from tuner parameters to ``(nc, np)``, and the per-epoch
runtime state the engine advances (restart window, ramp clock, epoch
accumulators, trace).

The dt-paced clocks (transfer, epoch, restart window) are integer step
counts, read as seconds through ``ticks * dt``, so every engine path
meets epoch closes, completions and restart ends on the same step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.core.base import Tuner, TunerDriver
from repro.core.params import ParamSpace
from repro.faults.breaker import OPEN as OPEN_STATE
from repro.faults.breaker import CircuitBreaker
from repro.faults.events import OBS_LOSS, STREAM_CRASH
from repro.faults.retry import RetryPolicy, RetryState
from repro.faults.schedule import FaultSchedule
from repro.gridftp.transfer import TransferSpec, TransferState
from repro.sim.clock import boundary_tick
from repro.sim.trace import EpochRecord, StepRecord, Trace
from repro.sim.traceio import step_from_dict, step_to_dict


@dataclass(frozen=True)
class ParamMap:
    """How a tuner's parameter vector maps to the tool's (nc, np, pp).

    Each of nc/np/pp either comes from a dimension of the tuned vector or
    is fixed.  The paper's §IV-A tunes nc with np fixed at 8; §IV-B tunes
    nc and np; the disk-to-disk extension adds pipelining depth pp.
    """

    nc_dim: int | None = 0
    np_dim: int | None = None
    pp_dim: int | None = None
    fixed_nc: int = 1
    fixed_np: int = 1
    fixed_pp: int = 1

    def __post_init__(self) -> None:
        if self.nc_dim is None and self.fixed_nc < 1:
            raise ValueError("fixed_nc must be >= 1")
        if self.np_dim is None and self.fixed_np < 1:
            raise ValueError("fixed_np must be >= 1")
        if self.pp_dim is None and self.fixed_pp < 1:
            raise ValueError("fixed_pp must be >= 1")
        dims = [d for d in (self.nc_dim, self.np_dim, self.pp_dim)
                if d is not None]
        if len(set(dims)) != len(dims):
            raise ValueError("nc/np/pp cannot share a dimension")

    @classmethod
    def nc_only(cls, fixed_np: int = 8) -> "ParamMap":
        """Tune concurrency, parallelism fixed (paper §IV-A default np=8)."""
        return cls(nc_dim=0, np_dim=None, fixed_np=fixed_np)

    @classmethod
    def nc_np(cls) -> "ParamMap":
        """Tune concurrency (dim 0) and parallelism (dim 1), paper §IV-B."""
        return cls(nc_dim=0, np_dim=1)

    @classmethod
    def nc_np_pp(cls) -> "ParamMap":
        """Tune concurrency, parallelism, and pipelining (disk extension)."""
        return cls(nc_dim=0, np_dim=1, pp_dim=2)

    def nc(self, x: tuple[int, ...]) -> int:
        return x[self.nc_dim] if self.nc_dim is not None else self.fixed_nc

    def np(self, x: tuple[int, ...]) -> int:
        return x[self.np_dim] if self.np_dim is not None else self.fixed_np

    def pp(self, x: tuple[int, ...]) -> int:
        return x[self.pp_dim] if self.pp_dim is not None else self.fixed_pp


class TransferSession:
    """Runtime state of one transfer under tuner control.

    Parameters
    ----------
    spec:
        The transfer job (name, path, size/duration, epoch length).
    tuner:
        Direct-search method (or ``StaticTuner`` for the default baseline).
        ``None`` when the session is driven by a joint controller.
    space, x0:
        The tuned parameter domain and starting point.
    param_map:
        Mapping from tuned vector to (nc, np).
    restart_each_epoch:
        True for the paper's tuners (the tool is relaunched every control
        epoch); False for ``default`` which launches once and runs.
    warm_restart:
        Extension (future work 2): reuse processes when only np changes.
    fault_schedule:
        Optional deterministic fault campaign (:mod:`repro.faults`):
        crashes, aborts, blackouts, link degradation, observation loss
        and load spikes, indexed by control epoch.
    retry_policy:
        How faulted epochs are retried: backoff dead time and retry
        budgets.  A session abort with no retry budget left ends the
        transfer (``failed`` is set).
    breaker:
        Optional circuit breaker: after repeated faulted epochs the
        session is pinned to the safe Globus default and the tuner is
        bypassed until a probe epoch succeeds.
    disk_cap_fn:
        Optional extra rate cap (MB/s) as a function of (nc, np, pp),
        used by the disk-to-disk extension.
    """

    def __init__(
        self,
        spec: TransferSpec,
        tuner: Tuner | None,
        space: ParamSpace,
        x0: tuple[int, ...],
        *,
        param_map: ParamMap | None = None,
        restart_each_epoch: bool = True,
        warm_restart: bool = False,
        fault_schedule: FaultSchedule | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        disk_cap_fn: Callable[[int, int, int], float] | None = None,
    ) -> None:
        self.spec = spec
        self.space = space
        self.param_map = param_map if param_map is not None else ParamMap()
        self.restart_each_epoch = restart_each_epoch
        self.warm_restart = warm_restart
        self.fault_schedule = fault_schedule
        self.retry_policy = retry_policy
        self.retry_state: RetryState | None = (
            retry_policy.start() if retry_policy is not None else None
        )
        self.breaker = breaker
        self.disk_cap_fn = disk_cap_fn

        #: Kept so checkpoint/resume can rebuild a fresh driver by
        #: replaying journaled observations (seeded tuners build their
        #: RNG inside ``propose``, so a re-``start`` replays exactly).
        self.tuner = tuner
        self.x0 = tuple(x0)
        self.driver: TunerDriver | None = (
            tuner.start(x0, space) if tuner is not None else None
        )
        self.params: tuple[int, ...] = (
            self.driver.current if self.driver is not None else space.fbnd(x0)
        )
        self._check_dims()

        self.state = TransferState(spec)
        self.trace = Trace(label=spec.name)

        # Restart window: ``dead_ticks`` whole steps that move nothing,
        # then ``lead_s`` dead seconds opening the first live step.
        self.dead_ticks: int = 0
        self.lead_s: float = 0.0
        self.time_since_start: float = 0.0

        # Epoch accumulators.
        self.epoch_index: int = 0
        self.epoch_ticks: int = 0
        self.epoch_run_s: float = 0.0
        self.epoch_bytes: float = 0.0
        self.noise_factor: float = 1.0

        #: Set when a session abort exhausted the retry budget.
        self.failed: bool = False

        # Indices into ``trace.steps`` where the most recently closed
        # epoch and the current (partial) epoch begin.
        self._last_step_mark: int = 0
        self._epoch_step_mark: int = 0
        self.bind_dt(1.0)

    def bind_dt(self, dt: float) -> None:
        """Pace the clocks in ``dt``-second steps (the adopting engine
        binds its own) and resolve the boundaries to ticks."""
        spec = self.spec
        self.dt = dt
        self._first_close = boundary_tick(
            spec.epoch_s + spec.epoch_offset_s - 1e-9, dt)
        self._later_close = boundary_tick(spec.epoch_s - 1e-9, dt)
        #: Epoch tick that closes the current control epoch.
        self.close_tick = (self._first_close if self.epoch_index == 0
                           else self._later_close)
        #: Transfer tick that reaches the duration limit (None: unbounded).
        self.done_tick = (None if spec.max_duration_s is None
                          else boundary_tick(spec.max_duration_s, dt))

    def _check_dims(self) -> None:
        for dim in (self.param_map.nc_dim, self.param_map.np_dim,
                    self.param_map.pp_dim):
            if dim is not None and not 0 <= dim < self.space.ndim:
                raise ValueError(
                    f"param_map dimension {dim} outside the {self.space.ndim}"
                    "-dimensional space"
                )

    # -- derived quantities ------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def nc(self) -> int:
        return self.param_map.nc(self.params)

    @property
    def np_(self) -> int:
        return self.param_map.np(self.params)

    @property
    def pp(self) -> int:
        return self.param_map.pp(self.params)

    @property
    def streams(self) -> int:
        return self.nc * self.np_

    @property
    def done(self) -> bool:
        return self.failed or self.state.done

    @property
    def restarting(self) -> bool:
        return self.dead_ticks > 0 or self.lead_s > 0.0

    @property
    def restart_remaining(self) -> float:
        """Seconds left in the restart window."""
        return self.dead_ticks * self.dt + self.lead_s

    @property
    def last_epoch_steps(self) -> list[StepRecord]:
        """Step records of the most recently closed epoch (for the
        checkpoint journal)."""
        return self.trace.steps[self._last_step_mark:self._epoch_step_mark]

    @property
    def epoch_elapsed(self) -> float:
        """Seconds elapsed in the current control epoch."""
        return self.epoch_ticks * self.dt

    def disk_cap(self) -> float:
        """Extra cap from the disk model, or +inf when memory-to-memory."""
        if self.disk_cap_fn is None:
            return math.inf
        return self.disk_cap_fn(self.nc, self.np_, self.pp)

    # -- fault injection ---------------------------------------------------

    def epoch_target_s(self) -> float:
        """Length of the current control epoch (the first one may carry a
        phase offset)."""
        target = self.spec.epoch_s
        if self.epoch_index == 0:
            target += self.spec.epoch_offset_s
        return target

    def fault_rate_factor(self, tick: int) -> float:
        """Throughput multiplier the fault schedule imposes on the step
        at epoch tick ``tick`` of the current epoch: 0 during
        blackouts/aborts and from a stream crash's hit point on,
        ``1 - severity`` on degraded links, ``1/(1+severity)`` during
        load spikes, 1 otherwise."""
        if self.fault_schedule is None:
            return 1.0
        idx = self.epoch_index
        factor = self.fault_schedule.rate_factor(idx)
        hard = self.fault_schedule.hard_fault_at(idx)
        if hard is not None:
            if hard.kind == STREAM_CRASH:
                frac = (tick * self.dt) / self.epoch_target_s()
                if frac >= hard.at_fraction - 1e-12:
                    factor = 0.0
            else:
                factor = 0.0
        return factor

    def epoch_fault_kind(self) -> str | None:
        """Fault affecting the current epoch: a hard kind, ``"obs-loss"``
        when only the measurement is dropped, else None."""
        if self.fault_schedule is None:
            return None
        hard = self.fault_schedule.hard_fault_at(self.epoch_index)
        if hard is not None:
            return hard.kind
        if self.fault_schedule.observation_lost(self.epoch_index):
            return OBS_LOSS
        return None

    # -- step/epoch bookkeeping (driven by the engine) ----------------------

    def record_step(self, time: float, rate: float, bytes_moved: float) -> None:
        self.trace.add_step(
            StepRecord(
                time=time,
                rate=rate,
                restarting=self.restarting,
                bytes_moved=bytes_moved,
            )
        )

    def close_epoch(self, start_time: float) -> EpochRecord:
        """Summarize the finished epoch into the trace and return it."""
        if self.epoch_ticks <= 0:
            raise ValueError("cannot close an empty epoch")
        mb = self.epoch_bytes / 1e6
        observed = mb / self.epoch_elapsed
        best = mb / self.epoch_run_s if self.epoch_run_s > 0 else 0.0
        fault = self.epoch_fault_kind()
        faulted = fault is not None and fault != OBS_LOSS
        breaker_state = self.breaker.state if self.breaker is not None else "closed"
        rec = EpochRecord(
            index=self.epoch_index,
            start=start_time,
            duration=self.epoch_elapsed,
            params=self.params,
            observed=observed,
            best_case=best,
            bytes_moved=self.epoch_bytes,
            faulted=faulted,
            fault=fault,
            retries=(self.retry_state.total_retries
                     if self.retry_state is not None else 0),
            breaker=breaker_state,
            # A clean epoch is fed to the tuner unless the breaker is
            # open (fallback throughput must not steer the search); a
            # clean half-open probe *is* observed.
            tuned=fault is None and breaker_state != OPEN_STATE,
        )
        self.trace.add_epoch(rec)
        self._last_step_mark = self._epoch_step_mark
        self._epoch_step_mark = len(self.trace.steps)
        self.epoch_index += 1
        self.epoch_ticks = 0
        self.close_tick = self._later_close
        self.epoch_run_s = 0.0
        self.epoch_bytes = 0.0
        return rec

    def apply_params(self, new_params: tuple[int, ...]) -> tuple[bool, bool]:
        """Adopt the next epoch's parameters.

        Returns ``(needs_restart, warm)``: whether the tool must be
        relaunched, and whether the relaunch may reuse processes (warm).
        """
        if not self.space.contains(new_params):
            raise ValueError(
                f"tuner proposed {new_params} outside the domain"
            )
        old_nc, old_np = self.nc, self.np_
        self.params = tuple(new_params)
        changed = (self.nc, self.np_) != (old_nc, old_np)
        if self.restart_each_epoch or changed:
            warm = self.warm_restart and self.nc == old_nc
            return True, warm
        return False, False

    def advance_ticks(self, k: int) -> None:
        """Count ``k`` steps on the epoch and transfer clocks at once."""
        self.epoch_ticks += k
        state = self.state
        state.ticks += k
        state.elapsed_s = state.ticks * self.dt

    def begin_restart(self, dead_time_s: float) -> None:
        """Open a restart window: whole dead steps, then the remainder
        at the start of the first live step.

        A remainder within 1e-9 s of a whole step (the epoch-close
        tolerance) is one more dead step: ``divmod(27.0, 0.1)`` leaves
        ``0.0999999999999985``, and a ~1e-15 s lead step would cancel
        the slow-start ramp to a negative rate."""
        if dead_time_s < 0:
            raise ValueError("dead_time_s must be non-negative")
        dead, lead = divmod(dead_time_s, self.dt)
        if self.dt - lead < 1e-9:
            dead, lead = dead + 1.0, 0.0
        self.dead_ticks = int(dead)
        self.lead_s = lead
        self.time_since_start = 0.0

    # -- checkpoint support --------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready runtime state (everything the engine mutates that a
        replayed tuner driver cannot reconstruct).

        ``partial_steps`` carries the step records of the *current*
        (unfinished) epoch, so a resumed multi-session run rebuilds even
        mid-epoch traces bit-identically.  Tuner state is deliberately
        absent — it is rebuilt by observation replay
        (:mod:`repro.checkpoint.replay`).
        """
        return {
            "params": list(self.params),
            "epoch_index": self.epoch_index,
            "epoch_ticks": self.epoch_ticks,
            "epoch_run_s": self.epoch_run_s,
            "epoch_bytes": self.epoch_bytes,
            "noise_factor": self.noise_factor,
            "dead_ticks": self.dead_ticks,
            "lead_s": self.lead_s,
            "time_since_start": self.time_since_start,
            "failed": self.failed,
            "transfer": self.state.snapshot(),
            "partial_steps": [
                step_to_dict(s)
                for s in self.trace.steps[self._epoch_step_mark:]
            ],
            "retry": (self.retry_state.snapshot()
                      if self.retry_state is not None else None),
            "breaker": (self.breaker.snapshot()
                        if self.breaker is not None else None),
        }

    def restore_snapshot(
        self,
        state: dict,
        epochs: "list[tuple[EpochRecord, list[StepRecord]]]",
    ) -> None:
        """Restore runtime state and rebuild the trace from journaled
        epochs (each with its step records) plus the snapshot's
        partial-epoch steps.

        The tuner driver is *not* restored here — resume replaces it
        with a replayed one first (see :mod:`repro.checkpoint.resume`).
        """
        if epochs and epochs[-1][0].index + 1 != int(state["epoch_index"]):
            raise ValueError(
                f"snapshot epoch_index {state['epoch_index']} does not "
                f"follow the last journaled epoch {epochs[-1][0].index}"
            )
        self.params = tuple(int(v) for v in state["params"])
        self.epoch_index = int(state["epoch_index"])
        self.epoch_ticks = int(state["epoch_ticks"])
        self.close_tick = (self._first_close if self.epoch_index == 0
                           else self._later_close)
        self.epoch_run_s = float(state["epoch_run_s"])
        self.epoch_bytes = float(state["epoch_bytes"])
        self.noise_factor = float(state["noise_factor"])
        self.dead_ticks = int(state["dead_ticks"])
        self.lead_s = float(state["lead_s"])
        self.time_since_start = float(state["time_since_start"])
        self.failed = bool(state["failed"])
        self.state.restore(state["transfer"])

        if (state["retry"] is None) != (self.retry_state is None):
            raise ValueError(
                "retry-policy presence differs between snapshot and session"
            )
        if self.retry_state is not None:
            self.retry_state.restore(state["retry"])
        if (state["breaker"] is None) != (self.breaker is None):
            raise ValueError(
                "breaker presence differs between snapshot and session"
            )
        if self.breaker is not None:
            self.breaker.restore(state["breaker"])

        self.trace = Trace(label=self.spec.name)
        for rec, steps in epochs:
            for s in steps:
                self.trace.add_step(s)
            self.trace.add_epoch(rec)
        self._epoch_step_mark = len(self.trace.steps)
        self._last_step_mark = self._epoch_step_mark - (
            len(epochs[-1][1]) if epochs else 0)
        for s in state["partial_steps"]:
            self.trace.add_step(step_from_dict(s))
