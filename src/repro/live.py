"""Drive the tuners against a real transfer tool.

Everything else in this package runs on the simulation substrate; this
module is the deployment adapter: the paper's control loop (run the tool
for one epoch with the current parameters, measure, feed the tuner,
repeat while data remains) around any *actual* transfer command.

Two layers:

* :func:`tune_live` — the generic loop.  You supply an *epoch runner*:
  ``run_epoch(nc, np, duration_s) -> bytes_moved``.  The loop handles
  throughput accounting, the remaining-bytes/deadline bookkeeping of
  Algorithms 1-3 (the ``while s' > 0``), per-epoch records, and clean
  stop conditions.
* :class:`SubprocessEpochRunner` — an epoch runner that launches ``nc``
  copies of a user-templated command (the paper launches nc copies of
  ``globus-url-copy -p <np> ...``), lets them run for the control epoch,
  terminates them, and sums the bytes each reported.

Resilience: :func:`tune_live` accepts the same fault-campaign triple as
the simulator (:class:`~repro.faults.FaultSchedule`,
:class:`~repro.faults.RetryPolicy`,
:class:`~repro.faults.CircuitBreaker`), and drives retry backoff and the
breaker state machine through the simulator's own recovery ladder
(:func:`repro.faults.recovery.recover_epoch`) — so a campaign hardened
in simulation replays its fault/retry/breaker transitions identically
against a real tool.  A raising ``run_epoch`` never crashes the loop:
the epoch is recorded as faulted (crediting any
:attr:`~repro.faults.EpochFault.partial_bytes`) and the transfer
continues per the retry policy.  The core guarantee holds here as in the
simulator: a faulted or absent observation is never fed to the tuner.

The subprocess runner is fully tested against a bundled byte-pump child
process, so the adapter's process handling works out of the box; pointing
it at a real mover is a one-line command template.
"""

from __future__ import annotations

import pathlib
import shlex
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.base import Tuner, TunerDriver
from repro.core.params import ParamSpace
from repro.faults.breaker import CLOSED, OPEN, CircuitBreaker
from repro.faults.errors import EpochFault, SessionAborted
from repro.faults.events import (
    BLACKOUT,
    OBS_LOSS,
    SESSION_ABORT,
    STREAM_CRASH,
)
from repro.faults.recovery import (
    FAIL,
    FALLBACK,
    HOLD,
    PROBE,
    RELAUNCH,
    fallback_params,
    recover_epoch,
)
from repro.faults.retry import RetryPolicy, RetryState
from repro.faults.schedule import FaultSchedule
from repro.obs.clock import Clock, WallClock
from repro.obs.events import (
    BreakerTransition,
    EpochStart,
    RetryAttempt,
    SnapshotWritten,
    TunerAccept,
    TunerProposal,
    TunerReject,
)
from repro.obs.instrument import publish_epoch_record
from repro.sim.trace import EpochRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.checkpoint.journal import JournalWriter
    from repro.obs.instrument import Instrumentation

#: Epoch runner contract: (nc, np, duration_s) -> bytes moved.
EpochRunner = Callable[[int, int, float], float]


@dataclass(frozen=True)
class LiveEpoch:
    """One completed control epoch of a live run.

    The fault/recovery fields mirror
    :class:`repro.sim.trace.EpochRecord`: ``faulted`` marks an epoch the
    tool lost (crash, abort, blackout, launch failure), ``fault`` names
    the kind, ``retries`` is the session-cumulative retry count,
    ``breaker`` the breaker state that governed the epoch, and ``tuned``
    whether the tuner received this epoch's throughput.
    """

    index: int
    params: tuple[int, ...]
    duration_s: float
    bytes_moved: float
    faulted: bool = False
    fault: str | None = None
    retries: int = 0
    breaker: str = CLOSED
    tuned: bool = True

    @property
    def throughput_mbps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_moved / 1e6 / self.duration_s

    def to_record(self, start: float) -> EpochRecord:
        """The journal/trace form of this epoch (live has no restart
        decomposition, so ``best_case`` equals ``observed``)."""
        return EpochRecord(
            index=self.index,
            start=start,
            duration=self.duration_s,
            params=self.params,
            observed=self.throughput_mbps,
            best_case=self.throughput_mbps,
            bytes_moved=self.bytes_moved,
            faulted=self.faulted,
            fault=self.fault,
            retries=self.retries,
            breaker=self.breaker,
            tuned=self.tuned,
        )

    @classmethod
    def from_record(cls, rec: EpochRecord) -> "LiveEpoch":
        return cls(
            index=rec.index,
            params=rec.params,
            duration_s=rec.duration,
            bytes_moved=rec.bytes_moved,
            faulted=rec.faulted,
            fault=rec.fault,
            retries=rec.retries,
            breaker=rec.breaker,
            tuned=rec.tuned,
        )


@dataclass
class LiveResumeState:
    """Control-loop state reconstructed from a journal.

    Built by :func:`repro.checkpoint.resume_live_state` (replay of the
    journaled epochs + the last live snapshot) and handed to
    :func:`tune_live` via ``resume=`` so the loop continues where the
    killed run stopped: same driver state, same standing parameters,
    same retry counters, same epoch index and wall-clock/byte ledgers.
    The already-completed epochs pre-populate the new
    :class:`LiveResult`.
    """

    epochs: list[LiveEpoch]
    driver: TunerDriver
    params: tuple[int, ...]
    retry_state: RetryState | None
    index: int
    elapsed: float
    moved_bytes: float
    failed: bool = False


@dataclass
class LiveResult:
    """All epochs of a live run."""

    epochs: list[LiveEpoch] = field(default_factory=list)
    #: Set when a session abort exhausted the retry budget.
    failed: bool = False

    @property
    def total_bytes(self) -> float:
        return sum(e.bytes_moved for e in self.epochs)

    @property
    def mean_throughput_mbps(self) -> float:
        total_t = sum(e.duration_s for e in self.epochs)
        if total_t <= 0:
            return 0.0
        return self.total_bytes / 1e6 / total_t

    def params_trajectory(self) -> list[tuple[int, ...]]:
        return [e.params for e in self.epochs]

    def faulted_epochs(self) -> list[LiveEpoch]:
        return [e for e in self.epochs if e.faulted]

    def transitions(self) -> list[tuple[str | None, str, bool]]:
        """The (fault, breaker, tuned) sequence — the replayable part of
        a campaign (real throughput varies run to run; these must not)."""
        return [(e.fault, e.breaker, e.tuned) for e in self.epochs]


def tune_live(
    tuner: Tuner,
    space: ParamSpace,
    x0: tuple[int, ...],
    run_epoch: EpochRunner,
    *,
    epoch_s: float = 30.0,
    total_bytes: float | None = None,
    max_duration_s: float | None = None,
    max_epochs: int | None = None,
    nc_dim: int = 0,
    np_dim: int | None = None,
    fixed_np: int = 1,
    on_epoch: Callable[[LiveEpoch], None] | None = None,
    fault_schedule: FaultSchedule | None = None,
    retry_policy: RetryPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    rng: np.random.Generator | None = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Clock | None = None,
    journal: "JournalWriter | None" = None,
    journal_session: str = "live",
    resume: LiveResumeState | None = None,
    obs: "Instrumentation | None" = None,
) -> LiveResult:
    """The paper's control loop around a real epoch runner.

    Stops when ``total_bytes`` have moved, ``max_duration_s`` wall-clock
    elapsed, or ``max_epochs`` epochs completed — whichever comes first
    (at least one stop condition is required).

    Fault handling
    --------------
    ``fault_schedule`` injects the deterministic campaign: blackout and
    abort epochs skip the runner entirely (the tool is unreachable; the
    epoch's wall-clock still passes via ``sleep``), a stream crash runs
    the runner for ``at_fraction`` of the epoch and credits the partial
    bytes, observation loss runs normally but withholds the measurement
    from the tuner, and soft faults scale the credited bytes by the
    schedule's rate factor.  Independent of any schedule, an exception
    from ``run_epoch`` records a faulted epoch (``EpochFault`` carries
    its kind and partial bytes) instead of crashing the loop.

    ``retry_policy`` charges exponential backoff (served through the
    clock, counted into the elapsed wall-clock) after each faulted
    epoch while budgets allow; a session abort with no budget left sets
    ``LiveResult.failed`` and ends the run.  ``breaker`` pins the run at
    the safe default after repeated faulted epochs, exactly as in the
    simulator.  ``rng`` jitters the backoff (``None`` = deterministic
    midpoint).

    Timing
    ------
    Every wait the loop serves goes through one injectable ``clock``
    (:class:`repro.obs.clock.Clock`): pass a
    :class:`~repro.obs.clock.FakeClock` and the loop runs instantly with
    exact time accounting.  ``sleep`` is the legacy spelling — when
    ``clock`` is omitted it becomes the sleep side of a
    :class:`~repro.obs.clock.WallClock`; when both are given, ``clock``
    wins.

    Observability
    -------------
    ``obs`` publishes the same typed event stream as the simulator
    (epoch starts/ends, tuner decisions, faults, retries, breaker
    transitions, snapshots), timed by the loop's deterministic elapsed
    ledger — so two runs of the same campaign emit identical streams
    even though real throughput varies.

    Crash safety
    ------------
    ``journal`` appends every closed epoch plus a state snapshot to an
    fsynced journal (see :mod:`repro.checkpoint`); ``resume`` starts the
    loop from state reconstructed out of such a journal
    (:func:`repro.checkpoint.resume_live_state`) — the tuner continues
    its search from the last completed epoch instead of restarting from
    ``x0``, and the journaled epochs pre-populate the returned result so
    it covers the whole transfer.
    """
    if epoch_s <= 0:
        raise ValueError("epoch_s must be positive")
    if total_bytes is None and max_duration_s is None and max_epochs is None:
        raise ValueError(
            "need a stop condition: total_bytes, max_duration_s or "
            "max_epochs"
        )
    if total_bytes is not None and total_bytes <= 0:
        raise ValueError("total_bytes must be positive")
    if clock is None:
        clock = WallClock(sleep_fn=sleep)
    if obs is not None and not obs.active:
        # An inert bundle (NullBus, no metrics/spans) is dropped so the
        # loop never constructs event objects — Instrumentation.noop()
        # must cost nothing.
        obs = None
    spans = obs.spans if obs is not None else None

    result = LiveResult()
    remaining = total_bytes
    if resume is not None:
        driver = resume.driver
        retry_state = resume.retry_state
        result.epochs.extend(resume.epochs)
        result.failed = resume.failed
        elapsed = resume.elapsed
        index = resume.index
        params = tuple(resume.params)
        if remaining is not None:
            remaining = max(0.0, remaining - resume.moved_bytes)
        if result.failed:
            # The journaled run already ended in exhaustion; nothing to
            # continue.
            return result
    else:
        driver = tuner.start(x0, space)
        retry_state = (retry_policy.start()
                       if retry_policy is not None else None)
        elapsed = 0.0
        index = 0
        params = driver.current

    def _write_snapshot() -> None:
        journal.write_snapshot({
            "format": 1,
            "live": {
                "index": index,
                "elapsed": elapsed,
                "moved_bytes": result.total_bytes,
                "failed": result.failed,
            },
        })
        if obs is not None:
            obs.bus.emit(SnapshotWritten(
                time=elapsed, session=journal_session, epochs=index,
            ))

    # Event context (end time / index of the epoch being dispatched) for
    # hooks fired from inside the fault machinery.
    _ev = [0.0, 0]
    if obs is not None:
        _bus, _metrics = obs.bus, obs.metrics
        if breaker is not None:
            def _on_transition(old: str, new: str) -> None:
                _bus.emit(BreakerTransition(
                    time=_ev[0], session=journal_session, index=_ev[1],
                    old=old, new=new,
                ))
                if _metrics is not None:
                    _metrics.counter(
                        "repro_breaker_transitions_total",
                        session=journal_session, to=new,
                    ).inc()
            breaker.on_transition = _on_transition
        if retry_state is not None:
            def _on_retry(attempt: int, backoff_s: float) -> None:
                _bus.emit(RetryAttempt(
                    time=_ev[0], session=journal_session, index=_ev[1],
                    attempt=attempt, backoff_s=backoff_s,
                ))
                if _metrics is not None:
                    _metrics.counter(
                        "repro_retries_total", session=journal_session
                    ).inc()
            retry_state.on_retry = _on_retry
        if journal is not None and _metrics is not None:
            def _on_record(kind: str) -> None:
                _metrics.counter(
                    "repro_journal_records_total", record_kind=kind
                ).inc()
            journal.on_record = _on_record

    while True:
        if max_epochs is not None and index >= max_epochs:
            break
        if max_duration_s is not None and elapsed >= max_duration_s:
            break
        if remaining is not None and remaining <= 0:
            break
        nc = params[nc_dim]
        np_ = params[np_dim] if np_dim is not None else fixed_np
        if obs is not None:
            _ev[0] = elapsed + epoch_s
            _ev[1] = index
            obs.bus.emit(EpochStart(
                time=elapsed, session=journal_session, index=index,
                params=tuple(params),
            ))

        scheduled = None
        hard = None
        if fault_schedule is not None:
            hard = fault_schedule.hard_fault_at(index)
            if hard is not None:
                scheduled = hard.kind
            elif fault_schedule.observation_lost(index):
                scheduled = OBS_LOSS

        moved, fault = 0.0, scheduled
        if spans is not None:
            _t0 = spans.now()
        try:
            if scheduled in (BLACKOUT, SESSION_ABORT):
                # Tool dead or session gone: nothing to launch, the
                # epoch's wall-clock still passes.
                clock.sleep(epoch_s)
            elif scheduled == STREAM_CRASH:
                frac = hard.at_fraction
                if frac > 0:
                    moved = float(run_epoch(nc, np_, epoch_s * frac))
                clock.sleep(epoch_s * (1.0 - frac))
            else:
                moved = float(run_epoch(nc, np_, epoch_s))
                if fault_schedule is not None:
                    moved *= fault_schedule.rate_factor(index)
        except EpochFault as exc:
            moved, fault = exc.partial_bytes, exc.kind
        except SessionAborted:
            moved, fault = 0.0, SESSION_ABORT
        except Exception:
            # A dying tool must not kill the control loop: record the
            # epoch as faulted and continue per the retry policy.
            moved, fault = 0.0, "epoch-fault"
        if spans is not None:
            spans.record("epoch/transfer", max(0.0, spans.now() - _t0))
        if moved < 0:
            raise ValueError("epoch runner reported negative bytes")
        if remaining is not None:
            moved = min(moved, remaining)
            remaining -= moved

        faulted = fault is not None and fault != OBS_LOSS
        breaker_state = breaker.state if breaker is not None else CLOSED
        epoch = LiveEpoch(
            index=index, params=params, duration_s=epoch_s,
            bytes_moved=moved,
            faulted=faulted,
            fault=fault,
            retries=(retry_state.total_retries
                     if retry_state is not None else 0),
            breaker=breaker_state,
            # Same rule as the simulator: a faulted or absent observation
            # never reaches the tuner, and fallback throughput while the
            # breaker is open must not steer the search.
            tuned=fault is None and breaker_state != OPEN,
        )
        result.epochs.append(epoch)
        rec = epoch.to_record(elapsed)
        if journal is not None:
            journal.write_epoch(journal_session, rec)
        if obs is not None:
            publish_epoch_record(obs, journal_session, rec)
        if on_epoch is not None:
            on_epoch(epoch)

        # The simulator's recovery ladder; the backoff jitter is drawn
        # from ``rng`` only when a retry is charged.
        step = recover_epoch(fault, faulted, retry_state, breaker, rng=rng)

        if step.arm == FAIL:
            result.failed = True
            reason = "budget-exhausted"
        elif step.arm == FALLBACK:
            params = fallback_params(breaker, space, params, nc_dim, np_dim)
            reason = "breaker-open"
        elif step.arm == RELAUNCH:
            # relaunch with the same parameters, after the backoff
            if step.backoff_s > 0:
                clock.sleep(step.backoff_s)
                elapsed += step.backoff_s
            reason = "faulted"
        elif step.arm == HOLD:
            reason = "obs-loss"  # hold parameters; the tuner observes nothing
        else:
            reason = None
            if step.arm == PROBE:
                params = driver.current  # probe with the standing proposal
                observed = None
            else:
                observed = epoch.throughput_mbps
                if spans is not None:
                    _tp = spans.now()
                params = driver.observe(observed)
                if spans is not None:
                    spans.record("epoch/propose",
                                 max(0.0, spans.now() - _tp))
        if obs is not None:
            if reason is not None:
                obs.bus.emit(TunerReject(
                    time=_ev[0], session=journal_session, index=index,
                    params=tuple(params), reason=reason,
                ))
            else:
                obs.bus.emit(TunerProposal(
                    time=_ev[0], session=journal_session, index=index,
                    params=tuple(params), observed=observed,
                ))
                obs.bus.emit(TunerAccept(
                    time=_ev[0], session=journal_session, index=index,
                    params=tuple(params),
                ))

        elapsed += epoch_s
        index += 1
        if journal is not None:
            _write_snapshot()
        if result.failed:
            break
    if journal is not None:
        journal.write_end()
    return result


def parse_last_count(text: str) -> float:
    """Bytes from the *last* parseable line of a progress-mode child.

    A copy SIGKILLed mid-epoch leaves its most recent progress line as
    the partial-byte record (a final line truncated mid-write is
    skipped); a copy that never printed counts as zero.
    """
    for line in reversed(text.strip().splitlines()):
        try:
            return float(line.strip())
        except ValueError:
            continue
    return 0.0


@dataclass
class SubprocessEpochRunner:
    """Run ``nc`` copies of a command for one control epoch.

    Parameters
    ----------
    command_template:
        Template string for one copy's command line;
        ``{np}``, ``{copy}`` and ``{duration}`` are substituted
        (e.g. ``"globus-url-copy -p {np} src dst"``).
    parse_bytes:
        Extracts the bytes this copy moved from its stdout text.  A
        parse failure on a copy that died (nonzero/signaled exit) counts
        that copy as zero instead of losing the epoch.
    terminate_grace_s:
        Per-child timeout between SIGTERM and SIGKILL at epoch end.
    launch_retries / launch_backoff_s:
        Relaunch attempts (exponential backoff) when spawning a copy
        fails.  Exhausting them raises
        :class:`~repro.faults.EpochFault` with the bytes the
        already-running copies managed as ``partial_bytes``.
    on_launch:
        Test/observability hook called as ``on_launch(copy, proc)``
        right after each copy starts.
    sleep:
        Injectable delay function used for launch backoff.
    clock:
        The single time source for epoch deadlines and poll waits
        (defaults to a real :class:`~repro.obs.clock.WallClock`); the
        runner never reads ``time.monotonic``/``time.sleep`` directly.

    Every child is reaped before :meth:`__call__` returns, whatever
    failed mid-epoch — no orphans survive the epoch.
    """

    command_template: str
    parse_bytes: Callable[[str], float]
    terminate_grace_s: float = 2.0
    launch_retries: int = 0
    launch_backoff_s: float = 0.5
    on_launch: Callable[[int, subprocess.Popen], None] | None = None
    sleep: Callable[[float], None] = time.sleep
    clock: Clock = field(default_factory=WallClock)

    def __post_init__(self) -> None:
        if not self.command_template:
            raise ValueError("command_template must be non-empty")
        if self.terminate_grace_s < 0:
            raise ValueError("terminate_grace_s must be non-negative")
        if self.launch_retries < 0:
            raise ValueError("launch_retries must be non-negative")
        if self.launch_backoff_s < 0:
            raise ValueError("launch_backoff_s must be non-negative")

    def build_command(self, np_: int, copy: int, duration_s: float) -> list[str]:
        return shlex.split(
            self.command_template.format(
                np=np_, copy=copy, duration=duration_s
            )
        )

    def _launch(
        self, np_: int, copy: int, duration_s: float
    ) -> subprocess.Popen:
        attempt = 0
        while True:
            try:
                return subprocess.Popen(
                    self.build_command(np_, copy, duration_s),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    text=True,
                )
            except OSError:
                if attempt >= self.launch_retries:
                    raise
                self.sleep(self.launch_backoff_s * 2.0 ** attempt)
                attempt += 1

    def __call__(self, nc: int, np_: int, duration_s: float) -> float:
        if nc < 1 or np_ < 1:
            raise ValueError("nc and np must be >= 1")
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        procs: list[subprocess.Popen] = []
        outs: list[str] = []
        launch_error: OSError | None = None
        try:
            try:
                for copy in range(nc):
                    p = self._launch(np_, copy, duration_s)
                    procs.append(p)
                    if self.on_launch is not None:
                        self.on_launch(copy, p)
            except OSError as exc:
                launch_error = exc
            if launch_error is None:
                deadline = self.clock.now() + duration_s
            else:
                # A launch failure ends the epoch early, but copies that
                # did start get a short grace window to flush whatever
                # partial output they produced before teardown.
                deadline = self.clock.now() + min(
                    duration_s, self.terminate_grace_s
                )
            while self.clock.now() < deadline:
                if all(p.poll() is not None for p in procs):
                    break  # everyone finished early
                self.clock.sleep(
                    min(0.05, max(0.0, deadline - self.clock.now()))
                )
            for p in procs:
                if p.poll() is None:
                    p.send_signal(signal.SIGTERM)
            for p in procs:
                try:
                    out, _ = p.communicate(timeout=self.terminate_grace_s)
                except subprocess.TimeoutExpired:
                    p.kill()
                    out, _ = p.communicate()
                outs.append(out or "")
        finally:
            # Orphan reaping: no child outlives the epoch, whatever
            # failed above.
            for p in procs:
                if p.poll() is None:
                    p.kill()
            for p in procs:
                if p.returncode is None:
                    try:
                        p.wait(timeout=self.terminate_grace_s)
                    except subprocess.TimeoutExpired:  # pragma: no cover
                        # SIGKILLed above but not reaped within the grace
                        # (stuck in the kernel): do not block the loop on
                        # it; any other reap error surfaces.
                        pass
        total = 0.0
        for p, out in zip(procs, outs):
            try:
                total += float(self.parse_bytes(out))
            except (TypeError, ValueError):
                if p.returncode == 0:
                    raise
                # killed/crashed copy with unparseable output: partial
                # credit is whatever parse_bytes could read — here, none.
        if launch_error is not None:
            raise EpochFault(
                f"failed to launch copy {len(procs)} of {nc}: "
                f"{launch_error}",
                kind="launch-failure",
                partial_bytes=total,
            ) from launch_error
        return total


#: A self-contained byte pump used by the tests (and handy for dry runs):
#: writes chunks to /dev/null for {duration} seconds at a rate that grows
#: with {np}, then prints the byte count on stdout.  Executed by file
#: path (not ``-m``) so child startup skips the package import.
_BYTE_PUMP_PATH = pathlib.Path(__file__).with_name("_byte_pump.py")
BYTE_PUMP = f"{sys.executable} {_BYTE_PUMP_PATH} {{np}} {{duration}}"

#: Progress-mode byte pump: prints the running total every 0.2 s, so a
#: copy killed mid-epoch still leaves its partial count for
#: :func:`parse_last_count`.
BYTE_PUMP_PROGRESS = (
    f"{sys.executable} {_BYTE_PUMP_PATH} {{np}} {{duration}} 0.2"
)
