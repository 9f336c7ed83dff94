"""The fluid simulation engine.

Advances all transfer sessions, external load, CPU scheduling, and network
allocation in fixed time steps, and drives each session's tuner at control
epoch boundaries.  The per-step pipeline is:

1. look up the external load from the schedule;
2. divide the source host's cores among transfer processes, dgemm threads
   and the external transfer (:func:`repro.endpoint.cpu.fair_shares`);
3. compute per-path effective loss from the total stream count, build one
   :class:`~repro.net.flows.FlowGroup` per running transfer (group cap =
   CPU-limited rate; per-stream cap = TCP model), and allocate bandwidth
   max-min fairly (:func:`repro.net.fairshare.max_min_fair_allocation`);
4. scale by the context-switch efficiency and the session's noise factors,
   apply the slow-start ramp and restart dead time, move bytes;
5. at each session's epoch boundary, report the epoch throughput to its
   tuner (or joint controller), adopt the proposed parameters, and charge
   the restart cost.

Fig. 11's coupled transfers need no special handling: two sessions whose
paths share the source NIC link compete in step 3 automatically.

Steps 1-3 form the *allocation phase*: a pure function of the external
load and each session's (done, restarting, params) state, which only
changes at control-epoch boundaries, load-schedule transitions, fault
events and session start/stop.  With ``EngineConfig.fast_path`` (the
default) the engine caches the allocation phase on exactly that
change-point key — fast-path runs are bit-identical to
``fast_path=False`` runs (see DESIGN.md §10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.aggregate import JointTuner
from repro.core.base import TunerDriver
from repro.endpoint.cpu import CpuTask, context_switch_efficiency, fair_shares
from repro.endpoint.host import HostSpec
from repro.endpoint.load import ExternalLoad, LoadSchedule
from repro.faults.recovery import (
    FAIL,
    FALLBACK,
    HOLD,
    PROBE,
    RELAUNCH,
    fallback_params,
    recover_epoch,
)
from repro.gridftp.client import ClientModel
from repro.net.fairshare import max_min_fair_allocation
from repro.net.flows import FlowGroup
from repro.net.topology import Topology
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
from repro.sim.clock import SimClock
from repro.noise import lognormal_factor
from repro.sim.rng import RngStreams
from repro.sim.session import TransferSession
from repro.sim.trace import EpochRecord, StepRecord, Trace
from repro.units import MB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.checkpoint.journal import JournalWriter
    from repro.obs.instrument import Instrumentation

#: Reserved flow-group / CPU-task names for external load.
EXT_CMP = "ext.cmp"
EXT_TFR = "ext.tfr"

#: :meth:`Engine.snapshot` layout.  2 holds the sessions' tick counts;
#: 1 held float seconds, which cannot round-trip them at every dt.
SNAPSHOT_FORMAT = 2


def check_snapshot_format(state: dict) -> None:
    """Raise ``ValueError`` unless this version can restore ``state``."""
    if state.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"unsupported engine snapshot format {state.get('format')!r}; "
            f"this version resumes format {SNAPSHOT_FORMAT} only")


@dataclass(frozen=True)
class EngineConfig:
    """Simulation-wide knobs.

    Parameters
    ----------
    dt:
        Step length in seconds.
    seed:
        Root RNG seed; runs with equal seeds are bit-identical.
    noise_sigma_epoch:
        Lognormal sigma of the per-session, per-epoch throughput factor
        (slow network weather the tuners must tolerate).
    noise_sigma_step:
        Lognormal sigma of the per-step jitter on top.
    ext_tfr_path:
        Path the external transfer uses; defaults to the first session's.
    ext_streams_per_proc:
        The external transfer runs ``max(1, ext_tfr // this)`` processes
        (a realistic globus-url-copy invocation for large stream counts).
    fast_path:
        Cache the allocation phase between change points (bit-identical
        to the reference path, just faster).  ``False`` recomputes
        everything every step — the reference the equivalence tests and
        the perf gate compare against.
    """

    dt: float = 1.0
    seed: int = 0
    noise_sigma_epoch: float = 0.03
    noise_sigma_step: float = 0.02
    ext_tfr_path: str | None = None
    ext_streams_per_proc: int = 16
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.noise_sigma_epoch < 0 or self.noise_sigma_step < 0:
            raise ValueError("noise sigmas must be non-negative")
        if self.ext_streams_per_proc < 1:
            raise ValueError("ext_streams_per_proc must be >= 1")


class JointController:
    """Drives several sessions from one joint direct-search instance.

    The controller waits until *all* its sessions closed their (aligned)
    epochs, feeds the **sum** of their observed throughputs to the joint
    tuner, and splits the proposal back per session.
    """

    def __init__(
        self,
        joint: JointTuner,
        session_names: list[str],
        x0: tuple[int, ...],
    ) -> None:
        if len(session_names) != len(joint.subspaces):
            raise ValueError("one session per subspace required")
        if len(set(session_names)) != len(session_names):
            raise ValueError(f"duplicate session names: {session_names}")
        self.joint = joint
        self.session_names = list(session_names)
        self.driver = TunerDriver(joint.propose(
            joint.joint_space.fbnd(x0), joint.joint_space
        ))
        self._pending: dict[str, float] = {}
        #: Optional metrics registry: when set, each completed joint
        #: round records the objective the tuner saw (telemetry only).
        self.metrics = None

    def initial_params(self) -> dict[str, tuple[int, ...]]:
        parts = self.joint.split(self.driver.current)
        return dict(zip(self.session_names, parts))

    def observe(
        self, name: str, observed: float
    ) -> dict[str, tuple[int, ...]] | None:
        """Report one session's epoch; returns new params for all sessions
        once every session has reported, else ``None``."""
        if name not in self.session_names:
            raise KeyError(f"session {name!r} not under this controller")
        if name in self._pending:
            raise RuntimeError(f"session {name!r} reported twice this epoch")
        self._pending[name] = observed
        if len(self._pending) < len(self.session_names):
            return None
        total = sum(self._pending.values())
        self._pending.clear()
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_joint_objective_mbps",
                sessions="+".join(self.session_names),
            ).set(total)
        parts = self.joint.split(self.driver.observe(total))
        return dict(zip(self.session_names, parts))


@dataclass
class Engine:
    """Coupled network + CPU + tuner simulation.

    With a ``journal``, every closed control epoch (and a full state
    snapshot after each epoch-dispatch round) is fsynced to an
    append-only JSONL file, making the run crash-safe: a killed process
    resumes from the last complete epoch bit-identically
    (:mod:`repro.checkpoint`).
    """

    topology: Topology
    host: HostSpec
    sessions: list[TransferSession]
    schedule: LoadSchedule = field(
        default_factory=lambda: LoadSchedule.constant(ExternalLoad())
    )
    controllers: list[JointController] = field(default_factory=list)
    client: ClientModel = field(default_factory=ClientModel)
    config: EngineConfig = field(default_factory=EngineConfig)
    journal: "JournalWriter | None" = None
    obs: "Instrumentation | None" = None
    #: External epoch dispatcher for sessions that carry neither a tuner
    #: driver nor a joint controller: called once per closed epoch with
    #: ``(session, record)`` and returns the next parameters (or ``None``
    #: to hold the current ones).  The return value is only honored on
    #: clean, tuned epochs — faulted and obs-lost epochs follow the same
    #: recovery ladder as driver-owned sessions, so an externally driven
    #: session journals/replays identically.  This is what lets a fleet
    #: service advance many tenant sessions on one shared substrate while
    #: owning the tuner (isolation, deadlines, supervision) itself.
    epoch_sink: "Callable[[TransferSession, EpochRecord], tuple[int, ...] | None] | None" = None

    def __post_init__(self) -> None:
        if self.journal is not None and self.controllers:
            # A joint controller's driver state spans sessions; replay
            # reconstruction is per-session, so journaling is limited to
            # independently tuned sessions for now.
            raise ValueError(
                "journaling jointly controlled sessions is not supported"
            )
        names = [s.name for s in self.sessions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate session names: {names}")
        if EXT_CMP in names or EXT_TFR in names:
            raise ValueError(
                f"session names {EXT_CMP!r}/{EXT_TFR!r} are reserved"
            )
        self._by_name = {s.name: s for s in self.sessions}
        for s in self.sessions:
            self.topology.path(s.spec.path_name)  # validates existence

        self._controller_of: dict[str, JointController] = {}
        for ctl in self.controllers:
            for name in ctl.session_names:
                if name not in self._by_name:
                    raise ValueError(f"controller references unknown {name!r}")
                if self._by_name[name].driver is not None:
                    raise ValueError(
                        f"session {name!r} has its own tuner and a controller"
                    )
                if name in self._controller_of:
                    raise ValueError(f"session {name!r} has two controllers")
                if (self._by_name[name].fault_schedule is not None
                        or self._by_name[name].breaker is not None):
                    # Skipping one member's report would deadlock the
                    # controller's aligned-epoch barrier.
                    raise ValueError(
                        f"session {name!r}: fault schedules and circuit "
                        "breakers are not supported on jointly controlled "
                        "sessions"
                    )
                self._controller_of[name] = ctl
        for s in self.sessions:
            if s.driver is None and s.name not in self._controller_of:
                self._check_sink_session(s)
            s.bind_dt(self.config.dt)

        self.clock = SimClock(self.config.dt)
        self.rng = RngStreams(self.config.seed)
        # The per-epoch dispatch draws always touch these three streams;
        # resolve them once (generator identity survives set_state, which
        # mutates bit-generator state in place).
        self._rng_noise = self.rng.throughput_noise
        self._rng_rjit = self.rng.restart_jitter
        self._rng_faults = self.rng.faults
        self._started = False
        self._last_cmp_frac = 0.0
        # Fast path: single-entry allocation cache (key = change-point
        # state; see _step) and per-path slow-start tau hoisted out of
        # the step loop.
        self._alloc_key: tuple | None = None
        self._alloc_val: tuple | None = None
        # Frozen CpuTask instances reused across allocation phases,
        # keyed (session, nc) — tuner proposals revisit the same
        # concurrency values, and large populations rebuild these at
        # every change point otherwise.
        self._cpu_task_memo: dict[tuple[str, int], CpuTask] = {}
        self._tau = {
            s.name: self.topology.path(s.spec.path_name).tcp.slow_start_tau
            for s in self.sessions
        }
        # Event context for telemetry hooks fired from within a dispatch
        # (breaker transitions, retry attempts): sim time and epoch index
        # of the epoch being dispatched.
        self._ev_time = 0.0
        self._ev_index = 0

    def _check_sink_session(self, s: TransferSession) -> None:
        """Validate a session that is neither driver- nor
        controller-owned: it needs the engine's ``epoch_sink``."""
        if self.epoch_sink is None:
            raise ValueError(
                f"session {s.name!r} has neither a tuner nor a controller"
            )
        if s.breaker is not None:
            # The half-open probe adopts ``driver.current``, which a
            # sink-driven session does not have; the fleet's degrade
            # ladder lives in its admission layer instead.
            raise ValueError(
                f"session {s.name!r}: circuit breakers are not supported "
                "on sink-driven sessions"
            )

    # -- public API ------------------------------------------------------

    @property
    def idle(self) -> bool:
        """True when every current session has finished."""
        return all(s.done for s in self.sessions)

    def step_once(self) -> None:
        """Advance the whole substrate by one ``dt`` step.

        The decoupled driver API: external loops (the fleet service)
        interleave ``step_once`` with :meth:`add_session` /
        :meth:`remove_session` instead of handing control to
        :meth:`run`.  The first call pays the same initialization as
        ``run`` (observability wiring, initial restart windows).
        """
        self._ensure_started()
        self._step()

    def add_session(self, s: TransferSession) -> None:
        """Admit a session to a (possibly mid-flight) substrate.

        The session starts its first control epoch at the current sim
        time, paying the same initial-launch restart cost a
        construction-time session pays.
        """
        name = s.spec.name
        if name in self._by_name:
            raise ValueError(f"duplicate session name {name!r}")
        if name in (EXT_CMP, EXT_TFR):
            raise ValueError(
                f"session names {EXT_CMP!r}/{EXT_TFR!r} are reserved"
            )
        self.topology.path(s.spec.path_name)  # validates existence
        if s.driver is None:
            self._check_sink_session(s)
        s.bind_dt(self.config.dt)
        self.sessions.append(s)
        self._by_name[name] = s
        self._tau[name] = self.topology.path(s.spec.path_name).tcp.slow_start_tau
        self._alloc_key = None
        self._alloc_val = None
        if self._started:
            s.noise_factor = lognormal_factor(
                self.rng.throughput_noise, self.config.noise_sigma_epoch
            )
            s.begin_restart(
                self.client.restart.restart_time_s(
                    s.nc,
                    self._last_cmp_frac,
                    s.spec.epoch_s,
                    rng=self.rng.restart_jitter,
                )
            )
            if self.obs is not None:
                self.obs.bus.emit(EpochStart(
                    time=self.clock.now, session=name, index=0,
                    params=tuple(s.params),
                ))

    def remove_session(self, name: str) -> TransferSession:
        """Retire a *finished* session from the substrate.

        Finished sessions consume no RNG draws and contribute nothing to
        the allocation phase, so removal is draw-neutral; removing an
        active session would change every other session's trajectory and
        is refused.
        """
        s = self._by_name.get(name)
        if s is None:
            raise KeyError(f"no session {name!r}")
        if not s.done:
            raise ValueError(
                f"session {name!r} is still active; only finished "
                "sessions can be removed"
            )
        self.sessions.remove(s)
        del self._by_name[name]
        self._tau.pop(name, None)
        self._alloc_key = None
        self._alloc_val = None
        return s

    def _ensure_started(self) -> None:
        """Idempotent run preamble: observability wiring plus the
        per-session initialization (shared by :meth:`run` and
        :meth:`step_once`)."""
        if self.obs is not None and not self.obs.active:
            # An inert bundle (NullBus, no metrics/spans) is dropped
            # outright so the loop body never constructs event objects
            # — this is what makes Instrumentation.noop() free.
            self.obs = None
        if self.obs is not None:
            self._install_obs_hooks()
        if not self._started:
            self._initialize()

    def run(self, until_s: float | None = None) -> dict[str, Trace]:
        """Advance until all sessions finish (or ``until_s``); returns the
        per-session traces."""
        self._ensure_started()
        while not all(s.done for s in self.sessions):
            if until_s is not None and self.clock.now >= until_s - 1e-9:
                break
            self._step()
        finished = all(s.done for s in self.sessions)
        for s in self.sessions:
            if s.epoch_ticks:
                rec = s.close_epoch(start_time=self.clock.now - s.epoch_elapsed)
                # A partial epoch flushed by an early ``until_s`` stop is
                # not journaled: the journal must hold only epochs the
                # uninterrupted run would also close, so a later resume
                # re-runs that span in full.  Events mirror the journal:
                # only epochs a journal would hold are published.
                if self.obs is not None and finished:
                    self._emit_epoch_end(s, rec)
                if self.journal is not None and finished:
                    self.journal.write_epoch(s.name, rec, s.last_epoch_steps)
        if self.journal is not None and finished:
            self.journal.write_end()
        return {s.name: s.trace for s in self.sessions}

    # -- checkpoint support ----------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready mutable run state at the current instant.

        Captures the sim clock, every RNG stream's exact bit-generator
        state, and each session's runtime (including retry counters,
        breaker state, and partial-epoch steps).  Tuner drivers are
        excluded by design — resume reconstructs them by replaying the
        journal (:mod:`repro.checkpoint.replay`).
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "tick": self.clock.tick,
            "last_cmp_frac": self._last_cmp_frac,
            "rng": self.rng.get_state(),
            "sessions": {s.name: s.snapshot() for s in self.sessions},
        }

    def restore_snapshot(
        self,
        state: dict,
        epochs_by_session: dict[
            str, list[tuple[EpochRecord, list[StepRecord]]]
        ],
    ) -> None:
        """Restore a :meth:`snapshot` onto a freshly built engine.

        The engine must be constructed with the same configuration
        (topology, host, sessions, seed) as the journaled run;
        ``epochs_by_session`` supplies the journaled epochs (with step
        records) used to rebuild the traces.  Replace each session's
        driver with a replayed one *before* calling this (the snapshot
        carries no tuner state).
        """
        check_snapshot_format(state)
        names = set(state["sessions"])
        if names != set(self._by_name):
            raise ValueError(
                f"snapshot sessions {sorted(names)} do not match engine "
                f"sessions {sorted(self._by_name)}"
            )
        self._started = True
        self.clock.tick = int(state["tick"])
        self._last_cmp_frac = float(state["last_cmp_frac"])
        self.rng.set_state(state["rng"])
        self._alloc_key = None
        self._alloc_val = None
        for name, sess_state in state["sessions"].items():
            self._by_name[name].restore_snapshot(
                sess_state, epochs_by_session.get(name, [])
            )

    # -- setup -----------------------------------------------------------

    def _initialize(self) -> None:
        self._started = True
        for ctl in self.controllers:
            for name, params in ctl.initial_params().items():
                self._by_name[name].params = params
        # Every tool pays its initial startup cost, baseline included.
        load = self.schedule.at(0.0)
        shares = self._cpu_shares(load)
        cmp_frac = shares.get(EXT_CMP, 0.0) / self.host.cores
        for s in self.sessions:
            s.noise_factor = lognormal_factor(
                self.rng.throughput_noise, self.config.noise_sigma_epoch
            )
            s.begin_restart(
                self.client.restart.restart_time_s(
                    s.nc,
                    cmp_frac,
                    s.spec.epoch_s,
                    rng=self.rng.restart_jitter,
                )
            )
        if self.obs is not None:
            for s in self.sessions:
                self.obs.bus.emit(EpochStart(
                    time=self.clock.now, session=s.name, index=0,
                    params=tuple(s.params),
                ))

    # -- observability ----------------------------------------------------

    def _install_obs_hooks(self) -> None:
        """Point the fault machinery's and journal's telemetry callbacks
        at this engine's bus/metrics.

        Called from :meth:`run` (idempotent), *after* any resume replay
        has driven the breaker/retry state — replayed epochs must not
        re-publish events the original run already emitted.
        """
        assert self.obs is not None
        bus = self.obs.bus
        metrics = self.obs.metrics
        for s in self.sessions:
            name = s.name
            if s.breaker is not None:
                def _on_transition(old: str, new: str, _name=name) -> None:
                    bus.emit(BreakerTransition(
                        time=self._ev_time, session=_name,
                        index=self._ev_index, old=old, new=new,
                    ))
                    if metrics is not None:
                        metrics.counter(
                            "repro_breaker_transitions_total",
                            session=_name, to=new,
                        ).inc()
                s.breaker.on_transition = _on_transition
            if s.retry_state is not None:
                def _on_retry(attempt: int, backoff_s: float,
                              _name=name) -> None:
                    bus.emit(RetryAttempt(
                        time=self._ev_time, session=_name,
                        index=self._ev_index, attempt=attempt,
                        backoff_s=backoff_s,
                    ))
                    if metrics is not None:
                        metrics.counter(
                            "repro_retries_total", session=_name
                        ).inc()
                s.retry_state.on_retry = _on_retry
        if metrics is not None:
            for ctl in self.controllers:
                ctl.metrics = metrics
        if self.journal is not None and metrics is not None:
            def _on_record(kind: str) -> None:
                metrics.counter(
                    "repro_journal_records_total", record_kind=kind
                ).inc()
            self.journal.on_record = _on_record

    def _emit_epoch_end(self, s: TransferSession, rec: EpochRecord) -> None:
        """Publish one closed epoch (events timed by the epoch's own
        sim-time boundary so live emission matches journal
        reconstruction float-exactly)."""
        assert self.obs is not None
        publish_epoch_record(self.obs, s.name, rec)

    # -- one step ----------------------------------------------------------

    def _cpu_shares(
        self,
        load: ExternalLoad,
        session_tasks: list[CpuTask] | None = None,
    ) -> dict[str, float]:
        if session_tasks is None:
            session_tasks = [
                CpuTask(s.name, n_entities=s.nc, weight=1.0)
                for s in self.sessions
                if not s.done
            ]
        tasks = list(session_tasks)
        if load.ext_cmp > 0:
            tasks.append(
                CpuTask(
                    EXT_CMP,
                    n_entities=load.ext_cmp * self.host.cores,
                    weight=self.host.dgemm_thread_weight,
                )
            )
        if load.ext_tfr > 0:
            tasks.append(
                CpuTask(EXT_TFR, n_entities=self._ext_procs(load), weight=1.0)
            )
        if not tasks:
            return {}
        return fair_shares(tasks, self.host.cores)

    def _ext_procs(self, load: ExternalLoad) -> int:
        return max(1, load.ext_tfr // self.config.ext_streams_per_proc)

    def _ext_path_name(self) -> str:
        if self.config.ext_tfr_path is not None:
            return self.config.ext_tfr_path
        return self.sessions[0].spec.path_name

    def _allocation_phase(
        self, load: ExternalLoad
    ) -> tuple[float, dict[str, float], float]:
        """Steps 1-3 of the pipeline: CPU fair-shares → effective loss →
        flow groups → max-min allocation → context-switch efficiency.

        Pure in everything but the change-point state ``_step`` keys its
        cache on: the external load plus each session's
        ``(done, restarting, params)``.  Returns ``(cmp_frac, alloc,
        eta)``.
        """
        # One walk computes each session's derived parameter values:
        # ``nc``/``np_``/``streams`` re-derive from the param map on
        # every property access, and at fleet population sizes those
        # repeated walks dominate the phase.  The values (and hence
        # every float below) are identical to the property-per-use
        # formulation; frozen CpuTasks are reused across change points
        # since tuner proposals revisit the same concurrency values.
        task_memo = self._cpu_task_memo
        alive: list[tuple[TransferSession, int, int, int]] = []
        session_tasks: list[CpuTask] = []
        for s in self.sessions:
            if s.done:
                continue
            nc = s.nc
            np_ = s.np_
            alive.append((s, nc, np_, nc * np_))
            tkey = (s.name, nc)
            task = task_memo.get(tkey)
            if task is None:
                task = CpuTask(s.name, n_entities=nc, weight=1.0)
                task_memo[tkey] = task
            session_tasks.append(task)
        shares = self._cpu_shares(load, session_tasks)
        cmp_frac = shares.get(EXT_CMP, 0.0) / self.host.cores

        # Sessions that will push bytes during (part of) this step.
        live = [t for t in alive if not t[0].dead_ticks]

        # Total streams per path -> effective loss -> per-stream caps.
        path_streams: dict[str, int] = {}
        for s, nc, np_, streams in live:
            pn = s.spec.path_name
            path_streams[pn] = path_streams.get(pn, 0) + streams
        if load.ext_tfr > 0:
            pn = self._ext_path_name()
            path_streams[pn] = path_streams.get(pn, 0) + load.ext_tfr

        groups: list[FlowGroup] = []
        for s, nc, np_, streams in live:
            path = self.topology.path(s.spec.path_name)
            stream_cap = path.stream_cap_mbps(path_streams[s.spec.path_name])
            cpu_cap = self.client.cpu_capacity_mbps(
                np_, shares.get(s.name, 0.0), self.host
            ) * self.host.pinning_efficiency(nc)
            mem_cap = self.host.memory_cap_mbps(nc, load.ext_cmp)
            groups.append(
                FlowGroup(
                    name=s.name,
                    path=path,
                    n_streams=streams,
                    group_cap_mbps=min(cpu_cap, mem_cap, s.disk_cap()),
                    stream_cap_mbps=stream_cap,
                )
            )
        if load.ext_tfr > 0:
            path = self.topology.path(self._ext_path_name())
            procs = self._ext_procs(load)
            per_proc_streams = max(1, math.ceil(load.ext_tfr / procs))
            cpu_cap = self.client.cpu_capacity_mbps(
                per_proc_streams, shares.get(EXT_TFR, 0.0), self.host
            )
            groups.append(
                FlowGroup(
                    name=EXT_TFR,
                    path=path,
                    n_streams=load.ext_tfr,
                    group_cap_mbps=cpu_cap,
                    stream_cap_mbps=path.stream_cap_mbps(
                        path_streams[self._ext_path_name()]
                    ),
                )
            )

        alloc = max_min_fair_allocation(groups) if groups else {}

        runnable = (
            sum(t[3] for t in live)
            + load.ext_cmp * self.host.cores * self.host.dgemm_runnable_factor
            + load.ext_tfr
        )
        eta = (
            context_switch_efficiency(
                runnable, self.host.cores, self.host.cs_coeff
            )
            if runnable > 0
            else 1.0
        )
        return cmp_frac, alloc, eta

    def _step(self) -> None:
        dt = self.config.dt
        t = self.clock.now
        load = self.schedule.at(t)

        if self.config.fast_path:
            # Change-point key: everything the allocation phase reads
            # that can change mid-run.  The external load covers
            # schedule transitions; per-session (done, live, params)
            # covers epoch dispatch (parameter adoption), restart
            # windows' last dead step, breaker fallbacks (they act
            # through params and restarts), and session start/stop.
            # Topology/host/client are immutable.
            key = (
                load,
                tuple(
                    (s.done, not s.dead_ticks, s.params)
                    for s in self.sessions
                ),
            )
            if key != self._alloc_key:
                self._alloc_val = self._allocation_phase(load)
                self._alloc_key = key
            cmp_frac, alloc, eta = self._alloc_val
        else:
            cmp_frac, alloc, eta = self._allocation_phase(load)
        self._last_cmp_frac = cmp_frac

        spans = self.obs.spans if self.obs is not None else None

        # Noise/advance phase: move bytes and advance per-session clocks.
        if spans is not None:
            _t0 = spans.now()
        sigma_step = self.config.noise_sigma_step
        noise_rng = self.rng.throughput_noise
        taus = self._tau
        for s in self.sessions:
            if s.done:
                continue
            dead = s.dead_ticks
            run_s = 0.0 if dead else dt - s.lead_s
            moved = 0.0
            if run_s > 0 and s.name in alloc:
                ramp = _ramp_average(taus[s.name], s.time_since_start, run_s)
                jitter = lognormal_factor(noise_rng, sigma_step)
                rate = (alloc[s.name] * eta * s.noise_factor * jitter
                        * ramp * s.fault_rate_factor(s.epoch_ticks))
                moved = s.state.account(rate * MB * run_s, dt)
                s.time_since_start += run_s
            else:
                s.state.account(0.0, dt)
            s.record_step(time=t, rate=moved / MB / dt, bytes_moved=moved)
            if dead:
                s.dead_ticks = dead - 1
            else:
                s.lead_s = 0.0
            s.epoch_ticks += 1
            s.epoch_run_s += run_s
            s.epoch_bytes += moved
        if spans is not None:
            spans.record("epoch/transfer", max(0.0, spans.now() - _t0))

        self.clock.advance()
        now = self.clock.now

        # Epoch boundaries (and transfer completion) close out epochs.
        if spans is not None:
            _t0 = spans.now()
        closed: list[tuple[TransferSession, EpochRecord]] = []
        for s in self.sessions:
            ticks = s.epoch_ticks
            if not ticks:
                continue
            if ticks < s.close_tick and not s.done:
                continue
            rec = s.close_epoch(start_time=now - s.epoch_elapsed)
            closed.append((s, rec))
            if self.obs is not None:
                self._emit_epoch_end(s, rec)
            if s.done:
                continue
            if spans is not None:
                _tp = spans.now()
            self._dispatch_epoch(s, rec)
            if spans is not None:
                spans.record("epoch/propose", max(0.0, spans.now() - _tp))
            if self.obs is not None and not s.done:
                self.obs.bus.emit(EpochStart(
                    time=rec.start + rec.duration, session=s.name,
                    index=rec.index + 1, params=tuple(s.params),
                ))
        if spans is not None and closed:
            spans.record("epoch/observe", max(0.0, spans.now() - _t0))

        # Journal the step's closed epochs, then one snapshot at this
        # consistent point (after every dispatch above consumed its RNG
        # draws) — the resume anchor.
        if self.journal is not None and closed:
            for s, rec in closed:
                self.journal.write_epoch(s.name, rec, s.last_epoch_steps)
            self.journal.write_snapshot(self.snapshot())
            if self.obs is not None:
                self.obs.bus.emit(SnapshotWritten(
                    time=now,
                    epochs=sum(len(x.trace.epochs) for x in self.sessions),
                ))

    def _dispatch_epoch(
        self, s: TransferSession, rec, *,
        noise: float | None = None, rjit: float | None = None,
    ) -> None:
        """Close out one control epoch: drive the retry policy and circuit
        breaker, and feed the tuner/controller — but never with a faulted
        or absent observation.

        ``noise``/``rjit`` accept pre-drawn per-epoch factors (the
        batched shard sizes one draw per stream over a whole dispatch
        round — the same value sequence as per-dispatch scalar draws);
        ``None`` draws from the streams here, the scalar behavior."""
        obs = self.obs
        end_t = rec.start + rec.duration
        if obs is not None:
            # Context for hooks (breaker/retry) fired inside this dispatch.
            self._ev_time = end_t
            self._ev_index = rec.index

        if s.driver is None and s.name in self._controller_of:
            # Jointly controlled sessions carry no fault machinery
            # (enforced at construction); keep the original path.
            ctl = self._controller_of[s.name]
            result = ctl.observe(s.name, rec.observed)
            if result is not None:
                for name, params in result.items():
                    self._adopt(self._by_name[name], params)
                    if obs is not None:
                        obs.bus.emit(TunerAccept(
                            time=end_t, session=name, index=rec.index,
                            params=tuple(params),
                        ))
            return

        # Sink-driven sessions: the external owner (fleet shard) sees
        # every closed epoch — including faulted ones, so its journal
        # replays — but its proposal is only honored on the clean path.
        sink = self.epoch_sink if s.driver is None else None

        # Fixed per-epoch draw pattern: one value from each stream no
        # matter which recovery arm runs below, so fault policies are
        # compared on identical noise realizations.
        if noise is None:
            noise = lognormal_factor(
                self._rng_noise, self.config.noise_sigma_epoch
            )
        if rjit is None:
            rjit = lognormal_factor(
                self._rng_rjit, self.client.restart.jitter_sigma
            )
        # The backoff draw is the faults stream's only consumer and only
        # a retry policy uses it; without one, skipping it cannot
        # perturb any later draw.
        backoff_u = (float(self._rng_faults.uniform(-1.0, 1.0))
                     if s.retry_state is not None else None)
        step = recover_epoch(rec.fault, rec.faulted, s.retry_state,
                             s.breaker, u=backoff_u)

        if step.arm == FAIL:
            s.failed = True
            if sink is not None:
                sink(s, rec)
            reason = "budget-exhausted"
        elif step.arm == FALLBACK:
            # Pinned at the safe default, set-and-hold (only the
            # transition pays a relaunch): tuner bypassed (its search
            # state frozen), no retry hammering, the tool left running.
            pm = s.param_map
            params = fallback_params(s.breaker, s.space, s.params,
                                     pm.nc_dim, pm.np_dim)
            changed = params != s.params
            s.params = params
            s.noise_factor = noise
            if step.entering or changed:
                s.begin_restart(self._restart_dead_s(s, rjit=rjit))
            reason = "breaker-open"
        elif step.arm == RELAUNCH:
            # The tool died mid-epoch: the tuner must not see this
            # epoch's throughput.  Relaunch, charging the restart window
            # plus the policy's backoff.
            if sink is not None:
                sink(s, rec)  # tenant journals the fault; params held
            self._adopt(s, s.params, force_restart=True,
                        extra_dead_s=step.backoff_s, noise=noise, rjit=rjit)
            reason = "faulted"
        elif step.arm == HOLD:
            # Control channel dropped the measurement: hold the current
            # parameters; the tuner observes nothing.
            if sink is not None:
                sink(s, rec)
            self._adopt(s, s.params, noise=noise, rjit=rjit)
            reason = "obs-loss"
        else:
            if step.arm == PROBE:
                # Cooldown over: probe with the tuner's standing
                # proposal.  The fallback epochs' throughput is never
                # observed.
                proposal, observed = tuple(s.driver.current), None
            elif sink is not None:
                proposed = sink(s, rec)
                proposal = s.params if proposed is None else tuple(proposed)
                observed = rec.observed
            else:
                proposal = s.driver.observe(rec.observed)
                observed = rec.observed
            if obs is not None:
                obs.bus.emit(TunerProposal(
                    time=end_t, session=s.name, index=rec.index,
                    params=tuple(proposal), observed=observed,
                ))
            self._adopt(s, proposal, force_restart=step.arm == PROBE,
                        noise=noise, rjit=rjit)
            if obs is not None:
                obs.bus.emit(TunerAccept(
                    time=end_t, session=s.name, index=rec.index,
                    params=tuple(proposal),
                ))
            return
        if obs is not None:
            obs.bus.emit(TunerReject(
                time=end_t, session=s.name, index=rec.index,
                params=tuple(s.params), reason=reason,
            ))

    def _restart_dead_s(
        self, s: TransferSession, *, warm: bool = False,
        rjit: float | None = None,
    ) -> float:
        """Restart dead time; jitter comes from ``rjit`` when pre-drawn,
        else from the stream (legacy paths)."""
        dead = self.client.restart.restart_time_s(
            s.nc,
            self._last_cmp_frac,
            s.spec.epoch_s,
            warm=warm,
            rng=self.rng.restart_jitter if rjit is None else None,
        )
        if rjit is not None:
            dead = min(
                dead * rjit,
                self.client.restart.max_fraction_of_epoch * s.spec.epoch_s,
            )
        return dead

    def _adopt(
        self,
        s: TransferSession,
        params: tuple[int, ...],
        *,
        force_restart: bool = False,
        extra_dead_s: float = 0.0,
        noise: float | None = None,
        rjit: float | None = None,
    ) -> None:
        needs_restart, warm = s.apply_params(params)
        if force_restart:
            needs_restart, warm = True, False
        s.noise_factor = noise if noise is not None else lognormal_factor(
            self.rng.throughput_noise, self.config.noise_sigma_epoch
        )
        dead = extra_dead_s
        if needs_restart:
            dead += self._restart_dead_s(s, warm=warm, rjit=rjit)
        if dead > 0:
            s.begin_restart(
                min(dead, s.spec.epoch_s * self.client.restart.max_fraction_of_epoch)
            )


def _ramp_average(tau: float, t0: float, run_s: float) -> float:
    """Mean of the slow-start ramp ``1 - exp(-t/tau)`` over
    ``[t0, t0 + run_s]``."""
    if run_s <= 0:
        return 0.0
    return 1.0 - (tau / run_s) * (
        math.exp(-t0 / tau) - math.exp(-(t0 + run_s) / tau)
    )
