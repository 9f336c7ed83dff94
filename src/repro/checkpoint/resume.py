"""Crash-safe runs and deterministic resume.

High-level glue over :mod:`repro.checkpoint.journal` and
:mod:`repro.checkpoint.replay`:

* :func:`run_journaled` — run one tuned transfer with every epoch (and a
  state snapshot) fsynced to a journal whose header records the full run
  configuration by *name* (scenario, tuner, seed, load, fault campaign),
  so nothing but the journal is needed to resume.
* :func:`resume_run` — rebuild the engine from the header, reconstruct
  the tuner by replaying the journaled observations (verified record by
  record), restore the RNG streams / sim clock / retry / breaker /
  transfer state from the last snapshot, and continue.  The resumed
  run's trace is **bit-identical** to the same run uninterrupted.
* :func:`warm_start_x0` — the best journaled configuration, for seeding
  a *new* session's search (Arslan & Kosar-style historical warm start)
  instead of re-climbing from the Globus default.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.checkpoint.journal import (
    Journal,
    JournalWriter,
    read_journal,
    trim_to_last_snapshot,
)
from repro.checkpoint.replay import ReplayMismatchError, replay_epochs
from repro.core.registry import make_tuner
from repro.endpoint.load import ExternalLoad
from repro.experiments.runner import EPOCH_S, make_session
from repro.experiments.scenarios import SCENARIOS
from repro.faults import CircuitBreaker, FaultSchedule, RetryPolicy
from repro.sim.engine import Engine, EngineConfig, check_snapshot_format
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instrument import Instrumentation


def warm_start_x0(
    journal: str | Path | Journal, session: str | None = None
) -> tuple[int, ...] | None:
    """Best clean, tuner-observed configuration in a journal, or None.

    The warm-start seed for a new run: start the search where the last
    session's climb ended instead of at the Globus default.
    """
    if not isinstance(journal, Journal):
        journal = read_journal(journal)
    return journal.best_params(session)


def trace_from_journal(
    journal: str | Path | Journal, session: str | None = None
) -> Trace:
    """Reconstruct a session's trace from its journaled epochs/steps."""
    if not isinstance(journal, Journal):
        journal = read_journal(journal)
    sessions = journal.sessions()
    if session is None:
        if len(sessions) != 1:
            raise ValueError(
                f"journal holds sessions {sessions}; pick one"
            )
        session = sessions[0]
    trace = Trace(label=session)
    for je in journal.epochs_for(session):
        for s in je.steps:
            trace.add_step(s)
        trace.add_epoch(je.record)
    return trace


def resume_engine(engine: Engine, journal: Journal) -> bool:
    """Prepare a freshly built engine to continue a journaled run.

    For every session: replay the journaled epochs through a fresh
    driver (verifying each record against the recomputed trajectory),
    install the replayed driver, then restore the last snapshot — and
    cross-check that the replayed params/retry/breaker state agree with
    the snapshotted state, so a configuration mismatch can never resume
    silently wrong.  Returns False when the journal holds no snapshot
    yet (nothing to restore; the engine runs from scratch).
    """
    if journal.snapshot is None:
        return False
    replays = {}
    for s in engine.sessions:
        if s.driver is None or s.tuner is None:
            raise ValueError(
                f"session {s.name!r} has no tuner; journaled runs need "
                "independently tuned sessions"
            )
        recs = [je.record for je in journal.snapshot_epochs_for(s.name)]
        result = replay_epochs(
            s.tuner, s.space, s.x0, recs,
            retry_policy=s.retry_policy,
            breaker=s.breaker,
            nc_dim=s.param_map.nc_dim,
            np_dim=s.param_map.np_dim,
        )
        replayed_breaker = (
            s.breaker.snapshot() if s.breaker is not None else None
        )
        replayed_retry = (
            result.retry_state.snapshot()
            if result.retry_state is not None else None
        )
        s.driver = result.driver
        if s.retry_state is not None and result.retry_state is not None:
            s.retry_state = result.retry_state
        replays[s.name] = (result, replayed_retry, replayed_breaker, recs)

    epochs_by_session = {
        name: [
            (je.record, list(je.steps))
            for je in journal.snapshot_epochs_for(name)
        ]
        for name in journal.sessions()
    }
    engine.restore_snapshot(journal.snapshot, epochs_by_session)

    # Cross-check replay against the snapshot: both derive the same
    # dispatch state through independent routes.
    for s in engine.sessions:
        result, replayed_retry, replayed_breaker, recs = replays[s.name]
        n = len(recs)
        if tuple(result.params) != s.params:
            raise ReplayMismatchError(n, "params", tuple(result.params),
                                      s.params)
        if result.failed != s.failed:
            raise ReplayMismatchError(n, "failed", result.failed, s.failed)
        if s.retry_state is not None:
            snap = journal.snapshot["sessions"][s.name]["retry"]
            if replayed_retry != snap:
                raise ReplayMismatchError(n, "retry", replayed_retry, snap)
        if s.breaker is not None:
            snap = journal.snapshot["sessions"][s.name]["breaker"]
            if replayed_breaker != snap:
                raise ReplayMismatchError(n, "breaker", replayed_breaker,
                                          snap)
    return True


def resume_live_state(
    journal: str | Path | Journal,
    tuner,
    space,
    x0: tuple[int, ...],
    *,
    retry_policy: RetryPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    nc_dim: int = 0,
    np_dim: int | None = None,
    session: str = "live",
):
    """Reconstruct :func:`repro.live.tune_live` loop state from a journal.

    Replays the journaled epochs through a fresh driver (verified record
    by record — pass the same tuner/space/x0/policy/breaker the original
    run used; the breaker instance is left holding its resumed state)
    and combines the result with the last live snapshot's wall-clock and
    byte ledgers.  Hand the returned :class:`repro.live.LiveResumeState`
    to ``tune_live(..., resume=state)`` together with the same
    ``breaker`` and a :class:`JournalWriter` reopened on the same path.
    """
    from repro.live import LiveEpoch, LiveResumeState

    if not isinstance(journal, Journal):
        path = journal
        journal = read_journal(path)
        if not journal.ended:
            trim_to_last_snapshot(path)
    if journal.snapshot is None or "live" not in journal.snapshot:
        raise ValueError(
            "journal holds no live snapshot; it was not written by "
            "tune_live(journal=...)"
        )
    live = journal.snapshot["live"]
    epochs = journal.snapshot_epochs_for(session)
    recs = [je.record for je in epochs]
    result = replay_epochs(
        tuner, space, x0, recs,
        retry_policy=retry_policy, breaker=breaker,
        nc_dim=nc_dim, np_dim=np_dim,
    )
    if int(live["index"]) != len(recs):
        raise ReplayMismatchError(
            len(recs), "index", len(recs), int(live["index"])
        )
    return LiveResumeState(
        epochs=[LiveEpoch.from_record(r) for r in recs],
        driver=result.driver,
        params=result.params,
        retry_state=result.retry_state,
        index=int(live["index"]),
        elapsed=float(live["elapsed"]),
        moved_bytes=float(live["moved_bytes"]),
        failed=bool(live["failed"]) or result.failed,
    )


# -- turnkey single-transfer flow (CLI `run --journal` / `resume`) ---------


def _run_config(
    *,
    scenario: str,
    tuner: str,
    seed: int,
    load: str,
    duration_s: float,
    epoch_s: float,
    tune_np: bool,
    fixed_np: int,
    max_nc: int,
    x0: tuple[int, ...] | None,
    fault_schedule: FaultSchedule | None,
    retry_policy: RetryPolicy | None,
    breaker: CircuitBreaker | None,
) -> dict:
    return {
        "scenario": scenario,
        "tuner": tuner,
        "seed": seed,
        "load": load,
        "duration_s": duration_s,
        "epoch_s": epoch_s,
        "tune_np": tune_np,
        "fixed_np": fixed_np,
        "max_nc": max_nc,
        "x0": None if x0 is None else list(x0),
        "fault_schedule": (None if fault_schedule is None
                           else fault_schedule.to_list()),
        "retry_policy": (None if retry_policy is None
                         else retry_policy.to_dict()),
        "breaker": None if breaker is None else breaker.to_dict(),
    }


def _build_engine(
    config: dict,
    journal: JournalWriter | None,
    obs: "Instrumentation | None" = None,
) -> Engine:
    try:
        scenario = SCENARIOS[config["scenario"]]
    except KeyError:
        raise ValueError(
            f"journal references unknown scenario {config['scenario']!r}; "
            f"known: {sorted(SCENARIOS)}"
        ) from None
    tuner = make_tuner(config["tuner"], int(config["seed"]))
    ExternalLoad.parse(config["load"])  # validate early
    fault_schedule = (
        FaultSchedule.from_list(config["fault_schedule"])
        if config.get("fault_schedule") is not None else None
    )
    retry_policy = (
        RetryPolicy.from_dict(config["retry_policy"])
        if config.get("retry_policy") is not None else None
    )
    breaker = (
        CircuitBreaker.from_dict(config["breaker"])
        if config.get("breaker") is not None else None
    )
    session = make_session(
        "main",
        scenario.main_path,
        tuner,
        duration_s=float(config["duration_s"]),
        epoch_s=float(config["epoch_s"]),
        tune_np=bool(config["tune_np"]),
        fixed_np=int(config["fixed_np"]),
        max_nc=int(config["max_nc"]),
        x0=(None if config["x0"] is None
            else tuple(int(v) for v in config["x0"])),
        fault_schedule=fault_schedule,
        retry_policy=retry_policy,
        breaker=breaker,
    )
    from repro.endpoint.load import LoadSchedule

    return Engine(
        topology=scenario.build_topology(),
        host=scenario.host,
        sessions=[session],
        schedule=LoadSchedule.constant(ExternalLoad.parse(config["load"])),
        config=EngineConfig(seed=int(config["seed"])),
        journal=journal,
        obs=obs,
    )


def run_journaled(
    journal_path: str | Path,
    *,
    scenario: str = "anl-uc",
    tuner: str = "nm",
    seed: int = 0,
    load: str = "none",
    duration_s: float = 1800.0,
    epoch_s: float = EPOCH_S,
    tune_np: bool = False,
    fixed_np: int = 8,
    max_nc: int = 512,
    x0: tuple[int, ...] | None = None,
    fault_schedule: FaultSchedule | None = None,
    retry_policy: RetryPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    warm_start_from: str | Path | None = None,
    obs: "Instrumentation | None" = None,
) -> Trace:
    """One crash-safe tuned transfer: journal header + epochs + snapshots.

    ``warm_start_from`` seeds the tuner's ``x0`` from the best
    configuration in an *earlier* journal.  Refuses to overwrite an
    existing journal — that is what :func:`resume_run` is for.
    """
    journal_path = Path(journal_path)
    if journal_path.exists() and journal_path.stat().st_size > 0:
        raise FileExistsError(
            f"journal {journal_path} already exists; use resume_run() "
            "(CLI: `repro resume`) to continue it"
        )
    if warm_start_from is not None:
        warm = warm_start_x0(warm_start_from)
        if warm is not None:
            x0 = warm if not tune_np or len(warm) == 2 else x0
    config = _run_config(
        scenario=scenario, tuner=tuner, seed=seed, load=load,
        duration_s=duration_s, epoch_s=epoch_s, tune_np=tune_np,
        fixed_np=fixed_np, max_nc=max_nc, x0=x0,
        fault_schedule=fault_schedule, retry_policy=retry_policy,
        breaker=breaker,
    )
    with JournalWriter(journal_path) as writer:
        writer.write_header({"run": config})
        engine = _build_engine(config, writer, obs=obs)
        return engine.run()["main"]


def resume_run(
    journal_path: str | Path,
    obs: "Instrumentation | None" = None,
) -> Trace:
    """Continue a killed :func:`run_journaled` from its last complete
    epoch; the returned trace is bit-identical to the uninterrupted run.

    An already-finished journal is a no-op: the complete trace is
    reconstructed from the journal and returned.
    """
    journal = read_journal(journal_path)
    if journal.header is None or "run" not in journal.header:
        raise ValueError(
            f"journal {journal_path} has no run header; it was not "
            "written by run_journaled()/`repro run --journal`"
        )
    if journal.ended:
        return trace_from_journal(journal)
    if journal.snapshot is not None:
        # Refuse before touching the file: a journal this version
        # cannot resume is left as it was written.
        check_snapshot_format(journal.snapshot)
    # Drop records past the resume anchor (epochs whose snapshot never
    # made it to disk are re-run, not replayed) so the journal's epoch
    # stream stays free of superseded duplicates.
    trim_to_last_snapshot(journal_path)
    with JournalWriter(journal_path) as writer:
        engine = _build_engine(journal.header["run"], writer, obs=obs)
        resume_engine(engine, journal)
        return engine.run()["main"]
