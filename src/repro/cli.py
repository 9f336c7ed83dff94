"""Command-line interface.

The subcommands mirror how the library is used:

* ``run``    — one tuned transfer on a scenario, with a summary and the
  adopted parameter trajectory; ``--journal`` makes it crash-safe;
  ``--reps N --jobs J`` replicates across seeds in parallel and reports
  the mean with a confidence interval (``--batch`` advances the
  replicates in lockstep lanes, bit-identical to the serial path);
* ``resume`` — continue a killed journaled run (bit-identical result);
* ``sweep``  — the static response surface (throughput vs nc);
* ``oracle`` — the best static setting by offline sweep;
* ``figure`` — regenerate one of the paper's figures as text;
* ``campaign`` — the whole evaluation; ``--journal`` resumes at the
  granularity of completed figures; ``--jobs`` fans the units out over
  processes and ``--batch N`` advances each unit's runs in lockstep
  lanes (identical report at any width of either axis);
* ``info``   — registered tuners, scenarios, and load profiles;
  ``--timings`` prints a campaign journal's per-unit wall times;
* ``top``    — ANSI dashboard over a journal or saved trace
  (``--follow`` re-renders live while a journaled run progresses);
* ``cache``  — inspect/clear/prune the content-addressed run cache;
  ``cache serve`` exposes it over HTTP with graceful SIGTERM drain;
* ``serve``  — the long-running multi-tenant tuning fleet service
  (admission control, supervision, graceful drain);
* ``submit`` — submit one tenant to a running fleet (``--watch`` polls
  it to completion).

``run``, ``oracle``, and ``campaign`` cache their simulation results in
``.repro-cache`` (override with ``--cache-dir`` or ``$REPRO_CACHE_DIR``)
so repeating an experiment is nearly free; ``--no-cache`` forces a
fresh simulation.  Cached results are bit-identical to simulated ones.

Invoke as ``python -m repro ...`` or via the ``repro-transfer`` script.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Sequence

from repro.analysis.stats import steady_state_mean, time_to_steady_state
from repro.analysis.surface import critical_point, unimodality_score
from repro.core.base import StaticTuner, Tuner
from repro.core import registry
from repro.endpoint.load import ExternalLoad
from repro.experiments import figures
from repro.experiments.batch import resolve_fallback_warn
from repro.experiments.campaign import CampaignScale, run_campaign
from repro.experiments.oracle import oracle_static_nc
from repro.experiments.report import ascii_chart, downsample, render_series, render_table
from repro.experiments.runner import run_single
from repro.experiments.scenarios import SCENARIOS, Scenario
from repro.sim.trace import Trace


def make_tuner(name: str, seed: int) -> Tuner:
    """Construct a tuner by CLI name (see :mod:`repro.core.registry`)."""
    try:
        return registry.make_tuner(name, seed)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None


def parse_load(text: str) -> ExternalLoad:
    """Parse ``cmp16``, ``tfr64``, ``cmp16+tfr64``, or ``none``."""
    try:
        return ExternalLoad.parse(text)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _cache_spec(args: argparse.Namespace):
    """The ``cache=`` value for a subcommand's ``--cache/--no-cache``."""
    if not args.cache:
        return False
    from repro.cache import RunCache

    return RunCache(args.cache_dir)


def _scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise SystemExit(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None


# -- subcommands -------------------------------------------------------------


def _make_obs(args: argparse.Namespace):
    """Build the observability bundle for ``--events``/``--metrics-out``.

    Returns ``(obs, event_log)`` — both ``None`` when neither flag is
    set, so uninstrumented runs stay on the zero-overhead path.
    """
    if not (args.events or args.metrics_out):
        return None, None
    from repro.obs import Instrumentation, JsonlEventLog

    obs = Instrumentation.on()
    log = None
    if args.events:
        log = JsonlEventLog(args.events).attach_to(obs.bus)
    return obs, log


def _finish_obs(args: argparse.Namespace, obs, log) -> None:
    if log is not None:
        log.close()
        print(f"events written  : {args.events} ({log.written} events)")
    if obs is not None and args.metrics_out:
        from repro.obs import write_prometheus

        write_prometheus(obs.metrics, args.metrics_out)
        print(f"metrics written : {args.metrics_out}")


def _print_summary(
    trace: Trace, *, scenario: str, load: str, tuner: str,
    tune_np: bool, chart: bool,
) -> None:
    steady = steady_state_mean(trace)
    best = steady_state_mean(trace, best_case=True)
    print(f"scenario   : {scenario} ({load})")
    print(f"tuner      : {tuner}")
    print(f"steady observed : {steady:8.0f} MB/s")
    print(f"steady best-case: {best:8.0f} MB/s "
          f"(restart overhead {100 * (1 - steady / max(best, 1e-9)):.0f}%)")
    print(f"time to steady  : {time_to_steady_state(trace):8.0f} s")
    print(f"bytes moved     : {trace.total_bytes / 1e9:8.1f} GB")
    names = ["nc"] + (["np"] if tune_np else [])
    for dim, label in enumerate(names):
        vals = trace.epoch_param(dim).tolist()
        print(f"{label} per epoch: "
              + " ".join(str(int(v)) for v in downsample(vals, 30)))
    if chart:
        print()
        print(
            ascii_chart(
                {
                    "observed": trace.epoch_observed().tolist(),
                    "best-case": trace.epoch_best_case().tolist(),
                },
                title="throughput (MB/s) per control epoch",
            )
        )


def _save_trace(trace: Trace, path: str) -> None:
    from repro.sim.traceio import save_trace

    save_trace(trace, path)
    print(f"trace written   : {path}")


def _rep_experiment(
    seed: int, *, scenario_name: str, tuner_name: str, load: str,
    duration_s: float, tune_np: bool, fixed_np: int,
) -> float:
    """One ``run --reps`` replicate: seed in, steady MB/s out.

    Module-level (wrapped in ``functools.partial``) so it crosses the
    process boundary when ``--jobs`` fans the seeds out.
    """
    trace = run_single(
        SCENARIOS[scenario_name],
        registry.make_tuner(tuner_name, seed),
        load=ExternalLoad.parse(load),
        duration_s=duration_s,
        tune_np=tune_np,
        fixed_np=fixed_np,
        seed=seed,
    )
    return steady_state_mean(trace)


def _run_replicates(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import replicate_seeds
    from repro.experiments.replicate import Replicates, replicate

    for value, flag in (
        (args.journal, "--journal"), (args.warm_start, "--warm-start"),
        (args.trace_out, "--trace-out"), (args.events, "--events"),
        (args.metrics_out, "--metrics-out"),
    ):
        if value is not None:
            raise SystemExit(
                f"{flag} is incompatible with --reps: replicates are "
                "independent seeded runs without per-run artifacts"
            )
    make_tuner(args.tuner, args.seed)  # fail fast on a bad name
    parse_load(args.load)
    seeds = replicate_seeds(args.seed, args.reps)
    occ = None
    if args.batch is not None:
        # Batched replicates: the seeds become a spec list and advance
        # in lockstep lanes; values are identical to the scalar path
        # because every trace is bit-identical to run_single's.
        from repro.experiments.batch import (
            SingleRunSpec,
            occupancy,
            run_many,
        )

        scenario = _scenario(args.scenario)
        load = parse_load(args.load)
        specs = [
            SingleRunSpec(
                scenario, registry.make_tuner(args.tuner, seed),
                load=load, duration_s=args.duration,
                tune_np=args.tune_np, fixed_np=args.np, seed=seed,
            )
            for seed in seeds
        ]
        occ0 = occupancy()
        traces = run_many(specs, jobs=args.jobs, batch=args.batch,
                          cache=_cache_spec(args))
        occ = occupancy() - occ0
        reps = Replicates(
            values=tuple(steady_state_mean(t) for t in traces),
            seeds=tuple(seeds),
        )
    else:
        experiment = functools.partial(
            _rep_experiment,
            scenario_name=args.scenario,
            tuner_name=args.tuner,
            load=args.load,
            duration_s=args.duration,
            tune_np=args.tune_np,
            fixed_np=args.np,
        )
        reps = replicate(
            experiment, seeds, jobs=args.jobs, cache=_cache_spec(args),
        )
    print(render_table(
        ["seed", "steady MB/s"],
        [[s, f"{v:.0f}"] for s, v in zip(reps.seeds, reps.values)],
        title=(f"{args.scenario} / {args.tuner} / load={args.load}: "
               f"{args.reps} replicates"),
    ))
    lo, hi = reps.confidence_interval()
    print(f"\nmean {reps.mean:.0f} MB/s, 95% CI [{lo:.0f}, {hi:.0f}] "
          f"(sample std {reps.std:.0f})")
    if occ is not None and (occ.simulated or occ.cached):
        print(f"(batch: {occ.batched} runs batched in {occ.chunks} "
              f"chunks, {occ.fallback} fell back to scalar, "
              f"{occ.cached} cache hits)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise SystemExit("--reps must be >= 1")
    if args.reps > 1:
        return _run_replicates(args)
    if args.batch is not None:
        raise SystemExit(
            "--batch needs --reps N (N > 1): batching advances "
            "independent seed replicates in lockstep"
        )
    scenario = _scenario(args.scenario)
    tuner = make_tuner(args.tuner, args.seed)
    obs, event_log = _make_obs(args)
    if args.journal is not None:
        from repro.checkpoint import run_journaled

        parse_load(args.load)  # fail fast with the CLI message
        try:
            trace = run_journaled(
                args.journal,
                scenario=scenario.name,
                tuner=args.tuner,
                seed=args.seed,
                load=args.load,
                duration_s=args.duration,
                tune_np=args.tune_np,
                fixed_np=args.np,
                warm_start_from=args.warm_start,
                obs=obs,
            )
        except FileExistsError as exc:
            raise SystemExit(str(exc)) from None
    else:
        if args.warm_start is not None:
            raise SystemExit("--warm-start needs a journal-based run; "
                             "pass --journal as well")
        trace = run_single(
            scenario,
            tuner,
            load=parse_load(args.load),
            duration_s=args.duration,
            tune_np=args.tune_np,
            fixed_np=args.np,
            seed=args.seed,
            obs=obs,
            cache=_cache_spec(args),
        )
    _print_summary(trace, scenario=scenario.name, load=args.load,
                   tuner=tuner.name, tune_np=args.tune_np, chart=args.chart)
    if args.trace_out:
        _save_trace(trace, args.trace_out)
    _finish_obs(args, obs, event_log)
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.checkpoint import read_journal, resume_run

    try:
        journal = read_journal(args.journal)
    except FileNotFoundError:
        raise SystemExit(f"no journal at {args.journal}") from None
    if journal.header is None or "run" not in journal.header:
        raise SystemExit(
            f"{args.journal} is not a `repro run --journal` journal"
        )
    config = journal.header["run"]
    if journal.ended:
        print(f"journal {args.journal} already complete; reconstructing")
    else:
        print(f"resuming {args.journal} from epoch "
              f"{len(journal.snapshot_epochs)}")
    obs, event_log = _make_obs(args)
    if event_log is not None:
        # Resume replays the snapshot-covered prefix instead of
        # re-running it, so reconstruct those epochs' events from the
        # journal; the engine emits the re-run remainder live.  The
        # combined stream matches an uninterrupted run's exactly.
        from repro.obs import events_from_records

        for session in journal.sessions():
            recs = [je.record
                    for je in journal.snapshot_epochs_for(session)]
            for ev in events_from_records(session, recs):
                event_log(ev)
    try:
        trace = resume_run(args.journal, obs=obs)
    except ValueError as exc:
        raise SystemExit(f"cannot resume {args.journal}: {exc}") from None
    _print_summary(
        trace, scenario=config["scenario"], load=config["load"],
        tuner=config["tuner"], tune_np=bool(config["tune_np"]),
        chart=args.chart,
    )
    if args.trace_out:
        _save_trace(trace, args.trace_out)
    _finish_obs(args, obs, event_log)
    return 0


def _info_timings(path: str) -> int:
    from repro.checkpoint import read_journal

    try:
        journal = read_journal(path)
    except FileNotFoundError:
        raise SystemExit(f"no journal at {path}") from None
    if not journal.sections:
        raise SystemExit(
            f"{path} has no section records — `--timings` reads campaign "
            "journals (`repro campaign --journal PATH`)"
        )
    rows, total = [], 0.0
    phase_totals = {"span": 0.0, "close": 0.0, "dispatch": 0.0}
    have_phases = False
    for name, record in journal.sections.items():
        elapsed = record.get("elapsed_s")
        batch = record.get("batch")
        if isinstance(batch, list) and len(batch) == 4:
            batched, fallback = int(batch[0]), int(batch[1])
            occ = f"{batched}/{fallback}" if (batched or fallback) else "-"
        else:  # journal predates batch occupancy
            occ = "-"
        phases = record.get("phase_s")
        cols = []
        for key in ("span", "close", "dispatch"):
            if isinstance(phases, dict) and key in phases:
                have_phases = True
                secs = float(phases[key])
                phase_totals[key] += secs
                cols.append(f"{secs:.3f}")
            else:  # journal predates per-phase timing
                cols.append("-")
        if elapsed is None:  # journal predates per-unit timing
            rows.append([name, "-", occ, *cols])
        else:
            rows.append([name, f"{float(elapsed):.2f}", occ, *cols])
            total += float(elapsed)
    print(render_table(
        ["unit", "wall s", "batched/fallback",
         "span s", "close s", "dispatch s"], rows,
        title=f"per-unit wall time: {path}"))
    print(f"\nrecorded total : {total:.2f} s"
          + ("" if journal.ended else "  (campaign incomplete)"))
    if have_phases:
        print("batch phases   : "
              + ", ".join(f"{k} {phase_totals[k]:.3f} s"
                          for k in ("span", "close", "dispatch")))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    if args.timings is not None:
        return _info_timings(args.timings)
    print(render_table(["tuner", "description"], registry.tuner_info(),
                       title="registered tuners"))
    print()
    print(render_table(["scenario", "description"],
                       registry.scenario_info(),
                       title="registered scenarios"))
    print()
    print(render_table(["load", "description"],
                       registry.load_profile_info(),
                       title="standard load profiles (any cmpN/tfrN "
                             "combination is accepted)"))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import follow, render_path

    try:
        if args.follow:
            follow(args.path, interval_s=args.interval, width=args.width,
                   max_frames=args.frames)
        else:
            print(render_path(args.path, width=args.width))
    except FileNotFoundError:
        raise SystemExit(f"no journal or trace at {args.path}") from None
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _scenario(args.scenario)
    load = parse_load(args.load)
    nc_values = [int(v) for v in args.nc.split(",")]
    rows = []
    for nc in nc_values:
        trace = run_single(
            scenario,
            StaticTuner(),
            load=load,
            duration_s=args.duration,
            x0=(nc,),
            fixed_np=args.np,
            seed=args.seed,
        )
        rows.append([nc, steady_state_mean(trace, tail_fraction=0.75)])
    print(
        render_table(
            ["nc", "steady MB/s"],
            rows,
            title=(
                f"{scenario.name}, np={args.np}, load={args.load}: "
                "static response surface"
            ),
        )
    )
    if len(rows) >= 3:
        streams = [r[0] * args.np for r in rows]
        values = [r[1] for r in rows]
        est = critical_point(streams, values, n_boot=100, seed=args.seed)
        print(
            f"\nfitted critical point: {est.point:.0f} streams "
            f"(95% CI [{est.ci_low:.0f}, {est.ci_high:.0f}]); "
            f"unimodality {unimodality_score(values):.2f}"
        )
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    scenario = _scenario(args.scenario)
    oracle = oracle_static_nc(
        scenario,
        load=parse_load(args.load),
        fixed_np=args.np,
        duration_s=args.duration,
        seed=args.seed,
        search=args.search,
        jobs=args.jobs,
        cache=_cache_spec(args),
    )
    print(
        f"oracle static nc = {oracle.params[0]} "
        f"({oracle.throughput_mbps:.0f} MB/s, "
        f"{oracle.evaluations} evaluations, {oracle.search} search)"
    )
    return 0


FIGURES = {
    "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "tacc",
}


def cmd_figure(args: argparse.Namespace) -> int:
    name = args.name
    if name not in FIGURES:
        raise SystemExit(
            f"unknown figure {name!r}; choose from {sorted(FIGURES)}"
        )
    if name == "fig1":
        result = figures.fig1(duration_s=args.duration / 3, reps=3,
                              seed=args.seed)
        rows = [
            [label, nc, result.stats[label][nc].median]
            for label in result.stats
            for nc in result.nc_values
        ]
        print(render_table(["load", "nc", "median MB/s"], rows,
                           title="Fig 1"))
    elif name in ("fig5", "fig6", "fig7"):
        result = figures.fig5(duration_s=args.duration, seed=args.seed)
        rows = [
            [load, tuner, result.steady_observed(load, tuner),
             result.steady_best_case(load, tuner)]
            for load in result.traces
            for tuner in result.traces[load]
        ]
        print(render_table(["load", "tuner", "observed", "best-case"],
                           rows, title="Figs 5-7"))
    elif name == "tacc":
        result = figures.tacc_concurrency(duration_s=args.duration,
                                          seed=args.seed)
        rows = [
            [load, tuner, result.steady_observed(load, tuner)]
            for load in result.traces
            for tuner in result.traces[load]
        ]
        print(render_table(["load", "tuner", "observed"], rows,
                           title="ANL->TACC study"))
    elif name in ("fig8", "fig9", "fig10"):
        fn = {"fig8": figures.fig8, "fig9": figures.fig9,
              "fig10": figures.fig10}[name]
        result = fn(duration_s=args.duration, seed=args.seed)
        times = downsample(
            next(iter(result.traces.values())).epoch_times().tolist(), 20
        )
        series = {
            tuner: downsample(tr.epoch_observed().tolist(), 20)
            for tuner, tr in result.traces.items()
        }
        print(render_series(times, series, title=name))
    elif name == "fig11":
        result = figures.fig11(duration_s=args.duration, seed=args.seed)
        print(
            f"anl-uc  : {result.mean('anl-uc', from_time=args.duration / 2):.0f} MB/s"
        )
        print(
            f"anl-tacc: {result.mean('anl-tacc', from_time=args.duration / 2):.0f} MB/s"
        )
        print(f"UC share: {100 * result.share_of_uc(from_time=args.duration / 2):.0f}%")
    return 0


def _degraded_backend_warnings(health: dict | None) -> list[str]:
    """One warning line per cache backend whose breaker degraded the
    run — the campaign completed (the resilience layer fell back to the
    local tier), but the operator should know the shared cache was not
    actually shared."""
    if not health:
        return []
    found: list[str] = []

    def walk(doc, where: str) -> None:
        if not isinstance(doc, dict):
            return
        state = doc.get("breaker")
        opens = doc.get("breaker_opens", 0)
        if state is not None and (state != "closed" or opens):
            url = doc.get("url", where)
            detail = f"breaker {state}" if state != "closed" else (
                f"breaker tripped {opens}x during the run")
            found.append(
                f"warning: cache backend {url} degraded ({detail}) — "
                f"results fell back to the local tier"
            )
        for key, sub in (doc.get("tiers") or {}).items():
            walk(sub, f"{where}/{key}")
        walk(doc.get("inner"), f"{where}/inner")

    walk(health, "cache")
    return found


def cmd_campaign(args: argparse.Namespace) -> int:
    scale = (CampaignScale.quick(args.seed) if args.quick
             else CampaignScale.full(args.seed))
    try:
        result = run_campaign(scale, journal_path=args.journal,
                              jobs=args.jobs, batch=args.batch,
                              cache=_cache_spec(args))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if result.resumed_units:
        print(f"(resumed from journal: skipped "
              f"{', '.join(result.resumed_units)})\n")
    rate = result.cache_hit_rate
    if rate is not None:
        print(f"(cache: {result.cache_hits} hits, "
              f"{result.cache_misses} misses — {100 * rate:.0f}% hit rate)\n")
    occ = result.batch
    if occ.batched or occ.fallback:
        print(f"(batch: {occ.batched} runs batched in {occ.chunks} chunks "
              f"(avg {occ.runs_per_chunk:.1f}/chunk), "
              f"{occ.fallback} fell back to scalar)\n")
    if result.fallback_reasons:
        parts = ", ".join(
            f"{reason}: {count}" for reason, count in
            sorted(result.fallback_reasons.items(),
                   key=lambda kv: (-kv[1], kv[0]))
        )
        print(f"(fallback reasons: {parts})\n")
    if result.dispatch_reasons:
        parts = ", ".join(
            f"{reason}: {count}" for reason, count in
            sorted(result.dispatch_reasons.items(),
                   key=lambda kv: (-kv[1], kv[0]))
        )
        print(f"(dispatch fallbacks (advisory, lanes stayed batched): "
              f"{parts})\n")
    try:
        warn_at = resolve_fallback_warn(args.batch_fallback_warn)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if warn_at < 1.0 and occ.fallback_rate > warn_at:
        print(f"warning: {100 * occ.fallback_rate:.0f}% of simulated runs "
              "fell back to the scalar engine (threshold "
              f"{100 * warn_at:.0f}%) — the batch width is doing little; "
              "the reason tally above says why\n")
    for line in _degraded_backend_warnings(result.backend_health):
        print(line)
    doc = result.document()
    print(doc)
    if args.output:
        from repro.sim.traceio import atomic_write_text

        atomic_write_text(args.output, doc + "\n")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    import json
    from datetime import datetime

    from repro.cache import RunCache

    if args.action == "serve":
        return _cache_serve(args)
    store = RunCache(args.dir)
    where = store.root if store.root is not None else store.spec
    if args.action == "stats":
        s = store.stats()
        if args.json:
            print(json.dumps({
                "spec": store.spec,
                "entries": s.entries,
                "total_bytes": s.total_bytes,
                "backend": store.health(),
            }, indent=2, sort_keys=True))
            return 0
        print(f"cache root   : {where}")
        print(f"entries      : {s.entries}")
        print(f"total bytes  : {s.total_bytes:,}")
        rows = _health_rows(store.health())
        if rows:
            print()
            print(render_table(
                ["tier", "scheme", "breaker", "ops", "errors",
                 "timeouts", "retries", "degraded"],
                rows, title="backends"))
        return 0
    if args.action == "ls":
        entries = store.entries()
        if not entries:
            print(f"cache at {where} is empty")
            return 0
        rows = []
        for e in entries:
            meta = _meta_label(store.get_meta(e.key))
            when = datetime.fromtimestamp(e.mtime).strftime("%Y-%m-%d %H:%M")
            rows.append([e.key[:12], f"{e.size_bytes:,}", when, meta])
        print(render_table(["key", "bytes", "written", "run"], rows,
                           title=f"cache entries (oldest first): {where}"))
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {where}")
        return 0
    if args.action == "prune":
        if args.max_bytes is None:
            raise SystemExit("prune needs --max-bytes")
        try:
            evicted = store.prune(args.max_bytes, grace_s=args.grace_s)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        s = store.stats()
        print(f"evicted {len(evicted)} entries (oldest first); "
              f"{s.entries} remain, {s.total_bytes:,} bytes")
        return 0
    raise SystemExit(f"unknown cache action {args.action!r}")


def _cache_serve(args: argparse.Namespace) -> int:
    """``repro cache serve``: expose a local store over HTTP."""
    from repro.cache.backend import DirBackend, split_cache_url
    from repro.cache.http_store import serve
    from repro.cache.sqlite_store import SqliteBackend

    scheme, rest, _ = split_cache_url(args.dir)
    if scheme == "dir":
        backend = DirBackend(rest)
    elif scheme == "sqlite":
        backend = SqliteBackend(rest)
    else:
        raise SystemExit(
            f"cache serve needs a local store (a directory or sqlite://), "
            f"got {args.dir!r}"
        )
    try:
        server = serve(backend, host=args.host, port=args.port)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(f"serving {backend.url} at {server.url}  "
          f"(SIGTERM/Ctrl-C drains and stops)", flush=True)
    # SIGTERM/SIGINT stop accepting new requests, let in-flight ones
    # finish, close the store, and exit 0 — the supervisor contract.
    return server.run_forever()


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the multi-tenant tuning fleet service."""
    from repro.service import FleetServer, FleetService

    if args.scenarios:
        unknown = sorted(set(args.scenarios) - set(SCENARIOS))
        if unknown:
            raise SystemExit(
                f"unknown scenario(s): {', '.join(unknown)}; "
                f"choose from {sorted(SCENARIOS)}"
            )
        scenarios = {name: SCENARIOS[name] for name in args.scenarios}
    else:
        scenarios = None
    try:
        fleet = FleetService(
            scenarios,
            capacity=args.capacity,
            queue_limit=args.queue_limit,
            admit_rate=args.admit_rate,
            burst=args.burst,
            seed=args.seed,
            dt=args.dt,
            epoch_s=args.epoch_s,
            journal_path=args.journal,
            batch=args.batch,
        )
        server = FleetServer(fleet, host=args.host, port=args.port,
                             pace_s=args.pace)
    except (ValueError, OSError) as exc:
        raise SystemExit(str(exc)) from None
    print(f"fleet [{', '.join(sorted(fleet.shards))}] serving at "
          f"{server.url}  (SIGTERM/Ctrl-C drains and stops)", flush=True)
    return server.run_forever()


def cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit``: submit one tenant to a running fleet."""
    import json
    import urllib.error

    from repro.service import FleetApiError, FleetClient
    from repro.service.tenant import COMPLETED

    client = FleetClient(args.url, timeout_s=args.timeout)
    spec = {
        "tenant": args.tenant,
        "scenario": args.scenario,
        "tuner": args.tuner,
        "seed": args.seed,
        "epochs": args.epochs,
        "tune_np": args.tune_np,
        "fixed_np": args.np,
        "supervised": not args.unsupervised,
    }
    if args.deadline is not None:
        spec["op_deadline_s"] = args.deadline
    try:
        decision = client.submit(spec)
        print(json.dumps(decision, indent=2))
        if not args.watch:
            return 0
        final = client.wait_terminal(args.tenant,
                                     timeout_s=args.watch_timeout)
        print(json.dumps(final, indent=2))
        return 0 if final.get("state") == COMPLETED else 1
    except FleetApiError as exc:
        raise SystemExit(str(exc)) from None
    except (TimeoutError, urllib.error.URLError, OSError) as exc:
        raise SystemExit(f"fleet at {args.url}: {exc}") from None


def _health_rows(doc: dict, tier: str = "-") -> list[list[str]]:
    """Flatten a backend health document into per-tier table rows."""
    tiers = doc.get("tiers")
    if isinstance(tiers, dict):
        rows: list[list[str]] = []
        for name in ("local", "remote"):
            sub = tiers.get(name)
            if isinstance(sub, dict):
                rows.extend(_health_rows(sub, tier=name))
        return rows
    c = doc.get("counters") or {}
    return [[tier, str(doc.get("scheme", "?")),
             str(doc.get("breaker", "-")),
             str(c.get("ops", 0)), str(c.get("errors", 0)),
             str(c.get("timeouts", 0)), str(c.get("retries", 0)),
             str(c.get("degraded", 0))]]


def _meta_label(meta: dict | None) -> str:
    """Compact ``kind scenario/tuner seed`` label from an entry's meta."""
    if not meta:
        return "?"
    parts = [str(meta[k]) for k in ("kind", "scenario", "tuner", "seed")
             if k in meta]
    return " ".join(parts) if parts else "-"


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Direct-search tuning of parallel-stream data transfers "
            "(ICPP 2016 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", default="anl-uc",
                       choices=sorted(SCENARIOS))
        p.add_argument("--load", default="none",
                       help="e.g. none, cmp16, tfr64, cmp16+tfr64")
        p.add_argument("--duration", type=float, default=1800.0,
                       help="transfer duration in seconds")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--np", type=int, default=8,
                       help="fixed parallelism when np is not tuned")

    def cache_flags(p: argparse.ArgumentParser) -> None:
        from repro.cache import default_cache_spec

        p.add_argument("--cache", default=True,
                       action=argparse.BooleanOptionalAction,
                       help="reuse/store results in the run cache "
                            "(--no-cache forces a fresh simulation)")
        p.add_argument("--cache-dir", default=default_cache_spec(),
                       metavar="SPEC",
                       help="cache root: a directory, sqlite://FILE, "
                            "or http://HOST:PORT")

    p_run = sub.add_parser("run", help="run one tuned transfer")
    common(p_run)
    p_run.add_argument("--tuner", default="nm",
                       help="|".join(registry.tuner_names()))
    p_run.add_argument("--tune-np", action="store_true",
                       help="tune parallelism too (2-D)")
    p_run.add_argument("--chart", action="store_true",
                       help="plot the throughput trace as ASCII art")
    p_run.add_argument("--journal", default=None, metavar="PATH",
                       help="crash-safe journal; continue a killed run "
                            "with `repro resume PATH`")
    p_run.add_argument("--warm-start", default=None, metavar="JOURNAL",
                       help="seed the search from the best configuration "
                            "in an earlier journal (needs --journal)")
    p_run.add_argument("--trace-out", default=None, metavar="PATH",
                       help="save the trace as JSON (atomic write)")
    p_run.add_argument("--events", default=None, metavar="PATH",
                       help="append the structured event stream "
                            "(epochs, tuner decisions, faults) as JSONL")
    p_run.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write final metrics as a Prometheus "
                            "text-format snapshot")
    p_run.add_argument("--reps", type=int, default=1,
                       help="run N seed replicates (seed, seed+1, ...) and "
                            "report mean steady throughput with a 95%% CI")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="processes for --reps fan-out (0 = all CPUs)")
    from repro.experiments.batch import DEFAULT_BATCH

    p_run.add_argument("--batch", type=int, default=None, nargs="?",
                       const=DEFAULT_BATCH, metavar="N",
                       help="advance the --reps replicates N lanes at a "
                            "time through the batch engine (bare --batch "
                            f"= {DEFAULT_BATCH}; results are bit-identical "
                            "either way)")
    cache_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_res = sub.add_parser(
        "resume", help="continue a killed `run --journal` transfer"
    )
    p_res.add_argument("journal", help="journal written by run --journal")
    p_res.add_argument("--chart", action="store_true",
                       help="plot the throughput trace as ASCII art")
    p_res.add_argument("--trace-out", default=None, metavar="PATH",
                       help="save the trace as JSON (atomic write)")
    p_res.add_argument("--events", default=None, metavar="PATH",
                       help="append the resumed run's event stream as JSONL")
    p_res.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write final metrics as a Prometheus "
                            "text-format snapshot")
    p_res.set_defaults(func=cmd_resume)

    p_sweep = sub.add_parser("sweep", help="static throughput vs nc")
    common(p_sweep)
    p_sweep.add_argument("--nc", default="1,2,4,8,16,32,64,128,256",
                         help="comma-separated concurrency values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="best static nc by sweep")
    common(p_oracle)
    p_oracle.add_argument("--search", default="grid",
                          choices=("grid", "unimodal"),
                          help="exhaustive grid, or O(log n) bisection "
                               "exploiting the surface's unimodality")
    p_oracle.add_argument("--jobs", type=int, default=1,
                          help="processes for candidate fan-out "
                               "(0 = all CPUs)")
    cache_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    common(p_fig)
    p_fig.add_argument("name", help="|".join(sorted(FIGURES)))
    p_fig.set_defaults(func=cmd_figure)

    p_camp = sub.add_parser(
        "campaign", help="regenerate the whole evaluation as one report"
    )
    p_camp.add_argument("--quick", action="store_true",
                        help="minutes-scale version of the campaign")
    p_camp.add_argument("--seed", type=int, default=0)
    p_camp.add_argument("--output", default=None,
                        help="write the report to this file as well")
    p_camp.add_argument("--journal", default=None, metavar="PATH",
                        help="crash-safe campaign journal; rerunning with "
                             "the same path skips completed figures")
    p_camp.add_argument("--jobs", type=int, default=1,
                        help="processes for unit fan-out (0 = all CPUs); "
                             "the report is identical at any width")
    p_camp.add_argument("--batch", type=int, default=None, metavar="N",
                        help="batch-engine lane width inside every unit "
                             "(0 = off; composes with --jobs; the report "
                             "is identical at any width)")
    p_camp.add_argument("--batch-fallback-warn", type=float, default=None,
                        metavar="FRAC",
                        help="warn when more than this fraction of "
                             "simulated runs fell off the batch path "
                             "(default: $REPRO_BATCH_WARN or 0.10; "
                             ">= 1.0 disables the warning). Advisory "
                             "dispatch:* reasons (unsupported-tuner, "
                             "recovery-machinery, instrumented-run, "
                             "late-join) are reported separately and do "
                             "not count toward the threshold — those "
                             "lanes still ride the batched spans, only "
                             "their window-end tuner proposals stay on "
                             "the scalar ladder")
    cache_flags(p_camp)
    p_camp.set_defaults(func=cmd_campaign)

    p_info = sub.add_parser(
        "info", help="list registered tuners, scenarios, and load profiles"
    )
    p_info.add_argument("--timings", default=None, metavar="JOURNAL",
                        help="print per-unit wall times recorded in a "
                             "campaign journal instead")
    p_info.set_defaults(func=cmd_info)

    p_top = sub.add_parser(
        "top", help="ANSI dashboard over a journal or saved trace"
    )
    p_top.add_argument("path", help="journal (run --journal) or trace JSON")
    p_top.add_argument("--follow", action="store_true",
                       help="re-render until the run ends (live view)")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="refresh period in seconds with --follow")
    p_top.add_argument("--width", type=int, default=72,
                       help="dashboard width in characters")
    p_top.add_argument("--frames", type=int, default=None,
                       help="stop --follow after this many frames")
    p_top.set_defaults(func=cmd_top)

    p_cache = sub.add_parser(
        "cache", help="inspect/clear/prune/serve the run cache"
    )
    p_cache.add_argument("action",
                         choices=("stats", "ls", "clear", "prune", "serve"))
    from repro.cache import DEFAULT_PRUNE_GRACE_S, default_cache_spec

    p_cache.add_argument("--dir", default=default_cache_spec(),
                         help="cache root: a directory, sqlite://FILE, "
                              "or http://HOST:PORT")
    p_cache.add_argument("--json", action="store_true",
                         help="stats: emit machine-readable JSON "
                              "(entries, bytes, per-backend health)")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="prune target: evict oldest entries until "
                              "the store fits this many bytes")
    p_cache.add_argument("--grace-s", type=float,
                         default=DEFAULT_PRUNE_GRACE_S,
                         help="prune: never evict entries younger than "
                              "this many seconds (concurrent-writer "
                              "safety; 0 disables)")
    p_cache.add_argument("--host", default="127.0.0.1",
                         help="serve: bind address")
    p_cache.add_argument("--port", type=int, default=8750,
                         help="serve: TCP port (0 picks a free one)")
    p_cache.set_defaults(func=cmd_cache)

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant tuning fleet service"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address")
    p_serve.add_argument("--port", type=int, default=8760,
                         help="TCP port (0 picks a free one)")
    p_serve.add_argument("--scenarios", nargs="*", default=None,
                         metavar="NAME",
                         help="shard scenarios (default: all registered)")
    p_serve.add_argument("--capacity", type=int, default=64,
                         help="max concurrently running tenants")
    p_serve.add_argument("--queue-limit", type=int, default=128,
                         help="bounded admission queue length")
    p_serve.add_argument("--admit-rate", type=float, default=None,
                         help="token-bucket admits per epoch-second "
                              "(default: unlimited)")
    p_serve.add_argument("--burst", type=float, default=8.0,
                         help="token-bucket burst size")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--dt", type=float, default=1.0,
                         help="simulation step in seconds (--epoch-s "
                              "must be a whole number of steps)")
    p_serve.add_argument("--epoch-s", type=float, default=30.0,
                         help="control-epoch span in sim seconds")
    p_serve.add_argument("--journal", default=None, metavar="PATH",
                         help="append-only fleet journal "
                              "(watch with `repro top --follow`)")
    p_serve.add_argument("--pace", type=float, default=0.0,
                         help="minimum wall seconds per pump round "
                              "(0 = as fast as possible)")
    p_serve.add_argument("--batch", default=True,
                         action=argparse.BooleanOptionalAction,
                         help="advance each shard's tenants as vectorized "
                              "lanes (bit-identical to the scalar loop; "
                              "--no-batch forces scalar)")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one tenant to a running fleet"
    )
    p_submit.add_argument("tenant", help="fleet-unique tenant id")
    p_submit.add_argument("--url", default="http://127.0.0.1:8760",
                          help="fleet service base URL")
    p_submit.add_argument("--scenario", default="anl-uc",
                          choices=sorted(SCENARIOS))
    p_submit.add_argument("--tuner", default="cd")
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--epochs", type=int, default=10,
                          help="control-epoch budget")
    p_submit.add_argument("--tune-np", action="store_true",
                          help="tune parallelism jointly with concurrency")
    p_submit.add_argument("--np", type=int, default=8,
                          help="fixed parallelism when np is not tuned")
    p_submit.add_argument("--deadline", type=float, default=None,
                          help="per-tuner-call deadline in seconds")
    p_submit.add_argument("--unsupervised", action="store_true",
                          help="fail the tenant on a tuner crash instead "
                               "of restarting it from the journal")
    p_submit.add_argument("--watch", action="store_true",
                          help="poll until the tenant reaches a terminal "
                               "state; exit 0 only on completion")
    p_submit.add_argument("--watch-timeout", type=float, default=120.0,
                          help="--watch poll budget in seconds")
    p_submit.add_argument("--timeout", type=float, default=10.0,
                          help="per-request HTTP timeout in seconds")
    p_submit.set_defaults(func=cmd_submit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def _main_console() -> int:  # pragma: no cover - thin process wrapper
    try:
        return main()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved unix filter (and stop the interpreter's own
        # shutdown from re-raising on stdout flush).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_main_console())
