"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: ``sweep``, ``campaign``, ``fleet-http``, ``observed`` (see
``perfbench/NOTES.md``).  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it makes
untraced and traced passes over the same inputs and reports the
per-layer metrics.  Correctness checks run after the timed window in
both modes.  A human-readable table goes to stderr; stdout ends with a
metadata line and then the one-line JSON result.

The in-process workloads' end-to-end times are scaled to a
reference host speed by ``harness.HostSpeed`` samples taken just before
and after each pass (see ``perfbench/NOTES.md``); the meta line keeps
the samples.

Run from the root of a checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
# The program reads these; the benchmark fixes its own settings instead.
for _var in ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_BATCH",
             "REPRO_BATCH_WARN", "REPRO_DISPATCH"):
    os.environ.pop(_var, None)

import harness  # noqa: E402
import tracing  # noqa: E402
from harness import Outcome  # noqa: E402

WORKLOADS = ("sweep", "campaign", "fleet-http", "observed")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Passes per untraced in-process run: a cold first pass plus at least
#: two warm ones.
MIN_PASSES = 3
#: In-process traced runs alternate this many untraced and traced passes.
TRACE_PAIRS = 3
#: Fleet traced run: completed tenants per (untraced, traced) loop.
FLEET_TRACE_TENANTS = 2 * 128
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def in_process(args, workdir: Path, fsync: harness.FsyncClock):
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, workdir, fsync,
                                              harness.HostSpeed())


# -- set-up time -------------------------------------------------------------


def probe_setup(args, workdir: Path) -> tuple[float, dict | None]:
    """One fresh process: seconds from launch until the workload is
    ready to time (interpreter start, imports, input generation, fresh
    dirs), and when the workload measures one (``cold_s`` of ``sweep``
    and ``observed``), its first pass: ``{"net_s", "host_s"}``, the time
    net of fsync wait and the host-speed samples around it."""
    probe_dir = workdir / f"probe-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--setup-probe", str(probe_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    cold = proc.stdout.readline()
    proc.stdout.close()
    try:
        code = proc.wait(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    shutil.rmtree(probe_dir, ignore_errors=True)
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed ({code}): {ready!r}")
    return elapsed, (json.loads(cold) if cold.strip() else None)


def run_setup_probe(args, fsync: harness.FsyncClock) -> int:
    workdir = Path(args.setup_probe)
    workdir.mkdir(parents=True)
    w = in_process(args, workdir, fsync)
    w.setup()
    print("ready", flush=True)
    if w.cold_pass_probed:
        first = w.run_pass(0)
        print(json.dumps({"net_s": first.net_s, "host_s": w.speed.samples}),
              flush=True)
    return 0


# -- in-process workloads ----------------------------------------------------


def untraced_in_process(args, workdir: Path, outcome: Outcome, table: dict,
                        fsync: harness.FsyncClock):
    probes = [probe_setup(args, workdir) for _ in range(SETUP_PROBES)]
    setups = [p[0] for p in probes]
    w = in_process(args, workdir, fsync)
    inputs = w.setup()
    passes = []
    t_window = time.perf_counter()
    while True:
        passes.append(w.run_pass(len(passes)))
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - t_window >= args.seconds):
            break
    rss = harness.peak_rss_mb_self()
    outcome.ok(sum(p.runs for p in passes))
    w.check(outcome)

    # Pass times net of fsync wait, at the reference speed.
    if args.workload == "campaign":
        cold = [p.extra["cold_s"] for p in passes]
        warm = [p.extra["warm_s"] for p in passes]
        steady = passes
    else:
        # First passes of the probe processes and of this one.  Each is
        # one pass, so the two samples around it would pass their noise
        # on whole; they take the factor from every sample of the run.
        firsts = [p[1] for p in probes]
        host = [x for f in firsts for x in f["host_s"]] + w.speed.samples
        scale = harness.HostSpeed.scale(host)
        cold = [f["net_s"] * scale for f in firsts] + [
            passes[0].net_s * scale]
        warm = [p.ref_s for p in passes[1:]]
        steady = passes[1:]
    values = {
        "setup_s": harness.median(setups),
        "peak_rss_mb": rss,
        "runs_per_s": harness.median([p.runs / p.ref_s for p in steady]),
        "cold_s": harness.median(cold),
        "warm_s": harness.median(warm),
        "tenant_epochs_per_s": harness.median(
            [p.epochs / p.ref_s for p in steady]),
    }
    meta = {
        "inputs": inputs,
        "setup_samples_s": setups,
        "cold_samples_s": cold,
        "reference_s": harness.REFERENCE_S,
        "host_samples_s": w.speed.samples,
        "passes": [{"wall_s": p.wall_s, "net_s": p.net_s, "scale": p.scale,
                    "runs": p.runs, "epochs": p.epochs, "fsyncs": p.fsyncs,
                    "fsync_s": p.fsync_s, **p.extra} for p in passes],
    }
    return values, meta


def traced_in_process(args, workdir: Path, outcome: Outcome, table: dict,
                      fsync: harness.FsyncClock):
    w = in_process(args, workdir, fsync)
    inputs = w.setup()
    w.run_pass(0)  # warm-up: the first pass in a process is cold
    plain, traced = [], []
    for k in range(TRACE_PAIRS):
        plain.append(w.run_pass(1 + 2 * k))
        tracer = tracing.Tracer()
        tracing.install_program(tracer)
        before = w.counters()
        try:
            done = w.run_pass(2 + 2 * k,
                              region=lambda: tracer.span("pass", cid="pass"))
        finally:
            tracer.uninstall()
        traced.append((done, tracer, before, w.counters()))
        outcome.ok(plain[-1].runs + done.runs)
    w.check(outcome)
    # Per-layer figures from the traced pass with the median wall.
    done, tracer, before, after = sorted(
        traced, key=lambda t: t[0].wall_s)[len(traced) // 2]
    untraced_wall = harness.median([p.wall_s for p in plain])

    spans = tracer.spans
    root = next(s for s in spans if s.name == "pass")
    values = dict.fromkeys(table, 0.0)
    values.update(w.layer_counters(before, after))
    own = tracing.self_times(spans, root)
    names = tracing.by_name(spans, own)
    split = tracing.layer_split(spans, root)
    fill_span_metrics(values, names)
    # BatchEngine.run outside its span/close/dispatch phases: step-record
    # materialization and set-up.
    values["sim.batch.run_s"] = (
        names.get("sim.batch.BatchEngine.run", {}).get("total_s", 0.0)
        - values["sim.batch.span_s"] - values["sim.batch.close_s"]
        - values["sim.batch.dispatch_s"])
    fill_split(values, split)
    values["fsync.calls"] = done.fsyncs
    values["fsync.wait_s"] = done.fsync_s
    wall = root.t1 - root.t0
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = wall - untraced_wall
    check_split(outcome, split, wall, "in-process")
    meta = {"inputs": inputs, "spans": len(spans), "by_name": names,
            "layer_split_s": split}
    dump_spans(args, {"spans": [s.to_list() for s in spans]})
    return values, meta


# -- fleet-http --------------------------------------------------------------


def untraced_fleet(args, workdir: Path, outcome: Outcome, table: dict):
    import fleet

    setups, colds = [], []
    for i in range(SETUP_PROBES):
        srv = fleet.Server(args.seed, workdir)
        setups.append(srv.setup_s)
        if i == SETUP_PROBES - 1:
            break
        # The set-up servers also time a first wave on their own.
        try:
            first = fleet.closed_loop(
                srv.client, fleet.tenant_stream(args.seed),
                until_completed=fleet.IN_FLIGHT, outcome=outcome)
            colds.append(first.t_cold - first.t_start)
        finally:
            outcome.check(srv.stop() == 0, "repro serve did not exit 0")
    try:
        loop = fleet.closed_loop(srv.client, fleet.tenant_stream(args.seed),
                                 seconds=args.seconds,
                                 server_pid=srv.proc.pid, outcome=outcome)
        if loop.peak_rss_mb is None:
            raise RuntimeError("window too short: fewer than "
                               f"{fleet.RSS_AFTER} tenants completed")
        status = fleet.settle(srv.client)
        fleet.check_tenants(srv.client, loop, outcome)
    finally:
        outcome.check(srv.stop() == 0, "repro serve did not exit 0")
    submits = [s * 1e3 for s in loop.submit_s]
    steady_s = loop.t_last_poll - loop.t_cold
    tenants_per_s = (loop.completed_end - loop.completed_cold) / steady_s
    wall = loop.t_end - loop.t_start
    cpu = loop.cpu_s / wall
    outcome.check(cpu <= fleet.MAX_GENERATOR_CPU,
                  f"generator thread on CPU {cpu:.0%} of the window: the "
                  "load generator, not the server, limited this run")
    empty = (sum(1 for q in loop.steady_queued if q == 0)
             / max(1, len(loop.steady_queued)))
    values = {
        "setup_s": harness.median(setups),
        "peak_rss_mb": loop.peak_rss_mb,
        "runs_per_s": tenants_per_s,
        "cold_s": harness.median(colds + [loop.t_cold - loop.t_start]),
        "warm_s": fleet.IN_FLIGHT / tenants_per_s,
        "tenant_epochs_per_s": tenants_per_s * fleet.EPOCHS,
    }
    meta = {
        "inputs": fleet_inputs(),
        "setup_samples_s": setups,
        "cold_samples_s": colds + [loop.t_cold - loop.t_start],
        "submit_samples": len(submits),
        "submit_p50_ms": harness.percentile(submits, 50),
        "submit_tail": harness.highest_percentile(submits, cap=99.0),
        "status_samples": len(loop.status_s),
        "generator_busy_share": loop.busy_s / wall,
        "generator_busy_s": loop.busy_s,
        "generator_cpu_share": cpu,
        "backlog_empty_share": empty,
        "idle_slot_share": statistics.fmean(loop.idle_slots),
        "late_polls": loop.late_polls,
        "queued_mean": statistics.fmean(loop.queued),
        "tenants_submitted": len(loop.submitted),
        "chaos_tenants": len(loop.chaos),
        "restarts": status["restarts"],
        "states": status["states"],
    }
    return values, meta


def fleet_inputs() -> dict:
    import fleet

    return {"capacity": fleet.CAPACITY, "queue_limit": fleet.QUEUE_LIMIT,
            "in_flight": fleet.IN_FLIGHT, "ramp_polls": fleet.RAMP_POLLS,
            "rss_after_tenants": fleet.RSS_AFTER,
            "epochs": fleet.EPOCHS,
            "chaos_share": fleet.CHAOS_SHARE, "poll_s": fleet.POLL_S,
            "tuners": list(fleet.TUNERS),
            "scenarios": list(fleet.SCENARIO_NAMES)}


def traced_fleet(args, workdir: Path, outcome: Outcome, table: dict):
    import fleet

    n = FLEET_TRACE_TENANTS
    srv = fleet.Server(args.seed, workdir)
    try:
        plain = fleet.closed_loop(srv.client, fleet.tenant_stream(args.seed),
                                  until_completed=n, outcome=outcome)
        fleet.settle(srv.client)
        fleet.check_tenants(srv.client, plain, outcome)
    finally:
        outcome.check(srv.stop() == 0, "repro serve did not exit 0")

    spans_path = workdir / "server-spans.json"
    srv = fleet.Server(args.seed, workdir, spans_path=spans_path)
    ctracer = tracing.Tracer()
    tracing.install_client(ctracer)
    try:
        with ctracer.span("window", cid="window"):
            loop = fleet.closed_loop(
                srv.client, fleet.tenant_stream(args.seed),
                until_completed=n, outcome=outcome)
        status = fleet.settle(srv.client)
        metrics_text = srv.client.metrics_text()
        fleet.check_tenants(srv.client, loop, outcome)
    finally:
        ctracer.uninstall()
        outcome.check(srv.stop() == 0, "traced repro serve did not exit 0")
    server_spans = [tracing.Span.from_list(r)
                    for r in json.loads(spans_path.read_text())]

    croot = next(s for s in ctracer.spans if s.name == "window")
    cspans = tracing.clip(ctracer.spans, croot.t0, croot.t1)
    csplit = tracing.layer_split(cspans, croot)
    sroot = tracing.Span(0, 0, "window", tracing.OTHER, "window",
                         croot.t0, croot.t1)
    sspans = tracing.clip(server_spans, croot.t0, croot.t1)
    own = tracing.self_times(sspans, sroot)
    names = tracing.by_name(sspans, own)
    split = tracing.layer_split(sspans, sroot)
    wall = croot.t1 - croot.t0

    values = dict.fromkeys(table, 0.0)
    fill_span_metrics(values, names)
    fill_split(values, split)
    values["layer.http.self_s"] = csplit.get("http", 0.0)
    status_ms = [(s.t1 - s.t0) * 1e3 for s in cspans
                 if s.name == "http.FleetClient.status"]
    tail = harness.highest_percentile(status_ms)
    values["http.status_p50_ms"] = harness.percentile(status_ms, 50)
    values["http.status_tail_ms"] = tail[1]
    submit_ms = [(s.t1 - s.t0) * 1e3 for s in cspans
                 if s.name == "http.FleetClient.submit"]
    submit_tail = harness.highest_percentile(submit_ms, cap=99.0)
    values["http.submit_p50_ms"] = harness.percentile(submit_ms, 50)
    values["http.submit_tail_ms"] = submit_tail[1]
    pump = names.get("service.FleetService.pump", {})
    values["service.pump_busy_ratio"] = pump.get("total_s", 0.0) / wall
    values["service.rounds"] = pump.get("calls", 0)
    server_submit = {s.cid: s.t1 - s.t0 for s in sspans
                     if s.name == "service.FleetService.submit"}
    waits = [(s.t1 - s.t0 - server_submit[s.cid]) * 1e3 for s in cspans
             if s.name == "http.FleetClient.submit" and s.cid in server_submit]
    values["service.lock_wait_ms"] = harness.median(waits)
    values["service.fused_share"] = fleet.fused_share(metrics_text)
    values.update(fleet.fusion_metrics(status))
    values["service.queued_mean"] = statistics.fmean(loop.queued)
    values["service.shed"] = (status["states"].get("shed", 0)
                              + loop.shed_at_submit)
    plain_wall = plain.t_end - plain.t_start
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = plain_wall
    values["trace.overhead_s"] = wall - plain_wall
    check_split(outcome, split, wall, "fleet server")
    check_split(outcome, csplit, wall, "fleet client")
    meta = {
        "inputs": fleet_inputs(),
        "server_spans": len(sspans), "client_spans": len(cspans),
        "by_name": names, "layer_split_s": split,
        "client_layer_split_s": csplit,
        "status_samples": len(status_ms), "status_tail_pct": tail[0],
        "submit_samples": len(submit_ms), "submit_tail_pct": submit_tail[0],
        "lock_wait_samples": len(waits),
        "tenants_completed": loop.completed_end,
    }
    dump_spans(args, {"server": [s.to_list() for s in server_spans],
                      "client": [s.to_list() for s in ctracer.spans]})
    return values, meta


# -- per-layer metric assembly -----------------------------------------------


#: Per-layer metrics taken from spans: metric -> (span names, field).
#: ``self_s`` sums self time, ``calls`` counts calls.
SPAN_METRICS = {
    "experiments.build_s": (("experiments.build_single_engine",), "self_s"),
    "experiments.builds": (("experiments.build_single_engine",), "calls"),
    "sim.engine.run_s": (("sim.engine.Engine.run",), "self_s"),
    "sim.engine.runs": (("sim.engine.Engine.run",), "calls"),
    "core.observe_batch_s": (("core.GeneratorPopulation.observe_batch",
                              "core.CdPopulation.observe_batch"), "self_s"),
    "core.observe_s": (("core.TunerDriver.observe",), "self_s"),
    "net.alloc_calls": (("net.max_min_fair_allocation",), "calls"),
    "net.alloc_s": (("net.max_min_fair_allocation",), "self_s"),
    "cache.put_s": (("cache.RunCache.put_traces",), "self_s"),
    "cache.puts": (("cache.RunCache.put_traces",), "calls"),
    "cache.get_s": (("cache.RunCache.get_traces",
                     "cache.RunCache.get_traces_many"), "self_s"),
    "checkpoint.write_s": (("checkpoint.JournalWriter.write",), "self_s"),
    "checkpoint.records": (("checkpoint.JournalWriter.write",), "calls"),
    "obs.events": (("obs.JsonlEventLog.__call__",), "calls"),
    "obs.event_log_s": (("obs.JsonlEventLog.__call__",), "self_s"),
    "obs.span_records": (("obs.SpanRecorder.record",), "calls"),
    "obs.span_s": (("obs.SpanRecorder.record",), "self_s"),
    "service.pump_s": (("service.FleetService.pump",), "self_s"),
    "service.submit_s": (("service.FleetService.submit",), "self_s"),
    "service.status_s": (("service.FleetService.status",), "self_s"),
}

#: Layers whose self time is reported as ``layer.<name>.self_s``.
LAYERS = ("experiments", "sim.batch", "sim.engine", "core", "net", "cache",
          "checkpoint", "obs", "service", "http", tracing.OTHER)


def fill_span_metrics(values: dict, names: dict) -> None:
    for metric, (span_names, fld) in SPAN_METRICS.items():
        values[metric] = sum(names.get(n, {}).get(fld, 0)
                             for n in span_names)
    failed = sum(row["failed"] for row in names.values())
    values["trace.failed_calls"] = failed


def fill_split(values: dict, split: dict) -> None:
    unknown = set(split) - set(LAYERS)
    if unknown:
        raise RuntimeError(f"spans in undeclared layers: {sorted(unknown)}")
    for layer in LAYERS:
        if layer != "http":
            values[f"layer.{layer}.self_s"] = split.get(layer, 0.0)


def check_split(outcome: Outcome, split: dict, wall: float,
                where: str) -> None:
    total = sum(split.values())
    outcome.check(abs(total - wall) <= 1e-9 * max(1.0, wall),
                  f"{where}: layer self times sum to {total!r}, traced "
                  f"wall is {wall!r}")


def dump_spans(args, doc: dict) -> None:
    """Write the run's spans once, at the end (kept out of the repo by
    ``.gitignore``)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc))


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        return run_setup_probe(args, harness.FsyncClock().install())
    spec = harness.load_spec()
    problems = harness.check_metric_table(spec)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    table = harness.metric_table(
        spec, "per_layer" if args.trace else "end_to_end")

    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outcome = Outcome()
    try:
        if args.workload == "fleet-http":
            run = traced_fleet if args.trace else untraced_fleet
            values, meta = run(args, workdir, outcome, table)
        else:
            run = traced_in_process if args.trace else untraced_in_process
            fsync = harness.FsyncClock().install()
            try:
                values, meta = run(args, workdir, outcome, table, fsync)
            finally:
                fsync.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {"workload": args.workload, "trace": args.trace,
            **harness.run_metadata(args.seed, meta.pop("inputs")),
            "seconds": args.seconds, "failures": outcome.failures, **meta}
    harness.print_table(f"{args.workload} (trace={args.trace})", values,
                        table)
    print(json.dumps({"meta": meta}))
    print(harness.result_line(outcome, values, table), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
