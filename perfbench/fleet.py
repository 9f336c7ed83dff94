"""The ``fleet-http`` workload: ``repro serve`` driven over HTTP.

The server runs in its own process with its defaults (capacity 64,
queue limit 128, batching and fusion on).  One generator thread keeps a
fixed number of tenants in flight, above capacity and below capacity +
queue limit, so the admission queue holds a standing backlog and
nothing is shed.  The loop is closed: a fixed-cadence ``GET
/v1/status`` shows how many tenants reached a terminal state, and the
generator submits that many replacements through ``FleetClient``
(one connection per request, as ``repro submit`` does).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import ROOT, Outcome, peak_rss_mb_pid

TUNERS = ("cd", "cs", "nm", "gss")
SCENARIO_NAMES = ("anl-uc", "anl-tacc")
CAPACITY = 64  # ``repro serve`` default
QUEUE_LIMIT = 128  # ``repro serve`` default
IN_FLIGHT = 128  # capacity < 128 < capacity + queue limit
#: Every tenant's control-epoch budget.  Short budgets mean more
#: submits per second, and each submit waits for the fleet lock that
#: the pump holds for a whole round.  At 64 epochs and a 50 ms status
#: cadence the generator thread spent 85-100% of the window in requests,
#: and in half of ten runs the admission queue ran dry: the generator,
#: not the fleet, set the throughput.
EPOCHS = 128
CHAOS_SHARE = 0.1  # tenants carrying one supervised crash
POLL_S = 0.1  # status cadence
#: The server's peak RSS is read once this many tenants completed: it
#: holds every tenant it ever admitted, so memory grows with the work
#: done, and a fixed point keeps the figure independent of speed.
RSS_AFTER = 2 * IN_FLIGHT
#: The first IN_FLIGHT tenants go in over this many polls.  Tenants
#: share one budget, so tenants admitted in one round finish in one
#: round: a burst start keeps completing in waves, and each wave's
#: replacements queue behind the lock while the fleet runs nearly empty.
RAMP_POLLS = 32
#: The generator thread's CPU share above which it, not the server,
#: limited the offered load; such a run is invalid rather than a
#: measurement of a slow server.  Time the generator spends waiting
#: for responses is the server's.
MAX_GENERATOR_CPU = 0.9
TERMINAL = ("completed", "failed", "cancelled", "drained", "shed")


def tenant_stream(seed: int):
    """Endless seeded tenant mix: ``(spec dict, chaos dict or None)``."""
    rng = np.random.default_rng(seed)
    i = 0
    while True:
        spec = {
            "tenant": f"t{i:06d}",
            "scenario": SCENARIO_NAMES[int(rng.integers(2))],
            "tuner": TUNERS[int(rng.integers(len(TUNERS)))],
            "seed": int(rng.integers(2**31 - 1)),
            "epochs": EPOCHS,
        }
        chaos = None
        if rng.random() < CHAOS_SHARE:
            chaos = {"crash_epochs": [int(rng.integers(1, EPOCHS - 1))]}
        yield spec, chaos
        i += 1


class Server:
    """One ``repro serve`` process (optionally under the traced launcher)."""

    def __init__(self, seed: int, workdir: Path,
                 spans_path: Path | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        serve = ["serve", "--port", "0", "--seed", str(seed)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
                   str(spans_path), *serve]
        self.stderr_path = workdir / f"serve-{time.monotonic_ns()}.err"
        t0 = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                text=True)
        line = self.proc.stdout.readline()
        if " serving at " not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r} "
                               f"{self.stderr_path.read_text()[-2000:]}")
        self.url = line.split(" serving at ", 1)[1].split()[0]
        from repro.service.http import FleetClient

        self.client = FleetClient(self.url, timeout_s=30.0)
        deadline = t0 + 60.0
        while True:
            try:
                if self.client.health().get("status") == "ok":
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait for the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode


@dataclass
class LoopResult:
    t_start: float = 0.0
    t_end: float = 0.0
    t_cold: float | None = None
    completed_cold: int = 0
    completed_end: int = 0
    t_last_poll: float = 0.0
    peak_rss_mb: float | None = None
    submit_s: list = field(default_factory=list)
    status_s: list = field(default_factory=list)
    queued: list = field(default_factory=list)
    steady_queued: list = field(default_factory=list)
    idle_slots: list = field(default_factory=list)
    busy_s: float = 0.0
    cpu_s: float = 0.0
    late_polls: int = 0
    submitted: list = field(default_factory=list)
    chaos: set = field(default_factory=set)
    shed_at_submit: int = 0


def closed_loop(client, tenants, *, seconds: float | None = None,
                until_completed: int | None = None, server_pid: int = 0,
                outcome: Outcome) -> LoopResult:
    """Keep :data:`IN_FLIGHT` tenants in flight until ``seconds`` have
    passed or ``until_completed`` tenants completed; with ``server_pid``,
    read the server's peak RSS once :data:`RSS_AFTER` tenants completed."""
    from repro.service.http import FleetApiError

    r = LoopResult()
    clock = time.perf_counter

    def submit(n: int) -> None:
        for _ in range(n):
            spec, chaos = next(tenants)
            t0 = clock()
            try:
                doc = client.submit(spec, chaos=chaos)
            except (FleetApiError, OSError) as exc:
                outcome.fail(f"submit {spec['tenant']}: {exc}")
                continue
            r.submit_s.append(clock() - t0)
            r.submitted.append(spec["tenant"])
            if chaos is not None:
                r.chaos.add(spec["tenant"])
            if not (doc.get("admitted") or doc.get("queued")):
                r.shed_at_submit += 1
                outcome.fail(f"tenant {spec['tenant']} shed at submit: "
                             f"{doc.get('reason')}")

    before = client.status()["states"]
    base_completed = before.get("completed", 0)
    base_terminal = sum(before.get(s, 0) for s in TERMINAL)
    r.t_start = clock()
    cpu0 = time.thread_time()
    deadline = r.t_start + seconds if seconds is not None else None
    ramp = -(-IN_FLIGHT // RAMP_POLLS)
    unfilled = IN_FLIGHT - ramp
    submit(ramp)
    seen_terminal = 0
    next_poll = r.t_start + POLL_S
    while True:
        now = clock()
        if deadline is not None and now >= deadline:
            break
        if next_poll > now:
            time.sleep(next_poll - now)
        else:
            r.late_polls += 1
        busy0 = clock()
        next_poll = max(next_poll + POLL_S, busy0)
        try:
            doc = client.status()
        except (FleetApiError, OSError) as exc:
            outcome.fail(f"status: {exc}")
            continue
        t_poll = clock()
        r.status_s.append(t_poll - busy0)
        states = doc["states"]
        completed = states.get("completed", 0) - base_completed
        terminal = (sum(states.get(s, 0) for s in TERMINAL) - base_terminal
                    + r.shed_at_submit)
        r.queued.append(doc["queued"])
        if r.t_cold is not None:
            r.steady_queued.append(doc["queued"])
        new = terminal - seen_terminal
        r.idle_slots.append(new / IN_FLIGHT)
        seen_terminal = terminal
        r.completed_end, r.t_last_poll = completed, t_poll
        if r.t_cold is None and completed >= IN_FLIGHT:
            r.t_cold, r.completed_cold = t_poll, completed
        if server_pid and r.peak_rss_mb is None and completed >= RSS_AFTER:
            r.peak_rss_mb = peak_rss_mb_pid(server_pid)
        if until_completed is not None and completed >= until_completed:
            r.busy_s += clock() - busy0
            break
        fill = min(ramp, unfilled)
        unfilled -= fill
        submit(new + fill)
        r.busy_s += clock() - busy0
    r.t_end = clock()
    r.cpu_s = time.thread_time() - cpu0
    return r


def settle(client, timeout_s: float = 60.0) -> dict:
    """Wait until no tenant is running or queued; returns the status."""
    deadline = time.perf_counter() + timeout_s
    while True:
        doc = client.status()
        if not doc["active"] and not doc["queued"]:
            return doc
        if time.perf_counter() > deadline:
            raise TimeoutError("fleet did not settle")
        time.sleep(POLL_S)


def check_tenants(client, loop: LoopResult, outcome: Outcome) -> None:
    """Every completed tenant ran its full budget; every crash-chaos
    tenant was restarted, not failed."""
    for name in loop.submitted:
        doc = client.observe(name)
        state = doc.get("state")
        if not outcome.check(state == "completed",
                             f"tenant {name} ended {state}: "
                             f"{doc.get('reason')}"):
            continue
        outcome.check(doc["epochs_done"] == doc["epochs_budget"],
                      f"tenant {name}: {doc['epochs_done']} of "
                      f"{doc['epochs_budget']} epochs")
        if name in loop.chaos:
            outcome.check(doc["restarts"] >= 1,
                          f"chaos tenant {name} was never restarted")


def fused_share(metrics_text: str) -> float:
    """Fused share of fleet epochs, from ``repro_fleet_epochs_total``."""
    by_path: dict[str, float] = {}
    for line in metrics_text.splitlines():
        if not line.startswith("repro_fleet_epochs_total{"):
            continue
        labels, value = line.rsplit(" ", 1)
        path = labels.split('path="', 1)[1].split('"', 1)[0]
        by_path[path] = by_path.get(path, 0.0) + float(value)
    total = sum(by_path.values())
    return by_path.get("fused", 0.0) / total if total else 0.0


def fusion_metrics(status: dict) -> dict:
    f = status["fusion"]
    widths = {int(w): n for w, n in f["widths"].items()}
    n = sum(widths.values())
    return {
        "service.fusion.span_s": f["phase_s"]["span"],
        "service.fusion.close_s": f["phase_s"]["close"],
        "service.fusion.dispatch_s": f["phase_s"]["dispatch"],
        "service.fusion.mean_width": (
            sum(w * c for w, c in widths.items()) / n if n else 0.0),
        "service.restarts": status["restarts"],
    }
