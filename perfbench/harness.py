"""Shared plumbing of the benchmark: metric table, statistics, result line.

The metric table lives in ``BENCHMARK.json`` at the checkout root (one
source of truth for names, units and directions); this module loads it,
validates what a workload reports against it, and prints the one-line
JSON result the benchmark contract asks for.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Allowed metric-name alphabet (and the unit alphabet, with ``/`` and ``%``).
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DIRECTIONS = ("higher", "lower")

#: Default seed and the held-out seed: tune on the first, re-check any
#: performance claim on the second, which no change was tuned against.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

#: A percentile is reported only when at least this many samples lie
#: beyond it (so p99 needs 1000 samples).
MIN_TAIL_SAMPLES = 10


def load_spec(path: Path = SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def metric_table(spec: dict, kind: str) -> dict[str, dict]:
    """``{name: {"unit", "better", ...}}`` for ``end_to_end``/``per_layer``."""
    return {m["name"]: m for m in spec[kind]}


def check_metric_table(spec: dict) -> list[str]:
    """Problems with the spec's metric declarations (empty when valid)."""
    problems = []
    seen: set[str] = set()
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            name = m.get("name", "")
            if not NAME_RE.match(name):
                problems.append(f"{kind}: bad name {name!r}")
            if name in seen:
                problems.append(f"{kind}: duplicate name {name!r}")
            seen.add(name)
            if not UNIT_RE.match(m.get("unit", "")):
                problems.append(
                    f"{kind}: {name} has bad unit {m.get('unit')!r}")
            if m.get("better") not in DIRECTIONS:
                problems.append(f"{kind}: {name} has no direction")
    return problems


# -- statistics --------------------------------------------------------------


def percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or None when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0 or not 0 < q < 100:
        return None
    k = max(0, math.ceil(q / 100.0 * n) - 1)
    if n - 1 - k < MIN_TAIL_SAMPLES:
        return None
    return float(xs[k])


#: Candidate tail percentiles, highest first.
TAIL_LEVELS = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def highest_percentile(samples, cap: float = 100.0
                       ) -> tuple[float, float] | None:
    """``(q, value)`` for the highest of :data:`TAIL_LEVELS` up to
    ``cap`` that has enough samples beyond it; None when not even the
    median has."""
    for q in TAIL_LEVELS:
        if q > cap:
            continue
        v = percentile(samples, q)
        if v is not None:
            return q, v
    return None


def median(values) -> float:
    return float(statistics.median(values))


# -- fsync wait --------------------------------------------------------------


class FsyncClock:
    """Calls to ``os.fsync`` in this process and the seconds they block.

    How long an fsync blocks is set by the disk and by everyone else's
    writeback on a shared host, not by the program: on the hosts this
    benchmark runs on it moved pass walls of the fsync-heavy workloads
    by a third from one run to the next.  The in-process workloads
    therefore time their passes net of fsync wait and report the wait
    and the number of calls (which the program does set) on their own.
    Install it before the program runs; it wraps ``os.fsync``, which
    the program looks up at call time.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self._real = None

    def install(self) -> "FsyncClock":
        real = self._real = os.fsync

        def fsync(fd):
            t0 = time.perf_counter()
            try:
                return real(fd)
            finally:
                self.seconds += time.perf_counter() - t0
                self.calls += 1

        os.fsync = fsync
        return self

    def uninstall(self) -> None:
        if self._real is not None:
            os.fsync = self._real
            self._real = None

    def read(self) -> tuple[int, float]:
        return self.calls, self.seconds


# -- host speed --------------------------------------------------------------

#: Seconds :func:`reference_work` took on the 2-vCPU host the benchmark
#: was sized on (Python 3.11): times scaled by :meth:`HostSpeed.scale`
#: are what the work would have taken there.
REFERENCE_S = 0.020


def reference_work() -> None:
    """A fixed piece of interpreter work — dict updates, float math, a
    sort, a string join — that calls nothing in the program."""
    d: dict[int, float] = {}
    for i in range(40000):
        k = i % 97
        d[k] = d.get(k, 0.0) + math.sqrt(i) * 0.5
    xs = sorted((i * 7919) % 10007 for i in range(40000))
    ",".join(str(x) for x in xs[:4000])


class HostSpeed:
    """How long :func:`reference_work` takes on this host right now.

    The benchmark runs on a few cores of a shared host, whose speed
    moves by a quarter within minutes as other tenants load the same
    physical cores.  The drift moves the program's pass times and the
    reference work in step, so a stretch timed between two samples and
    scaled by ``REFERENCE_S`` over their mean moves less with the host,
    while a change to the program moves it as much as before.  Take
    samples only while the program is idle: a sample that shares the
    machine with the program's own work measures that work.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # no collection of the program's garbage in here
        try:
            t0 = time.perf_counter()
            reference_work()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        return dt

    @staticmethod
    def scale(samples) -> float:
        """Factor from times measured among ``samples`` to the
        reference speed."""
        return REFERENCE_S / statistics.fmean(samples)


# -- process facts -----------------------------------------------------------


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def source_revision() -> dict:
    """Git sha when the checkout is a repository, plus a digest of the
    program sources (benchmark checkouts are plain file trees)."""
    import hashlib

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
        else:
            sha = ref
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def run_metadata(seed: int, inputs: dict) -> dict:
    import numpy

    return {
        **source_revision(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "inputs": inputs,
    }


# -- the result line ---------------------------------------------------------


class Outcome:
    """Attempted/failed tally plus the printed reason of every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(why)
        print(f"FAILED: {why}", file=sys.stderr, flush=True)

    def check(self, cond: bool, why: str) -> bool:
        if cond:
            self.ok()
        else:
            self.fail(why)
        return cond


def result_line(outcome: Outcome, values: dict[str, float],
                table: dict[str, dict]) -> str:
    """The contract's last stdout line: exactly the declared metrics."""
    missing = sorted(set(table) - set(values))
    extra = sorted(set(values) - set(table))
    if missing or extra:
        raise RuntimeError(
            f"metric set mismatch: missing {missing}, undeclared {extra}")
    metrics = {}
    for name, decl in table.items():
        v = float(values[name])
        if not math.isfinite(v):
            raise RuntimeError(f"metric {name} is not finite: {v}")
        metrics[name] = {"value": v, "unit": decl["unit"]}
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    })


def print_table(title: str, values: dict[str, float],
                table: dict[str, dict]) -> None:
    """Human-readable metric table on stderr (stdout's last line is the
    machine-readable result)."""
    print(f"-- {title}", file=sys.stderr)
    for name, decl in table.items():
        print(f"{name:34s} {values[name]:>14.6g} {decl['unit']:<14s}"
              f"({decl['better']} is better)", file=sys.stderr)
