"""Benchmark-owned tracing: wrappers around the program's public calls.

:class:`Tracer` replaces named functions and methods with timing
wrappers.  Each call becomes one span ``(id, parent, name, layer, cid,
t0, t1, ok)``: the parent is the innermost open span on the same
thread, and ``cid`` is a correlation id shared by one run, unit or
tenant.  Spans stay in memory until the benchmark writes them out.

Where a module imported a wrapped function by name (``from x import
f``), the wrapper is rebound there too, so every caller in the program
reaches the traced version.

:func:`self_times` turns spans into self time: a span's duration minus
the part of it that its children cover.  Wall time in which several
threads' innermost spans overlap is shared equally between them, so the
self times of all spans under a root always sum to the root's duration.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

#: Layer that collects a root span's own time.
OTHER = "other"


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int  # 0 = no parent
    name: str
    layer: str
    cid: str
    t0: float
    t1: float
    ok: bool = True

    def to_list(self) -> list:
        return [self.sid, self.parent, self.name, self.layer, self.cid,
                self.t0, self.t1, self.ok]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    """Installs span-recording wrappers; thread-safe recording."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str = OTHER, cid: str | None = None):
        """An explicit span around a block (roots, correlation scopes)."""
        stack = self._stack()
        sid = next(self._ids)
        parent, inherited = stack[-1] if stack else (0, "")
        cid = inherited if cid is None else cid
        stack.append((sid, cid))
        ok = False
        t0 = perf_counter()
        try:
            yield sid
            ok = True
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, layer, cid, t0, t1, ok))

    def _wrapper(self, fn: Callable, name: str, layer: str,
                 cid_of: Callable | None) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent, cid = stack[-1] if stack else (0, "")
            if cid_of is not None:
                cid = cid_of(*args, **kwargs)
            stack.append((sid, cid))
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append(Span(sid, parent, name, layer, cid, t0, t1, ok))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def wrap(self, owner, attr: str, name: str, layer: str,
             cid_of: Callable | None = None) -> None:
        """Wrap ``owner.attr`` (a module function or a method defined in
        a class's own namespace) and rebind direct imports of it."""
        original = _lookup(owner, attr)
        patch(owner, attr, self._wrapper(original, name, layer, cid_of),
              self._undo)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and rebound import."""
        unpatch(self._undo)


def _lookup(owner, attr: str):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr)


def patch(owner, attr: str, replacement, undo: list) -> None:
    """Set ``owner.attr`` and, for a module function, every ``repro``
    module attribute bound to the same function object; records what
    to restore in ``undo``."""
    original = _lookup(owner, attr)
    setattr(owner, attr, replacement)
    undo.append((owner, attr, original))
    if isinstance(owner, type):
        return
    for mod in list(sys.modules.values()):
        if mod is None or mod is owner:
            continue
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))


def unpatch(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


# -- the program's traced surface --------------------------------------------


def _tenant_of_spec(self, spec, *args, **kwargs) -> str:
    return spec.tenant if hasattr(spec, "tenant") else str(spec.get("tenant"))


def _tenant_of_name(self, name, *args, **kwargs) -> str:
    return str(name)


def _run_of_seed(*args, **kwargs) -> str:
    return f"seed-{kwargs.get('seed', 0)}"


def _run_of_journal(journal_path, *args, **kwargs) -> str:
    path = Path(journal_path)
    return f"{path.parent.name}/{path.stem}"


def install_program(tracer: Tracer) -> None:
    """Wrap the public calls of every layer of the program."""
    from repro.cache.store import RunCache
    from repro.checkpoint import journal, resume
    from repro.core import base, cd_tuner
    from repro.experiments import batch, campaign, runner
    from repro.net import fairshare
    from repro.obs.exporters import JsonlEventLog
    from repro.obs.spans import SpanRecorder
    from repro.service import fleet, fusion, shard, supervisor
    from repro.sim import engine
    from repro.sim.batch import engine as batch_engine

    w = tracer.wrap
    w(runner, "build_single_engine", "experiments.build_single_engine",
      "experiments", _run_of_seed)
    w(runner, "run_pair", "experiments.run_pair", "experiments")
    w(batch, "run_batch", "experiments.run_batch", "experiments")
    w(batch, "run_many", "experiments.run_many", "experiments")
    w(campaign, "run_campaign", "experiments.run_campaign", "experiments")
    w(batch_engine.BatchEngine, "run", "sim.batch.BatchEngine.run",
      "sim.batch")
    w(engine.Engine, "run", "sim.engine.Engine.run", "sim.engine")
    w(base.GeneratorPopulation, "observe_batch",
      "core.GeneratorPopulation.observe_batch", "core")
    w(cd_tuner.CdPopulation, "observe_batch",
      "core.CdPopulation.observe_batch", "core")
    w(base.TunerDriver, "observe", "core.TunerDriver.observe", "core")
    w(fairshare, "max_min_fair_allocation", "net.max_min_fair_allocation",
      "net")
    for meth in ("get_traces", "get_traces_many", "put_traces"):
        w(RunCache, meth, f"cache.RunCache.{meth}", "cache")
    w(journal.JournalWriter, "write", "checkpoint.JournalWriter.write",
      "checkpoint")
    w(resume, "run_journaled", "checkpoint.run_journaled", "checkpoint",
      _run_of_journal)
    w(JsonlEventLog, "__call__", "obs.JsonlEventLog.__call__", "obs")
    w(SpanRecorder, "record", "obs.SpanRecorder.record", "obs")
    w(fleet.FleetService, "pump", "service.FleetService.pump", "service")
    w(fleet.FleetService, "submit", "service.FleetService.submit",
      "service", _tenant_of_spec)
    w(fleet.FleetService, "observe", "service.FleetService.observe",
      "service", _tenant_of_name)
    w(fleet.FleetService, "status", "service.FleetService.status",
      "service")
    w(fusion, "advance_fused", "service.advance_fused", "service")
    w(shard.FleetShard, "step_epoch", "service.FleetShard.step_epoch",
      "service")
    w(supervisor.Supervisor, "restart", "service.Supervisor.restart",
      "service")


def install_client(tracer: Tracer) -> None:
    """Wrap the fleet HTTP client calls (the load generator's side)."""
    from repro.service.http import FleetClient

    w = tracer.wrap
    w(FleetClient, "submit", "http.FleetClient.submit", "http",
      _tenant_of_spec)
    w(FleetClient, "observe", "http.FleetClient.observe", "http",
      _tenant_of_name)
    w(FleetClient, "status", "http.FleetClient.status", "http")
    w(FleetClient, "health", "http.FleetClient.health", "http")


# -- span analysis -----------------------------------------------------------


def clip(spans: list[Span], t0: float, t1: float) -> list[Span]:
    """Spans cut to the window ``[t0, t1]`` (those outside dropped)."""
    out = []
    for s in spans:
        a, b = max(s.t0, t0), min(s.t1, t1)
        if b > a:
            out.append(Span(s.sid, s.parent, s.name, s.layer, s.cid, a, b,
                            s.ok))
    return out


def self_times(spans: list[Span], root: Span) -> dict[int, float]:
    """Self seconds per span id, for ``root`` and every span under it.

    Spans whose parent is unknown (top-level calls on any thread) hang
    off ``root``.  At each instant the innermost active spans share the
    instant equally, so a parent's self time is its duration minus the
    union of its children, overlapping children split the overlap, and
    the self times sum to the root's duration.
    """
    by_id = {s.sid: s for s in spans if s.t1 > s.t0}
    by_id[root.sid] = root

    def parent_of(s: Span) -> int | None:
        if s.sid == root.sid:
            return None
        return s.parent if s.parent in by_id else root.sid

    depth: dict[int, int] = {root.sid: 0}

    def depth_of(sid: int) -> int:
        chain = []
        while sid not in depth:
            chain.append(sid)
            sid = parent_of(by_id[sid])
        d = depth[sid]
        for c in reversed(chain):
            d += 1
            depth[c] = d
        return depth[chain[0]] if chain else d

    events = []
    for s in by_id.values():
        d = depth_of(s.sid)
        # Ends before starts at a tie; starts outer-first, ends inner-first.
        events.append((s.t0, 1, d, s.sid))
        events.append((s.t1, 0, -d, s.sid))
    events.sort()
    own: dict[int, float] = defaultdict(float)
    active_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    frontier: set[int] = set()
    prev = None
    for t, kind, _, sid in events:
        if prev is not None and frontier and t > prev:
            share = (t - prev) / len(frontier)
            for f in frontier:
                own[f] += share
        prev = t
        p = parent_of(by_id[sid])
        if kind == 1:
            active.add(sid)
            if active_children[sid] == 0:
                frontier.add(sid)
            if p is not None:
                active_children[p] += 1
                frontier.discard(p)
        else:
            active.discard(sid)
            frontier.discard(sid)
            if p is not None:
                active_children[p] -= 1
                if active_children[p] == 0 and p in active:
                    frontier.add(p)
    return dict(own)


def layer_split(spans: list[Span], root: Span) -> dict[str, float]:
    """Self seconds per layer under ``root``; the root's own time is
    :data:`OTHER`.  The values sum to the root's duration."""
    own = self_times(spans, root)
    by_id = {s.sid: s for s in spans}
    by_id[root.sid] = root
    out: dict[str, float] = defaultdict(float)
    for sid, sec in own.items():
        layer = OTHER if sid == root.sid else by_id[sid].layer
        out[layer] += sec
    return dict(out)


def by_name(spans: list[Span], own: dict[int, float] | None = None
            ) -> dict[str, dict]:
    """Per span name: call count, failures, inclusive and self seconds."""
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "failed": 0,
                                      "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["failed"] += 0 if s.ok else 1
        row["total_s"] += s.t1 - s.t0
        if own is not None:
            row["self_s"] += own.get(s.sid, 0.0)
    return out
