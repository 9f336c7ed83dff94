"""Tests of the benchmark harness on tiny inputs.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import harness  # noqa: E402
import tracing  # noqa: E402
from tracing import OTHER, Span  # noqa: E402


def span(sid, parent, t0, t1, layer="a", name=None, cid=""):
    return Span(sid, parent, name or f"s{sid}", layer, cid, t0, t1)


# -- metric declarations -----------------------------------------------------


def test_declared_metrics_have_valid_names_units_and_directions():
    spec = harness.load_spec()
    assert harness.check_metric_table(spec) == []
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            assert harness.NAME_RE.match(m["name"])
            assert harness.UNIT_RE.match(m["unit"])
            assert m["better"] in harness.DIRECTIONS


def test_metric_table_check_flags_bad_declarations():
    spec = {"end_to_end": [{"name": "bad name", "unit": "s",
                            "better": "lower"},
                           {"name": "x", "unit": "", "better": "up"}],
            "per_layer": [{"name": "x", "unit": "s", "better": "lower"}]}
    problems = harness.check_metric_table(spec)
    assert any("bad name" in p for p in problems)
    assert any("bad unit" in p for p in problems)
    assert any("no direction" in p for p in problems)
    assert any("duplicate" in p for p in problems)


def test_setup_s_has_the_largest_bound():
    spec = harness.load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert max(bounds.values()) <= 0.25


# -- percentiles -------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert harness.percentile(range(1000), 99) == 989.0
    assert harness.percentile(range(999), 99) is None
    assert harness.percentile(range(20), 50) == 9.0
    assert harness.percentile(range(19), 50) is None
    assert harness.percentile([], 50) is None


def test_highest_percentile_reports_the_level_used():
    assert harness.highest_percentile(range(1000)) == (99.0, 989.0)
    q, _ = harness.highest_percentile(range(100))
    assert q == 90.0
    assert harness.highest_percentile(range(5)) is None


# -- fsync wait --------------------------------------------------------------


def test_fsync_clock_counts_calls_and_restores_os_fsync(tmp_path):
    real = os.fsync
    clock = harness.FsyncClock().install()
    try:
        assert os.fsync is not real
        with open(tmp_path / "f", "wb") as f:
            f.write(b"x")
            f.flush()
            os.fsync(f.fileno())
            os.fsync(f.fileno())
        with pytest.raises(ValueError):
            os.fsync(-1)
    finally:
        clock.uninstall()
    assert os.fsync is real
    calls, seconds = clock.read()
    assert calls == 3 and seconds > 0.0


# -- host speed --------------------------------------------------------------


def test_host_speed_scales_to_the_reference_and_keeps_the_gc_state():
    ref = harness.REFERENCE_S
    assert harness.HostSpeed.scale([ref, ref]) == 1.0
    assert harness.HostSpeed.scale([ref, 3 * ref]) == 0.5
    speed = harness.HostSpeed()
    gc.disable()
    try:
        assert speed.sample() > 0.0
        assert not gc.isenabled()
    finally:
        gc.enable()
    speed.sample()
    assert gc.isenabled()
    assert len(speed.samples) == 2


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    root = span(1, 0, 0.0, 10.0, OTHER)
    spans = [root, span(2, 1, 1.0, 5.0), span(3, 2, 2.0, 3.0),
             span(4, 1, 6.0, 7.0)]
    own = tracing.self_times(spans, root)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(4.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    # Two threads' spans overlap inside one parent: the parent loses the
    # union [1, 6], not the sum, and the overlap [3, 4] is shared.
    root = span(1, 0, 0.0, 10.0, OTHER)
    spans = [root, span(2, 1, 1.0, 4.0, "x"), span(3, 1, 3.0, 6.0, "y")]
    own = tracing.self_times(spans, root)
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(2.0 + 0.5)
    assert own[3] == pytest.approx(2.0 + 0.5)
    assert sum(own.values()) == pytest.approx(10.0)


def test_orphans_hang_off_the_root_and_zero_length_spans_are_ignored():
    root = span(0, 0, 0.0, 4.0, OTHER)
    spans = [span(5, 99, 1.0, 2.0), span(6, 5, 1.5, 1.5)]
    own = tracing.self_times(spans, root)
    assert own[0] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    assert 6 not in own


def test_layer_self_times_plus_other_sum_to_the_wall():
    rng = random.Random(3)
    root = span(1, 0, 0.0, 100.0, OTHER)
    spans = [root]
    sid = 2
    for thread in range(3):
        t = 0.0
        while t < 95.0:
            a = t + rng.uniform(0.0, 2.0)
            b = a + rng.uniform(0.1, 5.0)
            spans.append(span(sid, 1, a, min(b, 100.0), f"l{thread}"))
            parent = sid
            sid += 1
            c = a + (min(b, 100.0) - a) * rng.uniform(0.0, 0.5)
            spans.append(span(sid, parent, c, c + (min(b, 100.0) - c) / 2,
                              "inner"))
            sid += 1
            t = b
    split = tracing.layer_split(spans, root)
    assert sum(split.values()) == pytest.approx(100.0, rel=1e-12)
    assert set(split) == {OTHER, "l0", "l1", "l2", "inner"}


def test_clip_cuts_spans_to_the_window():
    spans = [span(1, 0, 0.0, 5.0), span(2, 0, 6.0, 7.0), span(3, 0, 8.0, 9.0)]
    out = tracing.clip(spans, 4.0, 6.5)
    assert [(s.sid, s.t0, s.t1) for s in out] == [(1, 4.0, 5.0),
                                                  (2, 6.0, 6.5)]


# -- the tracer --------------------------------------------------------------


class _Owner:
    def work(self, n):
        return n * 2

    def fail(self):
        raise ValueError("boom")


def test_tracer_records_parents_failures_and_restores():
    tracer = tracing.Tracer()
    original = _Owner.__dict__["work"]
    tracer.wrap(_Owner, "work", "owner.work", "a", lambda self, n: f"n{n}")
    tracer.wrap(_Owner, "fail", "owner.fail", "a")
    obj = _Owner()
    with tracer.span("root", cid="r") as root_sid:
        assert obj.work(3) == 6
        with pytest.raises(ValueError):
            obj.fail()
    tracer.uninstall()
    assert _Owner.__dict__["work"] is original
    by = {s.name: s for s in tracer.spans}
    assert by["owner.work"].parent == root_sid
    assert by["owner.work"].cid == "n3"
    assert by["owner.fail"].cid == "r"
    assert by["owner.fail"].ok is False
    assert by["root"].ok is True


def test_tracer_rebinds_direct_imports_of_a_module_function():
    from repro.experiments import batch, runner

    tracer = tracing.Tracer()
    tracer.wrap(runner, "build_single_engine", "b", "experiments")
    try:
        assert batch.build_single_engine is runner.build_single_engine
        assert hasattr(batch.build_single_engine, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(batch.build_single_engine, "__wrapped__")


def test_spans_from_threads_get_their_own_parents():
    tracer = tracing.Tracer()
    tracer.wrap(_Owner, "work", "owner.work", "a")
    try:
        with tracer.span("root"):
            t = threading.Thread(target=_Owner().work, args=(1,))
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
    finally:
        tracer.uninstall()
    work = next(s for s in tracer.spans if s.name == "owner.work")
    assert work.parent == 0  # top level on its own thread


# -- output ------------------------------------------------------------------


def test_result_line_round_trips_through_json():
    table = {"a_s": {"unit": "s", "better": "lower"},
             "b.count": {"unit": "count", "better": "higher"}}
    outcome = harness.Outcome()
    outcome.ok(3)
    line = harness.result_line(outcome, {"a_s": 1.25, "b.count": 7}, table)
    doc = json.loads(line)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc == {"correct": True, "attempted": 3, "failed": 0,
                   "metrics": {"a_s": {"value": 1.25, "unit": "s"},
                               "b.count": {"value": 7.0, "unit": "count"}}}
    assert json.loads(json.dumps(doc)) == doc


def test_result_line_rejects_missing_or_undeclared_metrics():
    table = {"a_s": {"unit": "s", "better": "lower"}}
    with pytest.raises(RuntimeError):
        harness.result_line(harness.Outcome(), {}, table)
    with pytest.raises(RuntimeError):
        harness.result_line(harness.Outcome(), {"a_s": 1.0, "b": 2.0},
                            table)


def test_failures_are_counted_and_make_the_run_incorrect(capsys):
    outcome = harness.Outcome()
    outcome.check(True, "fine")
    outcome.check(False, "lane 3 differs")
    table = {"a_s": {"unit": "s", "better": "lower"}}
    doc = json.loads(harness.result_line(outcome, {"a_s": 1.0}, table))
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (False, 2, 1)
    assert "lane 3 differs" in capsys.readouterr().err


def test_spans_round_trip_through_json():
    s = span(4, 2, 0.5, 1.5, "cache", cid="seed-9")
    assert Span.from_list(json.loads(json.dumps(s.to_list()))) == s
