"""Campaign scaling: engine fast-path speedup and ``--jobs`` fan-out.

Two measurements, both committed to ``benchmarks/results/``:

* **Single-run fast path** — 1800 s fig5-style runs (fixed np=8, tuning
  nc) on the reference step pipeline (``fast_path=False``, everything
  recomputed every step) vs. the default fast path (change-point
  allocation caching).  Traces must be bit-identical (epochs AND
  steps); the speedup gate is >= 2x with a >= 3x target.
* **Campaign fan-out** — a quick-scale campaign timed on the reference
  engine serially (the pre-fast-path baseline) and on the fast path at
  ``jobs`` = 1/2/4.  Reports are asserted identical at every width.
  ``os.cpu_count()`` is recorded alongside: unit-level scaling needs
  real cores, so the headline number is *reference serial vs. fast
  path at --jobs 4* (the fast path alone must deliver >= 2.5x even on
  a single-core box, and fan-out stacks on top where cores exist).

Script mode is the CI ``perf-smoke`` gate::

    PYTHONPATH=src python benchmarks/bench_campaign_scaling.py --quick

exits nonzero if the fast path regresses below 2x over the reference
engine or if fast-path/reference traces diverge.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from contextlib import contextmanager

from repro.core.registry import make_tuner
from repro.endpoint.load import ExternalLoad
from repro.experiments import figures
from repro.experiments.batch import SingleRunSpec
from repro.experiments.campaign import CampaignScale, run_campaign
from repro.experiments.report import render_table
from repro.experiments.runner import run_pair, run_single
from repro.experiments.scenarios import SCENARIOS

SEED = 7
FULL_DURATION_S = 1800.0
QUICK_DURATION_S = 600.0
GATE_SPEEDUP = 2.0  # CI fails below this; the target is >= 3x
GATE_CAMPAIGN = 2.0  # regression gate; committed target is >= 2.5x

#: (tuner, load) fig5-style cells for the single-run measurement.
SINGLE_CASES = (("cs", "cmp16"), ("nm", "none"), ("cd", "cmp64"))


def _time_best(fn, rounds: int):
    best_dt, best_result = None, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if best_dt is None or dt < best_dt:
            best_dt, best_result = dt, result
    return best_dt, best_result


def _fig5_style_run(fast_path: bool, duration_s: float, tuner: str,
                    load: str):
    return run_single(
        SCENARIOS["anl-uc"], make_tuner(tuner, SEED),
        load=ExternalLoad.parse(load), duration_s=duration_s,
        fixed_np=8, seed=SEED, fast_path=fast_path,
    )


def single_run_measurement(duration_s: float, rounds: int):
    """Reference vs fast path per (tuner, load) cell.

    Returns (table rows, min speedup, all traces bit-identical).
    """
    rows, min_speedup, all_identical = [], float("inf"), True
    for tuner, load in SINGLE_CASES:
        ref_dt, ref = _time_best(
            lambda: _fig5_style_run(False, duration_s, tuner, load), rounds)
        fast_dt, fast = _time_best(
            lambda: _fig5_style_run(True, duration_s, tuner, load), rounds)
        identical = ref.epochs == fast.epochs and ref.steps == fast.steps
        speedup = ref_dt / fast_dt
        min_speedup = min(min_speedup, speedup)
        all_identical = all_identical and identical
        rows.append([
            tuner, load, f"{ref_dt:.3f}", f"{fast_dt:.3f}",
            f"{speedup:.2f}x", "yes" if identical else "NO",
        ])
    return rows, min_speedup, all_identical


@contextmanager
def reference_engine():
    """Force the figure generators onto the ``fast_path=False`` pipeline
    — the serial pre-fast-path baseline the campaign numbers compare
    against.  (Only valid for in-process runs: ``jobs=1``.)"""
    originals = (figures.SingleRunSpec, figures.run_pair)
    figures.SingleRunSpec = functools.partial(
        SingleRunSpec, fast_path=False)
    figures.run_pair = functools.partial(run_pair, fast_path=False)
    try:
        yield
    finally:
        figures.SingleRunSpec, figures.run_pair = originals


def campaign_measurement(scale: CampaignScale, jobs_widths=(1, 2, 4)):
    """Reference serial campaign vs fast path at several ``jobs``.

    Returns (table rows, reference/jobs-4 reduction, reports identical).
    """
    with reference_engine():
        ref_dt, ref_result = _time_best(lambda: run_campaign(scale), 1)
    walls, results = {}, {}
    for jobs in jobs_widths:
        walls[jobs], results[jobs] = _time_best(
            lambda j=jobs: run_campaign(scale, jobs=j), 1)
    identical = all(
        results[j].sections == ref_result.sections for j in walls
    )
    rows = [["reference", 1, f"{ref_dt:.2f}", "1.00x"]]
    rows += [
        ["fast", j, f"{walls[j]:.2f}", f"{ref_dt / walls[j]:.2f}x"]
        for j in jobs_widths
    ]
    return rows, ref_dt / walls[max(jobs_widths)], identical


def _single_block(rows, min_speedup, identical, duration_s, rounds):
    return render_table(
        ["tuner", "load", "reference s", "fast s", "speedup", "identical"],
        rows,
        title=(f"engine fast path vs reference: {duration_s:.0f} s "
               f"fig5-style runs, best of {rounds}"),
    ) + (
        f"\n\nmin speedup {min_speedup:.2f}x (gate >= {GATE_SPEEDUP}x, "
        f"target >= 3x); traces bit-identical: "
        f"{'yes' if identical else 'NO'}"
    )


def _campaign_block(rows, reduction, identical, scale):
    return render_table(
        ["engine", "jobs", "wall s", "vs reference"],
        rows,
        title=(f"campaign wall time: quick scale "
               f"(duration_s={scale.duration_s:.0f}), "
               f"os.cpu_count()={os.cpu_count()}"),
    ) + (
        f"\n\nreference serial vs fast --jobs 4: {reduction:.2f}x "
        f"(target >= 2.5x); reports identical at every width: "
        f"{'yes' if identical else 'NO'}\n"
        "Unit fan-out needs real cores (cpu_count above); the fast "
        "path alone carries the reduction on single-core boxes."
    )


# -- pytest entry points (committed results) --------------------------------


def test_bench_fast_path_single_run(report):
    rows, min_speedup, identical = single_run_measurement(
        FULL_DURATION_S, rounds=3)
    report(_single_block(rows, min_speedup, identical, FULL_DURATION_S, 3))
    assert identical, "fast path diverged from the reference engine"
    assert min_speedup >= GATE_SPEEDUP


def test_bench_campaign_jobs_scaling(report):
    scale = CampaignScale.quick(seed=SEED)
    rows, reduction, identical = campaign_measurement(scale)
    report(_campaign_block(rows, reduction, identical, scale))
    assert identical, "parallel campaign report diverged"
    assert reduction >= GATE_CAMPAIGN


# -- CI perf-smoke gate -----------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="shorter runs for the CI perf-smoke gate")
    args = parser.parse_args(argv)
    duration = QUICK_DURATION_S if args.quick else FULL_DURATION_S
    rounds = 2 if args.quick else 3

    rows, min_speedup, identical = single_run_measurement(duration, rounds)
    print(_single_block(rows, min_speedup, identical, duration, rounds))

    failed = False
    if not identical:
        print("\nFAIL: fast-path trace diverged from the reference engine")
        failed = True
    if min_speedup < GATE_SPEEDUP:
        print(f"\nFAIL: fast path {min_speedup:.2f}x < "
              f"{GATE_SPEEDUP}x gate over the reference engine")
        failed = True

    # Cheap cross-width consistency check (full scaling numbers live in
    # the committed pytest bench results).
    scale = CampaignScale(duration_s=300.0, fig1_duration_s=120.0,
                          fig1_reps=1, seed=SEED)
    serial = run_campaign(scale, jobs=1)
    fanned = run_campaign(scale, jobs=2)
    if serial.sections != fanned.sections:
        print("\nFAIL: campaign report at --jobs 2 diverged from serial")
        failed = True
    else:
        print("\ncampaign report identical at --jobs 1 and 2: yes")

    if not failed:
        print(f"\nOK: min fast-path speedup {min_speedup:.2f}x, "
              "traces bit-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
