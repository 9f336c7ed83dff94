"""Window-end dispatch throughput: population dispatch vs serial scalar.

The workload is a dispatch storm — B=64 cd-tuner seed replicates on
ANL→UChicago with ``epoch_s=1`` at ``dt=1``, so every span is one step
and every window closes and dispatches all 64 lanes.  Span math is a
sliver of the wall time; the window-end path (epoch close + tuner
dispatch) dominates.

Two paths over identical workloads:

* **serial scalar** — 64 ``run_single`` calls on the scalar engine;
* **population dispatch** — one ``run_batch``: numpy epoch close
  (:mod:`repro.sim.batch.closing`), population proposals
  (:mod:`repro.sim.batch.dispatch`) on one shared epoch grid.  Every one of the 64 lanes must join the cd population
  (``dispatch_timings()["population_lanes"]``); a lane left on the
  scalar ladder fails the bench.

Traces must be bit-identical across both, lane for lane.  The
committed target is **>= 4.5x** population over serial, the CI
``--floor`` 4x and the pytest regression gate 3.5x (the same
gate-below-target discipline as ``bench_batch`` — the box is noisy).
With every lane routed to the scalar ladder the batched run reads
about 3.3-3.5x serial, so the floor also sits above a bypassed
dispatcher; the population-lanes check catches one regardless of
timing noise.

Script mode is the CI ``batch-equivalence`` dispatch gate::

    PYTHONPATH=src python benchmarks/bench_dispatch.py --quick --floor 4

exits nonzero if the speedup falls below the floor, any lane diverges
from its scalar reference, or any lane missed the population.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from repro.core.registry import make_tuner
from repro.experiments.batch import SingleRunSpec, dispatch_timings, run_batch
from repro.experiments.parallel import replicate_seeds
from repro.experiments.report import render_table
from repro.experiments.runner import run_single
from repro.experiments.scenarios import SCENARIOS

SEED = 21
TUNER = "cd"
SCENARIO = "anl-uc"
B = 64
DURATION_S = 900.0
EPOCH_S = 1.0  # one step per window: the dispatch-dominated regime
TARGET_RATIO = 4.5  # committed target
FLOOR_RATIO = 4.0  # CI passes --floor 4
GATE_RATIO = 3.5  # pytest regression gate (noise margin under target)


def _specs():
    scenario = SCENARIOS[SCENARIO]
    return [
        SingleRunSpec(scenario, make_tuner(TUNER, seed),
                      duration_s=DURATION_S, epoch_s=EPOCH_S, seed=seed)
        for seed in replicate_seeds(SEED, B)
    ]


def _run_serial():
    scenario = SCENARIOS[SCENARIO]
    return [
        run_single(scenario, make_tuner(TUNER, seed),
                   duration_s=DURATION_S, epoch_s=EPOCH_S, seed=seed,
                   cache=False)
        for seed in replicate_seeds(SEED, B)
    ]


def dispatch_measurement(rounds: int):
    """Interleaved best-of-``rounds``; returns (serial_s, pop_s, ratio,
    identical, population_lanes) — the last is the fewest lanes that
    joined the population in any one batched run."""
    best_serial = best_pop = float("inf")
    serial_traces = pop_traces = None
    joined = B
    for _ in range(rounds):
        gc.collect()
        t0 = time.perf_counter()
        serial_traces = _run_serial()
        best_serial = min(best_serial, time.perf_counter() - t0)

        gc.collect()
        before = dispatch_timings()["population_lanes"]
        t0 = time.perf_counter()
        pop_traces = run_batch(_specs(), batch=B, cache=False)
        best_pop = min(best_pop, time.perf_counter() - t0)
        joined = min(joined,
                     dispatch_timings()["population_lanes"] - before)
    identical = all(
        p.epochs == s.epochs and p.steps == s.steps
        for s, p in zip(serial_traces, pop_traces)
    )
    return best_serial, best_pop, best_serial / best_pop, identical, joined


def _block(serial_s, pop_s, ratio, identical, joined, rounds):
    return render_table(
        ["path", "wall s", "runs/s"],
        [
            ["serial scalar", f"{serial_s:.3f}", f"{B / serial_s:.1f}"],
            ["population dispatch", f"{pop_s:.3f}", f"{B / pop_s:.1f}"],
        ],
        title=(f"window-end dispatch storm: {B} x {TUNER}-tuner "
               f"{DURATION_S:.0f} s replicates on {SCENARIO} at "
               f"epoch_s={EPOCH_S:.0f}, best of {rounds} interleaved"),
    ) + (
        f"\n\npopulation dispatch {ratio:.2f}x over serial "
        f"(target >= {TARGET_RATIO:.1f}x); {joined}/{B} lanes joined "
        f"the population; all {B} traces bit-identical: "
        f"{'yes' if identical else 'NO'}"
    )


# -- pytest entry (committed results) ----------------------------------------


def test_bench_dispatch_speedup(report):
    serial_s, pop_s, ratio, identical, joined = dispatch_measurement(
        rounds=5)
    report(_block(serial_s, pop_s, ratio, identical, joined, 5))
    assert identical, "a dispatched lane diverged from its scalar reference"
    assert joined == B, "a lane missed the tuner population"
    assert ratio >= GATE_RATIO


# -- CI batch-equivalence dispatch gate --------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer rounds for the CI gate")
    parser.add_argument("--floor", type=float, default=FLOOR_RATIO,
                        help="fail below this population/serial ratio")
    args = parser.parse_args(argv)
    rounds = 3 if args.quick else 5

    serial_s, pop_s, ratio, identical, joined = dispatch_measurement(
        rounds)
    print(_block(serial_s, pop_s, ratio, identical, joined, rounds))

    failed = False
    if not identical:
        print("\nFAIL: a dispatched lane diverged from its scalar "
              "reference")
        failed = True
    if joined != B:
        print(f"\nFAIL: only {joined}/{B} lanes joined the tuner "
              "population")
        failed = True
    if ratio < args.floor:
        print(f"\nFAIL: population dispatch {ratio:.2f}x < "
              f"{args.floor:.2f}x floor")
        failed = True
    if not failed:
        print(f"\nOK: {ratio:.2f}x over serial at B={B}, every lane in "
              "the population, traces bit-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
