"""Batch engine throughput: B=64 seed replicates, batched vs serial.

The workload is the batch engine's home turf — one scenario/tuner
(ANL→UChicago, cd-tuner), 64 seed replicates at 900 s, cache off — so
every lane shares the allocation-memo group and one epoch grid.  Serial means 64 ``run_single`` calls on the default
fast-path scalar engine; batched means one ``run_batch`` call at
``batch=64``.  Traces must be bit-identical lane for lane; the
committed target (and the CI ``--floor``) is **>= 9x** (raised from 8x
when population dispatch vectorized the window-end path), the pytest
regression gate >= 7x (the same gate-below-target discipline as
``bench_campaign_scaling`` — the box is noisy single-core).

Measurement is interleaved best-of-N: each round collects garbage,
times serial, then batched back to back, and the best round of each
side is compared — so a load spike or GC pause hurts both sides rather
than skewing the ratio.

Script mode is the CI ``batch-equivalence`` perf gate::

    PYTHONPATH=src python benchmarks/bench_batch.py --quick --floor 9

exits nonzero if the speedup falls below the floor or any lane
diverges from its scalar reference.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from repro.core.registry import make_tuner
from repro.experiments.batch import SingleRunSpec, run_batch
from repro.experiments.parallel import replicate_seeds
from repro.experiments.report import render_table
from repro.experiments.runner import run_single
from repro.experiments.scenarios import SCENARIOS

SEED = 21
TUNER = "cd"
SCENARIO = "anl-uc"
B = 64
DURATION_S = 900.0
TARGET_SPEEDUP = 9.0  # committed target; CI passes --floor 9
GATE_SPEEDUP = 7.0  # pytest regression gate (noise margin under target)


def _specs(duration_s: float):
    scenario = SCENARIOS[SCENARIO]
    return [
        SingleRunSpec(scenario, make_tuner(TUNER, seed),
                      duration_s=duration_s, seed=seed)
        for seed in replicate_seeds(SEED, B)
    ]


def _run_serial(duration_s: float):
    scenario = SCENARIOS[SCENARIO]
    return [
        run_single(scenario, make_tuner(TUNER, seed),
                   duration_s=duration_s, seed=seed, cache=False)
        for seed in replicate_seeds(SEED, B)
    ]


def batch_measurement(duration_s: float, rounds: int):
    """Interleaved best-of-``rounds``; returns
    (serial_s, batch_s, speedup, identical)."""
    best_serial = best_batch = float("inf")
    serial_traces = batch_traces = None
    for _ in range(rounds):
        gc.collect()
        t0 = time.perf_counter()
        serial_traces = _run_serial(duration_s)
        dt = time.perf_counter() - t0
        best_serial = min(best_serial, dt)

        gc.collect()
        t0 = time.perf_counter()
        batch_traces = run_batch(_specs(duration_s), batch=B, cache=False)
        dt = time.perf_counter() - t0
        best_batch = min(best_batch, dt)
    identical = all(
        b.epochs == s.epochs and b.steps == s.steps
        for s, b in zip(serial_traces, batch_traces)
    )
    return best_serial, best_batch, best_serial / best_batch, identical


def _block(serial_s, batch_s, speedup, identical, duration_s, rounds):
    return render_table(
        ["path", "wall s", "runs/s"],
        [
            ["serial scalar", f"{serial_s:.3f}", f"{B / serial_s:.1f}"],
            [f"batch B={B}", f"{batch_s:.3f}", f"{B / batch_s:.1f}"],
        ],
        title=(f"batch engine vs serial: {B} x {TUNER}-tuner "
               f"{duration_s:.0f} s replicates on {SCENARIO}, "
               f"best of {rounds} interleaved"),
    ) + (
        f"\n\nspeedup {speedup:.2f}x (target >= {TARGET_SPEEDUP:.0f}x); "
        f"all {B} traces bit-identical: {'yes' if identical else 'NO'}"
    )


# -- pytest entry (committed results) ----------------------------------------


def test_bench_batch_speedup(report):
    serial_s, batch_s, speedup, identical = batch_measurement(
        DURATION_S, rounds=5)
    report(_block(serial_s, batch_s, speedup, identical, DURATION_S, 5))
    assert identical, "a batched lane diverged from its scalar reference"
    assert speedup >= GATE_SPEEDUP


# -- CI batch-equivalence perf gate ------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer rounds for the CI gate")
    parser.add_argument("--floor", type=float, default=TARGET_SPEEDUP,
                        help="fail below this speedup")
    args = parser.parse_args(argv)
    rounds = 3 if args.quick else 5

    serial_s, batch_s, speedup, identical = batch_measurement(
        DURATION_S, rounds)
    print(_block(serial_s, batch_s, speedup, identical, DURATION_S,
                 rounds))

    failed = False
    if not identical:
        print("\nFAIL: a batched lane diverged from its scalar reference")
        failed = True
    if speedup < args.floor:
        print(f"\nFAIL: batch speedup {speedup:.2f}x < "
              f"{args.floor:.1f}x floor")
        failed = True
    if not failed:
        print(f"\nOK: {speedup:.2f}x at B={B}, traces bit-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
