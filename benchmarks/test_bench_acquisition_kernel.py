"""Acquisition kernel benchmark → ``BENCH_acquisition.json``.

Records the scalar-reference vs experiment-kernel CPU time of a
Table-I-shaped campaign (every registered workload, one frequency,
default thread counts, the full counter list multiplexed across
event-set runs) and asserts the acceptance gate: the fast path must
clear ≥3× campaign throughput over the scalar path, while producing a
byte-identical dataset.

The scalar leg (:func:`repro.acquisition.reference.acquire_reference`)
replays the pre-vectorization acquisition loop — one
``evaluate``/``compute_power`` call per phase per run, one sampled grid
per metric stream, a fresh tracer per cell — so the ``before_*`` /
``after_*`` rows keep the optimization's trajectory measurable in CI,
the same before/after contract ``BENCH_parallel.json`` records for the
arena.  The fast leg is the experiment kernel: one pass executes,
traces and profiles all event-set runs of an experiment.  A full-paper
row (all workloads × the five DVFS states, 5,395 cells) measures the
kernel at the shape ``repro-experiments`` acquires.

Plain pytest is enough (no pytest-benchmark fixture): CI runs this
file directly and uploads the JSON artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.acquisition import Campaign, CampaignPlan
from repro.acquisition.reference import acquire_reference
from repro.hardware import Platform
from repro.hardware.dvfs import PAPER_FREQUENCIES_MHZ
from repro.io.atomic import atomic_write_json
from repro.workloads.registry import all_workloads

from .conftest import bench_environment, report

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_acquisition.json"

#: The acceptance gate: fast-path campaign throughput over scalar.
MIN_SPEEDUP = 3.0

#: Repetitions per leg; min-of-N with a CPU-time clock keeps the gate
#: stable on hosts whose wall clock wobbles under frequency scaling.
REPS = 3

#: The per-run kernel's Table-I throughput, as its own run of this
#: benchmark recorded it (2-CPU VM) before the experiment kernel
#: replaced it.  That code is gone, so this leg is history, not a
#: measurement.
PER_RUN_KERNEL_CELLS_PER_S = 4593.1


def table1_plan() -> CampaignPlan:
    """The Table-I acquisition shape: all workloads at one frequency,
    default thread counts, full counter list (multi-run mode)."""
    return CampaignPlan(
        workloads=tuple(all_workloads()),
        frequencies_mhz=(2400,),
    )


def paper_plan() -> CampaignPlan:
    """The full paper campaign: all workloads x the five DVFS states."""
    return CampaignPlan(
        workloads=tuple(all_workloads()),
        frequencies_mhz=tuple(PAPER_FREQUENCIES_MHZ),
    )


def run_kernel(platform: Platform, plan: CampaignPlan):
    """The pipeline's acquisition: the experiment kernel."""
    return Campaign(platform, plan).run()


def best_of(reps: int, plan: CampaignPlan, acquire=run_kernel):
    """Minimum CPU time over ``reps`` fresh-platform runs of
    ``acquire(platform, plan)``.

    ``time.process_time`` ignores scheduler preemption and sleeps;
    min-of-N discards reps that caught a GC pause or a thermal dip.
    Every rep builds its own ``Platform`` so caches never leak across
    repetitions — each measurement is a cold campaign.
    """
    best_s = float("inf")
    dataset = platform = None
    for _ in range(reps):
        platform = Platform()
        t0 = time.process_time()
        dataset = acquire(platform, plan)
        elapsed = time.process_time() - t0
        best_s = min(best_s, elapsed)
    return best_s, dataset, platform


def test_bench_acquisition_kernel():
    n_cells = len(Campaign(Platform(), table1_plan()).cells())

    # -- before: the scalar reference oracle ----------------------------
    scalar_s, scalar_ds, _ = best_of(REPS, table1_plan(), acquire_reference)

    # -- after: the experiment kernel + phase-state memo ----------------
    fast_s, fast_ds, fast_platform = best_of(REPS, table1_plan())

    # Determinism first, speed second: the datasets must be byte-equal.
    assert fast_ds.counter_names == scalar_ds.counter_names
    assert fast_ds.workloads == scalar_ds.workloads
    assert np.array_equal(fast_ds.counters, scalar_ds.counters, equal_nan=True)
    assert np.array_equal(fast_ds.power_w, scalar_ds.power_w)
    assert np.array_equal(fast_ds.voltage_v, scalar_ds.voltage_v)

    # -- the full paper shape, experiment kernel only --------------------
    paper_cells = len(Campaign(Platform(), paper_plan()).cells())
    paper_s, paper_ds, _ = best_of(REPS, paper_plan())

    speedup = scalar_s / fast_s
    memo = fast_platform._phase_memo
    results = {
        "clock": f"process_time min of {REPS}",
        "environment": bench_environment(),
        "campaign": {
            "shape": "table1: all workloads x (2400 MHz) x default threads",
            "n_cells": n_cells,
            "n_samples": fast_ds.n_samples,
            "scalar_s": round(scalar_s, 4),
            "fastsim_s": round(fast_s, 4),
            "before_cells_per_s": round(n_cells / scalar_s, 1),
            "after_cells_per_s": round(n_cells / fast_s, 1),
            "speedup": round(speedup, 2),
            "memo_hits": memo.hits,
            "memo_misses": memo.misses,
        },
        "paper": {
            "shape": "paper: all workloads x 5 DVFS states x default threads",
            "n_cells": paper_cells,
            "n_samples": paper_ds.n_samples,
            "kernel_s": round(paper_s, 4),
            "cells_per_s": round(paper_cells / paper_s, 1),
        },
        "trajectory": {
            "note": (
                "table1 shape unless named: scalar_s replays the "
                "pre-vectorization loop (acquire_reference, the scalar "
                "oracle: per-phase evaluate/compute_power, per-stream "
                "sampling grids, a fresh tracer per cell); the "
                "per-run kernel (batched phases, shared-grid tracer, "
                "campaign-primed RNG words, one cell per work item) is "
                "its recorded value, not re-measured; the experiment "
                "kernel executes, traces and profiles all event-set runs "
                "of an experiment in one pass; paper is the full "
                "5-DVFS-state campaign through the experiment kernel"
            ),
            "before_cells_per_s": round(n_cells / scalar_s, 1),
            "per_run_kernel_cells_per_s": PER_RUN_KERNEL_CELLS_PER_S,
            "experiment_kernel_cells_per_s": round(n_cells / fast_s, 1),
            "paper_cells_per_s": round(paper_cells / paper_s, 1),
            "speedup_x": round(speedup, 2),
        },
    }

    atomic_write_json(OUT_PATH, results)
    report("BENCH_acquisition", json.dumps(results, indent=2))

    # Acceptance gate: the batched kernel clears 3x campaign throughput.
    assert speedup >= MIN_SPEEDUP, results["campaign"]
