"""Cluster scheduler benchmark → ``BENCH_sched.json``.

Three measurements:

* **placement scaling** — virtual-clock cells/sec of the placement
  core as the cluster grows (the poll loop itself runs in wall-time
  milliseconds, so the virtual makespan is the honest number);
* **resume cost vs shard count** — shard files actually read when a
  resume needs 4 of 64 checkpointed cells, for several shard counts
  (the point of sharding: reads scale with dirty cells, not campaign
  size);
* **acceptance** — at zero faults, a scheduled campaign on a 16-node
  cluster must match or beat the local 4-worker pool's cells/sec: the
  placement layer may add only virtual time, never wall time.

Plain pytest (no pytest-benchmark fixture): CI runs this file directly
and uploads the JSON artifact.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.acquisition import CampaignPlan, ResilientCampaign, RetryPolicy
from repro.acquisition.checkpoint import ShardedManifest, cell_id
from repro.cluster.nodes import build_cluster
from repro.hardware import COUNTER_NAMES, FIXED_COUNTERS, Platform
from repro.io.atomic import atomic_write_json
from repro.parallel import MONOTONIC_CLOCK
from repro.sched import ClusterScheduler, ScheduledCampaign
from repro.tracing.phases import PhaseProfile
from repro.workloads import get_workload

from .conftest import bench_environment, report

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sched.json"

DWELL_S = 0.05
PROG = tuple(c for c in COUNTER_NAMES if c not in FIXED_COUNTERS)[:8]
EVENTS = tuple(FIXED_COUNTERS) + PROG


class DwellPlatform(Platform):
    """Runs take wall time, as on real hardware (see bench_parallel)."""

    def execute(self, *args, **kwargs):
        run = super().execute(*args, **kwargs)
        time.sleep(DWELL_S)
        return run

    def execute_runs(self, workload, frequency_mhz, threads, run_indices, **kwargs):
        # Campaign cells execute as batches through the experiment
        # kernel: the same dwell per run.
        batch = super().execute_runs(
            workload, frequency_mhz, threads, run_indices, **kwargs
        )
        time.sleep(DWELL_S * len(batch.run_indices))
        return batch


def bench_plan():
    return CampaignPlan(
        workloads=tuple(
            get_workload(n)
            for n in ("compute", "idle", "memory_read", "memory_write")
        ),
        frequencies_mhz=(2400,),
        events=EVENTS,
        thread_counts_override=(8,),
    )


def timed(fn):
    t0 = MONOTONIC_CLOCK()
    value = fn()
    return MONOTONIC_CLOCK() - t0, value


def profile():
    return PhaseProfile(
        workload="compute", suite="synthetic", frequency_mhz=2400,
        threads=8, run_index=0, phase_name="main", start_s=0.0, end_s=1.0,
        active_threads=8, power_w=42.0, voltage_v=1.05,
        counter_rates_per_s={"TOT_INS": 1e9},
    )


def test_bench_sched(tmp_path):
    results = {
        "clock": "perf_counter",
        "environment": bench_environment(),
        "dwell_s": DWELL_S,
        "dwell_note": (
            "dwell_s is an injected time.sleep per run: the acceptance "
            "cells/s measure overlap of injected sleeps, not compute"
        ),
    }

    # -- placement scaling: virtual cells/sec vs node count -------------
    n_cells = 200
    costs = [1.0] * n_cells
    scaling = {}
    for n_nodes in (2, 4, 8, 16):
        nodes = build_cluster(n_nodes, slots_per_node=2)
        wall_s, trace = timed(lambda: ClusterScheduler(nodes, costs).schedule())
        scaling[str(n_nodes)] = {
            "virtual_makespan_s": round(trace.makespan_s, 3),
            "virtual_cells_per_s": round(n_cells / trace.makespan_s, 3),
            "placement_wall_s": round(wall_s, 4),
        }
    results["placement_scaling"] = scaling
    # Placement throughput must actually scale with the cluster.
    assert (
        scaling["16"]["virtual_cells_per_s"]
        > 4 * scaling["2"]["virtual_cells_per_s"]
    )

    # -- resume cost vs shard count --------------------------------------
    resume = {}
    dirty_cells = 4
    for n_shards in (1, 4, 16, 64):
        root = tmp_path / f"shards_{n_shards}"
        store = ShardedManifest(root, "bench", n_shards=n_shards)
        ids = [
            cell_id("compute", 2400, 8, i, ("TOT_INS",)) for i in range(64)
        ]
        for cid in ids:
            store.store(cid, [profile()])
        fresh = ShardedManifest(root, "bench", n_shards=n_shards)
        wall_s, _ = timed(lambda: [fresh.load(c) for c in ids[:dirty_cells]])
        resume[str(n_shards)] = {
            "stored_cells": len(ids),
            "dirty_cells": dirty_cells,
            "shard_reads": fresh.shard_reads,
            "resume_wall_s": round(wall_s, 4),
        }
    results["resume_cost"] = resume
    # Sharding bounds a resume by its dirty cells, not the store size.
    assert resume["64"]["shard_reads"] <= dirty_cells
    assert resume["1"]["shard_reads"] == 1  # one giant file every time

    # -- acceptance: scheduled vs local 4-worker pool, zero faults ------
    pool_s, pool_result = timed(
        ResilientCampaign(
            DwellPlatform(), bench_plan(), parallel="thread", max_workers=4
        ).run
    )
    sched_s, sched_result = timed(
        ScheduledCampaign(
            DwellPlatform(),
            bench_plan(),
            build_cluster(16),
            retry=RetryPolicy(max_attempts=4),
            parallel="thread",
            max_workers=8,
        ).run
    )
    assert np.array_equal(
        sched_result.dataset.power_w, pool_result.dataset.power_w
    )
    total = pool_result.report.total_cells
    pool_cps = total / pool_s
    sched_cps = total / sched_s
    results["acceptance"] = {
        "n_cells": total,
        "pool_workers": 4,
        "pool_s": round(pool_s, 4),
        "pool_cells_per_s": round(pool_cps, 3),
        "sched_nodes": 16,
        "sched_s": round(sched_s, 4),
        "sched_cells_per_s": round(sched_cps, 3),
        "sched_ge_pool": bool(sched_cps >= pool_cps),
    }
    # The 16-node cluster exposes more lanes than the 4-worker pool;
    # placement itself is virtual-time and adds only milliseconds.
    assert sched_cps >= pool_cps

    atomic_write_json(OUT_PATH, results)
    report(
        "sched: cluster scheduler benchmark",
        "\n".join(
            [
                f"placement 16 nodes: "
                f"{scaling['16']['virtual_cells_per_s']} cells/s (virtual), "
                f"{scaling['16']['placement_wall_s']} s wall",
                f"resume 4/64 cells at 64 shards: "
                f"{resume['64']['shard_reads']} shard reads",
                f"acceptance: sched {results['acceptance']['sched_cells_per_s']}"
                f" vs pool {results['acceptance']['pool_cells_per_s']} cells/s",
            ]
        ),
    )
