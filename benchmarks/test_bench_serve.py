"""Fleet serving benchmark → ``BENCH_serve.json``.

Four measurements, recorded with the environment they ran in:

* **batched vs single-stream throughput** — node-steps/sec of one
  vectorized ``FleetEstimator.step_batch`` over a 10k-node fleet
  against the serial loop of per-node scalar-oracle
  (``SerialOnlineEstimator.step``) calls it is bit-identical to.  The
  gate is the kernel's reason to exist: batched must be at least 5x
  serial;
* **tick latency** — p50/p99 wall latency of a full-fleet batched
  step over repeated ticks;
* **overload shedding** — a 2x burst against a fleet-sized bounded
  queue under ``shed-oldest``: depth must never exceed the cap and
  every shed sample must be counted;
* **service tick latency** — p50/p99 wall latency of one
  ``FleetService.process`` tick over the whole fleet in 8 shards:
  per-shard packing plus the single merged step.

Plain pytest (no pytest-benchmark fixture): CI runs this file directly
and uploads the JSON artifact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.model import FittedPowerModel
from repro.core.online import PowerEnvelope
from repro.core.online_reference import SerialOnlineEstimator
from repro.io.atomic import atomic_write_json
from repro.parallel import MONOTONIC_CLOCK
from repro.serve import FleetEstimator, FleetService, NodeSample, make_batch
from repro.stats.ols import OLSResult

from .conftest import bench_environment, report

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

COUNTERS = ("instructions", "cache-misses", "branches")
N_NODES = 10_000
SERVICE_TICKS = 16
ESTIMATOR_KW = dict(
    smoothing=0.5,
    envelope=PowerEnvelope(5.0, 150.0),
    breaker_threshold=3,
    recovery_threshold=2,
    drift_window=20,
    drift_tolerance=0.5,
)


def synthetic_model():
    names = tuple(f"alpha:{c}" for c in COUNTERS) + (
        "beta:V2f", "gamma:V", "delta:Z",
    )
    params = np.array([8.0, 25.0, 3.5, 12.0, 4.0, 18.0])
    k = len(params)
    ols = OLSResult(
        params=params, bse=np.ones(k), cov_params=np.eye(k),
        rsquared=0.99, rsquared_adj=0.99, nobs=100, df_model=k - 1,
        df_resid=100 - k, cov_type="HC3", fitted_values=np.zeros(100),
        residuals=np.zeros(100), exog_names=names, has_intercept=False,
    )
    return FittedPowerModel(counters=COUNTERS, ols=ols, cov_type="HC3")


def tick_samples(node_ids, tick, rng):
    return [
        NodeSample(
            node_id=nid,
            counter_deltas={
                c: float(rng.uniform(0.0, 2e7)) for c in COUNTERS
            },
            interval_s=0.5,
            voltage_v=float(rng.uniform(0.9, 1.2)),
            frequency_mhz=float(rng.uniform(1200.0, 2600.0)),
            time_s=0.5 * (tick + 1),
        )
        for nid in node_ids
    ]


def test_bench_serve():
    model = synthetic_model()
    node_ids = [f"node-{i:05d}" for i in range(N_NODES)]
    results = {
        "clock": "perf_counter",
        "n_nodes": N_NODES,
        "environment": bench_environment(),
    }

    # Pre-generate identical streams so timing measures stepping only.
    # Tick 0 registers all 10k nodes (a one-time allocation on both
    # paths) and is timed separately; throughput is steady-state.
    rng = np.random.default_rng(20170529)
    ticks = [tick_samples(node_ids, t, rng) for t in range(6)]

    # -- single-stream baseline: the scalar oracle's serial loop --------
    serial = {
        nid: SerialOnlineEstimator(model, **ESTIMATOR_KW) for nid in node_ids
    }

    def serial_tick(samples):
        for s in samples:
            serial[s.node_id].step(
                s.counter_deltas,
                interval_s=s.interval_s,
                voltage_v=s.voltage_v,
                frequency_mhz=s.frequency_mhz,
                time_s=s.time_s,
            )

    serial_tick(ticks[0])
    n_serial_ticks = 2
    t0 = MONOTONIC_CLOCK()
    for samples in ticks[1 : 1 + n_serial_ticks]:
        serial_tick(samples)
    serial_s = MONOTONIC_CLOCK() - t0
    serial_steps_per_s = n_serial_ticks * N_NODES / serial_s

    # -- batched: vectorized step_batch (conversion included) -----------
    fleet = FleetEstimator(model, **ESTIMATOR_KW)
    t0 = MONOTONIC_CLOCK()
    fleet.step_batch(make_batch(ticks[0], COUNTERS))
    registration_s = MONOTONIC_CLOCK() - t0
    latencies_s = []
    for samples in ticks[1:]:
        t0 = MONOTONIC_CLOCK()
        batch = make_batch(samples, COUNTERS)
        fleet.step_batch(batch)
        latencies_s.append(MONOTONIC_CLOCK() - t0)
    batched_s = sum(latencies_s)
    batched_steps_per_s = len(latencies_s) * N_NODES / batched_s

    speedup = batched_steps_per_s / serial_steps_per_s
    results["throughput"] = {
        "serial_ticks": n_serial_ticks,
        "serial_node_steps_per_s": round(serial_steps_per_s, 1),
        "batched_ticks": len(latencies_s),
        "batched_node_steps_per_s": round(batched_steps_per_s, 1),
        "registration_tick_ms": round(registration_s * 1e3, 3),
        "speedup": round(speedup, 2),
    }
    results["tick_latency"] = {
        "p50_ms": round(float(np.percentile(latencies_s, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(latencies_s, 99)) * 1e3, 3),
        "max_ms": round(float(np.max(latencies_s)) * 1e3, 3),
    }
    # The gate: vectorization must pay for itself at fleet scale.
    assert speedup >= 5.0, results["throughput"]

    # Spot-check identity with the oracle on this stream (first/last node).
    for nid in (node_ids[0], node_ids[-1]):
        probe = SerialOnlineEstimator(model, **ESTIMATOR_KW)
        for samples in ticks:
            for s in samples:
                if s.node_id == nid:
                    probe.step(
                        s.counter_deltas,
                        interval_s=s.interval_s,
                        voltage_v=s.voltage_v,
                        frequency_mhz=s.frequency_mhz,
                        time_s=s.time_s,
                    )
        assert probe.drift_report() == fleet.drift_report(nid)

    # -- overload: 2x burst against a bounded queue ----------------------
    service = FleetService(
        model,
        envelope=ESTIMATOR_KW["envelope"],
        n_shards=8,
        queue_capacity=N_NODES,
        policy="shed-oldest",
        seed=7,
    )
    burst = ticks[0] + ticks[1]  # 2x the fleet in one submission
    t0 = MONOTONIC_CLOCK()
    service.submit(burst)
    outcome = service.process()
    burst_s = MONOTONIC_CLOCK() - t0
    stats = service.queue.stats()
    assert stats.max_depth <= stats.capacity
    assert stats.shed == len(burst) - N_NODES
    results["overload"] = {
        "burst_rows": len(burst),
        "queue_capacity": stats.capacity,
        "max_depth": stats.max_depth,
        "shed": stats.shed,
        "shed_fraction": round(stats.shed / len(burst), 4),
        "processed_rows": outcome.processed_rows,
        "burst_wall_s": round(burst_s, 4),
    }

    # -- service tick: packing + merged step over 8 shards ---------------
    service = FleetService(
        model,
        envelope=ESTIMATOR_KW["envelope"],
        n_shards=8,
        queue_capacity=N_NODES,
        seed=7,
    )
    service.submit(ticks[0])
    service.process()  # registers the fleet; not timed
    rng = np.random.default_rng(7)
    process_s = []
    for tick in range(1, 1 + SERVICE_TICKS):
        service.submit(tick_samples(node_ids, tick, rng))
        t0 = MONOTONIC_CLOCK()
        outcome = service.process()
        process_s.append(MONOTONIC_CLOCK() - t0)
        assert outcome.processed_rows == N_NODES
    results["service_tick"] = {
        "n_shards": service.n_shards,
        "ticks": SERVICE_TICKS,
        "p50_ms": round(float(np.percentile(process_s, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(process_s, 99)) * 1e3, 3),
    }

    atomic_write_json(OUT_PATH, results)
    report(
        "serve: fleet estimation benchmark",
        "\n".join(
            [
                f"serial: {serial_steps_per_s:,.0f} node-steps/s, "
                f"batched: {batched_steps_per_s:,.0f} node-steps/s "
                f"({speedup:.1f}x)",
                f"tick latency p99: {results['tick_latency']['p99_ms']} ms "
                f"over {N_NODES:,} nodes",
                f"2x burst: shed {stats.shed} of {len(burst)} "
                f"(depth cap {stats.capacity} never exceeded)",
                f"service tick p50/p99: "
                f"{results['service_tick']['p50_ms']}/"
                f"{results['service_tick']['p99_ms']} ms over "
                f"{service.n_shards} shards",
            ]
        ),
    )
