"""``serve`` — fleet chaos soak: resilient estimation at fleet scale.

Not a paper figure: an evaluation of the serving layer's resilience
contract.  The paper-reference model (fit on the cached campaign) is
deployed as a :class:`~repro.serve.FleetService` over a simulated
fleet; at each CI fault seed a quarter of the nodes emit corrupted
telemetry (NaN/negative deltas, dead voltage rails, backwards
timestamps, duplicates, bursts) for the whole session.  The demo
verifies the blast radius: every *healthy* node's final estimator
state must be bit-identical to a fault-free
:class:`~repro.serve.FleetEstimator` fed only the healthy nodes'
samples, one batched step per tick, while the degradation the faults
caused is graded by the AU013 audit rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.audit import audit_fleet
from repro.core import PowerModel
from repro.core.online import PowerEnvelope
from repro.core.report import render_table
from repro.experiments.data import full_dataset, selected_counters
from repro.faults import IngestFaultInjector, IngestFaultPlan
from repro.seeding import DEFAULT_SEED
from repro.serve import FleetEstimator, FleetService, NodeSample, make_batch

__all__ = ["ServeDemoResult", "run"]

#: Fault seeds matching the CI chaos matrix.
FAULT_SEEDS = (0, 1, 20170529)

N_NODES = 48
N_TICKS = 40
FAULTY_FRACTION = 0.25


@dataclass(frozen=True)
class SeedOutcome:
    fault_seed: int
    faulty_nodes: int
    dropped_malformed: int
    stateless_served: int
    quarantined: int
    healthy: int
    verdict: str
    healthy_bit_identical: bool


@dataclass(frozen=True)
class ServeDemoResult:
    """Per-fault-seed outcomes of the fleet chaos soak."""

    outcomes: Tuple[SeedOutcome, ...]

    @property
    def all_bit_identical(self) -> bool:
        return all(o.healthy_bit_identical for o in self.outcomes)

    def render(self) -> str:
        rows = [
            (
                str(o.fault_seed),
                f"{o.faulty_nodes}/{N_NODES}",
                str(o.dropped_malformed),
                str(o.stateless_served),
                str(o.quarantined),
                str(o.healthy),
                o.verdict,
                "yes" if o.healthy_bit_identical else "NO",
            )
            for o in self.outcomes
        ]
        table = render_table(
            (
                "fault seed",
                "faulty",
                "dropped",
                "stateless",
                "quarantined",
                "healthy",
                "audit",
                "bit-identical",
            ),
            rows,
            title=(
                f"serve: {N_NODES}-node fleet, {N_TICKS} ticks of chaos "
                f"ingestion"
            ),
        )
        verdict = (
            "every healthy node bit-identical to its serial estimator"
            if self.all_bit_identical
            else "MISMATCH: a healthy node diverged from the serial path"
        )
        return f"{table}\n{verdict}\n"


def _node_stream(node_ids, tick, rng, counters):
    """One tick of clean telemetry from a single draw.

    Row i holds node i's counter deltas, then voltage, then frequency:
    the row-major draw order equals a per-value ``rng.uniform`` loop
    over nodes, so samples and generator state match it bit for bit.
    """
    k = len(counters)
    lo = np.array([0.0] * k + [0.9, 1200.0])
    hi = np.array([2e7] * k + [1.2, 2600.0])
    draws = rng.uniform(lo, hi, size=(len(node_ids), k + 2)).tolist()
    return [
        NodeSample(
            node_id=nid,
            counter_deltas=dict(zip(counters, row[:k])),
            interval_s=0.5,
            voltage_v=row[k],
            frequency_mhz=row[k + 1],
            time_s=0.5 * (tick + 1),
        )
        for nid, row in zip(node_ids, draws)
    ]


def run(seed: int = DEFAULT_SEED) -> ServeDemoResult:
    dataset = full_dataset(seed=seed)
    counters = selected_counters(seed=seed)
    model = PowerModel(counters).fit(dataset)
    envelope = PowerEnvelope.from_dataset(dataset)
    node_ids = [f"node-{i:03d}" for i in range(N_NODES)]
    estimator_kw = dict(
        smoothing=0.5,
        envelope=envelope,
        breaker_threshold=3,
        recovery_threshold=2,
        drift_window=20,
        drift_tolerance=0.5,
    )

    outcomes: List[SeedOutcome] = []
    for fault_seed in FAULT_SEEDS:
        plan = IngestFaultPlan.chaos(
            0.6, faulty_node_fraction=FAULTY_FRACTION, fault_seed=fault_seed
        )
        injector = IngestFaultInjector(plan, seed)
        faulty = {n for n in node_ids if injector.node_faulty(n)}
        service = FleetService(
            model,
            envelope=envelope,
            n_shards=8,
            queue_capacity=8 * N_NODES,
            seed=seed,
        )
        reference = FleetEstimator(model, seed=seed, **estimator_kw)
        rng = np.random.default_rng(seed)
        for tick in range(N_TICKS):
            corrupted = injector.corrupt(
                _node_stream(node_ids, tick, rng, counters), tick
            )
            reference.step_batch(
                make_batch(
                    [
                        sample
                        for sample in corrupted
                        if isinstance(sample, NodeSample)
                        and sample.node_id not in faulty
                    ],
                    counters,
                )
            )
            service.submit(corrupted)
            service.process()

        identical = all(
            service.fleet.drift_report(n) == reference.drift_report(n)
            for n in node_ids
            if n not in faulty
        )
        report = service.report()
        outcomes.append(
            SeedOutcome(
                fault_seed=fault_seed,
                faulty_nodes=len(faulty),
                dropped_malformed=report.dropped_malformed,
                stateless_served=report.stateless_served,
                quarantined=report.quarantined_nodes,
                healthy=report.healthy_nodes,
                verdict=audit_fleet(report).verdict,
                healthy_bit_identical=identical,
            )
        )
    return ServeDemoResult(outcomes=tuple(outcomes))
