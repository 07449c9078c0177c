"""The batched ingestion-fault injector against the per-decision oracle.

``IngestFaultInjector.corrupt`` derives a whole tick's decision
streams in one pass.  The contract is that every decision is still
the first draw of ``derive_rng(root, "ingest-fault", fault_seed,
kind, tick, node_id)``, exactly as a one-stream-per-decision injector
would make it.  The oracle below replays that per-decision algorithm
and the tests demand sample-for-sample equality, garbage positions
included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import IngestFaultInjector, IngestFaultPlan
from repro.seeding import derive_rng
from repro.serve import NodeSample

ROOT_SEED = 77
FAULT_SEEDS = (0, 1, 20170529)
INTENSITIES = (0.1, 0.6, 1.0)
FRACTIONS = (0.0, 0.25, 1.0)
COUNTERS = ("instructions", "cache-misses", "branches")


class _OracleGarbage:
    pass


def oracle_corrupt(plan, root_seed, samples, tick):
    """One derived stream per decision, drawn only when consulted."""

    def rng(kind, *key):
        return derive_rng(root_seed, "ingest-fault", plan.fault_seed, kind, *key)

    def decide(kind, *key):
        rate = getattr(plan, kind)
        if rate <= 0.0:
            return False
        return bool(rng(kind, *key).random() < rate)

    def node_faulty(node_id):
        if plan.faulty_node_fraction >= 1.0:
            return True
        if plan.faulty_node_fraction <= 0.0:
            return False
        return bool(
            rng("faulty-node", node_id).random() < plan.faulty_node_fraction
        )

    if not plan.any_active:
        return list(samples)
    out = []
    for sample in samples:
        node_id = sample.node_id
        if not node_faulty(node_id):
            out.append(sample)
            continue
        if decide("drop_rate", tick, node_id):
            continue
        if decide("malformed_rate", tick, node_id):
            out.append(_OracleGarbage())
            continue
        corrupted = sample
        if decide("nan_rate", tick, node_id) and corrupted.counter_deltas:
            deltas = dict(corrupted.counter_deltas)
            names = sorted(deltas)
            victim = names[
                int(rng("nan-victim", tick, node_id).integers(0, len(names)))
            ]
            deltas[victim] = float("nan")
            corrupted = replace(corrupted, counter_deltas=deltas)
        elif decide("negative_rate", tick, node_id) and corrupted.counter_deltas:
            deltas = dict(corrupted.counter_deltas)
            names = sorted(deltas)
            victim = names[
                int(rng("neg-victim", tick, node_id).integers(0, len(names)))
            ]
            deltas[victim] = -abs(deltas[victim]) - 1.0
            corrupted = replace(corrupted, counter_deltas=deltas)
        if decide("context_rate", tick, node_id):
            corrupted = replace(corrupted, voltage_v=0.0)
        if corrupted.time_s is not None and decide(
            "backwards_time_rate", tick, node_id
        ):
            corrupted = replace(corrupted, time_s=corrupted.time_s - 1000.0)
        out.append(corrupted)
        if decide("duplicate_rate", tick, node_id):
            out.append(corrupted)
    if decide("burst_rate", tick):
        out = out * plan.burst_factor
    return out


def _same_float(a, b):
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b


def assert_same_stream(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        if isinstance(w, _OracleGarbage):
            assert not isinstance(g, NodeSample), i
            continue
        assert isinstance(g, NodeSample), i
        assert g.node_id == w.node_id, i
        assert list(g.counter_deltas) == list(w.counter_deltas), i
        for name in w.counter_deltas:
            assert _same_float(
                g.counter_deltas[name], w.counter_deltas[name]
            ), (i, name)
        for field in ("interval_s", "voltage_v", "frequency_mhz", "time_s"):
            assert _same_float(getattr(g, field), getattr(w, field)), (i, field)


def make_tick(tick, rng, node_ids):
    """Well-formed samples plus the shapes that skip fault branches:
    an empty delta dict (no NaN/negative victim) and a missing
    timestamp (no backwards step)."""
    samples = []
    for j, nid in enumerate(node_ids):
        deltas = {c: float(rng.uniform(0.0, 2e7)) for c in COUNTERS}
        if j % 11 == 5:
            deltas = {}
        samples.append(
            NodeSample(
                node_id=nid,
                counter_deltas=deltas,
                interval_s=0.5,
                voltage_v=float(rng.uniform(0.9, 1.2)),
                frequency_mhz=float(rng.uniform(1200.0, 2600.0)),
                time_s=None if j % 7 == 3 else 0.5 * (tick + 1),
            )
        )
    return samples


NODES = [f"node-{i:02d}" for i in range(32)]


@pytest.mark.parametrize(
    "fault_seed,intensity,fraction",
    list(itertools.product(FAULT_SEEDS, INTENSITIES, FRACTIONS)),
)
def test_corrupt_matches_per_decision_oracle(fault_seed, intensity, fraction):
    plan = IngestFaultPlan.chaos(
        intensity, faulty_node_fraction=fraction, fault_seed=fault_seed
    )
    injector = IngestFaultInjector(plan, ROOT_SEED)
    rng = np.random.default_rng(fault_seed)
    for tick in range(8):
        samples = make_tick(tick, rng, NODES)
        got = injector.corrupt(samples, tick)
        want = oracle_corrupt(plan, ROOT_SEED, samples, tick)
        assert_same_stream(got, want)


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
def test_duplicated_node_id_in_one_tick(fault_seed):
    """A node reporting twice in one tick sees the same decisions for
    both reports, as the per-decision keying implies."""
    plan = IngestFaultPlan.chaos(1.0, faulty_node_fraction=1.0, fault_seed=fault_seed)
    injector = IngestFaultInjector(plan, ROOT_SEED)
    rng = np.random.default_rng(5)
    base = make_tick(3, rng, NODES[:6])
    samples = base[:3] + [replace(base[1], voltage_v=1.05)] + base[3:] + [base[0]]
    got = injector.corrupt(samples, 3)
    assert_same_stream(got, oracle_corrupt(plan, ROOT_SEED, samples, 3))


def test_inactive_plan_passes_samples_through():
    plan = IngestFaultPlan(faulty_node_fraction=1.0, fault_seed=1)
    injector = IngestFaultInjector(plan, ROOT_SEED)
    samples = make_tick(0, np.random.default_rng(0), NODES)
    got = injector.corrupt(samples, 0)
    assert got == samples and got is not samples
    assert_same_stream(got, oracle_corrupt(plan, ROOT_SEED, samples, 0))


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
def test_node_faulty_matches_derived_stream_and_is_stable(fault_seed):
    plan = IngestFaultPlan.chaos(
        0.6, faulty_node_fraction=0.25, fault_seed=fault_seed
    )
    injector = IngestFaultInjector(plan, ROOT_SEED)
    want = [
        bool(
            derive_rng(
                ROOT_SEED, "ingest-fault", fault_seed, "faulty-node", nid
            ).random()
            < 0.25
        )
        for nid in NODES
    ]
    assert [injector.node_faulty(n) for n in NODES] == want
    assert [injector.node_faulty(n) for n in NODES] == want
    assert 0 < sum(want) < len(NODES)


def test_single_active_rate_draws_only_its_stream():
    """With one per-sample rate active, other kinds never fire and the
    one active kind still matches the oracle (the kind list is built
    from the plan's positive rates)."""
    plan = IngestFaultPlan(duplicate_rate=0.5, fault_seed=1)
    injector = IngestFaultInjector(plan, ROOT_SEED)
    rng = np.random.default_rng(2)
    for tick in range(4):
        samples = make_tick(tick, rng, NODES)
        got = injector.corrupt(samples, tick)
        assert_same_stream(got, oracle_corrupt(plan, ROOT_SEED, samples, tick))
        assert len(samples) < len(got) < 2 * len(samples)
