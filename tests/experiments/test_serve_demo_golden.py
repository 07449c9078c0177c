"""Golden pin of the ``serve`` chaos-soak demo.

The demo's rendered table and its per-fault-seed outcomes are a pure
function of the root seed: the fault streams, the node telemetry and
the fleet service are all seeded.  Any optimisation of the injector,
the telemetry generator or the service's stepping must leave them
byte-identical, so both are pinned here against recorded values, and
the vectorized telemetry generator is checked against the scalar
per-value draw loop it replaces.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments import serve_demo
from repro.seeding import DEFAULT_SEED

RENDER_SHA256 = (
    "5a7be33ef673abf7aec36e5a9d57a6734e4ebbfa207f20f961127115e403fa9a"
)

#: (fault_seed, faulty_nodes, dropped_malformed, stateless_served,
#:  quarantined, healthy, verdict, healthy_bit_identical)
OUTCOMES = (
    (0, 14, 57, 0, 0, 44, "minor", True),
    (1, 10, 47, 0, 0, 47, "pass", True),
    (20170529, 17, 80, 0, 0, 45, "minor", True),
)


@pytest.fixture(scope="module")
def result():
    return serve_demo.run(DEFAULT_SEED)


def test_render_is_byte_identical(result):
    digest = hashlib.sha256(result.render().encode()).hexdigest()
    assert digest == RENDER_SHA256, result.render()


def test_seed_outcomes_pinned(result):
    got = tuple(
        (
            o.fault_seed,
            o.faulty_nodes,
            o.dropped_malformed,
            o.stateless_served,
            o.quarantined,
            o.healthy,
            o.verdict,
            o.healthy_bit_identical,
        )
        for o in result.outcomes
    )
    assert got == OUTCOMES


def scalar_node_stream(node_ids, tick, rng, counters):
    """The per-value draw loop: counters, then voltage, then frequency,
    node by node."""
    rows = []
    for nid in node_ids:
        deltas = {c: float(rng.uniform(0.0, 2e7)) for c in counters}
        voltage_v = float(rng.uniform(0.9, 1.2))
        frequency_mhz = float(rng.uniform(1200.0, 2600.0))
        rows.append((nid, deltas, voltage_v, frequency_mhz, 0.5 * (tick + 1)))
    return rows


@pytest.mark.parametrize("n_counters", [1, 6])
def test_node_stream_matches_scalar_draws(n_counters):
    counters = tuple(f"C{k}" for k in range(n_counters))
    node_ids = [f"node-{i:03d}" for i in range(serve_demo.N_NODES)]
    fast = np.random.default_rng(DEFAULT_SEED)
    slow = np.random.default_rng(DEFAULT_SEED)
    for tick in range(5):
        got = serve_demo._node_stream(node_ids, tick, fast, counters)
        want = scalar_node_stream(node_ids, tick, slow, counters)
        assert [
            (s.node_id, s.counter_deltas, s.voltage_v, s.frequency_mhz, s.time_s)
            for s in got
        ] == want
        assert all(s.interval_s == 0.5 for s in got)
        assert list(got[0].counter_deltas) == list(counters)
        # Identical generator state: later ticks cannot drift.
        assert fast.bit_generator.state == slow.bit_generator.state
