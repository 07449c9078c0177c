"""Chaos soak of the full fleet service.

These tests drive ``FleetService`` end to end — middleware, queue,
sharded stepping, circuit breakers, snapshot worker, restore — under
seeded ingestion faults and deliberate corruption, and assert the
resilience contract: no escaping exception, blast radius bounded to
the faulty shard/nodes, healthy nodes bit-identical to the scalar
oracle fed the same samples, and degradation graded by the AU013 audit
rule.
"""

from __future__ import annotations

import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro.audit import audit_fleet
from repro.core.online import PowerEnvelope
from repro.core.online_reference import SerialOnlineEstimator
from repro.faults import IngestFaultInjector, IngestFaultPlan
from repro.serve import FleetService, NodeSample, make_batch

from .conftest import make_fleet_samples


NODES = [f"node-{i:02d}" for i in range(24)]


def drive(service, ticks, *, injector=None, rng_seed=3, node_ids=NODES):
    """Submit one well-formed sample per node per tick and process."""
    rng = np.random.default_rng(rng_seed)
    for tick in range(ticks):
        samples = make_fleet_samples(node_ids, tick, rng)
        if injector is not None:
            samples = injector.corrupt(samples, tick)
        service.submit(samples)
        service.process()


class TestServiceSoak:
    def test_chaos_soak_never_raises_and_isolates_faulty_nodes(
        self, model, envelope
    ):
        """≥10% faulty nodes for 30 ticks: the service keeps serving,
        and every healthy node's final state is bit-identical to the
        scalar oracle fed the same samples."""
        plan = IngestFaultPlan.chaos(
            0.6, faulty_node_fraction=0.25, fault_seed=2
        )
        injector = IngestFaultInjector(plan, 77)
        faulty = {n for n in NODES if injector.node_faulty(n)}
        assert len(faulty) >= len(NODES) // 10

        service = FleetService(
            model, envelope=envelope, n_shards=4, queue_capacity=4096, seed=7
        )
        kw = dict(
            smoothing=0.5,
            envelope=envelope,
            breaker_threshold=3,
            recovery_threshold=2,
            drift_window=20,
            drift_tolerance=0.5,
        )
        reference = {n: SerialOnlineEstimator(model, **kw) for n in NODES}

        rng = np.random.default_rng(3)
        for tick in range(30):
            clean = make_fleet_samples(NODES, tick, rng)
            corrupted = injector.corrupt(clean, tick)
            # Burst faults replay the whole tick, healthy nodes
            # included, so the oracle consumes the same
            # post-injection stream the service sees.
            for sample in corrupted:
                if (
                    isinstance(sample, NodeSample)
                    and sample.node_id not in faulty
                ):
                    reference[sample.node_id].step(
                        sample.counter_deltas,
                        interval_s=sample.interval_s,
                        voltage_v=sample.voltage_v,
                        frequency_mhz=sample.frequency_mhz,
                        time_s=sample.time_s,
                    )
            service.submit(corrupted)
            service.process()

        for node in NODES:
            if node in faulty:
                continue
            assert (
                service.fleet.drift_report(node)
                == reference[node].drift_report()
            ), node

        report = service.report()
        assert report.n_nodes == len(NODES)
        assert report.healthy_nodes >= len(NODES) - len(faulty)
        # The audit layer grades whatever degradation the chaos caused.
        assert audit_fleet(report).verdict in (
            "pass", "minor", "major", "fail",
        )

    def test_corrupt_shard_at_restore_resets_only_its_nodes(
        self, model, envelope, tmp_path
    ):
        """Kill one snapshot shard between runs: its nodes restart
        from the baseline, every other node resumes where it left off,
        and restore reads at most the dirty shards."""
        make = lambda: FleetService(
            model,
            envelope=envelope,
            n_shards=4,
            queue_capacity=4096,
            snapshot_dir=str(tmp_path),
            snapshot_every_ticks=2,
            seed=7,
        )
        first = make()
        drive(first, 10)
        first.snapshot()
        states = {n: first.fleet.node_state(n) for n in NODES}

        victim = sorted(tmp_path.glob("shard_*.npz"))[0]
        victim.write_bytes(b"garbage, not a zip archive")

        second = make()
        drive(second, 2, rng_seed=11)

        lost = [n for n in NODES if second.store.shard_of(n) == 0]
        kept = [n for n in NODES if second.store.shard_of(n) != 0]
        assert lost and kept
        for node in lost:
            assert second.fleet.node_state(node)["seen"] == 2
        for node in kept:
            assert (
                second.fleet.node_state(node)["seen"]
                == states[node]["seen"] + 2
            )
        assert second.restored_nodes == len(kept)
        dirty = {second.store.shard_of(n) for n in NODES}
        assert second.store.shard_reads <= len(dirty)
        assert any(
            e["kind"] == "corrupt-shard-discarded"
            for e in second.store.events()
        )

    def test_shard_breaker_diverts_to_stateless_baseline(
        self, model, envelope
    ):
        """A shard whose step keeps failing trips its breaker; its
        nodes get stateless baseline answers, other shards never
        notice, and the breaker closes once the fault clears."""
        service = FleetService(
            model,
            envelope=envelope,
            n_shards=4,
            queue_capacity=4096,
            shard_breaker_threshold=2,
            shard_breaker_cooldown=3,
            seed=7,
        )
        bad_shard = service.shard_of(NODES[0])
        faulty_ticks = set(range(1, 7))

        def hook(shard, rows):
            if shard == bad_shard and service.ticks in faulty_ticks:
                raise RuntimeError("injected shard fault")

        service._step_hook = hook
        rng = np.random.default_rng(3)
        outcomes = []
        for tick in range(14):
            service.submit(make_fleet_samples(NODES, tick, rng))
            outcomes.append(service.process())

        breaker = service.breakers[bad_shard]
        assert breaker.state == "closed"
        assert breaker.trips >= 1
        assert breaker.refused >= 1
        assert any(o.stateless for o in outcomes)

        in_bad = [n for n in NODES if service.shard_of(n) == bad_shard]
        out_bad = [n for n in NODES if service.shard_of(n) != bad_shard]
        assert in_bad
        for node in out_bad:
            assert service.fleet.node_state(node)["n_intervals"] == 14
        for node in in_bad:
            assert service.fleet.node_state(node)["n_intervals"] < 14

        report = service.report()
        assert report.shards[bad_shard].breaker_trips >= 1
        assert report.stateless_served > 0

    def test_degrade_policy_survives_burst_within_capacity(
        self, model, envelope
    ):
        """A 2x burst against a tight queue: depth never exceeds the
        cap, overflow is answered statelessly, estimator state for the
        queued samples is untouched."""
        service = FleetService(
            model,
            envelope=envelope,
            n_shards=2,
            queue_capacity=len(NODES),
            policy="degrade-to-baseline",
            seed=7,
        )
        rng = np.random.default_rng(5)
        burst = make_fleet_samples(NODES, 0, rng) + make_fleet_samples(
            NODES, 1, rng
        )
        answers = service.submit(burst)
        assert len(answers) == len(NODES)
        for _node, power_w in answers:
            assert envelope.lo_w <= power_w <= envelope.hi_w
        stats = service.queue.stats()
        assert stats.max_depth <= stats.capacity
        assert stats.diverted == len(NODES)
        service.process()
        report = service.report()
        assert report.queue.diverted == len(NODES)
        assert report.stateless_served == len(NODES)

    def test_malformed_submissions_dropped_and_counted(
        self, model, envelope
    ):
        service = FleetService(model, envelope=envelope, seed=7)
        rng = np.random.default_rng(9)
        good = make_fleet_samples(NODES[:4], 0, rng)
        service.submit(good + ["not-a-sample", None, 42])
        service.process()
        report = service.report()
        assert report.dropped_malformed == 3
        assert report.n_nodes == 4

    def test_audit_grades_forced_degradation(self, model):
        """Drive every node implausible (tight envelope) and check the
        roll-up fails the audit once nothing healthy remains."""
        service = FleetService(
            model,
            envelope=PowerEnvelope(lo_w=5.0, hi_w=20.0),
            n_shards=2,
            drift_window=5,
            drift_tolerance=0.4,
            seed=7,
        )
        drive(service, 10)
        report = service.report()
        assert report.quarantined_nodes == len(NODES)
        assert report.healthy_nodes == 0
        audit = audit_fleet(report)
        assert audit.verdict == "fail"
        assert any(f.rule_id == "AU013" for f in audit.findings)


def per_shard_process(service):
    """Oracle tick: each admitted shard's rows go through their own
    ``make_batch`` and ``step_batch`` call, in shard order."""
    service._ticks += 1
    for breaker in service.breakers:
        breaker.tick()
    by_shard = {}
    for sample in service.queue.drain(0):
        by_shard.setdefault(service.shard_of(sample.node_id), []).append(
            sample
        )
    results, stateless, refused = [], [], 0
    for shard in sorted(by_shard):
        shard_rows = by_shard[shard]
        breaker = service.breakers[shard]
        if not breaker.allow():
            stateless.extend(service._stateless_answers(shard_rows))
            refused += 1
            continue
        try:
            if service._step_hook is not None:
                service._step_hook(shard, shard_rows)
            service._restore_missing(shard_rows)
            batch = make_batch(shard_rows, service.fleet.counters)
            results.append(service.fleet.step_batch(batch))
        except Exception:  # replint: ignore[RL007] -- mirrors the service's breaker handling
            breaker.record_failure()
            stateless.extend(service._stateless_answers(shard_rows))
            continue
        breaker.record_success()
    if service.store is not None and service.snapshot_worker.due(
        service.ticks
    ):
        service.snapshot_worker.run(
            service.fleet, service.store, service.breakers
        )
    return results, stateless, refused


def assert_same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.node_ids == w.node_ids
        for name in ("power_w", "smoothed_w", "time_s"):
            assert getattr(g, name).tobytes() == getattr(w, name).tobytes()
        assert np.array_equal(g.produced, w.produced)
        assert np.array_equal(g.source_model, w.source_model)
        assert g.flags == w.flags


def assert_same_service(got, want):
    assert got.fleet.node_ids() == want.fleet.node_ids()
    for node in want.fleet.node_ids():
        assert got.fleet.drift_report(node) == want.fleet.drift_report(node)
    assert [(b.state, b.trips, b.refused) for b in got.breakers] == [
        (b.state, b.trips, b.refused) for b in want.breakers
    ]
    assert got.report() == want.report()


def flaky_hook(service, bad_shard, ticks):
    def hook(shard, rows):
        if shard == bad_shard and service.ticks in ticks:
            raise RuntimeError("injected shard fault")

    return hook


class TestStatelessBaseline:
    @pytest.mark.parametrize("bounded", [True, False])
    def test_stateless_answers_equal_oracle_clipped_baseline(
        self, model, bounded
    ):
        """Diverted samples are answered from the fleet's Equation 1
        baseline: the oracle's baseline clipped into the envelope, or
        zeroed where it is non-finite and there is no envelope."""
        envelope = PowerEnvelope(lo_w=30.0, hi_w=60.0) if bounded else None
        service = FleetService(
            model,
            envelope=envelope,
            queue_capacity=2,
            policy="degrade-to-baseline",
            seed=7,
        )
        rng = np.random.default_rng(21)
        samples = make_fleet_samples(NODES, 0, rng)
        # In-range, clipped high, clipped low and non-finite baselines.
        samples += [
            replace(samples[0], node_id="hot", voltage_v=4.0),
            replace(samples[0], node_id="cold", voltage_v=-3.0),
            replace(samples[0], node_id="dead", voltage_v=float("nan")),
            replace(samples[0], node_id="inf", frequency_mhz=float("inf")),
        ]
        answers = service.submit(samples)
        diverted = samples[2:]
        assert [node for node, _ in answers] == [s.node_id for s in diverted]
        oracle = SerialOnlineEstimator(model, envelope=envelope)
        clipped = 0
        for (_node, power_w), sample in zip(answers, diverted):
            raw = oracle.baseline_power(
                voltage_v=sample.voltage_v, frequency_mhz=sample.frequency_mhz
            )
            if envelope is not None:
                expected = envelope.clip(float(raw))
            else:
                expected = float(raw) if np.isfinite(raw) else 0.0
            assert power_w == expected, (sample.node_id, power_w, expected)
            clipped += power_w != raw
        assert clipped >= 2
        assert service.report().stateless_served == len(diverted)


class TestMergedStep:
    """``process`` packs per shard, then steps all admitted shards as
    one merged batch; everything observable must equal per-shard
    stepping."""

    @pytest.mark.parametrize("fault_seed", [0, 1, 20170529])
    def test_matches_per_shard_oracle_under_chaos(
        self, model, envelope, fault_seed
    ):
        plan = IngestFaultPlan.chaos(
            0.6, faulty_node_fraction=0.25, fault_seed=fault_seed
        )
        injector = IngestFaultInjector(plan, 77)
        make = lambda: FleetService(
            model,
            envelope=envelope,
            n_shards=4,
            queue_capacity=4096,
            shard_breaker_threshold=2,
            shard_breaker_cooldown=3,
            seed=7,
        )
        merged, oracle = make(), make()
        bad_shard = merged.shard_of(NODES[0])
        merged._step_hook = flaky_hook(merged, bad_shard, range(4, 9))
        oracle._step_hook = flaky_hook(oracle, bad_shard, range(4, 9))
        rng = np.random.default_rng(3)
        any_stateless = False
        for tick in range(30):
            corrupted = injector.corrupt(
                make_fleet_samples(NODES, tick, rng), tick
            )
            merged.submit(corrupted)
            oracle.submit(corrupted)
            outcome = merged.process()
            results, stateless, refused = per_shard_process(oracle)
            assert_same_results(outcome.results, results)
            assert outcome.stateless == tuple(stateless)
            assert outcome.refused_shards == refused
            assert outcome.processed_rows == sum(r.n_rows for r in results)
            any_stateless |= bool(stateless)
        assert any_stateless
        assert merged.breakers[bad_shard].trips >= 1
        assert_same_service(merged, oracle)

    def test_restore_keeps_per_shard_registration_order(
        self, model, envelope, tmp_path
    ):
        """Restored nodes of a later shard and new nodes of an earlier
        shard arrive in one tick: the fleet's node order must still be
        the per-shard one."""
        first = FleetService(
            model, envelope=envelope, n_shards=4, queue_capacity=4096,
            snapshot_dir=str(tmp_path / "seed"), seed=7,
        )
        drive(first, 3, node_ids=NODES[1::2])
        first.snapshot()

        def make(name):
            shutil.copytree(tmp_path / "seed", tmp_path / name)
            return FleetService(
                model, envelope=envelope, n_shards=4, queue_capacity=4096,
                snapshot_dir=str(tmp_path / name), seed=7,
            )

        merged, oracle = make("merged"), make("oracle")
        rng = np.random.default_rng(11)
        for tick in range(3):
            samples = make_fleet_samples(NODES, tick, rng)
            merged.submit(samples)
            oracle.submit(samples)
            outcome = merged.process()
            results, _, _ = per_shard_process(oracle)
            assert_same_results(outcome.results, results)
        assert merged.restored_nodes == len(NODES[1::2])
        assert merged.fleet.node_ids() != tuple(NODES)
        assert_same_service(merged, oracle)

    def test_non_numeric_delta_trips_only_its_shard(self, model, envelope):
        """A sample the schema middleware accepts but ``make_batch``
        cannot pack fails its own shard; every other node advances."""
        service = FleetService(
            model,
            envelope=envelope,
            n_shards=4,
            queue_capacity=4096,
            shard_breaker_threshold=2,
            seed=7,
        )
        victim = NODES[0]
        bad_shard = service.shard_of(victim)
        in_bad = [n for n in NODES if service.shard_of(n) == bad_shard]
        out_bad = [n for n in NODES if service.shard_of(n) != bad_shard]
        assert in_bad and out_bad
        rng = np.random.default_rng(3)
        for tick in range(3):
            samples = make_fleet_samples(NODES, tick, rng)
            samples[0] = replace(
                samples[0],
                counter_deltas={
                    **samples[0].counter_deltas, "instructions": "n/a",
                },
            )
            service.submit(samples)
            outcome = service.process()
            assert sorted(n for n, _ in outcome.stateless) == sorted(in_bad)
            assert outcome.processed_rows == len(out_bad)
        assert service.validator.n_dropped == 0
        for node in out_bad:
            assert service.fleet.drift_report(node).n_intervals == 3
        assert not any(service.fleet.has_node(n) for n in in_bad)
        for shard, breaker in enumerate(service.breakers):
            if shard == bad_shard:
                assert (breaker.state, breaker.trips) == ("open", 1)
            else:
                assert (breaker.state, breaker.trips) == ("closed", 0)

    def test_raising_merged_step_fails_every_admitted_shard(
        self, model, envelope, monkeypatch
    ):
        service = FleetService(
            model, envelope=envelope, n_shards=4, queue_capacity=4096, seed=7
        )
        admitted = {service.shard_of(n) for n in NODES}
        assert 1 < len(admitted) < service.n_shards
        rng = np.random.default_rng(3)
        service.submit(make_fleet_samples(NODES, 0, rng))
        service.process()

        def boom(batch):
            raise RuntimeError("injected merged-step fault")

        monkeypatch.setattr(service.fleet, "step_batch", boom)
        for tick in range(1, 4):
            service.submit(make_fleet_samples(NODES, tick, rng))
            outcome = service.process()
            assert outcome.results == ()
            assert outcome.processed_rows == 0
            assert sorted(n for n, _ in outcome.stateless) == sorted(NODES)
        for shard, breaker in enumerate(service.breakers):
            # A shard with no rows this tick ran no operation.
            want = ("open", 1) if shard in admitted else ("closed", 0)
            assert (breaker.state, breaker.trips) == want
        for node in NODES:
            assert service.fleet.drift_report(node).n_intervals == 1
        assert service.report().stateless_served == 3 * len(NODES)
