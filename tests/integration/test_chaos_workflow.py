"""End-to-end chaos path (DESIGN.md §10): fault-injected acquisition →
robust workflow → degraded online estimation.

Run in the CI chaos matrix under three ``REPRO_FAULT_SEED`` values: the
whole degraded pipeline must produce a structured, finite, bit-identical
result for any fault stream, not just the default one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition import run_resilient_campaign
from repro.core import (
    PowerEnvelope,
    cv_out_of_fold_predictions,
    estimate_run_degraded,
    run_workflow,
    select_events,
)
from repro.faults import CounterLossPlan, FaultPlan
from repro.hardware import COUNTER_NAMES, FIXED_COUNTERS
from repro.hardware.platform import Platform
from repro.workloads import get_workload

from ..acquisition.test_acquisition_golden import CHAOS_DIGESTS, result_digests

#: Small event list keeps the campaign to 2 PMU event sets.
PROG = tuple(c for c in COUNTER_NAMES if c not in FIXED_COUNTERS)[:8]
EVENTS = tuple(FIXED_COUNTERS) + PROG

FREQUENCIES = (1200, 2400)
WORKLOADS = ("compute", "memory_read", "memory_write", "idle")
THREADS = (1, 8, 24)


@pytest.fixture(scope="module")
def fault_seed():
    import os

    return int(os.environ.get("REPRO_FAULT_SEED", "0"))


def degraded_campaign(fault_seed, seed=20170529, **kwargs):
    return run_resilient_campaign(
        Platform(seed=seed),
        [get_workload(w) for w in WORKLOADS],
        FREQUENCIES,
        events=EVENTS,
        thread_counts=THREADS,
        faults=FaultPlan.chaos(0.25, fault_seed=fault_seed),
        **kwargs,
    )


@pytest.fixture(scope="module")
def campaign(fault_seed):
    return degraded_campaign(fault_seed)


class TestDegradedWorkflow:
    def test_campaign_survives_chaos(self, campaign):
        assert campaign.dataset is not None
        assert campaign.dataset.n_samples > 0

    def test_robust_workflow_on_degraded_dataset(self, campaign):
        result = run_workflow(
            dataset=campaign.dataset,
            n_events=3,
            frequencies_mhz=FREQUENCIES,
            robust=True,
        )
        assert result.model.estimator == "huber"
        assert 1 <= len(result.selected_counters) <= 3
        assert np.isfinite(result.model.rsquared)
        assert np.isfinite(result.validation.mape)
        # Degradation is surfaced, never swallowed: the summary must
        # render whatever the hardened path had to adapt around.
        assert "Workflow summary" in result.summary()

    def test_strict_workflow_may_raise_but_never_crashes_opaquely(
        self, campaign
    ):
        """The strict path on the same degraded data either succeeds or
        fails with a typed, actionable error — no bare LinAlgError."""
        try:
            result = run_workflow(
                dataset=campaign.dataset,
                n_events=3,
                frequencies_mhz=FREQUENCIES,
            )
        except (ValueError, KeyError):
            return
        assert np.isfinite(result.model.rsquared)


class TestDegradedOnlinePath:
    @pytest.fixture(scope="class")
    def workflow(self, campaign):
        return run_workflow(
            dataset=campaign.dataset,
            n_events=3,
            frequencies_mhz=FREQUENCIES,
            robust=True,
        )

    def test_online_estimation_under_counter_loss(
        self, campaign, workflow, fault_seed
    ):
        platform = Platform(seed=20170529)
        run = platform.execute(get_workload("compute"), 2400, 8)
        envelope = PowerEnvelope.from_dataset(campaign.dataset)
        timeline, report = estimate_run_degraded(
            platform,
            run,
            workflow.model,
            faults=CounterLossPlan.chaos(0.4, fault_seed=fault_seed),
            envelope=envelope,
        )
        assert np.all(np.isfinite(timeline.estimated_w))
        assert np.all(np.isfinite(timeline.smoothed_w))
        assert report.n_intervals == timeline.estimated_w.shape[0]
        assert report.n_model + report.n_baseline == report.n_intervals
        assert report.summary()  # structured and renderable

    def test_end_to_end_bit_identical(self, fault_seed):
        """The acceptance gate: replaying the whole chaos pipeline with
        the same seeds reproduces the dataset, the model and the online
        session bit for bit."""
        first = degraded_campaign(fault_seed)
        second = degraded_campaign(fault_seed)
        assert first.dataset is not None and second.dataset is not None
        assert np.array_equal(first.dataset.counters, second.dataset.counters)
        assert np.array_equal(first.dataset.power_w, second.dataset.power_w)

        kwargs = dict(n_events=3, frequencies_mhz=FREQUENCIES, robust=True)
        wf1 = run_workflow(dataset=first.dataset, **kwargs)
        wf2 = run_workflow(dataset=second.dataset, **kwargs)
        assert wf1.selected_counters == wf2.selected_counters
        assert np.array_equal(wf1.model.ols.params, wf2.model.ols.params)

        platform = Platform(seed=20170529)
        run = platform.execute(get_workload("compute"), 2400, 8)
        plan = CounterLossPlan.chaos(0.4, fault_seed=fault_seed)
        t1, r1 = estimate_run_degraded(platform, run, wf1.model, faults=plan)
        t2, r2 = estimate_run_degraded(platform, run, wf2.model, faults=plan)
        assert np.array_equal(t1.estimated_w, t2.estimated_w)
        assert r1 == r2


class TestParallelChaos:
    def test_process_backend_bit_identical_under_chaos(
        self, campaign, fault_seed
    ):
        """ISSUE-4 tentpole gate on the chaos path: the full degraded
        campaign under ``parallel="process"`` reproduces the serial
        dataset and report (timing excluded) for any CI fault seed."""
        import dataclasses

        result = degraded_campaign(
            fault_seed, parallel="process", max_workers=2
        )
        assert result.dataset is not None and campaign.dataset is not None
        assert np.array_equal(
            result.dataset.counters, campaign.dataset.counters,
            equal_nan=True,
        )
        assert np.array_equal(result.dataset.power_w, campaign.dataset.power_w)
        assert result.dataset.counter_names == campaign.dataset.counter_names
        assert dataclasses.replace(
            result.report, timing=None
        ) == dataclasses.replace(campaign.report, timing=None)


class TestChaosAudit:
    """ISSUE-6 gate on the chaos path: a degraded acquisition run must
    come out of the audit graded minor or major — never a silent pass."""

    def test_campaign_audit_grades_degradation(self, campaign):
        audit = campaign.report.audit
        assert audit is not None
        assert "campaign" in audit.artifacts
        if campaign.report.clean:
            assert audit.verdict == "pass"
        else:
            assert audit.worst_at_least("minor")
            assert audit.verdict != "fail"  # degraded ≠ invalid
            assert any(f.rule_id == "AU010" for f in audit.findings)
            assert "audit verdict:" in campaign.report.summary()

    def test_workflow_audit_attached_under_chaos(self, campaign):
        result = run_workflow(
            dataset=campaign.dataset,
            n_events=3,
            frequencies_mhz=FREQUENCIES,
            robust=True,
        )
        assert result.audit is not None
        # Chaos degrades quality, it does not fabricate perfection: the
        # fit may be graded down, but a fail verdict here would mean the
        # robust path produced a numerically bogus model.
        assert result.audit.verdict != "fail"


class TestFastFitChaos:
    """ISSUE-5 gate on the chaos path: the Gram-cache fast fit must be
    equivalent to the exact path on degraded campaign data too, for
    any CI fault seed."""

    def test_selection_fast_equals_slow_on_degraded_dataset(self, campaign):
        from repro.core.selection import select_events

        assert campaign.dataset is not None
        kwargs = dict(n_events=3, on_missing="skip")
        slow = select_events(campaign.dataset, fast=False, **kwargs)
        fast = select_events(campaign.dataset, fast=True, **kwargs)
        assert slow.selected == fast.selected
        assert slow.warnings == fast.warnings
        for a, b in zip(slow.steps, fast.steps):
            assert a.counter == b.counter
            assert a.warnings == b.warnings
            np.testing.assert_allclose(
                a.criterion_value, b.criterion_value, rtol=1e-9
            )

    def test_workflow_fast_equals_slow_on_degraded_dataset(self, campaign):
        assert campaign.dataset is not None
        kwargs = dict(
            dataset=campaign.dataset,
            n_events=3,
            frequencies_mhz=FREQUENCIES,
        )
        outcomes = []
        for fast in (False, True):
            try:
                outcomes.append(("ok", run_workflow(fast=fast, **kwargs)))
            except Exception as exc:  # noqa: BLE001 - equivalence gate
                outcomes.append(("err", (type(exc), str(exc))))
        slow, fast_res = outcomes
        assert slow[0] == fast_res[0]
        if slow[0] == "err":
            assert slow[1] == fast_res[1]
        else:
            assert (
                slow[1].selected_counters == fast_res[1].selected_counters
            )
            np.testing.assert_allclose(
                slow[1].validation.mape, fast_res[1].validation.mape,
                rtol=1e-9,
            )


class TestFastsimChaos:
    """ISSUE-10 gate on the chaos path: the batched acquisition kernel
    (phase-state memo, shared-grid tracer, vectorized plugins) must be
    invisible on degraded data for every CI fault seed — serial and the
    process/arena backend both reproduce the dataset and report
    (timing excluded) pinned in the acquisition golden digests, which
    the scalar chain produced too."""

    @pytest.mark.parametrize("chaos_seed", [0, 1, 2])
    def test_fastsim_bit_identical_under_chaos(self, chaos_seed):
        serial = degraded_campaign(chaos_seed)
        arena = degraded_campaign(
            chaos_seed, parallel="process", max_workers=2
        )
        for result in (serial, arena):
            assert result.dataset is not None
            assert result_digests(result) == CHAOS_DIGESTS[chaos_seed]


class TestArenaChaos:
    """ISSUE-9 gate on the chaos path: shared-memory process dispatch
    must be invisible on degraded data for every CI fault seed — the
    same selection, folds and predictions as serial, and zero leaked
    ``/dev/shm`` segments."""

    def shm_segments(self):
        import glob

        return glob.glob("/dev/shm/repro-arena-*")

    def dense_campaign(self, fault_seed):
        # More thread counts than the module default: enough surviving
        # rows (30+) for a 16-fold CV, which is what clears the
        # small-task guard and puts real fold batches on the pool.
        return run_resilient_campaign(
            Platform(seed=20170529),
            [get_workload(w) for w in WORKLOADS],
            FREQUENCIES,
            events=EVENTS,
            thread_counts=(1, 2, 4, 6, 8, 12, 16, 20, 24),
            faults=FaultPlan.chaos(0.25, fault_seed=fault_seed),
        )

    @pytest.mark.parametrize("chaos_seed", [0, 1, 2])
    def test_selection_bit_identical_under_chaos(self, chaos_seed):
        ds = self.dense_campaign(chaos_seed).dataset
        assert ds is not None
        kwargs = dict(on_missing="skip", fast=False)
        serial = select_events(ds, 2, parallel="serial", **kwargs)
        process = select_events(
            ds, 2, parallel="process", max_workers=2, **kwargs
        )
        assert process.selected == serial.selected
        assert process.warnings == serial.warnings
        assert [s.criterion_value for s in process.steps] == [
            s.criterion_value for s in serial.steps
        ]
        assert self.shm_segments() == []

    @pytest.mark.parametrize("chaos_seed", [0, 1, 2])
    def test_cv_bit_identical_under_chaos(self, chaos_seed, monkeypatch):
        ds = self.dense_campaign(chaos_seed).dataset
        assert ds is not None
        counters = ds.counter_names[:2]
        kwargs = dict(n_splits=16, on_zero="skip", fast=False)
        serial = cv_out_of_fold_predictions(
            ds, counters, parallel="serial", **kwargs
        )
        arena = cv_out_of_fold_predictions(
            ds, counters, parallel="process", max_workers=2, **kwargs
        )
        monkeypatch.setenv("REPRO_ARENA", "0")
        pickled = cv_out_of_fold_predictions(
            ds, counters, parallel="process", max_workers=2, **kwargs
        )
        for other in (arena, pickled):
            assert np.array_equal(serial[0], other[0], equal_nan=True)
            assert serial[1] == other[1]
            assert serial[2] == other[2]
        assert self.shm_segments() == []
