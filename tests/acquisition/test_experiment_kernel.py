"""Identity and regression tests for the experiment kernel.

A campaign acquires one (workload, frequency, threads) experiment per
pass (:meth:`Campaign.execute_experiment`).  Every single-cell entry
point — ``Campaign.execute_cell``, ``ResilientCampaign.execute_cell``,
``Platform.execute`` + ``ScorePTracer.trace`` + ``profile_trace`` —
is a batch of one through the same kernel, so each must equal the
whole-experiment pass bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition import Campaign, CampaignPlan, ResilientCampaign
from repro.hardware import COUNTER_NAMES, Platform
from repro.tracing.otf2 import MetricDef, MetricStream
from repro.tracing.phases import window_means
from repro.workloads import get_workload
from repro.workloads.registry import all_workloads

from .test_acquisition_golden import (
    QUARANTINE_DIGESTS,
    quarantine_campaign,
    result_digests,
)


def registry_plan(multiplexing: str) -> CampaignPlan:
    return CampaignPlan(
        workloads=tuple(all_workloads()),
        frequencies_mhz=(1800,),
        multiplexing=multiplexing,
    )


@pytest.mark.parametrize("multiplexing", ["multi-run", "time-division"])
def test_batch_of_one_equals_experiment_pass(multiplexing):
    plan = registry_plan(multiplexing)
    kernel = Campaign(Platform(), plan)
    single = Campaign(Platform(), plan)
    resilient = ResilientCampaign(Platform(), plan)
    groups = kernel.experiment_cells()
    assert len(groups) == len(plan.experiments())
    for cells in groups:
        batched = kernel.execute_experiment(cells)
        assert len(batched) == len(cells)
        for cell, profiles in zip(cells, batched):
            assert profiles, cell.describe()
            assert single.execute_cell(cell) == profiles
            # The trace-building path: tracer, watchdog, profile_trace.
            assert resilient.execute_cell(cell) == profiles


def test_non_contiguous_run_subset():
    # Resilient retries re-run single cells, so any subset of an
    # experiment's runs, in any order, must equal its full pass.
    campaign = Campaign(
        Platform(seed=401),
        CampaignPlan(
            workloads=(get_workload("swim"),),
            frequencies_mhz=(2000,),
        ),
    )
    (cells,) = campaign.experiment_cells()
    full = campaign.execute_experiment(cells)
    subset = [cells[12], cells[3], cells[7], cells[0]]
    got = campaign.execute_experiment(subset)
    assert got == [full[12], full[3], full[7], full[0]]
    assert [p[0].run_index for p in got] == [12, 3, 7, 0]


def test_cells_of_different_experiments_rejected():
    campaign = Campaign(
        Platform(),
        CampaignPlan(
            workloads=(get_workload("compute"),),
            frequencies_mhz=(1200, 2400),
            thread_counts_override=(8,),
        ),
    )
    first, second = campaign.experiment_cells()
    with pytest.raises(ValueError, match="share"):
        campaign.execute_experiment([first[0], second[0]])


def test_process_campaign_leaves_parent_unprimed():
    plan = CampaignPlan(
        workloads=(get_workload("idle"), get_workload("memory_write"), get_workload("nab")),
        frequencies_mhz=(1200, 2400),
        events=COUNTER_NAMES[:16],
        thread_counts_override=(1, 12, 24),
    )
    platform = Platform(seed=7)
    process_ds = Campaign(platform, plan, parallel="process", max_workers=2).run()
    # Workers expand their own experiments' words and build their own
    # skeletons: the parent does no acquisition work it would discard.
    assert not hasattr(platform, "_rng_words")
    assert platform._run_memo == {}
    assert len(platform._phase_memo) == 0
    serial_ds = Campaign(Platform(seed=7), plan).run()
    assert serial_ds.counter_names == process_ds.counter_names
    assert serial_ds.workloads == process_ds.workloads
    assert serial_ds.phase_names == process_ds.phase_names
    for name in ("counters", "power_w", "voltage_v", "frequency_mhz", "threads"):
        assert np.array_equal(getattr(serial_ds, name), getattr(process_ds, name))


def test_window_means_match_per_stream_window_mean():
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.uniform(0.05, 0.15, size=700))
    values = rng.normal(100.0, 30.0, size=(9, times.size))
    windows = [
        (0.0, times[-1] + 1.0),  # everything
        (times[3], times[300]),
        (times[300], times[301]),  # one sample
        (times[10] + 1e-6, times[10] + 2e-6),  # empty
        (times[129], times[600]),
    ]
    means = window_means(values, times, windows)
    assert means.shape == (9, len(windows))
    mdef = MetricDef("x", "1")
    for row in range(values.shape[0]):
        stream = MetricStream(mdef, times, values[row])
        for k, (start, end) in enumerate(windows):
            ref = stream.window_mean(start, end)
            if np.isnan(ref):
                assert np.isnan(means[row, k])
            else:
                assert means[row, k] == ref
    with pytest.raises(ValueError, match="before start"):
        window_means(values, times, [(2.0, 1.0)])


@pytest.mark.parametrize("parallel", ["serial", "thread", "process"])
def test_platform_failure_is_retried_and_quarantined(parallel):
    # A run the platform crashes fails its whole kernel pass.  Its
    # cells must fall back to recording one by one inside the retry
    # loop — retried, then quarantined — never abort the campaign, and
    # every backend must reproduce the pinned dataset and report.
    kwargs = {"max_workers": 2} if parallel == "process" else {}
    result = quarantine_campaign(parallel=parallel, **kwargs)
    report = result.report
    assert len(report.quarantined) == 1
    assert "compute" in report.quarantined[0][0]
    assert report.faults_observed["cell-killed"] == 3  # × attempts
    assert report.completed_cells == report.total_cells - 1
    assert result_digests(result) == QUARANTINE_DIGESTS
