"""Golden digests of acquisition outputs.

Pins the bytes acquisition produces, so any restructuring of the
execute → trace → profile path has to reproduce them exactly:

* the paper campaign dataset (what ``experiments.data.full_dataset``
  builds on a cold cache) at three root seeds — 13 is a seed where
  Algorithm 1 picks a different counter set;
* the ``PhaseProfile`` lists of sampled cells: a roco2 single-phase
  kernel, a SPEC multi-phase benchmark, the 6-event last event set and
  a time-division multiplexed run;
* a small process-backend campaign across several thread counts.

The digests hold under ``REPRO_FASTSIM=0`` and ``REPRO_PARALLEL`` too:
every acquisition path must produce the same bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.acquisition import Campaign, CampaignPlan, run_campaign
from repro.hardware import Platform
from repro.hardware.dvfs import PAPER_FREQUENCIES_MHZ
from repro.workloads import get_workload
from repro.workloads.registry import all_workloads


def dataset_digest(ds) -> str:
    """SHA-256 over a dataset's arrays and labels (perfbench's digest)."""
    h = hashlib.sha256()
    for arr in (ds.counters, ds.power_w, ds.voltage_v, ds.frequency_mhz, ds.threads):
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    for labels in (ds.workloads, ds.suites, ds.phase_names, ds.counter_names):
        h.update("\x00".join(labels).encode())
        h.update(b"\x01")
    return h.hexdigest()


def profiles_digest(profiles) -> str:
    """SHA-256 over every field of a ``PhaseProfile`` list, floats exact
    (``float.hex``) and counter rates in their recorded order."""
    h = hashlib.sha256()
    for p in profiles:
        fields = (
            p.workload,
            p.suite,
            str(p.frequency_mhz),
            str(p.threads),
            str(p.run_index),
            p.phase_name,
            float(p.start_s).hex(),
            float(p.end_s).hex(),
            str(p.active_threads),
            float(p.power_w).hex(),
            float(p.voltage_v).hex(),
        )
        h.update("\x00".join(fields).encode())
        for name, rate in p.counter_rates_per_s.items():
            h.update(f"\x02{name}={float(rate).hex()}".encode())
        h.update(b"\x01")
    return h.hexdigest()


#: full paper campaign (all workloads x 5 DVFS states) per root seed.
PAPER_DIGESTS = {
    20170529: "90e3f45a3bdac809e30fe609635c27261ba62b4fb63ae595c7fb386a73b4fbea",
    401: "3d5d52c9566e49a06adba09a769d5f28256af103600e6ee20029d01ef6e0e1e1",
    13: "54471021210eaea14b6f7f45d90e2cb822827d97453771c0f1d8e6423f83613f",
}


@pytest.mark.parametrize("seed", sorted(PAPER_DIGESTS))
def test_paper_campaign_dataset(seed):
    # What full_dataset(seed=...) acquires on a cold cache.
    ds = run_campaign(Platform(seed=seed), all_workloads(), PAPER_FREQUENCIES_MHZ)
    assert ds.n_samples == 645
    assert dataset_digest(ds) == PAPER_DIGESTS[seed]


def _multi_run_campaign(seed=20170529):
    plan = CampaignPlan(
        workloads=(get_workload("compute"), get_workload("md")),
        frequencies_mhz=(1200, 2400),
        thread_counts_override=(8, 24),
    )
    return Campaign(Platform(seed=seed), plan)


#: (workload, frequency, threads, run_index) -> digest of the cell's
#: profiles.  Run 12 is the last event set (6 events, the rest hold 7).
CELL_DIGESTS = {
    ("compute", 2400, 24, 0):
        "6d2d53b46949b757a1cd30901d2a4219301cde3ed7b18327c3f33aec7e3ade59",
    ("compute", 1200, 8, 12):
        "3e0f7f6bc21586804ff21bda59f43ff659512bb390e866dbc25824f077fa5ace",
    ("md", 2400, 24, 3):
        "2f149557221cbc9ca462504f5567a82ca48b9da29cd7eaa6f364d097866a411f",
    ("md", 1200, 8, 12):
        "58810930897beff5c0a4c4b116fa54a5c8a52afda8ad2666bf60ca7576dd074d",
}

#: Every profile of the multi-run campaign at seed 401, in cell order.
COLLECT_DIGEST = "48b6ba93436fc66e2302c1f11977544d4dd8281e83eff2cea847be07daf8a25e"

#: Time-division mode: the first cell alone, then the whole campaign.
TD_CELL_DIGEST = "0117643bd65f28373b66a87c5ab94f8701b09052440f0b1e549fc6301d6d5a7a"
TD_COLLECT_DIGEST = "a77c6a89f7a877f1e0800654edd5c6db8b3ce9d39450fc044d1f2ef910ab17ca"

#: The process-backend campaign dataset.
PROCESS_DIGEST = "dfee0cd1ef2f3f2e82105376cf52d6b46652553073bdc34dc783775320f404e3"


def test_sampled_cells_profiles():
    campaign = _multi_run_campaign()
    assert len(campaign.event_sets[-1].events) == 6
    cells = {cell.key: cell for cell in campaign.cells()}
    got = {
        key: profiles_digest(campaign.execute_cell(cells[key]))
        for key in CELL_DIGESTS
    }
    assert got == CELL_DIGESTS


def test_collected_profiles():
    profiles = _multi_run_campaign(seed=401).collect_profiles()
    assert len(profiles) == 2 * 2 * 13 * (1 + 5)
    assert profiles_digest(profiles) == COLLECT_DIGEST


def test_time_division_profiles():
    plan = CampaignPlan(
        workloads=(get_workload("memory_read"), get_workload("swim")),
        frequencies_mhz=(1800,),
        thread_counts_override=(12, 24),
        multiplexing="time-division",
    )
    campaign = Campaign(Platform(seed=401), plan)
    (cell, *_) = campaign.cells()
    assert profiles_digest(campaign.execute_cell(cell)) == TD_CELL_DIGEST
    assert profiles_digest(campaign.collect_profiles()) == TD_COLLECT_DIGEST


def test_process_backend_campaign():
    ds = run_campaign(
        Platform(seed=13),
        [get_workload(n) for n in ("idle", "sqrt", "memory_copy", "bt331")],
        (1200, 2000),
        thread_counts=(1, 4, 16, 24),
        parallel="process",
        max_workers=2,
    )
    assert dataset_digest(ds) == PROCESS_DIGEST
