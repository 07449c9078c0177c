"""Post-processing: merging multi-run profiles into a dataset.

"Multiple runs of the same application are required due to the hardware
limitation on simultaneous recording of multiple PAPI counters. […]
Following data acquisition, the data from multiple runs is processed to
calculate average power and voltage across all runs.  Furthermore, the
phase profiles from multiple runs are combined together" (Section
III-A).

:func:`merge_runs` performs exactly that merge: phases are matched by
name across the runs of one experiment, power/voltage are averaged over
all runs, and each run contributes the counters its PMU event set was
programmed with.

Because real campaigns lose runs (see :mod:`repro.faults`), the merge
distinguishes two consistency problems and lets the caller choose how
each is handled (``"raise"`` — the strict default — ``"record"`` into
an issue list, or ``"ignore"``):

* **phase-set mismatch** — runs of the same experiment disagree on
  which phases exist (a truncated trace, a dropped run): the merged
  phases would silently lack the missing runs' counter rates;
* **counter disagreement** — the same counter recorded twice with
  wildly inconsistent values (broken multiplexing).

:func:`counter_coverage` makes the resulting holes explicit: the
fraction of merged phases carrying each counter — the coverage map the
resilient campaign reports and degrades on.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.acquisition.dataset import PowerDataset
from repro.hardware.counters import COUNTER_NAMES
from repro.tracing.phases import PhaseProfile

__all__ = [
    "MergedPhase",
    "merge_runs",
    "counter_coverage",
    "build_dataset",
]

#: Valid values of the ``on_*`` merge-consistency modes.
_MODES = ("raise", "record", "ignore")


class MergedPhase:
    """One phase of one experiment, merged across counter-group runs."""

    def __init__(
        self,
        workload: str,
        suite: str,
        frequency_mhz: int,
        threads: int,
        phase_name: str,
        active_threads: int,
    ) -> None:
        self.workload = workload
        self.suite = suite
        self.frequency_mhz = frequency_mhz
        self.threads = threads
        self.phase_name = phase_name
        self.active_threads = active_threads
        self.power_samples: List[float] = []
        self.voltage_samples: List[float] = []
        self.counter_rates_per_s: Dict[str, float] = {}

    @property
    def power_w(self) -> float:
        return float(np.mean(self.power_samples))

    @property
    def voltage_v(self) -> float:
        return float(np.mean(self.voltage_samples))

    def rate_per_cycle(self, counter: str) -> float:
        return self.counter_rates_per_s[counter] / (self.frequency_mhz * 1e6)


def _handle(
    mode: str, issues: Optional[List[str]], message: str
) -> None:
    if mode == "raise":
        raise ValueError(message)
    if mode == "record" and issues is not None:
        issues.append(message)


def merge_runs(
    profiles: Sequence[PhaseProfile],
    *,
    on_phase_mismatch: str = "raise",
    on_counter_disagreement: str = "raise",
    issues: Optional[List[str]] = None,
) -> List[MergedPhase]:
    """Merge phase profiles from all runs of one or more experiments.

    Fixed counters appear in every run; their rate is averaged across
    runs.  Programmable counters appear once (their scheduled run).

    Consistency handling (each mode is one of ``"raise"``/``"record"``/
    ``"ignore"``; recorded messages are appended to ``issues``):

    * ``on_phase_mismatch`` — runs of the same experiment carry
      different phase sets, so some merged phases are missing that
      run's counter contribution;
    * ``on_counter_disagreement`` — the same counter recorded twice
      with wildly inconsistent values (> 25 % spread) — broken
      campaign, not run-to-run noise.  In non-raise modes the mean is
      kept.
    """
    for name, mode in (
        ("on_phase_mismatch", on_phase_mismatch),
        ("on_counter_disagreement", on_counter_disagreement),
    ):
        if mode not in _MODES:
            raise ValueError(f"{name} must be one of {_MODES}, got {mode!r}")

    buckets: Dict[tuple, MergedPhase] = {}
    counter_acc: Dict[tuple, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    # experiment key -> run_index -> phase names seen in that run
    run_phases: Dict[tuple, Dict[int, Set[str]]] = defaultdict(
        lambda: defaultdict(set)
    )
    for p in profiles:
        key = (p.workload, p.frequency_mhz, p.threads, p.phase_name)
        run_phases[(p.workload, p.frequency_mhz, p.threads)][p.run_index].add(
            p.phase_name
        )
        if key not in buckets:
            buckets[key] = MergedPhase(
                workload=p.workload,
                suite=p.suite,
                frequency_mhz=p.frequency_mhz,
                threads=p.threads,
                phase_name=p.phase_name,
                active_threads=p.active_threads,
            )
        merged = buckets[key]
        if p.active_threads != merged.active_threads:
            raise ValueError(
                f"{key}: inconsistent active thread counts across runs "
                f"({p.active_threads} vs {merged.active_threads})"
            )
        merged.power_samples.append(p.power_w)
        merged.voltage_samples.append(p.voltage_v)
        for counter, rate in p.counter_rates_per_s.items():
            counter_acc[key][counter].append(rate)

    if on_phase_mismatch != "ignore":
        for exp_key, by_run in sorted(run_phases.items()):
            if len(by_run) < 2:
                continue
            union: Set[str] = set().union(*by_run.values())
            gaps = []
            for run_index in sorted(by_run):
                missing = union - by_run[run_index]
                if missing:
                    gaps.append(
                        f"run {run_index} missing {sorted(missing)}"
                    )
            if gaps:
                workload, frequency_mhz, threads = exp_key
                _handle(
                    on_phase_mismatch,
                    issues,
                    f"experiment {workload}@{frequency_mhz}MHz/{threads}t: "
                    f"phase sets differ across runs ({'; '.join(gaps)}) — "
                    f"affected phases lack those runs' counter rates",
                )

    for key, merged in buckets.items():
        for counter, values in counter_acc[key].items():
            if len(values) == 1:
                # Mean of one sample is the sample: programmable
                # counters appear in exactly one event-set run, and
                # skipping the ndarray round-trip here removes the
                # dominant per-counter cost of a merge.
                merged.counter_rates_per_s[counter] = values[0]
                continue
            arr = np.asarray(values)
            mean = float(arr.mean())
            if mean > 0:
                spread = float(arr.max() - arr.min()) / mean
                if spread > 0.25:
                    _handle(
                        on_counter_disagreement,
                        issues,
                        f"{key}: counter {counter} disagrees across runs "
                        f"by {spread:.0%} — inconsistent campaign",
                    )
            merged.counter_rates_per_s[counter] = mean
    return list(buckets.values())


def counter_coverage(
    merged: Sequence[MergedPhase],
    counter_names: Sequence[str] = COUNTER_NAMES,
) -> Dict[str, float]:
    """Fraction of merged phases carrying each counter.

    1.0 everywhere for an intact campaign; a quarantined counter-group
    run shows up as a block of counters below 1.0.  This is the
    explicit coverage map graceful degradation decides on, instead of
    an exception.
    """
    names = tuple(counter_names)
    if not merged:
        return {c: 0.0 for c in names}
    n = len(merged)
    return {
        c: sum(1 for m in merged if c in m.counter_rates_per_s) / n
        for c in names
    }


def build_dataset(
    merged: Sequence[MergedPhase],
    *,
    require_complete: bool = True,
    counter_names: Optional[Sequence[str]] = None,
) -> PowerDataset:
    """Assemble the regression dataset from merged phases.

    ``counter_names`` selects the dataset columns (default: all 54
    paper counters) — the degradation path passes the covered subset.
    With ``require_complete`` (default) every phase must carry all
    selected counters; otherwise incomplete phases are dropped.
    """
    names: Tuple[str, ...] = (
        tuple(counter_names) if counter_names is not None else COUNTER_NAMES
    )
    if not names:
        raise ValueError("need at least one counter column")
    rows = []
    for m in merged:
        missing = [c for c in names if c not in m.counter_rates_per_s]
        if missing:
            if require_complete:
                raise ValueError(
                    f"phase {m.phase_name!r} of {m.workload!r} is missing "
                    f"{len(missing)} counters (e.g. {missing[:3]})"
                )
            continue
        rows.append(m)
    if not rows:
        raise ValueError("no complete phases to build a dataset from")
    counters = np.array([[m.rate_per_cycle(c) for c in names] for m in rows])
    return PowerDataset(
        counters=counters,
        power_w=np.array([m.power_w for m in rows]),
        voltage_v=np.array([m.voltage_v for m in rows]),
        frequency_mhz=np.array([m.frequency_mhz for m in rows], dtype=np.float64),
        threads=np.array([m.threads for m in rows], dtype=np.int64),
        workloads=tuple(m.workload for m in rows),
        suites=tuple(m.suite for m in rows),
        phase_names=tuple(m.phase_name for m in rows),
        counter_names=names,
    )
