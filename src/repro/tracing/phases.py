"""Phase-profile generation from traces.

"The resulting phase profile contains the start and end time, the
average over time for each async metric, the average value of the
recorded PMC values, the number of active threads, and the
identification of the application" (Section III-A).

Two generators existed in the original pipeline — a HAEC-SIM module
for the roco2 kernel traces and "a custom python OTF2 post-processing
tool" for standardized benchmarks.  Both reduce to the same windowed
aggregation; we provide both entry points with the validation each
tool performed (HAEC-SIM insisted on homogeneous single-kernel phases),
sharing one engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.hardware.fastsim import fastsim_enabled
from repro.tracing.otf2 import Trace
from repro.tracing.plugins import ApapiPlugin, PowerPlugin, VoltagePlugin
from repro.tracing.scorep import RunSamples

__all__ = [
    "PhaseProfile",
    "window_means",
    "profile_runs",
    "profile_trace",
    "haecsim_profiles",
    "postprocess_profiles",
]


@dataclass(frozen=True)
class PhaseProfile:
    """Aggregated view of one phase of one traced run."""

    workload: str
    suite: str
    frequency_mhz: int
    threads: int
    run_index: int
    phase_name: str
    start_s: float
    end_s: float
    active_threads: int
    power_w: float
    voltage_v: float
    counter_rates_per_s: Dict[str, float] = field(default_factory=dict)
    """Mean recorded PMC rates in events/second, keyed by counter name."""

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def rate_per_cycle(self, counter: str) -> float:
        """Event rate per cpu cycle — the E_n of Equation 1."""
        return self.counter_rates_per_s[counter] / (self.frequency_mhz * 1e6)




def profile_trace(trace: Trace, *, min_duration_s: float = 0.5) -> List[PhaseProfile]:
    """Phase profiles of every sufficiently long region of a trace.

    Phases shorter than ``min_duration_s`` carry too few async samples
    for stable averages and are dropped, as the original tooling did.
    """
    meta = trace.meta
    for key in ("workload", "suite", "frequency_mhz", "threads", "run_index"):
        if key not in meta:
            raise ValueError(f"trace metadata missing {key!r}")
    power_metric = trace.metrics.get(PowerPlugin.METRIC)
    voltage_metric = trace.metrics.get(VoltagePlugin.METRIC)
    if power_metric is None or voltage_metric is None:
        raise ValueError("trace lacks power/voltage metric streams")

    # The windowed-extraction fast path rides the fastsim switch:
    # under REPRO_FASTSIM=0 extraction replays the original per-stream
    # window_mean calls, so the escape hatch covers the whole pipeline.
    if fastsim_enabled(None):
        intervals = [
            interval
            for interval in trace.phase_intervals()
            if interval[2] - interval[1] >= min_duration_s
        ]
        windows = [(start, end) for _, start, end, _ in intervals]
        # Streams sharing one times array (identity, as the fast tracer
        # records them) share one window_means pass; streams with their
        # own grid — fault-truncated copies — get their own.
        groups: Dict[int, Tuple[np.ndarray, List[str]]] = {}
        for name, stream in trace.metrics.items():
            groups.setdefault(id(stream.times_s), (stream.times_s, []))[1].append(name)
        means: Dict[str, List[float]] = {}
        for times, names in groups.values():
            stacked = np.stack([trace.metrics[name].values for name in names])
            means.update(zip(names, window_means(stacked, times, windows).tolist()))
        prefix = ApapiPlugin.PREFIX
        return _assemble_profiles(
            str(meta["workload"]),
            str(meta["suite"]),
            int(meta["frequency_mhz"]),
            int(meta["threads"]),
            int(meta["run_index"]),
            intervals,
            means[PowerPlugin.METRIC],
            means[VoltagePlugin.METRIC],
            [
                (name[len(prefix) :], means[name])
                for name in trace.metrics
                if name.startswith(prefix)
            ],
        )

    papi_names = [
        name
        for name in trace.metrics
        if name.startswith(ApapiPlugin.PREFIX)
    ]
    out: List[PhaseProfile] = []
    for region, start, end, active in trace.phase_intervals():
        if end - start < min_duration_s:
            continue
        p = power_metric.window_mean(start, end)
        v = voltage_metric.window_mean(start, end)
        if math.isnan(p) or math.isnan(v):
            continue
        rates = {}
        for name in papi_names:
            mean = trace.metrics[name].window_mean(start, end)
            if not math.isnan(mean):
                rates[name[len(ApapiPlugin.PREFIX) :]] = mean
        out.append(
            PhaseProfile(
                workload=str(meta["workload"]),
                suite=str(meta["suite"]),
                frequency_mhz=int(meta["frequency_mhz"]),
                threads=int(meta["threads"]),
                run_index=int(meta["run_index"]),
                phase_name=region,
                start_s=start,
                end_s=end,
                active_threads=active,
                power_w=p,
                voltage_v=v,
                counter_rates_per_s=rates,
            )
        )
    return out


def window_means(
    values: np.ndarray,
    times: np.ndarray,
    windows: Sequence[Tuple[float, float]],
) -> np.ndarray:
    """Mean of every row of ``values`` over every ``[start, end)`` window.

    ``values`` is ``(rows, samples)`` sampled at ``times``; returns
    ``(rows, windows)``, NaN where a window holds no sample.  One
    row-wise ``np.add.reduce`` per window: along a contiguous row it is
    ``ndarray.mean``'s own pairwise summation, so every entry equals
    the per-stream :meth:`~repro.tracing.otf2.MetricStream.window_mean`
    bit for bit.
    """
    out = np.empty((values.shape[0], len(windows)))
    for k, (start, end) in enumerate(windows):
        if end < start:
            raise ValueError("window end before start")
        lo = int(np.searchsorted(times, start, side="left"))
        hi = int(np.searchsorted(times, end, side="left"))
        if hi > lo:
            out[:, k] = np.add.reduce(values[:, lo:hi], axis=1) / (hi - lo)
        else:
            out[:, k] = np.nan
    return out


def _assemble_profiles(
    workload: str,
    suite: str,
    frequency_mhz: int,
    threads: int,
    run_index: int,
    intervals: Sequence[Tuple[str, float, float, int]],
    power_w: Sequence[float],
    voltage_v: Sequence[float],
    counters: Sequence[Tuple[str, Sequence[float]]],
) -> List[PhaseProfile]:
    """Profiles of one run from its per-interval window means.

    Intervals whose power or voltage mean is NaN are dropped, as are
    NaN counter means (``x != x`` is ``isnan`` for floats).
    """
    out: List[PhaseProfile] = []
    for k, (region, start, end, active) in enumerate(intervals):
        p = power_w[k]
        v = voltage_v[k]
        if p != p or v != v:
            continue
        out.append(
            PhaseProfile(
                workload=workload,
                suite=suite,
                frequency_mhz=frequency_mhz,
                threads=threads,
                run_index=run_index,
                phase_name=region,
                start_s=start,
                end_s=end,
                active_threads=active,
                power_w=p,
                voltage_v=v,
                counter_rates_per_s={
                    counter: means[k]
                    for counter, means in counters
                    if means[k] == means[k]
                },
            )
        )
    return out


def profile_runs(
    samples: RunSamples, *, min_duration_s: float = 0.5
) -> List[List[PhaseProfile]]:
    """Phase profiles of every run of a batch: the experiment kernel's
    extraction stage, one :func:`window_means` pass over the whole
    sample block.

    Equals :func:`profile_trace` on each run's trace.  The batch's
    phases come from one run skeleton, so they are flat and never
    overlap — the invariant :func:`haecsim_profiles` checks on traces.
    """
    batch = samples.batch
    intervals = [
        (spec.name, start, end, spec.active_threads)
        for spec, (start, end) in zip(batch.specs, batch.bounds)
        if end - start >= min_duration_s
    ]
    means = window_means(
        samples.values, samples.times, [(start, end) for _, start, end, _ in intervals]
    ).tolist()
    prefix = ApapiPlugin.PREFIX
    frequency_mhz = int(batch.op.frequency_mhz)
    out: List[List[PhaseProfile]] = []
    for i, run_index in enumerate(batch.run_indices):
        rows = {mdef.name: row for mdef, row in samples.layout[i]}
        power_row = rows.get(PowerPlugin.METRIC)
        voltage_row = rows.get(VoltagePlugin.METRIC)
        if power_row is None or voltage_row is None:
            raise ValueError("trace lacks power/voltage metric streams")
        out.append(
            _assemble_profiles(
                batch.workload_name,
                batch.suite,
                frequency_mhz,
                batch.threads,
                run_index,
                intervals,
                means[power_row],
                means[voltage_row],
                [
                    (name[len(prefix) :], means[row])
                    for name, row in rows.items()
                    if name.startswith(prefix)
                ],
            )
        )
    return out


def haecsim_profiles(trace: Trace) -> List[PhaseProfile]:
    """HAEC-SIM-style profiles for roco2 kernel traces.

    Validates the roco2 invariant the HAEC-SIM module relied on:
    homogeneous kernels, i.e. a flat sequence of non-overlapping
    phases with constant thread count within each phase.
    """
    if trace.meta.get("suite") not in ("roco2", "synthetic"):
        raise ValueError(
            "haecsim_profiles is only applicable to synthetic kernel traces; "
            f"got suite={trace.meta.get('suite')!r}"
        )
    intervals = trace.phase_intervals()
    ends = [e for (_, _, e, _) in intervals]
    starts = [s for (_, s, _, _) in intervals]
    for prev_end, next_start in zip(ends, starts[1:]):
        if next_start < prev_end - 1e-9:
            raise ValueError("roco2 phases must not overlap")
    return profile_trace(trace)


def postprocess_profiles(trace: Trace) -> List[PhaseProfile]:
    """Custom OTF2 post-processing for standardized benchmark traces."""
    return profile_trace(trace)
