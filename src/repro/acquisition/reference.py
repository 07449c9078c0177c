"""Scalar reference oracle of the acquisition chain.

The pipeline acquires through the experiment kernel
(:meth:`~repro.acquisition.campaign.Campaign.execute_experiment`).  This
module keeps the one-cell-at-a-time chain the kernel replaced, verbatim,
as the oracle tests and the acquisition benchmark compare it against bit
for bit: per-phase ``evaluate``/``compute_power`` (:func:`execute_reference`),
one ``derive_rng`` stream and sample grid per plugin and phase
(:func:`trace_reference`), one ``window_mean`` per stream and phase
(:func:`profile_reference`), and the cell loop with a fresh tracer per
cell (:func:`collect_reference`, :func:`acquire_reference`).

No pipeline module imports it (``tests/test_import_graph.py``).  Fault
injection and resilient campaigns are not replayed here; golden digests
pin them (``tests/acquisition/test_acquisition_golden.py``).
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.acquisition.campaign import CampaignPlan
from repro.acquisition.dataset import PowerDataset
from repro.acquisition.postprocess import build_dataset, merge_runs
from repro.hardware.counters import COUNTER_NAMES
from repro.hardware.microarch import MicroarchState, evaluate
from repro.hardware.platform import (
    _EXEMPT_IDX,
    PhaseExecution,
    Platform,
    RunExecution,
)
from repro.hardware.pmu import schedule_events
from repro.hardware.power import PowerBreakdown, compute_power
from repro.seeding import derive_rng
from repro.tracing.otf2 import MetricStream, Trace
from repro.tracing.phases import PhaseProfile
from repro.tracing.plugins import (
    ApapiPlugin,
    MultiplexedApapiPlugin,
    PowerPlugin,
    VoltagePlugin,
)
from repro.tracing.scorep import ScorePTracer
from repro.workloads.base import PhaseSpec, Workload

__all__ = [
    "execute_reference",
    "trace_reference",
    "profile_reference",
    "collect_reference",
    "acquire_reference",
]


#: Jitter-affected counters: all but the cycle counters.
_JITTER_MASK = np.ones(len(COUNTER_NAMES), dtype=bool)
_JITTER_MASK[_EXEMPT_IDX] = False


def _apply_jitter(state: MicroarchState, jitter: float) -> MicroarchState:
    """Coherent run-to-run activity jitter (cycle counters exempt)."""
    rates = state.counter_rates.copy()
    rates[_JITTER_MASK] *= jitter
    return MicroarchState(counter_rates=rates, hidden=state.hidden)


def execute_reference(
    platform: Platform,
    workload: Workload,
    frequency_mhz: int,
    threads: int,
    *,
    run_index: int = 0,
    phases: Optional[Sequence[PhaseSpec]] = None,
) -> RunExecution:
    """Scalar :meth:`~repro.hardware.platform.Platform.execute`: every
    phase through ``evaluate`` + ``compute_power``, no memo."""
    workload.validate_threads(threads, platform.cfg.total_cores)
    op = platform.cfg.curve.operating_point(frequency_mhz)
    specs = tuple(phases) if phases is not None else tuple(workload.phases(threads))
    rng = derive_rng(
        platform.seed, "run", workload.name, frequency_mhz, threads, run_index
    )
    jitter = 1.0 + float(rng.normal(0.0, platform.run_jitter_sigma))
    power_jitter = (
        1.0
        + 0.6 * (jitter - 1.0)
        + float(rng.normal(0.0, platform.power_jitter_sigma))
    )
    power_offset = float(rng.normal(0.0, platform.power_offset_sigma_w))
    # Run-level absolute power offset: OS housekeeping, fan state,
    # VR operating-point differences.  Dominates *relative* error at
    # the low end of the power range.
    per_socket_offset = power_offset / platform.cfg.sockets

    executions: List[PhaseExecution] = []
    states = [
        _apply_jitter(
            evaluate(spec.characterization, op, spec.active_threads, platform.cfg),
            jitter,
        )
        for spec in specs
    ]
    t = 0.0
    for spec, state in zip(specs, states):
        breakdown = compute_power(state.hidden, op, platform.cfg, platform.power_params)
        breakdown = PowerBreakdown(
            per_socket_w=tuple(
                max(p * power_jitter + per_socket_offset, 0.0)
                for p in breakdown.per_socket_w
            ),
            dynamic_core_w=breakdown.dynamic_core_w,
            uncore_w=breakdown.uncore_w,
            static_w=breakdown.static_w,
            board_w=breakdown.board_w,
            temperature_c=breakdown.temperature_c,
        )
        true_v = platform.voltage.true_voltage(op, spec.active_threads)
        executions.append(
            PhaseExecution(
                phase=spec,
                start_s=t,
                end_s=t + spec.duration_s,
                state=state,
                power_breakdown=breakdown,
                true_voltage_v=true_v,
            )
        )
        t += spec.duration_s

    return RunExecution(
        workload_name=workload.name,
        suite=workload.suite,
        op=op,
        threads=threads,
        run_index=run_index,
        phases=tuple(executions),
        seed=platform.seed,
    )


def trace_reference(tracer: ScorePTracer, run: RunExecution) -> Trace:
    """Scalar :meth:`~repro.tracing.scorep.ScorePTracer.trace` (fault
    injection aside): each plugin's ``sample_phase_reference`` — the
    original event-at-a-time loops — on per-phase grids."""
    trace = Trace(
        meta={
            "workload": run.workload_name,
            "suite": run.suite,
            "frequency_mhz": run.op.frequency_mhz,
            "threads": run.threads,
            "run_index": run.run_index,
        }
    )
    dt = tracer.sampling_interval_s
    # Per-metric accumulators across phases.
    defs = tracer._defs
    times_acc: dict = {name: [] for name in defs}
    values_acc: dict = {name: [] for name in defs}

    for phase in run.phases:
        trace.record_enter(
            phase.phase.name, phase.start_s, phase.phase.active_threads
        )
        # Sample grid within the phase: first tick one interval in.
        n = max(int(np.floor(phase.duration_s / dt)), 1)
        sample_times = phase.start_s + dt * np.arange(1, n + 1)
        sample_times = sample_times[sample_times <= phase.end_s + 1e-9]
        if sample_times.size == 0:
            sample_times = np.array([phase.end_s])
        for plugin in tracer.plugins:
            rng = derive_rng(
                tracer.platform.seed,
                "plugin",
                type(plugin).__name__,
                run.workload_name,
                run.op.frequency_mhz,
                run.threads,
                run.run_index,
                phase.phase.name,
            )
            sampled = plugin.sample_phase_reference(
                run, phase, sample_times, dt, rng
            )
            for name, vals in sampled.items():
                if name not in defs:
                    raise ValueError(
                        f"plugin produced undeclared metric {name!r}"
                    )
                times_acc[name].append(sample_times)
                values_acc[name].append(np.asarray(vals, dtype=np.float64))
        trace.record_leave(
            phase.phase.name, phase.end_s, phase.phase.active_threads
        )

    for name, mdef in defs.items():
        times = (
            np.concatenate(times_acc[name]) if times_acc[name] else np.array([])
        )
        values = (
            np.concatenate(values_acc[name]) if values_acc[name] else np.array([])
        )
        trace.add_metric_stream(
            MetricStream(definition=mdef, times_s=times, values=values)
        )
    return trace


def profile_reference(
    trace: Trace, *, min_duration_s: float = 0.5
) -> List[PhaseProfile]:
    """Scalar :func:`~repro.tracing.phases.profile_trace`: one
    ``window_mean`` call per (stream, phase)."""
    meta = trace.meta
    for key in ("workload", "suite", "frequency_mhz", "threads", "run_index"):
        if key not in meta:
            raise ValueError(f"trace metadata missing {key!r}")
    power_metric = trace.metrics.get(PowerPlugin.METRIC)
    voltage_metric = trace.metrics.get(VoltagePlugin.METRIC)
    if power_metric is None or voltage_metric is None:
        raise ValueError("trace lacks power/voltage metric streams")

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


def collect_reference(platform: Platform, plan: CampaignPlan) -> List[PhaseProfile]:
    """Scalar :meth:`~repro.acquisition.campaign.Campaign.collect_profiles`:
    every cell executed, traced (fresh tracer and plugins per cell) and
    profiled on its own, in cell order."""
    if plan.multiplexing == "time-division":
        event_sets: List[Any] = [None]
    else:
        event_sets = list(schedule_events(plan.events, platform.cfg))
    profiles: List[PhaseProfile] = []
    for workload, frequency_mhz, threads in plan.experiments():
        for run_index, event_set in enumerate(event_sets):
            if event_set is None:
                counter_plugin: Any = MultiplexedApapiPlugin(platform, plan.events)
            else:
                counter_plugin = ApapiPlugin(platform, event_set)
            tracer = ScorePTracer(
                platform,
                [PowerPlugin(platform), VoltagePlugin(platform), counter_plugin],
                sampling_interval_s=plan.sampling_interval_s,
            )
            run = execute_reference(
                platform, workload, frequency_mhz, threads, run_index=run_index
            )
            profiles.extend(profile_reference(trace_reference(tracer, run)))
    return profiles


def acquire_reference(platform: Platform, plan: CampaignPlan) -> PowerDataset:
    """Scalar :meth:`~repro.acquisition.campaign.Campaign.run`: the
    profiles of :func:`collect_reference`, merged and assembled."""
    return build_dataset(
        merge_runs(collect_reference(platform, plan)),
        require_complete=True,
        counter_names=plan.events,
    )
