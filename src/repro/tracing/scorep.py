"""Score-P-like tracer: execute a run and record an instrumented trace.

Mirrors the paper's acquisition path: the application (workload) runs
with compiler instrumentation (phase enter/leave events) while the
configured metric plugins asynchronously add power, voltage and PAPI
samples to the trace (Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.fastsim import fastsim_enabled
from repro.hardware.platform import Platform, RunBatch, RunExecution
from repro.hardware.pmu import EventSet
from repro.seeding import derive_rng, rng_from_state_words
from repro.tracing.otf2 import MetricDef, MetricStream, Trace
from repro.tracing.plugins import ApapiPlugin, MetricPlugin, PowerPlugin, VoltagePlugin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults → tracing)
    from repro.faults.injector import FaultInjector

__all__ = [
    "ScorePTracer",
    "RunSamples",
    "record_runs",
    "trace_run",
    "trace_multiplexed_run",
]

#: Shared sample-grid cache of the fast recording path, keyed by the
#: run's phase timings and the sampling interval.  Grids are a pure
#: function of the key, and the cached arrays are read-only, so every
#: event-set run of an experiment samples on one times array.
_GRID_CACHE: dict = {}
_GRID_CACHE_CAPACITY = 512


def _sample_grids(bounds: Tuple[Tuple[float, float], ...], dt: float):
    """Per-phase sample grids and their concatenation, cached.

    Sample times are a pure function of the phase ``(start, end)``
    bounds and the sampling interval — identical across every
    event-set run of an experiment — so the arrays are computed once,
    frozen, and shared between batches and traces.  (Trace consumers
    never write times in place; the fault injector copies before
    corrupting.)
    """
    key = (bounds, dt)
    cached = _GRID_CACHE.get(key)
    if cached is not None:
        return cached
    grids = []
    for start_s, end_s in bounds:
        n = max(int(np.floor((end_s - start_s) / dt)), 1)
        sample_times = start_s + dt * np.arange(1, n + 1)
        sample_times = sample_times[sample_times <= end_s + 1e-9]
        if sample_times.size == 0:
            sample_times = np.array([end_s])
        sample_times.setflags(write=False)
        grids.append(sample_times)
    shared_times = np.concatenate(grids) if grids else np.array([])
    shared_times.setflags(write=False)
    if len(_GRID_CACHE) >= _GRID_CACHE_CAPACITY:
        _GRID_CACHE.pop(next(iter(_GRID_CACHE)))
    _GRID_CACHE[key] = (tuple(grids), shared_times)
    return _GRID_CACHE[key]


@dataclass(frozen=True)
class RunSamples:
    """Every metric sample of a batch of runs, on one shared grid.

    ``values`` holds one row per (run, metric) and one column per
    sample time in ``times``; ``layout[i]`` lists run ``i``'s
    ``(definition, row)`` pairs in trace metric order.  Phase-profile
    extraction reads the block directly
    (:func:`repro.tracing.phases.profile_runs`); :meth:`trace` builds
    the :class:`~repro.tracing.otf2.Trace` of one run for consumers
    that need one.
    """

    batch: RunBatch
    times: np.ndarray
    values: np.ndarray
    layout: Tuple[Tuple[Tuple[MetricDef, int], ...], ...]

    def trace(self, i: int) -> Trace:
        """The trace of run ``i``; its streams view rows of ``values``
        and share the one ``times`` array."""
        batch = self.batch
        trace = Trace(
            meta={
                "workload": batch.workload_name,
                "suite": batch.suite,
                "frequency_mhz": batch.op.frequency_mhz,
                "threads": batch.threads,
                "run_index": batch.run_indices[i],
            }
        )
        for spec, (start_s, end_s) in zip(batch.specs, batch.bounds):
            trace.record_enter(spec.name, start_s, spec.active_threads)
            trace.record_leave(spec.name, end_s, spec.active_threads)
        # Metric names are unique per tracer (checked in ScorePTracer),
        # so streams go straight into trace.metrics in layout order.
        metrics = trace.metrics
        for mdef, row in self.layout[i]:
            metrics[mdef.name] = MetricStream.trusted(
                mdef, self.times, self.values[row]
            )
        return trace


def record_runs(batch: RunBatch, tracers: Sequence["ScorePTracer"]) -> RunSamples:
    """Record every run of ``batch`` in one pass: the experiment
    kernel's tracing stage.

    ``tracers[i]`` records run ``i``.  All tracers must carry the same
    plugin types in the same order and one sampling interval (the
    event-set runs of an experiment differ only in the counter plugin's
    event set).  Every plugin position is sampled for all runs at once
    through its class's
    :meth:`~repro.tracing.plugins.MetricPlugin.sample_runs`, drawing
    from the per-(plugin, run, phase) generators built on the batch's
    pre-expanded words — the streams the scalar path derives with
    ``derive_rng``, so both paths record identical values.
    """
    if len(tracers) != len(batch.run_indices):
        raise ValueError(
            f"{len(tracers)} tracers for {len(batch.run_indices)} runs"
        )
    heads = tracers[0]._plugin_names
    intervals = {tracer.sampling_interval_s for tracer in tracers}
    if len(intervals) != 1 or any(t._plugin_names != heads for t in tracers):
        raise ValueError("tracers of one batch must share plugin types and interval")
    (dt,) = intervals
    if batch.words.phase_names != tuple(spec.name for spec in batch.specs):
        raise ValueError("batch RNG words were expanded for other phases")
    grids, times = _sample_grids(batch.bounds, dt)
    n_rows = sum(
        len(defs) for tracer in tracers for defs in tracer._plugin_defs
    )
    values = np.empty((n_rows, times.size))
    layout: List[List[Tuple[MetricDef, int]]] = [[] for _ in tracers]
    row = 0
    for j, head in enumerate(heads):
        words = batch.words.streams.get(head)
        if words is None:
            raise ValueError(f"batch carries no RNG words for plugin {head!r}")
        rngs = [[rng_from_state_words(w) for w in run_words] for run_words in words]
        start = row
        for i, tracer in enumerate(tracers):
            for mdef in tracer._plugin_defs[j]:
                layout[i].append((mdef, row))
                row += 1
        plugins = [tracer.plugins[j] for tracer in tracers]
        type(plugins[0]).sample_runs(
            plugins, batch, grids, dt, rngs, values[start:row]
        )
    return RunSamples(
        batch=batch,
        times=times,
        values=values,
        layout=tuple(tuple(entries) for entries in layout),
    )


class ScorePTracer:
    """Traces platform executions with a set of metric plugins."""

    def __init__(
        self,
        platform: Platform,
        plugins: Sequence[MetricPlugin],
        *,
        sampling_interval_s: float = 0.1,
        fault_injector: Optional["FaultInjector"] = None,
        fast: Optional[bool] = None,
    ) -> None:
        if sampling_interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        if not plugins:
            raise ValueError("need at least one metric plugin")
        self.platform = platform
        self.plugins = list(plugins)
        self.sampling_interval_s = sampling_interval_s
        self.fault_injector = fault_injector
        self.fast = fast
        self._defs = {}
        self._plugin_defs = []
        for plugin in self.plugins:
            defs = tuple(plugin.metric_defs())
            for mdef in defs:
                if mdef.name in self._defs:
                    raise ValueError(f"metric {mdef.name!r} provided twice")
                self._defs[mdef.name] = mdef
            self._plugin_defs.append(defs)
        # Each plugin's RNG key head: its type name.
        self._plugin_names = tuple(type(plugin).__name__ for plugin in self.plugins)

    def trace(self, run: RunExecution, *, attempt: int = 0) -> Trace:
        """Record the trace of one executed run.

        Sample times form a run-global grid (plugins sample on their
        own clock, not aligned to phases), as Score-P async plugins do.

        With a ``fault_injector`` attached, the finished trace passes
        through :meth:`~repro.faults.injector.FaultInjector.corrupt_trace`
        keyed by ``attempt`` — the measurement infrastructure, not the
        system under test, is what glitches.

        Two bit-identical recording paths exist: the scalar reference
        below (``REPRO_FASTSIM=0``) and a batch of one through
        :func:`record_runs`, the tracing stage of the experiment kernel.
        """
        if fastsim_enabled(self.fast):
            words = self.platform.expand_rng_words(
                run.workload_name,
                run.op.frequency_mhz,
                run.threads,
                (run.run_index,),
                tuple(pe.phase.name for pe in run.phases),
                self._plugin_names,
            )
            samples = record_runs(RunBatch.of(run, words), [self])
            return self.trace_recorded(samples, 0, attempt=attempt)
        return self._corrupt(self._trace_scalar(run), attempt)

    def trace_recorded(
        self, samples: RunSamples, i: int, *, attempt: int = 0
    ) -> Trace:
        """The trace of run ``i`` of a :func:`record_runs` pass in which
        this tracer recorded that run, fault injection included.

        A run's samples are a pure function of the run, so one
        recording serves every retry attempt: the injector's
        corruptions are keyed per attempt and applied to a copy.
        """
        return self._corrupt(samples.trace(i), attempt)

    def _corrupt(self, trace: Trace, attempt: int) -> Trace:
        if self.fault_injector is not None:
            trace = self.fault_injector.corrupt_trace(trace, attempt=attempt)
        return trace

    def _trace_scalar(self, run: RunExecution) -> Trace:
        """Scalar reference recording path.

        Routes sampling through each plugin's
        ``sample_phase_reference`` — the original event-at-a-time
        loops, kept verbatim — so ``REPRO_FASTSIM=0`` replays the
        pre-vectorization acquisition implementation end to end.
        """
        trace = Trace(
            meta={
                "workload": run.workload_name,
                "suite": run.suite,
                "frequency_mhz": run.op.frequency_mhz,
                "threads": run.threads,
                "run_index": run.run_index,
            }
        )
        dt = self.sampling_interval_s
        # Per-metric accumulators across phases.
        defs = self._defs
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
            for plugin in self.plugins:
                rng = derive_rng(
                    self.platform.seed,
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


def trace_run(
    platform: Platform,
    run: RunExecution,
    event_set: EventSet,
    *,
    sampling_interval_s: float = 0.1,
    fault_injector: Optional["FaultInjector"] = None,
    attempt: int = 0,
    fast: Optional[bool] = None,
) -> Trace:
    """Convenience: trace a run with the paper's three plugins."""
    tracer = ScorePTracer(
        platform,
        [
            PowerPlugin(platform),
            VoltagePlugin(platform),
            ApapiPlugin(platform, event_set),
        ],
        sampling_interval_s=sampling_interval_s,
        fault_injector=fault_injector,
        fast=fast,
    )
    return tracer.trace(run, attempt=attempt)


def trace_multiplexed_run(
    platform: Platform,
    run: RunExecution,
    events: Sequence[str],
    *,
    sampling_interval_s: float = 0.1,
    fault_injector: Optional["FaultInjector"] = None,
    attempt: int = 0,
    fast: Optional[bool] = None,
) -> Trace:
    """Trace a run with time-division-multiplexed counter sampling:
    all requested events from a single run (see
    :class:`~repro.tracing.plugins.MultiplexedApapiPlugin`)."""
    from repro.tracing.plugins import MultiplexedApapiPlugin

    tracer = ScorePTracer(
        platform,
        [
            PowerPlugin(platform),
            VoltagePlugin(platform),
            MultiplexedApapiPlugin(platform, events),
        ],
        sampling_interval_s=sampling_interval_s,
        fault_injector=fault_injector,
        fast=fast,
    )
    return tracer.trace(run, attempt=attempt)
