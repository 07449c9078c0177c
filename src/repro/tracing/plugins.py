"""Score-P metric plugins.

"A metric plugin is an external dynamic linked library, which
implements the Score-P metric plugin interface" (Section III-A).  Here
a plugin is a Python object implementing :class:`MetricPlugin`: it
declares metric definitions and produces sampled values for a phase
execution.  The three plugins of the paper are modelled:

* :class:`PowerPlugin` — ``scorep_ni``: node power from the calibrated
  12 V sensors (per-socket channels summed).
* :class:`VoltagePlugin` — ``scorep_x86_adapt``: per-core voltage
  telemetry, reported as the mean over active cores.
* :class:`ApapiPlugin` — ``scorep_plugin_apapi``: asynchronous PAPI
  counter sampling for the currently programmed event set; each sample
  is the counter increment over the sampling interval, normalized to
  events/second (the post-processing converts to events per cycle).

Each plugin offers two bit-identical sampling entry points:

* ``sample_phase_reference`` — the original event-at-a-time loops,
  kept verbatim as the auditable reference (the ``REPRO_FASTSIM=0``
  recording path); ``sample_phase``, one phase on its own, is the same
  method.
* ``sample_runs`` — a batch of runs of one experiment
  (:class:`~repro.hardware.platform.RunBatch`), one plugin per run:
  the per-(run, phase) RNG draws (the seeding contract) followed by
  one arithmetic pass over the stacked ``(rows, samples)`` block.  A
  single standard-normal block per stream replaces the per-event /
  per-channel ``normal()`` calls: the C-order fill consumes the
  ziggurat stream in the same order, ``loc + (0.0 + sigma*z)`` is
  exactly how ``Generator.normal`` assembles each draw, and
  elementwise ufuncs are batch-size invariant, so values match the
  loops bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.hardware.platform import PhaseExecution, Platform, RunBatch, RunExecution
from repro.hardware.pmu import EventSet
from repro.tracing.otf2 import MetricDef

#: Per run, per phase: the generator of that (plugin, run, phase) stream.
StreamRngs = Sequence[Sequence[np.random.Generator]]

__all__ = ["MetricPlugin", "PowerPlugin", "VoltagePlugin", "ApapiPlugin"]


class MetricPlugin:
    """Interface every metric plugin implements."""

    def metric_defs(self) -> List[MetricDef]:
        """Metric definitions this plugin contributes to the trace."""
        raise NotImplementedError

    def sample_phase(
        self,
        run: RunExecution,
        phase: PhaseExecution,
        sample_times: np.ndarray,
        interval_s: float,
        rng: np.random.Generator,
    ) -> Dict[str, np.ndarray]:
        """Values for each metric at the given absolute sample times."""
        raise NotImplementedError

    def sample_phase_reference(
        self,
        run: RunExecution,
        phase: PhaseExecution,
        sample_times: np.ndarray,
        interval_s: float,
        rng: np.random.Generator,
    ) -> Dict[str, np.ndarray]:
        """Scalar reference sampling (``REPRO_FASTSIM=0`` path).

        Defaults to :meth:`sample_phase`; the paper's plugins override
        it with their original loops, kept verbatim.
        """
        return self.sample_phase(run, phase, sample_times, interval_s, rng)

    @classmethod
    def sample_runs(
        cls,
        plugins: Sequence["MetricPlugin"],
        batch: RunBatch,
        grids: Sequence[np.ndarray],
        interval_s: float,
        rngs: StreamRngs,
        out: np.ndarray,
    ) -> None:
        """Sample every run of ``batch`` into ``out`` (fast recording path).

        ``plugins[i]`` samples run ``i``; all are of this class, so they
        share one RNG key head.  ``rngs[i][p]`` is the generator of run
        ``i``, phase ``p``, seeded exactly as the scalar path seeds it.
        ``out`` holds one row per (run, metric), run-major with metrics
        in :meth:`metric_defs` order, and one column per sample of the
        shared grid (``grids`` concatenated).  This default samples
        phase by phase through :meth:`sample_phase`; the paper's
        plugins override it with one arithmetic pass over all runs.
        """
        row = 0
        for i, plugin in enumerate(plugins):
            run = batch.run(i)
            names = [mdef.name for mdef in plugin.metric_defs()]
            pos = 0
            for phase, grid, rng in zip(run.phases, grids, rngs[i]):
                sampled = plugin.sample_phase(run, phase, grid, interval_s, rng)
                for k, name in enumerate(names):
                    if name not in sampled:
                        raise ValueError(f"plugin did not sample metric {name!r}")
                    out[row + k, pos : pos + grid.size] = sampled.pop(name)
                if sampled:
                    raise ValueError(
                        f"plugin produced undeclared metric {next(iter(sampled))!r}"
                    )
                pos += grid.size
            row += len(names)


def _segment_sizes(grids: Sequence[np.ndarray]) -> List[int]:
    return [grid.size for grid in grids]


def _draw_blocks(out: np.ndarray, sizes: Sequence[int]) -> List[np.ndarray]:
    """One draw buffer per phase, shaped like ``out`` but ``sizes[p]``
    samples wide (``out`` itself for a single phase).

    A stream's ``(rows, n)`` block spans whole rows of its phase's
    buffer, so it is C-contiguous and the stream draws straight into
    it: ``standard_normal(out=block)`` fills in the same C order as
    ``standard_normal(block.shape)``.
    """
    if len(sizes) == 1:
        return [out]
    return [np.empty(out.shape[:-1] + (n,)) for n in sizes]


def _join_blocks(blocks: List[np.ndarray], out: np.ndarray) -> None:
    """Concatenate the per-phase draw buffers into ``out``."""
    if len(blocks) > 1:
        np.concatenate(blocks, axis=-1, out=out)


class PowerPlugin(MetricPlugin):
    """Node power sampled from the platform's sensor array."""

    METRIC = "power"

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    def metric_defs(self) -> List[MetricDef]:
        return [MetricDef(self.METRIC, "W")]

    def sample_phase_reference(self, run, phase, sample_times, interval_s, rng):
        # Each plugin sample is the mean of the raw sensor stream over
        # one sampling interval: one draw per socket channel per sample.
        n = sample_times.size
        total = np.zeros(n)
        for sensor, true_w in zip(
            self.platform.sensors.sensors, phase.power_breakdown.per_socket_w
        ):
            raw_per_sample = max(
                int(round(interval_s * sensor.sample_rate_hz)), 1
            )
            mean = true_w * sensor.calibration.gain + sensor.calibration.offset_w
            total += mean + rng.normal(
                0.0, sensor.noise_sigma_w / np.sqrt(raw_per_sample), size=n
            )
        return {self.METRIC: total}

    #: One phase on its own: the reference loop (bit-identical to a
    #: batch of one through :meth:`sample_runs`).
    sample_phase = sample_phase_reference

    @classmethod
    def sample_runs(cls, plugins, batch, grids, interval_s, rngs, out):
        # The sensor array draws every channel's noise of a stream in
        # one block (bit-identical to the per-channel reference loop).
        plugins[0].platform.sensors.sample_node_totals(
            batch.socket_w, _segment_sizes(grids), interval_s, rngs, out
        )


class VoltagePlugin(MetricPlugin):
    """Average active-core voltage from the x86_adapt telemetry."""

    METRIC = "voltage"

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    def metric_defs(self) -> List[MetricDef]:
        return [MetricDef(self.METRIC, "V")]

    def sample_phase_reference(self, run, phase, sample_times, interval_s, rng):
        telemetry = self.platform.voltage
        n = sample_times.size
        true = phase.true_voltage_v
        readings = true + rng.normal(0.0, telemetry.read_noise_v, size=n)
        step = telemetry.VID_STEP
        return {self.METRIC: np.round(readings / step) * step}

    #: One phase on its own: the reference loop (bit-identical to a
    #: batch of one through :meth:`sample_runs`).
    sample_phase = sample_phase_reference

    @classmethod
    def sample_runs(cls, plugins, batch, grids, interval_s, rngs, out):
        telemetry = plugins[0].platform.voltage
        sizes = _segment_sizes(grids)
        for row, run_rngs in zip(out, rngs):
            pos = 0
            for n, rng in zip(sizes, run_rngs):
                rng.standard_normal(out=row[pos : pos + n])
                pos += n
        # readings = true + (0.0 + noise * z), quantized to VID steps.
        # The 0.0 only turns a -0.0 into +0.0, which a true voltage
        # other than -0.0 absorbs, so it is left out.
        np.multiply(out, telemetry.read_noise_v, out=out)
        np.add(np.repeat(batch.voltages, sizes), out, out=out)
        step = telemetry.VID_STEP
        np.divide(out, step, out=out)
        np.round(out, out=out)
        np.multiply(out, step, out=out)


class _CounterPlugin(MetricPlugin):
    """PAPI rate sampling shared by the multi-run and multiplexed
    plugins: ``_indices`` selects the sampled counters, ``_sigmas``
    holds each one's relative read noise."""

    PREFIX = "papi:"
    _indices: np.ndarray
    _sigmas: np.ndarray

    @classmethod
    def sample_runs(cls, plugins, batch, grids, interval_s, rngs, out):
        # Row r samples counter counters[r] of run runs[r]; the plugins
        # may program different event sets (one per event-set run).
        sizes = _segment_sizes(grids)
        blocks = _draw_blocks(out, sizes)
        runs: List[int] = []
        counters: List[np.ndarray] = []
        sigmas: List[np.ndarray] = []
        row = 0
        for i, plugin in enumerate(plugins):
            n_events = plugin._indices.size
            for block, rng in zip(blocks, rngs[i]):
                rng.standard_normal(out=block[row : row + n_events])
            runs.extend([i] * n_events)
            counters.append(plugin._indices)
            sigmas.append(plugin._sigmas)
            row += n_events
        _join_blocks(blocks, out)
        # counts = max(true_per_s * interval_s * noise, 0), floored;
        # true_per_s * interval_s is per phase, so it is formed before
        # spreading over the samples (the same products, fewer of them).
        expected = (
            batch.rates[runs, :, np.concatenate(counters)] * batch.op.frequency_hz
        ) * interval_s
        # noise = 1.0 + (0.0 + sigma * z) is 1.0 + sigma * z exactly:
        # the 0.0 only turns a -0.0 into +0.0, which 1.0 absorbs.
        np.multiply(np.concatenate(sigmas)[:, None], out, out=out)
        np.add(1.0, out, out=out)
        np.multiply(np.repeat(expected, sizes, axis=1), out, out=out)
        np.maximum(out, 0.0, out=out)
        np.floor(out, out=out)
        np.divide(out, interval_s, out=out)


class ApapiPlugin(_CounterPlugin):
    """Asynchronous PAPI sampling of the programmed event set."""

    def __init__(self, platform: Platform, event_set: EventSet) -> None:
        self.platform = platform
        self.event_set = event_set
        self._indices = np.array(
            [_counter_index(name) for name in event_set.events], dtype=np.intp
        )
        self._sigmas = np.full(
            self._indices.size, platform.pmu.read_noise_sigma
        )

    def metric_defs(self) -> List[MetricDef]:
        return [
            MetricDef(f"{self.PREFIX}{name}", "events/s", mode="accumulated")
            for name in self.event_set.events
        ]

    def sample_phase_reference(self, run, phase, sample_times, interval_s, rng):
        pmu = self.platform.pmu
        out: Dict[str, np.ndarray] = {}
        n = sample_times.size
        f_hz = run.op.frequency_hz
        rates = phase.state.counter_rates
        for name in self.event_set.events:
            idx_rate = float(rates[_counter_index(name)])
            true_per_s = idx_rate * f_hz
            noise = 1.0 + rng.normal(0.0, pmu.read_noise_sigma, size=n)
            counts = np.maximum(true_per_s * interval_s * noise, 0.0)
            out[f"{self.PREFIX}{name}"] = np.floor(counts) / interval_s
        return out

    #: One phase on its own: the reference loop (bit-identical to a
    #: batch of one through :meth:`sample_runs`).
    sample_phase = sample_phase_reference


def _counter_index(name: str) -> int:
    from repro.hardware.counters import counter_index

    return counter_index(name)


class MultiplexedApapiPlugin(_CounterPlugin):
    """Time-division-multiplexed PAPI sampling of *all* requested
    events in a single run.

    Avoids the multi-run campaigns of Section III-A at the price of
    extrapolation noise — see
    :meth:`repro.hardware.pmu.PMU.count_multiplexed`.
    """

    def __init__(self, platform: Platform, events: Sequence[str]) -> None:
        self.platform = platform
        self.events = tuple(events)
        from repro.hardware.counters import FIXED_COUNTERS, counter_index

        pmu = platform.pmu
        self._indices = np.array(
            [counter_index(name) for name in self.events], dtype=np.intp
        )
        prog = [e for e in self.events if e not in FIXED_COUNTERS]
        n_groups = max(-(-len(prog) // platform.cfg.programmable_slots), 1)
        mux_sigma = float(
            np.hypot(
                pmu.read_noise_sigma,
                pmu.multiplex_noise_sigma * np.sqrt(max(n_groups - 1, 0)),
            )
        )
        self._sigmas = np.array(
            [
                pmu.read_noise_sigma if name in FIXED_COUNTERS else mux_sigma
                for name in self.events
            ]
        )

    def metric_defs(self) -> List[MetricDef]:
        return [
            MetricDef(f"{self.PREFIX}{name}", "events/s", mode="accumulated")
            for name in self.events
        ]

    def sample_phase_reference(self, run, phase, sample_times, interval_s, rng):
        pmu = self.platform.pmu
        n = sample_times.size
        out: Dict[str, np.ndarray] = {}
        f_hz = run.op.frequency_hz
        rates = phase.state.counter_rates
        from repro.hardware.counters import FIXED_COUNTERS, counter_index

        prog = [e for e in self.events if e not in FIXED_COUNTERS]
        n_groups = max(
            -(-len(prog) // self.platform.cfg.programmable_slots), 1
        )
        for name in self.events:
            true_per_s = float(rates[counter_index(name)]) * f_hz
            if name in FIXED_COUNTERS:
                sigma = pmu.read_noise_sigma
            else:
                sigma = float(
                    np.hypot(
                        pmu.read_noise_sigma,
                        pmu.multiplex_noise_sigma * np.sqrt(max(n_groups - 1, 0)),
                    )
                )
            noise = 1.0 + rng.normal(0.0, sigma, size=n)
            counts = np.maximum(true_per_s * interval_s * noise, 0.0)
            out[f"{self.PREFIX}{name}"] = np.floor(counts) / interval_s
        return out

    #: One phase on its own: the reference loop (bit-identical to a
    #: batch of one through :meth:`sample_runs`).
    sample_phase = sample_phase_reference
