"""Deterministic fault injection for platforms and traces.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into concrete failures.  Every decision is drawn from a stream derived
via :func:`repro.seeding.derive_rng` from ``(root_seed, "fault",
fault_seed, kind, cell key…, attempt)``:

* decisions are **reproducible** — the same seed and plan replay the
  same faults, so chaos tests assert exact outcomes;
* decisions are **per (cell, attempt)** — a retry of a crashed run is
  a fresh draw, exactly like re-launching a flaky job, while being
  independent of *when* the retry happens.  This is what makes an
  interrupted-and-resumed campaign bit-identical to an uninterrupted
  one.

Injection sites mirror the real acquisition stack: run crashes at
:meth:`FaultyPlatform.execute`, everything else as corruption of the
recorded trace (sensor dropout / stuck-at / NaN readings on the power
stream, 48-bit wrap on PMC streams, truncation of the event record).
"""

from __future__ import annotations

import threading
from collections import Counter
from fnmatch import fnmatch
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.faults.errors import RunFailure
from repro.faults.plan import FaultPlan
from repro.hardware.platform import Platform
from repro.hardware.sensors import SensorFaults
from repro.seeding import derive_rng
from repro.tracing.otf2 import MetricStream, Trace
from repro.tracing.plugins import ApapiPlugin, PowerPlugin

__all__ = ["FaultInjector", "FaultyPlatform", "OVERFLOW_RATE_PER_S"]

#: Reported event rate of a wrapped/saturated 48-bit PMC read.  Orders
#: of magnitude above anything a ~3 GHz chip can produce, so the
#: watchdog's plausibility check always catches it.
OVERFLOW_RATE_PER_S = float(2**48)

_CellKey = Tuple[str, int, int, int]  # workload, freq_mhz, threads, run_index


class FaultInjector:
    """Applies a :class:`FaultPlan` to runs and traces, deterministically."""

    def __init__(self, plan: FaultPlan, root_seed: int) -> None:
        self.plan = plan
        self.root_seed = int(root_seed)
        #: Count of faults actually injected, by kind (report material).
        #: Advisory under parallel execution: thread workers share (and
        #: lock) this counter, process workers count in their own copy.
        self.injected: Counter = Counter()
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict[str, object]:
        # Locks cannot cross process boundaries; every fault *decision*
        # is a pure function of (root_seed, plan, kind, cell, attempt),
        # so a pickled injector replays identically in the worker.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _count(self, kind: str) -> None:
        with self._lock:
            self.injected[kind] += 1

    # ------------------------------------------------------------------
    def _rng(self, kind: str, *key: Union[str, int]) -> np.random.Generator:
        return derive_rng(
            self.root_seed, "fault", self.plan.fault_seed, kind, *key
        )

    def _event(self, rate: float, kind: str, *key: Union[str, int]) -> bool:
        if rate <= 0.0:
            return False
        return bool(self._rng(kind, *key).random() < rate)

    @staticmethod
    def _cell_tag(cell: _CellKey) -> str:
        workload, frequency_mhz, threads, run_index = cell
        return f"{workload}:{frequency_mhz}:{threads}:{run_index}"

    # ------------------------------------------------------------------
    # run-level faults
    # ------------------------------------------------------------------
    def check_run(
        self,
        workload: str,
        frequency_mhz: int,
        threads: int,
        run_index: int,
        *,
        attempt: int = 0,
    ) -> None:
        """Raise :class:`RunFailure` if this (cell, attempt) crashes."""
        cell: _CellKey = (workload, int(frequency_mhz), int(threads), int(run_index))
        tag = self._cell_tag(cell)
        for pattern in self.plan.kill_cells:
            if fnmatch(tag, pattern):
                self._count("cell-killed")
                raise RunFailure(
                    f"run {tag} attempt {attempt}: cell matches kill "
                    f"pattern {pattern!r} (persistently broken)",
                    kind="cell-killed",
                )
        if self._event(self.plan.run_failure_rate, "run-crash", *cell, attempt):
            self._count("run-crash")
            raise RunFailure(
                f"run {tag} attempt {attempt}: transient crash injected"
            )

    def node_is_dead(self, node_id: int) -> bool:
        """Whether cluster node ``node_id`` never comes up."""
        dead = self._event(self.plan.dead_node_rate, "node-dead", int(node_id))
        if dead:
            self._count("dead-node")
        return dead

    def node_death_fraction(self, node_id: int) -> Optional[float]:
        """When node ``node_id`` dies mid-campaign, as a fraction of the
        campaign makespan — ``None`` if it survives.

        Drawn per node from the fault stream: whether the node dies is
        a ``node_death_rate`` event, and the death instant is uniform
        in [0.05, 0.85] of the makespan (never so late that the death
        is unobservable, never before the campaign starts).  The
        scheduler turns the fraction into a virtual-clock instant.
        """
        if not self._event(self.plan.node_death_rate, "node-death", int(node_id)):
            return None
        self._count("node-death")
        rng = self._rng("node-death-time", int(node_id))
        return float(rng.uniform(0.05, 0.85))

    def node_straggler_factor(self, node_id: int) -> float:
        """Slowdown factor of node ``node_id`` (1.0 = healthy).

        A ``straggler_rate`` event marks the node as pathologically
        slow for the whole campaign; its factor is uniform in [4, 12] —
        slow enough that deadline detection (not mere patience) is what
        bounds the damage.
        """
        if not self._event(self.plan.straggler_rate, "straggler", int(node_id)):
            return 1.0
        self._count("straggler")
        rng = self._rng("straggler-slowdown", int(node_id))
        return float(rng.uniform(4.0, 12.0))

    def sensor_faults(
        self, *key: Union[str, int]
    ) -> SensorFaults:
        """Sensor-level fault state for one sampling context.

        For callers driving :meth:`PowerSensor.sample` directly (the
        plugin/trace path uses :meth:`corrupt_trace` instead, which
        applies the same glitch classes to the recorded stream).
        """
        return SensorFaults(
            dropout=self._event(
                self.plan.sensor_dropout_rate, "sensor-dropout", *key
            ),
            stuck=self._event(self.plan.sensor_stuck_rate, "sensor-stuck", *key),
            nan_rate=self.plan.nan_sample_rate,
        )

    # ------------------------------------------------------------------
    # trace-level faults
    # ------------------------------------------------------------------
    def corrupt_trace(self, trace: Trace, *, attempt: int = 0) -> Trace:
        """Return ``trace`` with this plan's corruptions applied.

        The input trace is not modified.  Faults are keyed by the run
        identity in ``trace.meta`` plus ``attempt``.
        """
        if not self.plan.corrupts_traces:
            return trace
        meta = trace.meta
        cell: _CellKey = (
            str(meta["workload"]),
            int(meta["frequency_mhz"]),
            int(meta["threads"]),
            int(meta["run_index"]),
        )
        out = self._maybe_truncate(trace, cell, attempt)
        self._corrupt_power_stream(out, cell, attempt)
        self._corrupt_counter_streams(out, cell, attempt)
        return out

    # -- truncation ----------------------------------------------------
    def _maybe_truncate(self, trace: Trace, cell: _CellKey, attempt: int) -> Trace:
        rng = self._rng("truncate", *cell, attempt)
        copy = self._copy_trace(trace)
        if not (
            self.plan.trace_truncation_rate > 0.0
            and rng.random() < self.plan.trace_truncation_rate
        ):
            return copy
        cut_s = float(rng.uniform(0.25, 0.9)) * trace.duration_s
        truncated = Trace(meta=dict(trace.meta))
        for region, start_s, end_s, active in trace.phase_intervals():
            if end_s <= cut_s:
                truncated.record_enter(region, start_s, active)
                truncated.record_leave(region, end_s, active)
        for name, stream in trace.metrics.items():
            keep = stream.times_s <= cut_s
            truncated.add_metric_stream(
                MetricStream(
                    definition=stream.definition,
                    times_s=stream.times_s[keep],
                    values=stream.values[keep].copy(),
                )
            )
        self._count("trace-truncation")
        return truncated

    @staticmethod
    def _copy_trace(trace: Trace) -> Trace:
        """Shallow-structure copy with fresh value arrays (so stream
        corruption never mutates the caller's trace)."""
        copy = Trace(meta=dict(trace.meta))
        copy.events = list(trace.events)
        copy._open_regions = list(trace._open_regions)
        copy._last_time = trace._last_time
        for name, stream in trace.metrics.items():
            copy.add_metric_stream(
                MetricStream(
                    definition=stream.definition,
                    times_s=stream.times_s,
                    values=stream.values.copy(),
                )
            )
        return copy

    # -- power-sensor glitches ----------------------------------------
    def _corrupt_power_stream(
        self, trace: Trace, cell: _CellKey, attempt: int
    ) -> None:
        stream = trace.metrics.get(PowerPlugin.METRIC)
        if stream is None or stream.values.size == 0:
            return
        values = stream.values
        n = values.size
        if self.plan.nan_sample_rate > 0.0:
            rng = self._rng("nan-sample", *cell, attempt)
            mask = rng.random(n) < self.plan.nan_sample_rate
            if np.any(mask):
                values[mask] = np.nan
                self._count("nan-sample")
        if self._event(self.plan.sensor_dropout_rate, "sensor-dropout", *cell, attempt):
            rng = self._rng("sensor-dropout-window", *cell, attempt)
            width = max(int(n * float(rng.uniform(0.1, 0.4))), 1)
            start = int(rng.integers(0, max(n - width, 0) + 1))
            values[start : start + width] = np.nan
            self._count("sensor-dropout")
        if self._event(self.plan.sensor_stuck_rate, "sensor-stuck", *cell, attempt):
            rng = self._rng("sensor-stuck-index", *cell, attempt)
            idx = int(rng.integers(0, max(n - 8, 0) + 1))
            values[idx:] = values[idx]
            self._count("sensor-stuck")

    # -- PMC overflow ---------------------------------------------------
    def _corrupt_counter_streams(
        self, trace: Trace, cell: _CellKey, attempt: int
    ) -> None:
        if self.plan.counter_overflow_rate <= 0.0:
            return
        for name, stream in trace.metrics.items():
            if not name.startswith(ApapiPlugin.PREFIX):
                continue
            if stream.values.size == 0:
                continue
            if not self._event(
                self.plan.counter_overflow_rate, "overflow", *cell, name, attempt
            ):
                continue
            rng = self._rng("overflow-index", *cell, name, attempt)
            n = stream.values.size
            width = max(n // 10, 1)
            start = int(rng.integers(0, max(n - width, 0) + 1))
            stream.values[start : start + width] = OVERFLOW_RATE_PER_S
            self._count("counter-overflow")

    # ------------------------------------------------------------------
    def fault_counts(self) -> Dict[str, int]:
        """Faults injected so far, by kind."""
        return dict(self.injected)


class FaultyPlatform(Platform):
    """A :class:`Platform` whose executions crash per a fault plan.

    Reconstructs an identical platform from the base's parameters (the
    sensor calibrations are redrawn deterministically from the same
    seed), so swapping ``Platform`` for ``FaultyPlatform`` changes
    *only* the fault behaviour, never the physics.
    """

    def __init__(self, base: Platform, plan: FaultPlan) -> None:
        super().__init__(
            base.cfg,
            base.power_params,
            seed=base.seed,
            run_jitter_sigma=base.run_jitter_sigma,
            power_jitter_sigma=base.power_jitter_sigma,
            power_offset_sigma_w=base.power_offset_sigma_w,
        )
        self.fault_plan = plan
        self.injector = FaultInjector(plan, base.seed)

    def execute(
        self,
        workload,
        frequency_mhz,
        threads,
        *,
        run_index=0,
        attempt=0,
        phases=None,
    ):
        """Execute with fault checks; raises :class:`RunFailure` when
        the plan crashes this (cell, attempt)."""
        self.injector.check_run(
            workload.name, frequency_mhz, threads, run_index, attempt=attempt
        )
        return super().execute(
            workload,
            frequency_mhz,
            threads,
            run_index=run_index,
            phases=phases,
        )

    def execute_runs(
        self, workload, frequency_mhz, threads, run_indices, *, phases=None, streams=()
    ):
        """Batched execution with :meth:`execute`'s per-run fault
        checks.  Campaigns pass no attempt number, so every run is
        checked as attempt 0 — as :meth:`execute` checks it by default;
        one crashed run fails the whole batch before any is recorded."""
        for run_index in run_indices:
            self.injector.check_run(
                workload.name, frequency_mhz, threads, run_index, attempt=0
            )
        return super().execute_runs(
            workload,
            frequency_mhz,
            threads,
            run_indices,
            phases=phases,
            streams=streams,
        )
