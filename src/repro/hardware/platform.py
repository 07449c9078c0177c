"""The simulated system under test: a dual-socket Haswell-EP node.

:class:`Platform` binds together the microarchitecture model, the
ground-truth power model, the sensor instrumentation, the voltage
telemetry and the PMU, and executes workloads at pinned operating
points — the simulated equivalent of launching an instrumented binary
on the paper's test system.

An execution (:class:`RunExecution`) carries *truth*: per-phase
microarchitectural state and ground-truth power.  Measurement —
sampling sensors, reading the PMU — is performed by the tracing layer
(:mod:`repro.tracing`), mirroring the paper's separation between the
system under test and the measurement infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.config import HASWELL_EP_CONFIG, PlatformConfig
from repro.hardware.counters import COUNTER_NAMES, counter_index
from repro.hardware.dvfs import OperatingPoint
from repro.hardware.fastsim import PhaseStateMemo, fastsim_enabled, simulate_phases
from repro.hardware.microarch import MicroarchState, evaluate
from repro.hardware.pmu import PMU
from repro.hardware.power import (
    HASWELL_EP_POWER_PARAMS,
    PowerBreakdown,
    PowerModelParams,
    compute_power,
)
from repro.hardware.sensors import SensorArray
from repro.hardware.voltage import VoltageTelemetry
from repro.seeding import (
    DEFAULT_SEED,
    SeedHasher,
    derive_rng,
    rng_from_state_words,
    seedseq_state_words,
)
from repro.workloads.base import PhaseSpec, Workload

__all__ = ["PhaseExecution", "RunExecution", "RunWords", "RunBatch", "Platform"]

#: Counters exempt from run-to-run execution jitter: cycle counts are
#: pinned by the fixed frequency and wall time.
_JITTER_EXEMPT = ("TOT_CYC", "REF_CYC")


def _jitter_mask() -> np.ndarray:
    """Boolean mask selecting the jitter-affected counters (cached)."""
    mask = np.ones(len(COUNTER_NAMES), dtype=bool)
    for name in _JITTER_EXEMPT:
        mask[counter_index(name)] = False
    mask.setflags(write=False)
    return mask


_JITTER_MASK = _jitter_mask()

#: Integer column indices of the exempt counters (batch applicator).
_EXEMPT_IDX = np.array(
    [counter_index(name) for name in _JITTER_EXEMPT], dtype=np.intp
)


@dataclass(frozen=True)
class _RunSkeleton:
    """Everything about a run that does not depend on ``run_index``.

    The pre-jitter phase stack of one (workload, frequency, threads)
    experiment: specs, operating point, stacked pre-jitter counter
    rates, hidden activities, base power breakdowns, true voltages and
    phase timings.  A campaign re-executes each experiment once per
    event set; only the three run-level jitter draws differ, so the
    skeleton is computed once and replayed (fast path only).
    """

    specs: Tuple[PhaseSpec, ...]
    op: OperatingPoint
    rates: np.ndarray
    hidden: Tuple
    breakdowns: Tuple[PowerBreakdown, ...]
    socket_w: np.ndarray
    """Pre-jitter per-socket power, ``(phases, sockets)``."""
    voltages: Tuple[float, ...]
    bounds: Tuple[Tuple[float, float], ...]
    derived: bool
    """True when ``specs`` came from ``workload.phases(threads)`` (the
    memo may then serve ``phases=None`` callers)."""


@dataclass(frozen=True)
class PhaseExecution:
    """Ground truth for one executed phase."""

    phase: PhaseSpec
    start_s: float
    end_s: float
    state: MicroarchState
    power_breakdown: PowerBreakdown
    true_voltage_v: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class RunExecution:
    """Ground truth for one complete run of a workload."""

    workload_name: str
    suite: str
    op: OperatingPoint
    threads: int
    run_index: int
    phases: Tuple[PhaseExecution, ...]
    seed: int

    @property
    def total_duration_s(self) -> float:
        return self.phases[-1].end_s if self.phases else 0.0


@dataclass(frozen=True)
class RunWords:
    """Expanded PCG64 state words of a batch of runs of one experiment.

    ``run`` holds one row per run for the run-jitter stream
    (``derive_rng(seed, "run", workload, f, threads, run_index)``);
    ``streams`` maps each metric-plugin key head (the plugin type name)
    to ``(runs, phases, 4)`` words of its per-phase streams
    (``derive_rng(seed, "plugin", head, workload, f, threads,
    run_index, phase_name)``).  :func:`~repro.seeding.rng_from_state_words`
    turns a row into the generator a cold ``default_rng`` construction
    would give.
    """

    phase_names: Tuple[str, ...]
    run: np.ndarray
    streams: Dict[str, np.ndarray]


@dataclass(frozen=True)
class RunBatch:
    """Ground truth of several runs of one experiment, stacked.

    The event-set runs of a (workload, frequency, threads) experiment
    share their phases, timings and true voltages; only the run-level
    jitter differs.  ``rates`` holds the jittered counter rates
    ``(runs, phases, counters)`` and ``socket_w`` the jittered
    per-socket power ``(runs, phases, sockets)``, row ``i`` belonging
    to ``run_indices[i]``.  ``words`` carries the batch's expanded RNG
    words for the tracer.  :meth:`run` materializes one run as the
    :class:`RunExecution` that :meth:`Platform.execute` returns.
    """

    workload_name: str
    suite: str
    op: OperatingPoint
    threads: int
    seed: int
    run_indices: Tuple[int, ...]
    specs: Tuple[PhaseSpec, ...]
    bounds: Tuple[Tuple[float, float], ...]
    voltages: Tuple[float, ...]
    hidden: Tuple
    breakdowns: Tuple[PowerBreakdown, ...]
    """Pre-jitter breakdowns; :meth:`run` swaps in the jittered
    ``socket_w`` row."""
    rates: np.ndarray
    socket_w: np.ndarray
    words: RunWords

    def run(self, i: int) -> RunExecution:
        """Row ``i`` as a :class:`RunExecution`."""
        socket_w = self.socket_w[i].tolist()
        rates = self.rates[i]
        return RunExecution(
            workload_name=self.workload_name,
            suite=self.suite,
            op=self.op,
            threads=self.threads,
            run_index=self.run_indices[i],
            phases=tuple(
                PhaseExecution(
                    phase=spec,
                    start_s=start_s,
                    end_s=end_s,
                    state=MicroarchState(counter_rates=rates[p], hidden=hidden),
                    power_breakdown=replace(
                        base, per_socket_w=tuple(socket_w[p])
                    ),
                    true_voltage_v=voltage_v,
                )
                for p, (spec, (start_s, end_s), hidden, base, voltage_v) in enumerate(
                    zip(
                        self.specs,
                        self.bounds,
                        self.hidden,
                        self.breakdowns,
                        self.voltages,
                    )
                )
            ),
            seed=self.seed,
        )

    @staticmethod
    def of(run: RunExecution, words: RunWords) -> "RunBatch":
        """A batch of one holding an already executed run."""
        phases = run.phases
        n_phases = len(phases)
        n_sockets = len(phases[0].power_breakdown.per_socket_w) if phases else 0
        return RunBatch(
            workload_name=run.workload_name,
            suite=run.suite,
            op=run.op,
            threads=run.threads,
            seed=run.seed,
            run_indices=(run.run_index,),
            specs=tuple(pe.phase for pe in phases),
            bounds=tuple((pe.start_s, pe.end_s) for pe in phases),
            voltages=tuple(pe.true_voltage_v for pe in phases),
            hidden=tuple(pe.state.hidden for pe in phases),
            breakdowns=tuple(pe.power_breakdown for pe in phases),
            rates=np.array(
                [pe.state.counter_rates for pe in phases], dtype=np.float64
            ).reshape(1, n_phases, len(COUNTER_NAMES)),
            socket_w=np.array(
                [pe.power_breakdown.per_socket_w for pe in phases],
                dtype=np.float64,
            ).reshape(1, n_phases, n_sockets),
            words=words,
        )


class Platform:
    """Simulated dual-socket x86 node with instrumentation attached."""

    def __init__(
        self,
        cfg: PlatformConfig = HASWELL_EP_CONFIG,
        power_params: PowerModelParams = HASWELL_EP_POWER_PARAMS,
        *,
        seed: int = DEFAULT_SEED,
        run_jitter_sigma: float = 0.004,
        power_jitter_sigma: float = 0.003,
        power_offset_sigma_w: float = 1.2,
    ) -> None:
        self.cfg = cfg
        self.power_params = power_params
        self.seed = seed
        self.run_jitter_sigma = run_jitter_sigma
        self.power_jitter_sigma = power_jitter_sigma
        self.power_offset_sigma_w = power_offset_sigma_w
        # Instrument calibration is a property of the physical setup:
        # drawn once per platform instance, stable across campaigns.
        self.sensors = SensorArray.build(
            cfg.sockets, derive_rng(seed, "sensor-calibration")
        )
        self.voltage = VoltageTelemetry(cfg)
        self.pmu = PMU(cfg)
        # Pre-jitter phase states, shared across the event-set runs of a
        # campaign (see repro.hardware.fastsim).  Never pickled: worker
        # processes rebuild their own memo on first use.
        self._phase_memo = PhaseStateMemo()
        # Whole-run skeletons keyed (workload, frequency, threads) — the
        # run_index-independent part of execute().  Same lifecycle as
        # the phase memo.
        self._run_memo: dict = {}
        self._reset_seed_hashers()

    def _reset_seed_hashers(self) -> None:
        """Pre-hashed RNG key heads of the fast path (hash objects do
        not pickle, so workers rebuild them)."""
        # Head of every per-run jitter key, and of each plugin type's
        # per-phase stream keys (filled as plugin names are first seen).
        self._run_hasher = SeedHasher(self.seed, "run")
        self._stream_hashers: Dict[str, SeedHasher] = {}
        # Encoded phase-name key suffixes: every event-set run of an
        # experiment re-derives one stream per (plugin, phase).
        self._name_blobs: Dict[str, bytes] = {}

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_phase_memo"] = None
        state["_run_memo"] = None
        for name in ("_run_hasher", "_stream_hashers", "_name_blobs"):
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.__dict__.get("_phase_memo") is None:
            self._phase_memo = PhaseStateMemo()
        if self.__dict__.get("_run_memo") is None:
            self._run_memo = {}
        self._reset_seed_hashers()

    # ------------------------------------------------------------------
    def execute(
        self,
        workload: Workload,
        frequency_mhz: int,
        threads: int,
        *,
        run_index: int = 0,
        fast: Optional[bool] = None,
        phases: Optional[Sequence[PhaseSpec]] = None,
    ) -> RunExecution:
        """Execute a workload at a pinned frequency and thread count.

        The operating frequency is "always fixed to one particular
        value during one particular execution" (Section III-A).
        Run-to-run variation is modelled as a coherent multiplicative
        jitter on activity rates with a correlated power jitter.

        ``fast`` selects the batched+memoized kernel (default: the
        ``REPRO_FASTSIM`` resolution of
        :func:`~repro.hardware.fastsim.fastsim_enabled`); both paths
        are bit-identical.  ``phases`` lets callers that re-execute the
        same cell (retry loops) pass a pre-derived phase list instead
        of re-deriving it from the workload every attempt.
        """
        if fastsim_enabled(fast):
            # A batch of one through the experiment kernel (its shared
            # implementation: subclasses hooking execute_runs, such as
            # the fault injector's FaultyPlatform, hook execute too and
            # must not see a single run twice).
            return self._stack_runs(
                workload, frequency_mhz, threads, (run_index,), phases, ()
            ).run(0)
        workload.validate_threads(threads, self.cfg.total_cores)
        op = self.cfg.curve.operating_point(frequency_mhz)
        specs = tuple(phases) if phases is not None else tuple(workload.phases(threads))
        rng = derive_rng(
            self.seed, "run", workload.name, frequency_mhz, threads, run_index
        )
        jitter = 1.0 + float(rng.normal(0.0, self.run_jitter_sigma))
        power_jitter = (
            1.0
            + 0.6 * (jitter - 1.0)
            + float(rng.normal(0.0, self.power_jitter_sigma))
        )
        power_offset = float(rng.normal(0.0, self.power_offset_sigma_w))
        # Run-level absolute power offset: OS housekeeping, fan state,
        # VR operating-point differences.  Dominates *relative* error at
        # the low end of the power range.
        per_socket_offset = power_offset / self.cfg.sockets

        executions: List[PhaseExecution] = []
        states = [
            self._apply_jitter(
                evaluate(spec.characterization, op, spec.active_threads, self.cfg),
                jitter,
            )
            for spec in specs
        ]
        t = 0.0
        for spec, state in zip(specs, states):
            breakdown = compute_power(state.hidden, op, self.cfg, self.power_params)
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
            true_v = self.voltage.true_voltage(op, spec.active_threads)
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
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    def execute_runs(
        self,
        workload: Workload,
        frequency_mhz: int,
        threads: int,
        run_indices: Sequence[int],
        *,
        phases: Optional[Sequence[PhaseSpec]] = None,
        streams: Sequence[str] = (),
    ) -> RunBatch:
        """Execute several runs of one experiment in one stacked pass.

        The experiment kernel's execution stage: the run skeleton is
        looked up once, the RNG words of every run's jitter stream —
        and of the per-phase metric streams of each plugin key head in
        ``streams`` — are expanded in one
        :func:`~repro.seeding.seedseq_state_words` call, and the jitter
        and power scaling apply over the stacked ``(runs × phases)``
        block.  Row ``i`` equals ``execute(..., run_index=run_indices[i])``
        bit for bit: every element sees the scalar path's operation
        sequence (``normal(0, s)`` is ``0.0 + s*z`` on the same
        ziggurat stream, ``max(x, 0.0)`` is ``np.maximum``).
        """
        return self._stack_runs(
            workload, frequency_mhz, threads, tuple(run_indices), phases, streams
        )

    def _stack_runs(
        self,
        workload: Workload,
        frequency_mhz: int,
        threads: int,
        run_indices: Tuple[int, ...],
        phases: Optional[Sequence[PhaseSpec]],
        streams: Sequence[str],
    ) -> RunBatch:
        """:meth:`execute_runs` proper (also :meth:`execute`'s fast path)."""
        skeleton = self._run_skeleton(workload, frequency_mhz, threads, phases)
        words = self.expand_rng_words(
            workload.name,
            frequency_mhz,
            threads,
            run_indices,
            tuple(spec.name for spec in skeleton.specs),
            streams,
        )
        z = np.empty((len(run_indices), 3))
        for row, run_words in zip(z, words.run):
            rng_from_state_words(run_words).standard_normal(out=row)
        jitter = 1.0 + (0.0 + self.run_jitter_sigma * z[:, 0])
        power_jitter = (
            1.0
            + 0.6 * (jitter - 1.0)
            + (0.0 + self.power_jitter_sigma * z[:, 1])
        )
        # Run-level absolute power offset: OS housekeeping, fan state,
        # VR operating-point differences.  Dominates *relative* error at
        # the low end of the power range.
        per_socket_offset = (0.0 + self.power_offset_sigma_w * z[:, 2]) / self.cfg.sockets
        # Cycle counters are exempt from jitter: restored from the stack.
        rates = skeleton.rates[None, :, :] * jitter[:, None, None]
        rates[:, :, _EXEMPT_IDX] = skeleton.rates[:, _EXEMPT_IDX]
        socket_w = np.maximum(
            skeleton.socket_w[None, :, :] * power_jitter[:, None, None]
            + per_socket_offset[:, None, None],
            0.0,
        )
        return RunBatch(
            workload_name=workload.name,
            suite=workload.suite,
            op=skeleton.op,
            threads=threads,
            seed=self.seed,
            run_indices=run_indices,
            specs=skeleton.specs,
            bounds=skeleton.bounds,
            voltages=skeleton.voltages,
            hidden=skeleton.hidden,
            breakdowns=skeleton.breakdowns,
            rates=rates,
            socket_w=socket_w,
            words=words,
        )

    # ------------------------------------------------------------------
    def _run_skeleton(
        self,
        workload: Workload,
        frequency_mhz: int,
        threads: int,
        phases: Optional[Sequence[PhaseSpec]],
    ) -> _RunSkeleton:
        """The run_index-independent phase stack, memoized.

        Keyed ``(workload, frequency, threads)``; a memo entry built
        from the workload's own phase list also serves ``phases=None``
        callers, while explicit phase lists must match the cached specs
        exactly (otherwise the skeleton is rebuilt uncached).
        """
        key = (workload.name, frequency_mhz, threads)
        cached = self._run_memo.get(key)
        if cached is not None:
            if phases is None:
                if cached.derived:
                    return cached
            elif tuple(phases) == cached.specs:
                return cached
        workload.validate_threads(threads, self.cfg.total_cores)
        op = self.cfg.curve.operating_point(frequency_mhz)
        derived = phases is None
        specs = tuple(workload.phases(threads)) if derived else tuple(phases)
        pairs = self._phase_states_fast(specs, op)
        if pairs:
            rates = np.stack([state.counter_rates for state, _ in pairs])
        else:
            rates = np.empty((0, len(COUNTER_NAMES)))
        rates.setflags(write=False)
        bounds = []
        t = 0.0
        for spec in specs:
            bounds.append((t, t + spec.duration_s))
            t += spec.duration_s
        breakdowns = tuple(breakdown for _, breakdown in pairs)
        socket_w = np.array(
            [b.per_socket_w for b in breakdowns], dtype=np.float64
        ).reshape(len(breakdowns), self.cfg.sockets)
        socket_w.setflags(write=False)
        skeleton = _RunSkeleton(
            specs=specs,
            op=op,
            rates=rates,
            hidden=tuple(state.hidden for state, _ in pairs),
            breakdowns=breakdowns,
            socket_w=socket_w,
            voltages=tuple(
                self.voltage.true_voltage(op, spec.active_threads)
                for spec in specs
            ),
            bounds=tuple(bounds),
            derived=derived,
        )
        if derived or cached is None:
            if len(self._run_memo) >= 4096:
                self._run_memo.pop(next(iter(self._run_memo)))
            self._run_memo[key] = skeleton
        return skeleton

    # ------------------------------------------------------------------
    def prime_run_skeletons(
        self, experiments: Iterable[Tuple[Workload, int, int]]
    ) -> None:
        """Warm the run/phase memos for a batch of experiments at once.

        A campaign visits every experiment's phases once per PMU event
        set; built one experiment at a time, each skeleton pays a
        separate :func:`~repro.hardware.fastsim.simulate_phases` call
        on a handful of phases — mostly fixed kernel-dispatch overhead.
        Priming groups every uncached phase state by operating point
        and evaluates each group through ONE batched call; elementwise
        float64 kernels are batch-size invariant, so the states equal
        the per-experiment builds bit for bit (the identity the fastsim
        test suite pins).  Purely a cache warm-up: :meth:`execute`
        output is unchanged whether or not this ran.
        """
        memo = self._phase_memo
        pending: List[Tuple[Workload, int, int]] = []
        by_op: Dict[int, Tuple[OperatingPoint, dict]] = {}
        for workload, frequency_mhz, threads in experiments:
            cached = self._run_memo.get((workload.name, frequency_mhz, threads))
            if cached is not None and cached.derived:
                continue
            workload.validate_threads(threads, self.cfg.total_cores)
            op = self.cfg.curve.operating_point(frequency_mhz)
            pending.append((workload, frequency_mhz, threads))
            group = by_op.setdefault(frequency_mhz, (op, {}))[1]
            for spec in workload.phases(threads):
                key = (spec.characterization, frequency_mhz, spec.active_threads)
                if memo.get(key) is None:
                    group[key] = None
        for op, group in by_op.values():
            if not group:
                continue
            uniq = list(group)
            results = simulate_phases(
                [key[0] for key in uniq],
                [key[2] for key in uniq],
                op,
                self.cfg,
                self.power_params,
            )
            for key, result in zip(uniq, results):
                memo.put(key, result)
        for workload, frequency_mhz, threads in pending:
            self._run_skeleton(workload, frequency_mhz, threads, None)

    # ------------------------------------------------------------------
    def prime_rng_words(
        self,
        runs: Iterable[Tuple[Workload, int, int, int]],
        plugin_names: Sequence[str],
    ) -> Dict[Tuple[str, int, int], RunWords]:
        """Expand the RNG words of a set of runs, per experiment.

        ``runs`` holds (workload, frequency_mhz, threads, run_index);
        ``plugin_names`` the plugin *type* names of the tracer (their
        RNG key heads).  Runs are grouped by (workload, frequency,
        threads) in first-seen order and each group is expanded exactly
        as :meth:`execute_runs` expands its batch, phase names taken
        from the workload's own phase list.  Nothing is cached: the
        experiment kernel expands its words where it runs (in the
        worker, on the process backend).
        """
        groups: Dict[Tuple[str, int, int], Tuple[Tuple[str, ...], List[int]]] = {}
        for workload, frequency_mhz, threads, run_index in runs:
            key = (workload.name, frequency_mhz, threads)
            group = groups.get(key)
            if group is None:
                skeleton = self._run_skeleton(workload, frequency_mhz, threads, None)
                group = groups[key] = (
                    tuple(spec.name for spec in skeleton.specs),
                    [],
                )
            group[1].append(run_index)
        return {
            key: self.expand_rng_words(*key, tuple(indices), names, plugin_names)
            for key, (names, indices) in groups.items()
        }

    def expand_rng_words(
        self,
        workload_name: str,
        frequency_mhz: int,
        threads: int,
        run_indices: Tuple[int, ...],
        phase_names: Tuple[str, ...],
        heads: Sequence[str],
    ) -> RunWords:
        """RNG words of runs ``run_indices`` of one experiment.

        Each run's jitter stream and, per plugin key head in ``heads``,
        one metric stream per phase in ``phase_names``.  Seeds are
        derived with the incremental hasher (equal to
        :func:`~repro.seeding.derive_seed` on the full key by the
        :class:`~repro.seeding.SeedHasher` contract) and expanded in
        one :func:`~repro.seeding.seedseq_state_words` call.
        """
        # The experiment part of every key is absorbed once per batch;
        # each run then hashes only its index (and phase names).
        experiment = SeedHasher.encode(workload_name, frequency_mhz, threads)
        run_hasher = self._run_hasher.child_encoded(experiment)
        hashers = []
        for head in heads:
            hasher = self._stream_hashers.get(head)
            if hasher is None:
                hasher = SeedHasher(self.seed, "plugin", head)
                self._stream_hashers[head] = hasher
            hashers.append(hasher.child_encoded(experiment))
        name_blobs = self._name_blobs
        blobs = []
        for name in phase_names:
            blob = name_blobs.get(name)
            if blob is None:
                if len(name_blobs) >= 4096:
                    name_blobs.clear()
                name_blobs[name] = blob = SeedHasher.encode(name)
            blobs.append(blob)
        seeds: List[int] = []
        for run_index in run_indices:
            run_blob = SeedHasher.encode(run_index)
            seeds.append(run_hasher.seed_encoded(run_blob))
            for hasher in hashers:
                child = hasher.child_encoded(run_blob)
                seeds.extend([child.seed_encoded(blob) for blob in blobs])
        # Per run: the jitter word, then each head's phase words.
        n_runs, n_phases = len(run_indices), len(phase_names)
        words = seedseq_state_words(seeds).reshape(
            n_runs, 1 + len(heads) * n_phases, 4
        )
        return RunWords(
            phase_names=phase_names,
            run=words[:, 0],
            streams={
                head: words[:, 1 + j * n_phases : 1 + (j + 1) * n_phases]
                for j, head in enumerate(heads)
            },
        )

    # ------------------------------------------------------------------
    def _phase_states_fast(
        self, specs: Sequence[PhaseSpec], op: OperatingPoint
    ) -> List[Tuple[MicroarchState, PowerBreakdown]]:
        """Pre-jitter (state, base power) per phase via the memo.

        Misses are batched through one :func:`simulate_phases` call;
        hits replay the campaign's earlier event-set runs for free.
        """
        memo = self._phase_memo
        keys = [
            (spec.characterization, op.frequency_mhz, spec.active_threads)
            for spec in specs
        ]
        out: List[Optional[Tuple[MicroarchState, PowerBreakdown]]] = [
            memo.get(key) for key in keys
        ]
        if any(entry is None for entry in out):
            missing: dict = {}
            for i, entry in enumerate(out):
                if entry is None:
                    missing.setdefault(keys[i], []).append(i)
            uniq = list(missing)
            results = simulate_phases(
                [key[0] for key in uniq],
                [key[2] for key in uniq],
                op,
                self.cfg,
                self.power_params,
            )
            for key, result in zip(uniq, results):
                memo.put(key, result)
                for i in missing[key]:
                    out[i] = result
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _apply_jitter(self, state: MicroarchState, jitter: float) -> MicroarchState:
        """Coherent run-to-run activity jitter (cycle counters exempt)."""
        rates = state.counter_rates.copy()
        rates[_JITTER_MASK] *= jitter
        return MicroarchState(counter_rates=rates, hidden=state.hidden)

    # ------------------------------------------------------------------
    def supported_frequencies(self) -> Tuple[int, int]:
        """Min/max pinnable core frequency in MHz."""
        return (
            self.cfg.curve.min_frequency_mhz,
            self.cfg.curve.max_frequency_mhz,
        )

    def describe(self) -> str:
        """Human-readable platform summary (README material)."""
        c = self.cfg
        return (
            f"{c.name}: {c.sockets} sockets x {c.cores_per_socket} cores, "
            f"{c.curve.min_frequency_mhz}-{c.curve.max_frequency_mhz} MHz, "
            f"{len(COUNTER_NAMES)} PAPI presets, "
            f"{c.programmable_slots} programmable PMU slots"
        )
