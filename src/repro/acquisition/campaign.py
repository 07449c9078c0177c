"""Measurement campaigns: the outer loop of data acquisition.

A campaign executes every (workload, frequency, thread count)
experiment the number of times the PMU scheduling demands (one run per
programmable counter group), traces each run with the Score-P plugins,
extracts phase profiles, and merges everything into a
:class:`~repro.acquisition.dataset.PowerDataset`.

This is the simulated equivalent of the multi-day measurement sessions
behind the paper's Section IV — and multi-day sessions on production
hardware are lossy, so two execution modes exist:

* :class:`Campaign` — the strict all-or-nothing loop: any failure
  aborts the whole campaign (the behaviour of the original tooling);
* :class:`ResilientCampaign` — the fault-tolerant loop: per-run
  bounded retry with backoff, quarantine of persistently failing
  cells, incremental checkpoint/resume through
  :class:`~repro.acquisition.checkpoint.CampaignCheckpoint`, and
  graceful degradation to a partial dataset with an explicit
  per-counter coverage map.  Every outcome is accounted for in a
  structured :class:`CampaignReport`.
"""

from __future__ import annotations

import hashlib
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.acquisition.checkpoint import (
    CampaignCheckpoint,
    ShardedManifest,
    cell_id,
)
from repro.acquisition.dataset import PowerDataset
from repro.audit.framework import AuditReport
from repro.acquisition.postprocess import (
    MergedPhase,
    build_dataset,
    counter_coverage,
    merge_runs,
)
from repro.faults.errors import AcquisitionError, RunFailure
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import validate_profiles, validate_trace
from repro.hardware.counters import COUNTER_NAMES
from repro.hardware.fastsim import fastsim_enabled
from repro.hardware.platform import Platform, RunExecution
from repro.hardware.pmu import EventSet, schedule_events
from repro.parallel import StageTimer, TimingReport, resolve_executor
from repro.tracing.phases import (
    PhaseProfile,
    haecsim_profiles,
    postprocess_profiles,
    profile_runs,
)
from repro.tracing.plugins import (
    ApapiPlugin,
    MultiplexedApapiPlugin,
    PowerPlugin,
    VoltagePlugin,
)
from repro.tracing.otf2 import Trace
from repro.tracing.scorep import RunSamples, ScorePTracer, record_runs
from repro.workloads.base import Workload

__all__ = [
    "CampaignPlan",
    "Campaign",
    "RetryPolicy",
    "CampaignCell",
    "CampaignReport",
    "CampaignResult",
    "ResilientCampaign",
    "run_campaign",
    "run_resilient_campaign",
]

ProgressFn = Callable[[str], None]


def _call_progress(
    progress: Optional[ProgressFn],
    message: str,
    errors: Optional[List[str]] = None,
) -> None:
    """Invoke a progress observer without letting it kill acquisition.

    A campaign observer is telemetry, not control flow: a buggy one
    must never abort a multi-day measurement session.  Its exception is
    recorded (``errors`` and a ``RuntimeWarning``) and acquisition
    continues.  ``BaseException`` — ``KeyboardInterrupt`` above all —
    still propagates: an operator interrupt delivered through an
    observer must stop the campaign (checkpoint/resume covers it).
    """
    if progress is None:
        return
    try:
        progress(message)
    except Exception as exc:
        note = f"progress hook raised {type(exc).__name__}: {exc}"
        if errors is not None:
            errors.append(note)
        warnings.warn(note, RuntimeWarning, stacklevel=3)


@dataclass(frozen=True)
class CampaignPlan:
    """What a campaign will measure."""

    workloads: Tuple[Workload, ...]
    frequencies_mhz: Tuple[int, ...]
    events: Tuple[str, ...] = COUNTER_NAMES
    sampling_interval_s: float = 0.1
    thread_counts_override: Optional[Tuple[int, ...]] = None
    """If set, used for every workload instead of its defaults."""
    multiplexing: str = "multi-run"
    """``multi-run`` (the paper's approach: one run per PMU counter
    group) or ``time-division`` (single run, counters rotated through
    the slots — cheaper but noisier)."""

    def experiments(self) -> List[Tuple[Workload, int, int]]:
        """All (workload, frequency, threads) combinations."""
        out = []
        for w in self.workloads:
            threads_list = self.thread_counts_override or w.default_thread_counts
            for f in self.frequencies_mhz:
                for t in threads_list:
                    out.append((w, f, t))
        return out

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("campaign needs at least one workload")
        if not self.frequencies_mhz:
            raise ValueError("campaign needs at least one frequency")
        if self.sampling_interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        if self.multiplexing not in ("multi-run", "time-division"):
            raise ValueError(
                f"multiplexing must be 'multi-run' or 'time-division', "
                f"got {self.multiplexing!r}"
            )


def _experiment_stretches(
    cells: Sequence["CampaignCell"], indices: Iterable[int]
) -> List[List[int]]:
    """``indices`` (ascending) split into runs of consecutive entries
    whose cells belong to one experiment."""
    stretches: List[List[int]] = []
    for i in indices:
        if stretches and cells[stretches[-1][0]].key[:3] == cells[i].key[:3]:
            stretches[-1].append(i)
        else:
            stretches.append([i])
    return stretches


def _trace_profiles(trace: Trace) -> List[PhaseProfile]:
    """Phase profiles of one trace: roco2 traces go through the
    HAEC-SIM module, benchmark traces through the custom OTF2
    post-processing tool (Section III-A)."""
    if trace.meta.get("suite") in ("roco2", "synthetic"):
        return haecsim_profiles(trace)
    return postprocess_profiles(trace)


class Campaign:
    """Executes a :class:`CampaignPlan` on a platform (all-or-nothing).

    ``parallel`` / ``max_workers`` select the cell-execution backend
    (see :mod:`repro.parallel`); results are assembled in cell order,
    so every backend produces bit-identical datasets.
    """

    def __init__(
        self,
        platform: Platform,
        plan: CampaignPlan,
        *,
        parallel: Optional[str] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.platform = platform
        self.plan = plan
        self.executor = resolve_executor(parallel, max_workers)
        self.event_sets: List[EventSet] = schedule_events(
            plan.events, platform.cfg
        )
        #: Observer-hook exceptions survived (see :func:`_call_progress`).
        self._hook_errors: List[str] = []
        #: Tracers cached per event set: stateless across traces, so a
        #: campaign builds one per counter group instead of one per
        #: cell.  Never pickled — workers rebuild their own.
        self._tracer_cache: Dict[Optional[int], ScorePTracer] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_tracer_cache"] = {}
        return state

    def _cell_tracer(self, cell: "CampaignCell") -> ScorePTracer:
        """The tracer for a cell's counter group, cached per event set.

        Caching rides the fastsim switch: under ``REPRO_FASTSIM=0``
        every cell rebuilds its tracer and plugins, as the original
        per-cell acquisition loop did.
        """
        key = None if cell.event_set is None else cell.run_index
        use_cache = fastsim_enabled(None)
        if use_cache:
            tracer = self._tracer_cache.get(key)
            if tracer is not None:
                return tracer
        if cell.event_set is None:
            counter_plugin: Any = MultiplexedApapiPlugin(
                self.platform, self.plan.events
            )
        else:
            counter_plugin = ApapiPlugin(self.platform, cell.event_set)
        tracer = ScorePTracer(
            self.platform,
            [
                PowerPlugin(self.platform),
                VoltagePlugin(self.platform),
                counter_plugin,
            ],
            sampling_interval_s=self.plan.sampling_interval_s,
            fault_injector=getattr(self, "injector", None),
            # A cached tracer only ever serves the fast path (the cache
            # is bypassed under REPRO_FASTSIM=0), so pin the mode and
            # spare every trace an environment lookup.
            fast=True if use_cache else None,
        )
        if use_cache:
            self._tracer_cache[key] = tracer
        return tracer

    def _prime_skeletons(self) -> None:
        """Warm the run skeletons of every experiment in one batched
        build (a pure cache warm-up: outputs are unchanged).

        Skipped under ``REPRO_FASTSIM=0``, where the scalar loop
        replays per-cell builds, and on the process backend: workers
        unpickle the platform without its memos, so a parent-side
        warm-up would be thrown away.
        """
        if fastsim_enabled(None) and self.executor.kind != "process":
            self.platform.prime_run_skeletons(self.plan.experiments())

    @property
    def runs_per_experiment(self) -> int:
        """Run count imposed by the acquisition mode."""
        if self.plan.multiplexing == "time-division":
            return 1
        return len(self.event_sets)

    def cells(self) -> List["CampaignCell"]:
        """The campaign's unit-of-retry grid: one cell per run.

        Multi-run mode has one cell per (experiment, event set);
        time-division mode one cell per experiment (``event_set``
        ``None`` means "all plan events, multiplexed").
        """
        return [cell for cells in self.experiment_cells() for cell in cells]

    def experiment_cells(self) -> List[List["CampaignCell"]]:
        """:meth:`cells` grouped per (workload, frequency, threads)
        experiment, in cell order — the campaign's work items."""
        if self.plan.multiplexing == "time-division":
            return [
                [CampaignCell(workload, frequency_mhz, threads, 0, None)]
                for workload, frequency_mhz, threads in self.plan.experiments()
            ]
        return [
            [
                CampaignCell(workload, frequency_mhz, threads, run_index, event_set)
                for run_index, event_set in enumerate(self.event_sets)
            ]
            for workload, frequency_mhz, threads in self.plan.experiments()
        ]

    def execute_cell(
        self, cell: "CampaignCell", *, attempt: int = 0, phases=None
    ) -> List[PhaseProfile]:
        """Execute one cell: run, trace, extract phase profiles.

        A batch of one through :meth:`execute_experiment`.  ``phases``
        forwards a pre-derived phase list to the platform (retry loops
        derive it once).
        """
        return self.execute_experiment([cell], phases=phases)[0]

    def execute_experiment(
        self, cells: Sequence["CampaignCell"], *, phases=None
    ) -> List[List[PhaseProfile]]:
        """The experiment kernel: every cell of one experiment in one pass.

        ``cells`` share (workload, frequency, threads) and may hold any
        subset of its runs.  The platform executes them as one stacked
        batch (one skeleton lookup, one RNG-word expansion), the
        tracers record them in one pass per plugin, and one
        window-mean pass extracts every run's phase profiles — the
        aggregation both the HAEC-SIM module (roco2 traces) and the
        custom OTF2 post-processing tool (benchmark traces) perform
        (Section III-A).  Returns each cell's profiles, in cell order.

        Under ``REPRO_FASTSIM=0`` each cell runs the scalar reference
        chain instead: execute, trace, profile, one cell at a time.
        """
        head = cells[0]
        if any(cell.key[:3] != head.key[:3] for cell in cells):
            raise ValueError(
                "an experiment's cells share workload, frequency and threads"
            )
        if not fastsim_enabled(None):
            return [
                _trace_profiles(self._trace_cell(cell, phases=phases)[1])
                for cell in cells
            ]
        return profile_runs(self._record_cells(cells, phases=phases))

    def _trace_cell(
        self,
        cell: "CampaignCell",
        *,
        attempt: int = 0,
        phases=None,
        recorded: Optional[Tuple[RunSamples, int]] = None,
    ) -> Tuple[RunExecution, Trace]:
        """One cell's run and :class:`Trace` (fault injection included),
        for consumers that need the trace.

        ``recorded`` is the cell's row of an experiment pass
        (:meth:`_record_cells`); without it the cell is recorded as a
        batch of one — one RNG-word expansion covers the run's jitter
        and every metric stream — or, under ``REPRO_FASTSIM=0``, runs
        the scalar reference chain.
        """
        tracer = self._cell_tracer(cell)
        if recorded is None:
            if not fastsim_enabled(None):
                run = self.platform.execute(
                    cell.workload,
                    cell.frequency_mhz,
                    cell.threads,
                    run_index=cell.run_index,
                    phases=phases,
                )
                return run, tracer.trace(run, attempt=attempt)
            recorded = (self._record_cells([cell], phases=phases), 0)
        samples, i = recorded
        return samples.batch.run(i), tracer.trace_recorded(samples, i, attempt=attempt)

    def _record_cells(
        self, cells: Sequence["CampaignCell"], *, phases=None
    ) -> RunSamples:
        """The kernel's execution and tracing stages over cells of one
        experiment: one stacked execution, one recording pass."""
        tracers = [self._cell_tracer(cell) for cell in cells]
        head = cells[0]
        batch = self.platform.execute_runs(
            head.workload,
            head.frequency_mhz,
            head.threads,
            [cell.run_index for cell in cells],
            phases=phases,
            streams=tracers[0]._plugin_names,
        )
        return record_runs(batch, tracers)

    def _collect_experiment(
        self, cells: Sequence["CampaignCell"]
    ) -> List[PhaseProfile]:
        """One work item: an experiment's profiles, flattened."""
        return [
            profile
            for cell_profiles in self.execute_experiment(cells)
            for profile in cell_profiles
        ]

    def collect_profiles(
        self, progress: Optional[ProgressFn] = None
    ) -> List[PhaseProfile]:
        """Execute all runs and extract phase profiles.

        The work item is an experiment (:meth:`experiment_cells`): a worker
        executes all of its event-set runs through the experiment
        kernel and expands their RNG words itself.  Profiles are
        concatenated in cell order regardless of backend, so serial and
        parallel campaigns build identical datasets.
        """
        experiments = self.experiment_cells()
        self._prime_skeletons()
        if self.executor.kind == "serial":
            profiles: List[PhaseProfile] = []
            for cells in experiments:
                self._announce(cells[0], progress)
                profiles.extend(self._collect_experiment(cells))
            return profiles
        # Announce in cell order up front; execution interleaves.
        for cells in experiments:
            self._announce(cells[0], progress)
        per_experiment = self.executor.map(self._collect_experiment, experiments)
        return [
            profile for profiles in per_experiment for profile in profiles
        ]

    def _announce(
        self, cell: "CampaignCell", progress: Optional[ProgressFn]
    ) -> None:
        _call_progress(
            progress,
            f"{cell.workload.name} @ {cell.frequency_mhz} MHz, "
            f"{cell.threads} threads",
            self._hook_errors,
        )

    def run(
        self,
        progress: Optional[ProgressFn] = None,
        *,
        require_complete: bool = True,
    ) -> PowerDataset:
        """Full campaign: execute, trace, profile, merge, assemble."""
        profiles = self.collect_profiles(progress)
        merged = merge_runs(profiles)
        return build_dataset(
            merged,
            require_complete=require_complete,
            counter_names=self.plan.events,
        )


# ---------------------------------------------------------------------------
# fault-tolerant execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignCell:
    """One run of one experiment — the unit of retry and checkpointing."""

    workload: Workload
    frequency_mhz: int
    threads: int
    run_index: int
    event_set: Optional[EventSet]
    """``None`` in time-division mode (all events, one multiplexed run)."""

    @property
    def key(self) -> Tuple[str, int, int, int]:
        return (
            self.workload.name,
            self.frequency_mhz,
            self.threads,
            self.run_index,
        )

    @property
    def events(self) -> Tuple[str, ...]:
        return self.event_set.events if self.event_set is not None else ()

    def describe(self) -> str:
        return (
            f"{self.workload.name}@{self.frequency_mhz}MHz/"
            f"{self.threads}t#{self.run_index}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for failed runs."""

    max_attempts: int = 3
    """Total attempts per cell before quarantine (≥ 1)."""
    backoff_base_s: float = 0.0
    """Delay before the first retry; 0 disables sleeping entirely
    (the right setting for simulated campaigns and tests)."""
    backoff_factor: float = 2.0
    backoff_max_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return min(
            self.backoff_base_s * self.backoff_factor**attempt,
            self.backoff_max_s,
        )


@dataclass(frozen=True)
class CampaignReport:
    """Structured account of what a resilient campaign went through."""

    total_cells: int
    completed_cells: int
    resumed_cells: int
    """Cells restored from the checkpoint instead of re-executed."""
    retries: int
    """Extra attempts beyond the first, summed over all cells."""
    total_backoff_s: float
    faults_observed: Mapping[str, int]
    """Fault kind → occurrence count, over all attempts."""
    quarantined: Tuple[Tuple[str, str], ...]
    """(cell description, last error) for cells that exhausted retries."""
    merge_issues: Tuple[str, ...]
    """Recorded post-processing inconsistencies (phase-set mismatches,
    counter disagreements)."""
    counter_coverage: Mapping[str, float]
    """Fraction of merged phases carrying each requested counter."""
    dropped_counters: Tuple[str, ...]
    """Counters excluded from the dataset for insufficient coverage."""
    degraded_phases: int
    """Merged phases dropped for missing one of the kept counters."""
    hook_errors: Tuple[str, ...] = ()
    """Exceptions raised by progress/observer hooks and survived.  A
    bad observer never aborts acquisition (it is telemetry, not control
    flow) but the campaign accounts for the breakage."""
    scheduling: Optional[object] = None
    """:class:`repro.sched.ProgressReport` when the campaign ran under
    the cluster scheduler: per-node throughput, reassignment counts,
    quarantined placements.  ``None`` for local campaigns.  Scheduling
    is capacity accounting only — it never influences the dataset,
    which stays a pure function of ``(root_seed, cell)``."""
    timing: Optional[TimingReport] = None
    """Per-stage wall time (monotonic clock).  Excluded from bit-identity
    comparisons — wall time legitimately differs between backends."""
    audit: Optional[AuditReport] = None
    """Statistical-rigor verdict over the acquisition provenance
    (:mod:`repro.audit` rule AU010): faults, quarantines and coverage
    degradation roll up into ``audit.verdict``."""

    @property
    def clean(self) -> bool:
        """True when the campaign saw no faults and degraded nothing."""
        return (
            self.retries == 0
            and not self.faults_observed
            and not self.quarantined
            and not self.merge_issues
            and not self.dropped_counters
            and self.degraded_phases == 0
        )

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"campaign cells: {self.completed_cells}/{self.total_cells} "
            f"completed ({self.resumed_cells} resumed from checkpoint)",
            f"retries: {self.retries} "
            f"(total backoff {self.total_backoff_s:.1f} s)",
        ]
        if self.faults_observed:
            counts = ", ".join(
                f"{kind}×{n}" for kind, n in sorted(self.faults_observed.items())
            )
            lines.append(f"faults observed: {counts}")
        if self.quarantined:
            lines.append(f"quarantined cells ({len(self.quarantined)}):")
            lines.extend(f"  {desc}: {why}" for desc, why in self.quarantined)
        if self.merge_issues:
            lines.append(f"merge issues ({len(self.merge_issues)}):")
            lines.extend(f"  {issue}" for issue in self.merge_issues)
        if self.dropped_counters:
            lines.append(
                f"degraded: dropped counters {list(self.dropped_counters)}"
            )
        if self.degraded_phases:
            lines.append(
                f"degraded: {self.degraded_phases} phases dropped for "
                f"incomplete counter coverage"
            )
        if self.hook_errors:
            lines.append(f"hook errors survived ({len(self.hook_errors)}):")
            lines.extend(f"  {err}" for err in self.hook_errors)
        if self.clean:
            lines.append("no faults observed — clean campaign")
        if self.scheduling is not None:
            lines.extend(self.scheduling.summary())
        if self.audit is not None and not self.audit.clean:
            lines.append(f"audit verdict: {self.audit.verdict}")
        if self.timing is not None and self.timing.stages:
            lines.append("timing:")
            lines.extend(f"  {s.describe()}" for s in self.timing.stages)
        return "\n".join(lines)


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a resilient campaign: data plus accountability."""

    dataset: Optional[PowerDataset]
    """``None`` when nothing usable survived (all cells quarantined)."""
    report: CampaignReport


@dataclass
class _CellOutcome:
    profiles: Optional[List[PhaseProfile]]
    attempts: int
    faults: List[str] = field(default_factory=list)
    last_error: str = ""


class ResilientCampaign(Campaign):
    """Fault-tolerant campaign execution.

    Wraps the strict :class:`Campaign` grid with, per cell: fault
    injection (optional), bounded retry with backoff, quarantine after
    exhausted retries, and incremental checkpointing.  The final merge
    degrades gracefully — holes become coverage-map entries and report
    lines instead of exceptions.

    Parameters
    ----------
    faults:
        Fault plan injected during acquisition (``None`` → no injected
        faults; the watchdog still validates every trace).
    retry:
        Per-cell retry budget and backoff.
    checkpoint_dir:
        Directory for incremental persistence; ``None`` disables
        checkpointing.  A directory written by a differently-configured
        campaign is detected via fingerprint and reset.
    min_counter_coverage:
        Counters covered by fewer than this fraction of merged phases
        are dropped from the dataset (columns), then phases missing any
        surviving counter are dropped (rows).
    validate:
        Run the acquisition watchdog on every trace/profile set.
    sleep_fn:
        Injectable sleep (tests pass a recorder; default
        :func:`time.sleep`).  Must be picklable for
        ``parallel="process"`` (closures are not — pin those tests to
        serial).
    parallel, max_workers:
        Cell-execution backend (see :mod:`repro.parallel`).  Outcomes
        are accounted in cell order, so every backend is bit-identical
        to serial — including under injected faults, whose decisions
        are keyed per (cell, attempt).
    """

    def __init__(
        self,
        platform: Platform,
        plan: CampaignPlan,
        *,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        min_counter_coverage: float = 0.75,
        validate: bool = True,
        sleep_fn: Callable[[float], None] = time.sleep,
        parallel: Optional[str] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        super().__init__(
            platform, plan, parallel=parallel, max_workers=max_workers
        )
        if not 0.0 <= min_counter_coverage <= 1.0:
            raise ValueError("min_counter_coverage must be in [0, 1]")
        self.faults = faults or FaultPlan()
        self.injector = FaultInjector(self.faults, platform.seed)
        self.retry = retry or RetryPolicy()
        self.min_counter_coverage = min_counter_coverage
        self.validate = validate
        self.sleep_fn = sleep_fn
        self.checkpoint: Optional[
            Union[CampaignCheckpoint, ShardedManifest]
        ] = None
        if checkpoint_dir is not None:
            self.checkpoint = CampaignCheckpoint(
                checkpoint_dir, self.fingerprint()
            )

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Hash of everything that determines the stored cell data."""
        parts = (
            "seed", self.platform.seed,
            "cfg", self.platform.cfg.name,
            "jitter", repr(self.platform.run_jitter_sigma),
            repr(self.platform.power_jitter_sigma),
            repr(self.platform.power_offset_sigma_w),
            "workloads", ",".join(w.name for w in self.plan.workloads),
            "frequencies", repr(self.plan.frequencies_mhz),
            "threads", repr(self.plan.thread_counts_override),
            "events", ",".join(self.plan.events),
            "interval", repr(self.plan.sampling_interval_s),
            "mux", self.plan.multiplexing,
            "faults", repr(self.faults),
            "attempts", self.retry.max_attempts,
            "validate", self.validate,
        )
        h = hashlib.blake2b(digest_size=12)
        for part in parts:
            h.update(str(part).encode())
            h.update(b"\x1f")
        return h.hexdigest()

    # ------------------------------------------------------------------
    def execute_cell(
        self, cell: CampaignCell, *, attempt: int = 0, phases=None
    ) -> List[PhaseProfile]:
        """One attempt at one cell, with fault injection + validation."""
        return self._attempt_cell(cell, attempt, phases, None)

    def _attempt_cell(
        self,
        cell: CampaignCell,
        attempt: int,
        phases,
        recorded: Optional[Tuple[RunSamples, int]],
    ) -> List[PhaseProfile]:
        self.injector.check_run(*cell.key, attempt=attempt)
        run, trace = self._trace_cell(
            cell, attempt=attempt, phases=phases, recorded=recorded
        )
        if self.validate:
            validate_trace(trace)
        profiles = _trace_profiles(trace)
        if self.validate:
            validate_profiles(profiles, run)
        return profiles

    def run_cell(self, cell: CampaignCell) -> _CellOutcome:
        """Execute one cell under the retry policy.

        Fault decisions are keyed on (cell, attempt) — deterministic,
        independent of wall-clock and of other cells, which is what
        makes interrupted campaigns resumable bit-for-bit.
        """
        return self._run_cell(cell, None)

    def _run_cell(
        self, cell: CampaignCell, recorded: Optional[Tuple[RunSamples, int]]
    ) -> _CellOutcome:
        """:meth:`run_cell`; with ``recorded`` — the cell's row of an
        experiment pass — every attempt replays that recording instead
        of executing the cell again: a cell's samples are a pure
        function of the cell, and faults strike per attempt (crash
        before, corruption after the measurement)."""
        outcome = _CellOutcome(profiles=None, attempts=0)
        # The phase list is a pure function of (workload, threads):
        # derive it once, not once per attempt.
        phases = tuple(cell.workload.phases(cell.threads))
        for attempt in range(self.retry.max_attempts):
            outcome.attempts = attempt + 1
            try:
                outcome.profiles = self._attempt_cell(
                    cell, attempt, phases, recorded
                )
                return outcome
            except (RunFailure, AcquisitionError) as exc:
                outcome.faults.append(exc.kind)
                outcome.last_error = str(exc)
                if attempt + 1 < self.retry.max_attempts:
                    delay_s = self.retry.delay_s(attempt)
                    if delay_s > 0:
                        self.sleep_fn(delay_s)
        return outcome

    def _record_stretch(
        self, cells: Sequence[CampaignCell]
    ) -> List[Optional[Tuple[RunSamples, int]]]:
        """Each cell's row of one kernel pass over ``cells``.

        When the platform fails the pass (a crashed run raises before
        any is recorded), every row is ``None``: each cell then records
        itself inside its retry loop, where a platform failure is
        retried and quarantined like any other fault.
        """
        try:
            samples = self._record_cells(cells)
        except (RunFailure, AcquisitionError):
            return [None] * len(cells)
        return [(samples, i) for i in range(len(cells))]

    def _run_experiment(self, cells: Sequence[CampaignCell]) -> List[_CellOutcome]:
        """One work item: cells of one experiment, recorded in one
        kernel pass, each then run under the retry policy."""
        if not fastsim_enabled(None):
            return [self.run_cell(cell) for cell in cells]
        return [
            self._run_cell(cell, recorded)
            for cell, recorded in zip(cells, self._record_stretch(cells))
        ]

    # ------------------------------------------------------------------
    def _run_cells_serial(
        self, cells: List[CampaignCell], progress: Optional[ProgressFn]
    ) -> Tuple[List[Optional[_CellOutcome]], Dict[int, List[PhaseProfile]]]:
        """The reference cell loop: strictly interleaved progress,
        execution and checkpointing (an interrupt mid-loop leaves every
        finished cell stored — the resume tests rely on this).

        The first cell to run in a stretch of one experiment's cells
        records the rest of the stretch with it (one kernel pass); the
        loop still runs, accounts and stores cell by cell.
        """
        outcomes: List[Optional[_CellOutcome]] = []
        resumed: Dict[int, List[PhaseProfile]] = {}
        recorded: Dict[int, Optional[Tuple[RunSamples, int]]] = {}
        stretch_of = {
            i: stretch
            for stretch in _experiment_stretches(cells, range(len(cells)))
            for i in stretch
        }
        use_fast = fastsim_enabled(None)
        for i, cell in enumerate(cells):
            cid = cell_id(*cell.key, self.plan.events)
            _call_progress(
                progress, f"cell {cell.describe()}", self._hook_errors
            )
            if self.checkpoint is not None:
                stored = self.checkpoint.load(cid)
                if stored is not None:
                    outcomes.append(None)
                    resumed[i] = stored
                    continue
            if use_fast and i not in recorded:
                rest = [j for j in stretch_of[i] if j >= i]
                rows = self._record_stretch([cells[j] for j in rest])
                recorded.update(zip(rest, rows))
            outcome = self._run_cell(cell, recorded.pop(i, None))
            if self.checkpoint is not None and outcome.profiles is not None:
                self.checkpoint.store(cid, outcome.profiles)
            outcomes.append(outcome)
        return outcomes, resumed

    def _run_cells_parallel(
        self, cells: List[CampaignCell], progress: Optional[ProgressFn]
    ) -> Tuple[List[Optional[_CellOutcome]], Dict[int, List[PhaseProfile]]]:
        """Fan the non-resumed cells out over the executor, one
        experiment's stretch of cells per work item.

        Checkpoint loads and progress stay in the parent (in cell
        order); checkpoint stores run in the parent via the
        ``on_result`` hook as work items complete, so an interrupt
        still loses at most the in-flight experiments.
        """
        outcomes: List[Optional[_CellOutcome]] = [None] * len(cells)
        pending: List[int] = []
        cids = [cell_id(*cell.key, self.plan.events) for cell in cells]
        resumed: Dict[int, List[PhaseProfile]] = {}
        for i, cell in enumerate(cells):
            _call_progress(
                progress, f"cell {cell.describe()}", self._hook_errors
            )
            if self.checkpoint is not None:
                stored = self.checkpoint.load(cids[i])
                if stored is not None:
                    resumed[i] = stored
                    continue
            pending.append(i)

        groups = _experiment_stretches(cells, pending)

        def _store(group_index: int, group_outcomes: List[_CellOutcome]) -> None:
            if self.checkpoint is None:
                return
            for i, outcome in zip(groups[group_index], group_outcomes):
                if outcome.profiles is not None:
                    self.checkpoint.store(cids[i], outcome.profiles)

        results = self.executor.map(
            self._run_experiment,
            [[cells[i] for i in group] for group in groups],
            on_result=_store,
        )
        for group, group_outcomes in zip(groups, results):
            for i, outcome in zip(group, group_outcomes):
                outcomes[i] = outcome
        return outcomes, resumed

    def _acquire(
        self, cells: List[CampaignCell], progress: Optional[ProgressFn]
    ) -> Tuple[List[Optional[_CellOutcome]], Dict[int, List[PhaseProfile]]]:
        """Acquisition stage: one outcome per cell (``None`` = resumed)
        plus the resumed profiles by cell index.  The scheduler
        subclass overrides this with cluster placement; accounting and
        merging stay in :meth:`run`."""
        if self.executor.kind == "serial":
            return self._run_cells_serial(cells, progress)
        return self._run_cells_parallel(cells, progress)

    def _report_extras(self) -> Dict[str, object]:
        """Extra :class:`CampaignReport` fields from subclasses (the
        scheduler attaches its ``scheduling`` progress report here)."""
        return {}

    def run(self, progress: Optional[ProgressFn] = None) -> CampaignResult:
        """Fault-tolerant campaign: retry, quarantine, checkpoint,
        merge with graceful degradation, and report.

        The accounting below walks outcomes in cell order whichever
        backend executed them, so the dataset and every report field
        except ``timing`` are bit-identical across backends.
        """
        profiles: List[PhaseProfile] = []
        faults_observed: Dict[str, int] = {}
        quarantined: List[Tuple[str, str]] = []
        retries = 0
        completed = 0
        backoff_s = 0.0
        self._hook_errors = []
        cells = self.cells()
        # The resilient path bypasses collect_profiles, so it warms the
        # run skeletons itself.
        self._prime_skeletons()
        timer = StageTimer()
        with timer.stage(
            "acquisition", n_items=len(cells), executor=self.executor
        ):
            outcomes, resumed_profiles = self._acquire(cells, progress)
        resumed = len(resumed_profiles)
        completed += resumed
        for i, (cell, outcome) in enumerate(zip(cells, outcomes)):
            if outcome is None:  # resumed from checkpoint
                profiles.extend(resumed_profiles[i])
                continue
            retries += outcome.attempts - 1
            for attempt in range(outcome.attempts - 1):
                backoff_s += self.retry.delay_s(attempt)
            for kind in outcome.faults:
                faults_observed[kind] = faults_observed.get(kind, 0) + 1
            if outcome.profiles is None:
                quarantined.append((cell.describe(), outcome.last_error))
                continue
            completed += 1
            profiles.extend(outcome.profiles)

        merge_issues: List[str] = []
        with timer.stage("merge", n_items=len(profiles)):
            merged: List[MergedPhase] = merge_runs(
                profiles,
                on_phase_mismatch="record",
                on_counter_disagreement="record",
                issues=merge_issues,
            )
        coverage = counter_coverage(merged, self.plan.events)
        kept = tuple(
            c
            for c in self.plan.events
            if coverage[c] >= self.min_counter_coverage
        )
        dropped_counters = tuple(c for c in self.plan.events if c not in kept)
        dataset: Optional[PowerDataset] = None
        degraded_phases = 0
        if merged and kept:
            rows = [
                m
                for m in merged
                if all(c in m.counter_rates_per_s for c in kept)
            ]
            degraded_phases = len(merged) - len(rows)
            if rows:
                dataset = build_dataset(
                    rows, require_complete=True, counter_names=kept
                )
        report = CampaignReport(
            total_cells=len(cells),
            completed_cells=completed,
            resumed_cells=resumed,
            retries=retries,
            total_backoff_s=backoff_s,
            faults_observed=faults_observed,
            quarantined=tuple(quarantined),
            merge_issues=tuple(merge_issues),
            counter_coverage=coverage,
            dropped_counters=dropped_counters,
            degraded_phases=degraded_phases,
            hook_errors=tuple(self._hook_errors),
            timing=timer.report(),
            **self._report_extras(),
        )
        from repro.audit.engine import audit_campaign

        report = replace(report, audit=audit_campaign(report))
        return CampaignResult(dataset=dataset, report=report)


# ---------------------------------------------------------------------------
# convenience wrappers
# ---------------------------------------------------------------------------


def _make_plan(
    workloads: Sequence[Workload],
    frequencies_mhz: Sequence[int],
    *,
    events: Optional[Sequence[str]],
    sampling_interval_s: float,
    thread_counts: Optional[Sequence[int]],
    multiplexing: str,
) -> CampaignPlan:
    return CampaignPlan(
        workloads=tuple(workloads),
        frequencies_mhz=tuple(int(f) for f in frequencies_mhz),
        events=tuple(events) if events is not None else COUNTER_NAMES,
        sampling_interval_s=sampling_interval_s,
        thread_counts_override=tuple(thread_counts) if thread_counts else None,
        multiplexing=multiplexing,
    )


def run_campaign(
    platform: Platform,
    workloads: Sequence[Workload],
    frequencies_mhz: Sequence[int],
    *,
    events: Optional[Sequence[str]] = None,
    sampling_interval_s: float = 0.1,
    thread_counts: Optional[Sequence[int]] = None,
    multiplexing: str = "multi-run",
    require_complete: bool = True,
    progress: Optional[ProgressFn] = None,
    parallel: Optional[str] = None,
    max_workers: Optional[int] = None,
) -> PowerDataset:
    """One-call convenience around :class:`Campaign`.

    Exposes the full plan surface — ``events`` (counter subset),
    ``multiplexing`` mode and ``require_complete`` are forwarded, not
    silently fixed to defaults.
    """
    plan = _make_plan(
        workloads,
        frequencies_mhz,
        events=events,
        sampling_interval_s=sampling_interval_s,
        thread_counts=thread_counts,
        multiplexing=multiplexing,
    )
    campaign = Campaign(
        platform, plan, parallel=parallel, max_workers=max_workers
    )
    return campaign.run(progress, require_complete=require_complete)


def run_resilient_campaign(
    platform: Platform,
    workloads: Sequence[Workload],
    frequencies_mhz: Sequence[int],
    *,
    events: Optional[Sequence[str]] = None,
    sampling_interval_s: float = 0.1,
    thread_counts: Optional[Sequence[int]] = None,
    multiplexing: str = "multi-run",
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    min_counter_coverage: float = 0.75,
    progress: Optional[ProgressFn] = None,
    parallel: Optional[str] = None,
    max_workers: Optional[int] = None,
) -> CampaignResult:
    """One-call convenience around :class:`ResilientCampaign`."""
    plan = _make_plan(
        workloads,
        frequencies_mhz,
        events=events,
        sampling_interval_s=sampling_interval_s,
        thread_counts=thread_counts,
        multiplexing=multiplexing,
    )
    campaign = ResilientCampaign(
        platform,
        plan,
        faults=faults,
        retry=retry,
        checkpoint_dir=checkpoint_dir,
        min_counter_coverage=min_counter_coverage,
        parallel=parallel,
        max_workers=max_workers,
    )
    return campaign.run(progress)
