"""In-memory span tracer and the layer probes of the traced run.

Spans are recorded only from outside the program: each probe replaces a
public function or method of one layer with a wrapper that opens a span,
calls through and closes it.  Module functions are replaced in their
defining module *and* in every loaded ``repro`` module that bound them
by name (``from repro.core.selection import select_events``), so callers
that imported the name early are traced too.  ``restore()`` puts every
original back.

Only the tracing process's main thread records: forked process-pool
workers inherit the wrappers but call straight through, so on the
process backend spans stop at the parent-side boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from common import percentile

#: One span: [name, start, end, parent index or -1].
Span = List[Any]

Hook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Nested spans and named counts, kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -------------------------------------------------------
    def recording(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield
        finally:
            self.leave(idx)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        prepare: Optional[Callable[["Tracer", tuple, dict], Tuple[tuple, dict]]] = None,
        after: Optional[Hook] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; hooks run outside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(tracer, args, kwargs)
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self, probes: Iterable["Probe"]) -> None:
        for probe in probes:
            module = importlib.import_module(probe.module)
            if "." in probe.qualname:
                cls_name, attr = probe.qualname.split(".")
                cls = getattr(module, cls_name)
                raw = inspect.getattr_static(cls, attr)
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self.wrap(raw.__func__, probe.span, **probe.hooks))
                else:
                    wrapped = self.wrap(raw, probe.span, **probe.hooks)
                self._set(cls, attr, wrapped)
                continue
            fn = getattr(module, probe.qualname)
            wrapped = self.wrap(fn, probe.span, **probe.hooks)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapped)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original, had = self._patched.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Probe:
    """One public entry point of a layer, traced as span ``span``."""

    def __init__(self, target: str, span: str, **hooks: Callable) -> None:
        self.module, self.qualname = target.split(":")
        self.span = span
        self.hooks = hooks


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: summed duration minus what direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: Dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - _covered(children.get(idx, ()), start, end)
    return dict(out)


def total_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: summed inclusive duration."""
    out: Dict[str, float] = defaultdict(float)
    for name, start, end, _parent in spans:
        out[name] += end - start
    return dict(out)


def outer_calls(spans: Sequence[Span], group: Sequence[str]) -> int:
    """Spans named in ``group`` whose parent is not in ``group``
    (a layer calling itself counts once)."""
    names = set(group)
    return sum(
        1
        for name, _s, _e, parent in spans
        if name in names and (parent < 0 or spans[parent][0] not in names)
    )


# ---------------------------------------------------------------------------
# the probes
# ---------------------------------------------------------------------------


def _count_cells(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    campaign = args[0]
    tracer.count(
        "acquisition.cells",
        len(campaign.plan.experiments()) * campaign.runs_per_experiment,
    )


def _count_rows(counter: str) -> Hook:
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(counter, result.n_samples)

    return hook


def _count_selection_rows(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    dataset = args[0] if args else kwargs["dataset"]
    tracer.count("core.selection.rows", dataset.n_samples)


def _count_findings(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("audit.findings", len(result.findings))


def _count_submit(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("serve.stateless", len(result))


def _count_process(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("serve.rows", result.processed_rows)
    tracer.count("serve.stateless", len(result.stateless))


def _materialize_items(tracer: Tracer, args: tuple, kwargs: dict) -> Tuple[tuple, dict]:
    if len(args) >= 3:
        items = list(args[2])
        args = args[:2] + (items,) + args[3:]
    else:
        items = list(kwargs["items"])
        kwargs = dict(kwargs, items=items)
    tracer.count("parallel.items", len(items))
    return args, kwargs


#: Public entry points per layer.  Span names are the per-layer metric
#: prefixes of ``BENCHMARK.json``.
PROBES: Tuple[Probe, ...] = (
    Probe("repro.hardware.platform:Platform.execute", "hardware.execute"),
    Probe("repro.hardware.platform:Platform.prime_run_skeletons", "hardware.prime"),
    Probe("repro.hardware.platform:Platform.prime_rng_words", "hardware.prime"),
    Probe("repro.tracing.scorep:ScorePTracer.trace", "tracing.trace"),
    Probe("repro.tracing.phases:profile_trace", "tracing.profile"),
    Probe("repro.tracing.phases:haecsim_profiles", "tracing.profile"),
    Probe("repro.tracing.phases:postprocess_profiles", "tracing.profile"),
    Probe(
        "repro.acquisition.campaign:Campaign.collect_profiles",
        "acquisition.collect",
        after=_count_cells,
    ),
    Probe("repro.acquisition.postprocess:merge_runs", "acquisition.merge"),
    Probe(
        "repro.acquisition.postprocess:build_dataset",
        "acquisition.build",
        after=_count_rows("acquisition.rows"),
    ),
    Probe("repro.acquisition.dataset:PowerDataset.save_npz", "acquisition.cache_save"),
    Probe("repro.acquisition.dataset:PowerDataset.load_npz", "acquisition.cache_load"),
    Probe("repro.seeding:derive_rng", "seeding.derive_rng"),
    Probe(
        "repro.core.selection:select_events",
        "core.selection.select",
        after=_count_selection_rows,
    ),
    Probe("repro.core.model:PowerModel.fit", "core.model.fit"),
    Probe("repro.stats.crossval:cross_validate", "core.scenarios.cv"),
    Probe("repro.core.scenarios:cv_out_of_fold_predictions", "core.scenarios.cv"),
    Probe("repro.core.scenarios:scenario_cv_all", "core.scenarios.cv"),
    Probe("repro.core.scenarios:scenario_cv_synthetic", "core.scenarios.cv"),
    Probe("repro.core.scenarios:run_all_scenarios", "core.scenarios.all"),
    Probe("repro.core.scenarios:scenario_random_workloads", "core.scenarios.all"),
    Probe("repro.core.scenarios:scenario_synthetic_to_spec", "core.scenarios.all"),
    Probe("repro.audit.engine:run_audit", "audit.audit", after=_count_findings),
    Probe("repro.audit.engine:audit_workflow", "audit.audit"),
    Probe("repro.audit.engine:audit_model", "audit.audit"),
    Probe("repro.audit.engine:audit_campaign", "audit.audit"),
    Probe("repro.audit.engine:audit_drift", "audit.audit"),
    Probe("repro.audit.engine:audit_fleet", "audit.audit"),
    Probe("repro.faults.ingest:IngestFaultInjector.corrupt", "faults.corrupt"),
    Probe("repro.serve.app:FleetService.submit", "serve.submit", after=_count_submit),
    Probe("repro.serve.app:FleetService.process", "serve.process", after=_count_process),
    Probe("repro.core.online:OnlineEstimator.step", "core.online.step"),
    Probe("repro.sched.campaign:ScheduledCampaign.run", "sched.run"),
    Probe(
        "repro.parallel.executor:ProcessExecutor.map",
        "parallel.map",
        prepare=_materialize_items,
    ),
    Probe(
        "repro.parallel.executor:ThreadExecutor.map",
        "parallel.map",
        prepare=_materialize_items,
    ),
)


#: Spans reported as ``<span>_s`` self time.
SELF_TIME_SPANS = (
    "hardware.execute",
    "hardware.prime",
    "tracing.trace",
    "tracing.profile",
    "acquisition.collect",
    "acquisition.merge",
    "acquisition.build",
    "acquisition.cache_save",
    "acquisition.cache_load",
    "seeding.derive_rng",
    "core.selection.select",
    "core.model.fit",
    "core.scenarios.cv",
    "core.scenarios.all",
    "audit.audit",
    "faults.corrupt",
    "serve.submit",
    "serve.process",
    "core.online.step",
    "sched.run",
    "parallel.map",
)

#: Call-count metrics: outermost spans of the named group.
CALL_METRICS = {
    "hardware.execute_calls": ("hardware.execute",),
    "tracing.trace_calls": ("tracing.trace",),
    "seeding.derive_rng_calls": ("seeding.derive_rng",),
    "core.selection.calls": ("core.selection.select",),
    "core.model.fit_calls": ("core.model.fit",),
    "core.scenarios.calls": ("core.scenarios.cv", "core.scenarios.all"),
    "audit.calls": ("audit.audit",),
    "faults.corrupt_calls": ("faults.corrupt",),
    "serve.ticks": ("serve.process",),
    "core.online.step_calls": ("core.online.step",),
    "parallel.map_calls": ("parallel.map",),
}

#: Counts the probes' hooks accumulate.
COUNT_METRICS = (
    "acquisition.cells",
    "acquisition.rows",
    "core.selection.rows",
    "audit.findings",
    "serve.rows",
    "serve.stateless",
    "parallel.items",
)

#: Root spans the workload body opens itself; ``experiments.<id>_s`` is
#: reported inclusive (each experiment is a top-level call).
EXPERIMENT_PREFIX = "experiments."


def layer_metrics(spans: Sequence[Span], counts: Dict[str, float]) -> Dict[str, float]:
    """Every span-derived per-layer metric of one traced iteration."""
    selfs = self_times(spans)
    out: Dict[str, float] = {f"{s}_s": selfs.get(s, 0.0) for s in SELF_TIME_SPANS}
    out.update({m: outer_calls(spans, g) for m, g in CALL_METRICS.items()})
    out.update({m: counts.get(m, 0) for m in COUNT_METRICS})
    ticks = tick_latencies_ms(spans)
    out["serve.tick_p50_ms"] = percentile(ticks, 50.0) if ticks else 0.0
    out["serve.tick_p90_ms"] = percentile(ticks, 90.0) if ticks else 0.0
    for name, total in total_times(spans).items():
        if name.startswith(EXPERIMENT_PREFIX):
            out[f"{name}_s"] = total
    return out


def tick_latencies_ms(spans: Sequence[Span]) -> List[float]:
    """Serve ticks: each ``serve.process`` span measured from the start
    of the ``serve.submit`` span that fed it."""
    out: List[float] = []
    submit_start: Optional[float] = None
    for name, start, end, _parent in sorted(spans, key=lambda s: s[1]):
        if name == "serve.submit":
            submit_start = start
        elif name == "serve.process":
            began = submit_start if submit_start is not None else start
            out.append((end - began) * 1e3)
            submit_start = None
    return out
