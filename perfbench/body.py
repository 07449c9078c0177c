"""One benchmark iteration, run in a fresh interpreter by ``run.py``.

Imports the workload's entry modules (the set-up every CLI user pays),
runs the workload body once, checks its outputs and writes one JSON
result to ``--out``.  With ``--trace`` the layer probes of
``spans.py`` are installed around the body and the span-derived
per-layer metrics are added.  ``--setup-only`` stops after the
imports, ``--fill`` only fills the campaign cache for the seed and
reports its outputs, and ``--import-probe MODULE`` times one import and
nothing else.

    python3 perfbench/body.py --workload paper-cold --seed 20170529 \\
        --spawned-at 1234.5 --out result.json
"""

import argparse
import importlib
import sys
import time

ENTRY_MODULES = {
    "paper": ("repro", "repro.experiments.data", "repro.experiments.runner"),
    "campaign-12x": (
        "repro",
        "repro.acquisition.campaign",
        "repro.core.scenarios",
        "repro.core.workflow",
        "repro.hardware.platform",
        "repro.parallel",
        "repro.workloads.registry",
    ),
}

#: The declared larger campaign shape: every workload at thread counts
#: 1-24 across the five paper DVFS states (about 12x the paper's rows).
THREADS_12X = tuple(range(1, 25))

SERVE_OK = "every healthy node bit-identical to its serial estimator"
SCHED_OK = "every dataset bit-identical to the serial campaign"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawned-at", type=float, default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--fill", action="store_true")
    p.add_argument("--fingerprint", action="store_true")
    p.add_argument("--import-probe", default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out", default=None)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    if args.import_probe:
        t0 = time.perf_counter()
        importlib.import_module(args.import_probe)
        _write(args.out, {"import_s": time.perf_counter() - t0})
        return 0
    family = "paper" if args.workload.startswith("paper") else args.workload
    for name in ENTRY_MODULES[family]:
        importlib.import_module(name)
    ready = time.monotonic()

    # Benchmark-side helpers load after the set-up mark.
    from common import calibrate, runtime_fingerprint

    out = {}
    if args.spawned_at is not None:
        out["setup_s"] = ready - args.spawned_at
    if args.fingerprint:
        out["fingerprint"] = runtime_fingerprint()
    if args.fill:
        out.update(_fill(args.seed))
    elif not args.setup_only:
        out.update(_iteration(args))
    # After the body: running work first changes how the body meets the
    # BLAS threads.
    out["cal_s"] = calibrate()
    _write(args.out, out)
    return 0


def _write(path, payload):
    import json

    with open(path, "w", encoding="utf-8") as fh:  # replint: ignore[RL006] -- scratch output
        json.dump(payload, fh)


# ---------------------------------------------------------------------------
# one iteration
# ---------------------------------------------------------------------------


class _Checks:
    def __init__(self):
        self.records = []

    def __call__(self, name, ok, detail=""):
        self.records.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok


def _failure(exc):
    import traceback

    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _iteration(args):
    from contextlib import nullcontext

    from spans import PROBES, Tracer, layer_metrics

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(PROBES)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    checks = _Checks()
    body = _paper if args.workload.startswith("paper") else _campaign_12x
    try:
        out = body(args.seed, span, checks, tracer)
    except Exception as exc:  # replint: ignore[RL007] -- counted as a failed operation
        checks("workload body", False, _failure(exc))
        out = {}
    finally:
        if tracer is not None:
            tracer.restore()
    out["checks"] = checks.records
    if tracer is not None:
        out["layer"] = layer_metrics(tracer.spans, tracer.counts)
        if args.spans_out:
            _write(args.spans_out, {"spans": tracer.spans, "counts": tracer.counts})
    return out


def _digest(ds):
    """SHA-256 over a dataset's arrays and labels."""
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    for arr in (ds.counters, ds.power_w, ds.voltage_v, ds.frequency_mhz, ds.threads):
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    for labels in (ds.workloads, ds.suites, ds.phase_names, ds.counter_names):
        h.update("\x00".join(labels).encode())
        h.update(b"\x01")
    return h.hexdigest()


def _peak_rss_mib():
    """Peak RSS of this process plus each live child (pool workers).

    Per-process high-water marks are summed, so pages shared between a
    forked worker and its parent count once per process.
    """
    import os
    import resource

    def hwm_kib(pid):
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    total = hwm_kib("self") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        tasks = []
    children = set()
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children", encoding="utf-8") as fh:
                children.update(fh.read().split())
        except OSError:
            continue
    total += sum(hwm_kib(pid) for pid in children)
    return total / 1024.0


def _arena_segments():
    import os

    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro-arena-")}
    except OSError:
        return set()


def _paper(seed, span, checks, tracer):
    """All ``repro-experiments`` experiments, serial, one interpreter."""
    from repro.experiments import data, runner

    clock = time.perf_counter
    rendered = {}
    t0 = clock()
    with span("body.acquisition"):
        ds = data.full_dataset(seed=seed)
    acq_s = clock() - t0
    for eid, run in runner.EXPERIMENTS.items():
        with span(f"experiments.{eid}"):
            try:
                rendered[eid] = run(seed)
            except Exception as exc:  # replint: ignore[RL007] -- counted as a failed operation
                rendered[eid] = exc
    wall_s = clock() - t0
    if tracer is not None:
        tracer.restore()  # the output checks below are not traced

    rss = _peak_rss_mib()
    for eid, text in rendered.items():
        if isinstance(text, Exception):
            checks(f"experiment {eid} returns", False, _failure(text))
        else:
            checks(f"experiment {eid} renders", isinstance(text, str) and bool(text.strip()))
    serve = rendered.get("serve")
    checks("serve healthy nodes bit-identical", isinstance(serve, str) and SERVE_OK in serve)
    sched = rendered.get("sched")
    checks("sched datasets bit-identical", isinstance(sched, str) and SCHED_OK in sched)

    return _paper_outputs(seed, ds, wall_s=wall_s, acq_s=acq_s, peak_rss_mib=rss)


def _fill(seed):
    """Fill the campaign cache for ``seed`` (``paper-warm`` set-up): a
    cold acquisition whose outputs the warm iterations must reproduce."""
    from repro.experiments import data

    return _paper_outputs(seed, data.full_dataset(seed=seed))


def _paper_outputs(seed, ds, **timings):
    from repro.core.model import PowerModel
    from repro.experiments import data, table2

    selected = data.selected_counters(seed=seed)
    return _outputs(
        seed,
        ds,
        selected,
        cv_mape_pct=table2.run(seed=seed).summary()["MAPE"][2],
        fit_r2=PowerModel(selected).fit(ds).rsquared,
        **timings,
    )


def _campaign_12x(seed, span, checks, tracer):
    """The declared larger shape on the process backend at nproc workers."""
    import math
    import os

    from repro.acquisition.campaign import run_campaign
    from repro.core.scenarios import run_all_scenarios
    from repro.core.workflow import run_workflow
    from repro.hardware.dvfs import PAPER_FREQUENCIES_MHZ
    from repro.hardware.platform import Platform
    from repro.parallel import shutdown_pools
    from repro.workloads.registry import all_workloads

    nproc = len(os.sched_getaffinity(0))
    backend = {"parallel": "process", "max_workers": nproc}
    shm_before = _arena_segments()
    clock = time.perf_counter
    t0 = clock()
    with span("body.acquisition"):
        ds = run_campaign(
            Platform(seed=seed),
            all_workloads(),
            PAPER_FREQUENCIES_MHZ,
            thread_counts=THREADS_12X,
            **backend,
        )
    acq_s = clock() - t0
    with span("body.workflow"):
        result = run_workflow(dataset=ds, seed=seed, **backend)
    with span("body.scenarios"):
        scenarios = run_all_scenarios(ds, result.selected_counters, seed=seed, **backend)
    wall_s = clock() - t0
    if tracer is not None:
        tracer.restore()  # the output checks below are not traced

    rss = _peak_rss_mib()
    shutdown_pools()
    left = sorted(_arena_segments() - shm_before)
    checks("no repro-arena segment left in /dev/shm", not left, ", ".join(left))
    checks(
        "audit verdict pass",
        result.audit is not None and result.audit.verdict == "pass",
        "none" if result.audit is None else result.audit.verdict,
    )
    checks(
        "scenario MAPEs finite",
        all(math.isfinite(s.mape) for s in scenarios.values()),
        repr({k: s.mape for k, s in scenarios.items()}),
    )
    serial = run_workflow(dataset=ds, seed=seed, parallel="serial", audit=False)
    checks(
        "process selection equals serial",
        serial.selected_counters == result.selected_counters,
        f"{result.selected_counters} vs {serial.selected_counters}",
    )
    checks(
        "process coefficients equal serial",
        serial.model.coefficients == result.model.coefficients,
    )
    return _outputs(
        seed,
        ds,
        result.selected_counters,
        cv_mape_pct=result.validation.mape,
        fit_r2=result.model.rsquared,
        thread_counts=THREADS_12X,
        wall_s=wall_s,
        acq_s=acq_s,
        peak_rss_mib=rss,
        shm_left=len(left),
    )


def _outputs(seed, ds, selected, *, cv_mape_pct, fit_r2, thread_counts=None, **timings):
    """The result record: deterministic outputs, paper reference, timings."""
    from repro.acquisition.campaign import Campaign, CampaignPlan
    from repro.experiments.paper_values import PAPER_TABLE2
    from repro.hardware.dvfs import PAPER_FREQUENCIES_MHZ
    from repro.hardware.platform import Platform
    from repro.workloads.registry import all_workloads

    plan = CampaignPlan(
        workloads=tuple(all_workloads()),
        frequencies_mhz=tuple(PAPER_FREQUENCIES_MHZ),
        thread_counts_override=thread_counts,
    )
    return {
        "seed": seed,
        "cells": len(Campaign(Platform(seed=seed), plan).cells()),
        "rows": ds.n_samples,
        "digest": _digest(ds),
        "selected": list(selected),
        "cv_mape_pct": cv_mape_pct,
        "fit_r2": fit_r2,
        "paper_cv_mape_pct": PAPER_TABLE2["MAPE"][2],
        "paper_fit_r2": PAPER_TABLE2["R2"][2],
        **timings,
    }


if __name__ == "__main__":
    sys.exit(main())
