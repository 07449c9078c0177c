"""Gram-cache fast-fit benchmark → ``BENCH_fastfit.json``.

Times Algorithm 1 selection (40 candidates × 6 steps, plain and
VIF-guarded) and the Table II cross validation on the fast-fit kernels
(the pipeline) and through the exact refits of the reference oracle
:mod:`repro.core.fit_reference`, on the paper's own selection/full
datasets.

Acceptance gates (the perf contract of DESIGN.md §12):

* serial greedy selection ≥ 5× faster with the Gram cache;
* the 10-fold CV scenario ≥ 2× faster with the fold downdate solver;
* the selected counter sequences and warnings are identical to the
  oracle's — a fast path that changes the selection is a bug, not a
  win.

Wall times are best-of-``REPS`` on the monotonic clock, which is noise
discipline enough for the coarse (≥2×/≥5×) gates on a shared CI box.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core import select_events
from repro.core.features import design_matrix
from repro.core.fit_reference import (
    cross_validate_exact,
    cv_out_of_fold_predictions_exact,
    select_events_exact,
)
from repro.core.scenarios import cv_out_of_fold_predictions
from repro.io.atomic import atomic_write_json
from repro.parallel import MONOTONIC_CLOCK
from repro.stats import cross_validate

from .conftest import bench_environment, report

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fastfit.json"

N_CANDIDATES = 40
N_EVENTS = 6
REPS = 5

SELECTION_SPEEDUP_GATE = 5.0
CV_SPEEDUP_GATE = 2.0


def best_of(fn, reps=REPS):
    best_s = float("inf")
    value = None
    for _ in range(reps):
        t0 = MONOTONIC_CLOCK()
        value = fn()
        best_s = min(best_s, MONOTONIC_CLOCK() - t0)
    return best_s, value


def assert_same_selection(slow, fast):
    assert slow.selected == fast.selected, (slow.selected, fast.selected)
    assert slow.warnings == fast.warnings
    for a, b in zip(slow.steps, fast.steps):
        assert a.counter == b.counter and a.warnings == b.warnings
        np.testing.assert_allclose(
            a.criterion_value, b.criterion_value, rtol=1e-9
        )


def test_bench_fastfit(selection_dataset, full_dataset):
    pool = tuple(selection_dataset.counter_names[:N_CANDIDATES])
    results = {
        "clock": "perf_counter",
        "environment": bench_environment(),
        "reps": REPS,
        "gates": {
            "selection_speedup": SELECTION_SPEEDUP_GATE,
            "cv_speedup": CV_SPEEDUP_GATE,
        },
    }

    # -- greedy selection, plain and VIF-guarded ------------------------
    for label, kwargs in (
        ("selection", {}),
        ("selection_vif_guarded", {"max_vif": 5.0}),
    ):
        slow_s, slow = best_of(
            lambda kw=kwargs: select_events_exact(
                selection_dataset, N_EVENTS, candidates=pool, **kw,
            )
        )
        fast_s, fast = best_of(
            lambda kw=kwargs: select_events(
                selection_dataset, N_EVENTS, candidates=pool, **kw,
            )
        )
        assert_same_selection(slow, fast)
        results[label] = {
            "n_candidates": N_CANDIDATES,
            "n_events": N_EVENTS,
            "selected": list(fast.selected),
            "slow_s": round(slow_s, 4),
            "fast_s": round(fast_s, 4),
            "speedup": round(slow_s / fast_s, 2),
        }

    # -- Table II cross validation --------------------------------------
    counters = tuple(results["selection"]["selected"])
    cv_slow_s, cv_slow = best_of(
        lambda: cv_out_of_fold_predictions_exact(full_dataset, counters)
    )
    cv_fast_s, cv_fast = best_of(
        lambda: cv_out_of_fold_predictions(full_dataset, counters)
    )
    np.testing.assert_allclose(cv_slow[0], cv_fast[0], rtol=1e-9)
    np.testing.assert_allclose(cv_slow[1], cv_fast[1], rtol=1e-9)
    results["cv_scenario"] = {
        "n_samples": full_dataset.n_samples,
        "n_splits": 10,
        "slow_s": round(cv_slow_s, 4),
        "fast_s": round(cv_fast_s, 4),
        "speedup": round(cv_slow_s / cv_fast_s, 2),
    }

    x = design_matrix(full_dataset, list(counters))[:, :-1]
    y = full_dataset.power_w
    raw_slow_s, raw_slow = best_of(lambda: cross_validate_exact(y, x))
    raw_fast_s, raw_fast = best_of(lambda: cross_validate(y, x))
    for a, b in zip(raw_slow.folds, raw_fast.folds):
        np.testing.assert_allclose(
            [a.rsquared, a.rsquared_adj, a.mape],
            [b.rsquared, b.rsquared_adj, b.mape],
            rtol=1e-9,
        )
    results["cv_cross_validate"] = {
        "n_samples": int(y.size),
        "n_splits": 10,
        "slow_s": round(raw_slow_s, 4),
        "fast_s": round(raw_fast_s, 4),
        "speedup": round(raw_slow_s / raw_fast_s, 2),
    }

    atomic_write_json(OUT_PATH, results)
    report("BENCH_fastfit", json.dumps(results, indent=2))

    # Acceptance gates.
    assert results["selection"]["speedup"] >= SELECTION_SPEEDUP_GATE, (
        results["selection"]
    )
    assert results["cv_scenario"]["speedup"] >= CV_SPEEDUP_GATE, (
        results["cv_scenario"]
    )
