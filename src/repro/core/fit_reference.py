"""Exact OLS fit path: the test oracle of the Gram-cache kernels.

The pipeline fits Equation 1 through :mod:`repro.stats.fastfit`:
Algorithm 1 scores every candidate of a greedy step from one cached
Gram matrix, and k-fold CV solves each fold by downdating it.  This
module keeps the route those kernels replaced — one full OLS refit per
candidate and per fold — as the oracle that tests and the fast-fit
benchmark compare the kernels against: the same selected sequence and
warnings, statistics within 1e-9 relative tolerance.

The oracle reuses the pipeline's exact helpers instead of copying
them: the candidate validation and the greedy reduce of
:mod:`repro.core.selection` driven by its per-candidate evaluator
(:func:`~repro.core.selection._evaluate_candidate`), the per-fold
worker :func:`~repro.core.scenarios._cv_fold_worker`, and the default
fold fit :func:`~repro.stats.crossval._default_fit`.  Everything runs
serially.

No pipeline module imports it (``tests/test_import_graph.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.acquisition.dataset import PowerDataset
from repro.core.scenarios import _assemble_out_of_fold, _cv_fold_worker
from repro.core.selection import (
    SelectionResult,
    _candidate_pool,
    _ExactStep,
    _greedy_select,
)
from repro.parallel import SerialExecutor
from repro.seeding import DEFAULT_SEED
from repro.stats.crossval import (
    CrossValidationResult,
    KFold,
    _default_fit,
    cross_validate,
)

__all__ = [
    "cross_validate_exact",
    "cv_out_of_fold_predictions_exact",
    "select_events_exact",
]


def select_events_exact(
    dataset: PowerDataset,
    n_events: int,
    *,
    candidates: Optional[Sequence[str]] = None,
    criterion: str = "r2",
    max_vif: Optional[float] = None,
    cov_type: str = "HC3",
    on_missing: str = "raise",
) -> SelectionResult:
    """Algorithm 1 with one exact OLS refit per candidate and step.

    Arguments mean what they mean for
    :func:`repro.core.selection.select_events` with ``estimator="ols"``.
    """
    pool, n_events, run_warnings = _candidate_pool(
        dataset, n_events, candidates, criterion, "ols", on_missing
    )
    step = _ExactStep(
        dataset, max_vif, cov_type, "ols", criterion, SerialExecutor()
    )
    return _greedy_select(pool, n_events, criterion, run_warnings, step)


def cross_validate_exact(
    endog: np.ndarray,
    exog: np.ndarray,
    *,
    n_splits: int = 10,
    seed: Optional[int] = 0,
    on_zero: str = "raise",
) -> CrossValidationResult:
    """:func:`~repro.stats.crossval.cross_validate` with one exact OLS
    refit per fold instead of the Gram downdate solver."""
    return cross_validate(
        endog,
        exog,
        n_splits=n_splits,
        seed=seed,
        fit_fn=_default_fit,
        on_zero=on_zero,
        parallel="serial",
    )


def cv_out_of_fold_predictions_exact(
    dataset: PowerDataset,
    counters: Sequence[str],
    *,
    n_splits: int = 10,
    seed: int = DEFAULT_SEED,
    cov_type: str = "HC3",
    on_zero: str = "raise",
    issues: Optional[List[str]] = None,
) -> Tuple[np.ndarray, Tuple[float, ...], List[Dict[str, float]]]:
    """:func:`~repro.core.scenarios.cv_out_of_fold_predictions` for OLS
    with one exact refit per fold instead of the Gram downdate solver."""
    splits = list(
        KFold(n_splits, shuffle=True, seed=seed).split(dataset.n_samples)
    )
    outcomes = [
        _cv_fold_worker(
            (dataset, tuple(counters), cov_type, "ols", train, test, on_zero)
        )
        for train, test in splits
    ]
    return _assemble_out_of_fold(dataset, splits, outcomes, issues)
