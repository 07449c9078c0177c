"""Route the pipeline's OLS fit call sites through the exact oracle.

The pipeline fits every OLS selection and cross validation on the
Gram-cache kernels.  Equivalence tests that run a whole workflow or
paper artifact both ways patch the call sites below to the exact
refits of :mod:`repro.core.fit_reference` for the oracle leg.
"""

from __future__ import annotations

import pytest

from repro.core.fit_reference import (
    cv_out_of_fold_predictions_exact,
    select_events_exact,
)

#: Modules that call ``select_events`` by their own module-level name.
SELECTION_CALLERS = (
    "repro.core.workflow",
    "repro.experiments.table1",
    "repro.experiments.table4",
)

#: Modules that call ``cv_out_of_fold_predictions`` by their own name
#: (the scenario functions resolve it in ``repro.core.scenarios``).
CV_CALLERS = (
    "repro.core.scenarios",
    "repro.experiments.table2",
)


def _select_exact(
    dataset, n_events, *, estimator="ols", parallel=None, max_workers=None,
    **kwargs,
):
    assert estimator == "ols", "the oracle covers the OLS path only"
    return select_events_exact(dataset, n_events, **kwargs)


def _cv_exact(
    dataset, counters, *, estimator="ols", parallel=None, max_workers=None,
    **kwargs,
):
    assert estimator == "ols", "the oracle covers the OLS path only"
    return cv_out_of_fold_predictions_exact(dataset, counters, **kwargs)


def route_fits_through_oracle(mp: pytest.MonkeyPatch) -> None:
    """Patch every OLS selection/CV call site to the exact oracle."""
    for module in SELECTION_CALLERS:
        mp.setattr(f"{module}.select_events", _select_exact)
    for module in CV_CALLERS:
        mp.setattr(f"{module}.cv_out_of_fold_predictions", _cv_exact)
