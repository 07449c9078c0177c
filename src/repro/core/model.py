"""The regression power model (Section III-C).

:class:`PowerModel` wraps the Equation 1 design matrix and an OLS fit
with HC3 heteroscedasticity-consistent standard errors — the estimator
the paper adopts following Long & Ervin (2000) — and exposes the fit
quality numbers (:math:`R^2`, adjusted :math:`R^2`) and prediction used
throughout Section IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import special as _special

from repro.acquisition.dataset import PowerDataset
from repro.core.features import design_matrix, feature_names
from repro.stats.linalg import FitDiagnostics
from repro.stats.metrics import mape, r2_score
from repro.stats.ols import OLSResult, fit_ols
from repro.stats.robust import fit_robust

__all__ = ["PowerModel", "FittedPowerModel", "ESTIMATORS"]

#: Supported coefficient estimators: plain OLS (the paper's) and the
#: Huber-IRLS robust alternative for outlier-contaminated campaigns.
ESTIMATORS = ("ols", "huber")


@dataclass(frozen=True)
class FittedPowerModel:
    """An immutable fitted Equation 1 model."""

    counters: tuple
    ols: OLSResult
    cov_type: str
    estimator: str = "ols"
    """Which estimator produced the coefficients (``"ols"``/``"huber"``)."""

    # ------------------------------------------------------------------
    @property
    def rsquared(self) -> float:
        return self.ols.rsquared

    @property
    def diagnostics(self) -> Optional[FitDiagnostics]:
        """Numerical provenance of the underlying fit."""
        return self.ols.diagnostics

    @property
    def rsquared_adj(self) -> float:
        return self.ols.rsquared_adj

    @property
    def coefficients(self) -> Dict[str, float]:
        """Named coefficients: ``alpha:<counter>``, ``beta:V2f``,
        ``gamma:V``, ``delta:Z``."""
        return dict(zip(self.ols.exog_names, self.ols.params))

    def alpha(self, counter: str) -> float:
        """α coefficient of one selected counter (W per V²·GHz·rate)."""
        key = f"alpha:{counter}"
        coeffs = self.coefficients
        if key not in coeffs:
            raise KeyError(f"{counter!r} is not part of this model")
        return coeffs[key]

    @property
    def beta(self) -> float:
        return self.coefficients["beta:V2f"]

    @property
    def gamma(self) -> float:
        return self.coefficients["gamma:V"]

    @property
    def delta(self) -> float:
        return self.coefficients["delta:Z"]

    # ------------------------------------------------------------------
    def predict(self, dataset: PowerDataset) -> np.ndarray:
        """Estimated power (W) for the rows of a dataset."""
        x = design_matrix(dataset, self.counters)
        return x @ self.ols.params

    def predict_interval(
        self, dataset: PowerDataset, alpha: float = 0.05
    ) -> np.ndarray:
        """Confidence intervals for the *mean* predicted power.

        Uses the fit's (HC3) coefficient covariance: the standard error
        of ``x'β`` is ``sqrt(x' Cov(β) x)``.  Returns an ``(n, 2)``
        array of lower/upper bounds at level ``1 - alpha``.  These are
        intervals on the model's expected power (coefficient
        uncertainty), not on individual noisy measurements.
        """
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        x = design_matrix(dataset, self.counters)
        mean = x @ self.ols.params
        # Row-wise quadratic form without materializing the hat matrix.
        se = np.sqrt(
            np.maximum(
                np.einsum("ij,jk,ik->i", x, self.ols.cov_params, x), 0.0
            )
        )
        q = _special.stdtrit(max(self.ols.df_resid, 1), 1.0 - alpha / 2.0)
        return np.column_stack([mean - q * se, mean + q * se])

    def evaluate(self, dataset: PowerDataset) -> Dict[str, float]:
        """Out-of-sample error metrics on a dataset."""
        pred = self.predict(dataset)
        return {
            "mape": mape(dataset.power_w, pred),
            "r2": r2_score(dataset.power_w, pred),
        }

    def summary(self) -> str:
        return self.ols.summary()


class PowerModel:
    """Factory: formulate Equation 1 for a chosen counter set."""

    def __init__(
        self,
        counters: Sequence[str],
        *,
        cov_type: str = "HC3",
        estimator: str = "ols",
    ) -> None:
        seen = set()
        for c in counters:
            if c in seen:
                raise ValueError(f"counter {c!r} listed twice")
            seen.add(c)
        if estimator not in ESTIMATORS:
            raise ValueError(
                f"estimator must be one of {ESTIMATORS}, got {estimator!r}"
            )
        self.counters = tuple(counters)
        self.cov_type = cov_type
        self.estimator = estimator

    def fit(self, dataset: PowerDataset) -> FittedPowerModel:
        """Fit on a dataset (coefficients via least squares or Huber
        IRLS, inference via the configured HC estimator)."""
        x = design_matrix(dataset, self.counters)
        fit_fn = fit_robust if self.estimator == "huber" else fit_ols
        ols = fit_fn(
            dataset.power_w,
            x,
            intercept=False,
            cov_type=self.cov_type,
            exog_names=feature_names(self.counters),
        )
        return FittedPowerModel(
            counters=self.counters,
            ols=ols,
            cov_type=self.cov_type,
            estimator=self.estimator,
        )
