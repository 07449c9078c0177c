"""Bit-identity pins: the ``scipy.special`` tails match ``scipy.stats``.

The inference helpers compute Student-t and χ² tails with
``scipy.special`` so the pipeline never imports ``scipy.stats``.  These
tests hold every p value and interval bound bitwise equal to the
``scipy.stats`` formulas they replaced, edge cases included.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.core import PowerModel
from repro.core.features import design_matrix
from repro.stats import breusch_pagan, fit_ols, white_test
from repro.stats.diagnostics import dagostino_k2, jarque_bera

ALPHAS = (0.01, 0.05, 0.5)
#: Residual dof to force onto a fit: ≤ 0 clamps to 1, 10⁶ is the
#: near-normal limit.
DOFS = (-3, 0, 1, 2, 5, 30, 1_000_000)


@pytest.fixture(scope="module")
def fit():
    rng = np.random.default_rng(7)
    x = rng.uniform(1.0, 10.0, size=(40, 3))
    y = 2.0 + x @ np.array([0.5, -1.0, 1e-4]) + rng.normal(size=40)
    return fit_ols(y, x)


class TestOLSTails:
    @pytest.mark.parametrize("dof", DOFS)
    def test_pvalues(self, fit, dof):
        res = replace(fit, df_resid=dof)
        ref = 2.0 * scipy_stats.t.sf(np.abs(res.tvalues), max(dof, 1))
        assert np.array_equal(res.pvalues, ref)

    def test_zero_se_gives_infinite_t_and_zero_p(self, fit):
        bse = fit.bse.copy()
        bse[1] = 0.0
        res = replace(fit, bse=bse)
        assert np.isinf(res.tvalues[1])
        ref = 2.0 * scipy_stats.t.sf(np.abs(res.tvalues), res.df_resid)
        assert np.array_equal(res.pvalues, ref)
        assert res.pvalues[1] == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("dof", DOFS)
    def test_conf_int(self, fit, dof, alpha):
        res = replace(fit, df_resid=dof)
        half = scipy_stats.t.ppf(1.0 - alpha / 2.0, max(dof, 1)) * res.bse
        ref = np.column_stack([res.params - half, res.params + half])
        assert np.array_equal(res.conf_int(alpha), ref)


class TestPredictInterval:
    @pytest.fixture(scope="class")
    def model(self, small_dataset):
        return PowerModel(small_dataset.counter_names[:2]).fit(small_dataset)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("dof", DOFS)
    def test_bounds(self, model, small_dataset, dof, alpha):
        fitted = replace(model, ols=replace(model.ols, df_resid=dof))
        x = design_matrix(small_dataset, fitted.counters)
        mean = x @ fitted.ols.params
        se = np.sqrt(
            np.maximum(
                np.einsum("ij,jk,ik->i", x, fitted.ols.cov_params, x), 0.0
            )
        )
        q = scipy_stats.t.ppf(1.0 - alpha / 2.0, max(dof, 1))
        ref = np.column_stack([mean - q * se, mean + q * se])
        assert np.array_equal(fitted.predict_interval(small_dataset, alpha), ref)


def _residuals(seed, heteroscedastic, n):
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 10.0, size=(n, 2))
    scale = x[:, 0] ** 2 if heteroscedastic else np.ones(n)
    y = 5 + 2 * x[:, 0] - x[:, 1] + rng.standard_t(3, size=n) * scale
    return fit_ols(y, x).residuals, x


CASES = [
    (seed, het, n)
    for seed in (1, 2)
    for het in (False, True)
    for n in (12, 200, 5000)
]


class TestChiSquareTails:
    @pytest.mark.parametrize("seed,het,n", CASES)
    @pytest.mark.parametrize("test", [breusch_pagan, white_test])
    def test_lm_pvalue(self, test, seed, het, n):
        resid, x = _residuals(seed, het, n)
        got = test(resid, x)
        assert got.pvalue == float(scipy_stats.chi2.sf(got.statistic, got.df))

    @pytest.mark.parametrize("seed,het,n", CASES)
    def test_jarque_bera_pvalue(self, seed, het, n):
        resid, _ = _residuals(seed, het, n)
        got = jarque_bera(resid)
        assert got.pvalue == float(scipy_stats.chi2.sf(got.statistic, 2))

    def test_underflowed_tail_is_zero(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(1.0, 10.0, size=(20_000, 1))
        got = breusch_pagan(rng.normal(size=20_000) * x[:, 0] ** 3, x)
        assert got.pvalue == 0.0
        assert got.pvalue == float(scipy_stats.chi2.sf(got.statistic, got.df))

    @pytest.mark.parametrize("seed,het,n", CASES)
    def test_dagostino_is_normaltest(self, seed, het, n):
        resid, _ = _residuals(seed, het, n)
        got = dagostino_k2(resid)
        stat, pvalue = scipy_stats.normaltest(resid)
        assert (got.statistic, got.pvalue) == (float(stat), float(pvalue))
