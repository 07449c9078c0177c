"""Golden digests of the fit layer, on the Gram kernels and the oracle.

Pins what counter selection, the final model fit and cross validation
produce for the paper artifacts that run them, so a restructuring of
the fit layer has to reproduce them:

* the selection sequences of Table I (ten steps, so the extended
  VIF anomaly is covered) and Table IV (roco2 only);
* the coefficients and HC3 standard errors of the six-counter model
  fit on the full campaign;
* the per-fold metrics of Table II's 10-fold cross validation and the
  per-fold/per-draw MAPEs of the four Fig. 4 scenarios.

Every digest is checked twice: on the pipeline, which fits through
the Gram-cache kernels, and with every OLS selection and CV call site
routed through the exact refits of :mod:`repro.core.fit_reference`.
Counter names, mean VIFs, coefficients and standard errors agree bit
for bit between the two paths and are pinned exactly (``float.hex``).
The selection R², adjusted R² and criterion values, the Table II fold
metrics and the Fig. 4 CV-scenario fold MAPEs differ in the last bits
(relative gaps up to about 3e-12), so those fields are pinned at ten
significant digits, where both paths agree.  The rendered Table I, II,
IV and Fig. 4 text is byte-equal on both paths.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List

import pytest

from repro.core import PowerModel
from repro.experiments import fig4, table1, table2, table4
from repro.experiments.data import full_dataset, selection_dataset

from ..fit_oracle import route_fits_through_oracle

#: The two fit paths, by test id: ``1`` is the pipeline on the Gram
#: kernels, ``0`` the exact oracle.
PATHS = {"1": "kernel", "0": "oracle"}

#: Recorded with the fit layer of the commit that introduced this test.
GOLDEN: Dict[str, str] = {
    "fig4.1:random-workloads": "da8220de67947d91adb8d872c635b101c19f559324f954f36b600f53227d0253",
    "fig4.2:synthetic-to-spec": "899837578a9884cffd209611cc515a6d69f79a772edc1b427c32229d744a1dc3",
    "fig4.3:cv-all": "7d3573813c435774d15067ee0324f0c1e55448692f6fb2c12831312ce38962be",
    "fig4.4:cv-synthetic": "80109561b2fecdba5c00502ea3cc129cdf917c5b0a440562d0fa02de4765047d",
    "model": "d18f66435327d06ae16d2e730d834959b35b1b98ac7f68238d78832fc5fb5832",
    "table1.selection": "7d939600843c3b89d242df8b860268b956bf280fd6f470fcc34f65265625bb56",
    "table2.folds": "a28b8578bb52ce01c3f175ed695a1bb896e3d8c29d7827ead076e713498c55c8",
    "table4.selection": "f8c7abf163868b9b2331b030774f5a70d914533676eefa6116b12d6f52a63b21",
}


def _exact(x) -> str:
    return float(x).hex()


def _agreed(x) -> str:
    """Ten significant digits: where the fast and exact paths agree."""
    return f"{float(x):.9e}"


def _sha(fields: Iterable[str]) -> str:
    return hashlib.sha256("\x00".join(fields).encode()).hexdigest()


def _selection_fields(result) -> List[str]:
    fields = []
    for step in result.steps:
        fields += [
            step.counter,
            _exact(step.mean_vif),
            _agreed(step.rsquared),
            _agreed(step.rsquared_adj),
            _agreed(step.criterion_value),
        ]
    return fields


def fit_layer():
    """(digests, renders) of the fit layer on the current call sites."""
    sel = selection_dataset()
    full = full_dataset()
    t1 = table1.run(sel)
    t4 = table4.run(dataset=sel)
    counters = t1.selection.selected
    model = PowerModel(counters).fit(full)
    t2 = table2.run(dataset=full, counters=counters)
    f4 = fig4.run(dataset=full, counters=counters)
    digests = {
        "table1.selection": _sha(_selection_fields(t1.extended)),
        "table4.selection": _sha(_selection_fields(t4.synthetic_selection)),
        "model": _sha(
            list(model.counters)
            + [_exact(v) for v in model.ols.params]
            + [_exact(v) for v in model.ols.bse]
        ),
        "table2.folds": _sha(
            [_agreed(v) for v in t2.fold_mape]
            + [_agreed(v) for v in t2.fold_r2]
            + [_agreed(v) for v in t2.fold_adj_r2]
        ),
    }
    for name, scenario in f4.scenarios.items():
        digests[f"fig4.{name}"] = _sha(
            [_agreed(v) for v in scenario.fold_mapes]
            + [_agreed(scenario.mape)]
        )
    renders = {
        "table1": t1.render(),
        "table2": t2.render(),
        "table4": t4.render(),
        "fig4": f4.render(),
    }
    return digests, renders


@pytest.fixture(scope="module")
def by_path():
    out = {"1": fit_layer()}
    with pytest.MonkeyPatch.context() as mp:
        route_fits_through_oracle(mp)
        out["0"] = fit_layer()
    return out


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fit_layer_digest(by_path, path, name):
    digests, _renders = by_path[path]
    assert digests[name] == GOLDEN[name], PATHS[path]


def test_golden_covers_every_digest(by_path):
    for path in PATHS:
        assert set(by_path[path][0]) == set(GOLDEN)


@pytest.mark.parametrize("artifact", ["table1", "table2", "table4", "fig4"])
def test_renders_equal_under_both_paths(by_path, artifact):
    assert by_path["1"][1][artifact] == by_path["0"][1][artifact]
