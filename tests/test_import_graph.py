"""Import-graph contract: no pipeline path loads ``scipy.stats`` or
the scalar acquisition oracle.

``scipy.stats`` costs about 0.3 s per interpreter on top of the
``scipy.linalg``/``scipy.special`` the stack needs anyway; the pipeline
takes its Student-t and χ² tails from ``scipy.special`` instead.
``repro.acquisition.reference`` is the scalar chain the experiment
kernel is checked against; only tests and benchmarks may import it, so
it can never slip back onto the acquisition path.  Each check runs in a
fresh interpreter and asserts on ``sys.modules``, not on timings, so it
cannot flake.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

ENTRY_MODULES = (
    "repro.experiments.runner",
    "repro.lint.cli",
    "repro.audit.cli",
    "repro.sched.cli",
    "repro.serve",
)

#: The scalar acquisition oracle.
ORACLE = "repro.acquisition.reference"

#: A campaign, an audited workflow and its inference surface.
AUDITED_WORKFLOW = """
from repro.acquisition.campaign import run_campaign
from repro.core.workflow import run_workflow
from repro.hardware import Platform
from repro.workloads import get_workload

workloads = [get_workload(w) for w in ("idle", "compute", "memory_read", "md")]
ds = run_campaign(Platform(), workloads, [1200, 2400], thread_counts=[1, 8, 24])
result = run_workflow(dataset=ds, n_events=2, frequencies_mhz=(1200, 2400))
assert result.audit is not None
fit = result.model.ols
fit.pvalues, fit.conf_int(), result.model.predict_interval(ds)
"""


def _loads(body: str, module: str) -> bool:
    code = textwrap.dedent(body) + f"\nimport sys\nprint({module!r} in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=os.getcwd(),
        env={**os.environ, "PYTHONPATH": "src"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1] == "True"


def _loads_scipy_stats(body: str) -> bool:
    return _loads(body, "scipy.stats")


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_entry_module_import_skips_scipy_stats(module):
    assert not _loads_scipy_stats(f"import repro\nimport {module}\n")


def test_audited_workflow_skips_scipy_stats():
    assert not _loads_scipy_stats(AUDITED_WORKFLOW)


def test_probe_detects_scipy_stats():
    # Guards the contract itself: the probe must see a real import.
    assert _loads_scipy_stats(
        """
        import numpy as np
        from repro.stats.diagnostics import dagostino_k2

        dagostino_k2(np.arange(20.0) ** 1.5)
        """
    )


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_entry_module_import_skips_reference_oracle(module):
    assert not _loads(f"import repro\nimport {module}\n", ORACLE)


def test_audited_workflow_skips_reference_oracle():
    assert not _loads(AUDITED_WORKFLOW, ORACLE)


def test_probe_detects_reference_oracle():
    # Guards the contract itself: the probe must see a real import.
    assert _loads("import repro.acquisition.reference\n", ORACLE)
