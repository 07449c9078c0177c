"""Benchmark fixtures.

The benchmarks time the *analysis* stage of each artifact (selection,
cross validation, correlation …) on the shared cached campaign, and
print the regenerated table/figure next to the paper's published
values.  Run with ``pytest benchmarks/ --benchmark-only -s`` to see the
reports inline.
"""

from __future__ import annotations

import os
import platform

import pytest

from repro.experiments import data as expdata


@pytest.fixture(scope="session")
def full_dataset():
    return expdata.full_dataset()


@pytest.fixture(scope="session")
def selection_dataset():
    return expdata.selection_dataset()


@pytest.fixture(scope="session")
def selected_counters():
    return expdata.selected_counters()


def report(name: str, text: str) -> None:
    """Print a regenerated artifact under a clear banner."""
    print()
    print("=" * 72)
    print(name)
    print("=" * 72)
    print(text)


#: Thread-count variables recorded with every BENCH file.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def bench_environment() -> dict:
    """What a BENCH file's numbers depend on besides the code: CPU
    count, interpreter and library versions, BLAS vendor, thread-count
    variables and ``REPRO_*`` switches."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas_vendor,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "repro_env": {
            name: value
            for name, value in sorted(os.environ.items())
            if name.startswith("REPRO_")
        },
    }
