"""Shared helpers of the canonical benchmark: percentile rule, failure
tally, host-speed calibration, environment scrub and fingerprint.

Only the stdlib is imported at module level, so the harness can run
(and fail cleanly) in a directory that holds nothing but the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("paper-cold", "paper-warm", "campaign-12x")

#: Campaign root seed of the paper reproduction (``repro.seeding``).
DEFAULT_SEED = 20170529

#: Escape hatches and backend selectors a run must not inherit: every
#: workload measures the default code paths and picks its own backend.
SCRUBBED_ENV = (
    "REPRO_FASTSIM",
    "REPRO_FASTFIT",
    "REPRO_ARENA",
    "REPRO_PARALLEL",
    "REPRO_MAX_WORKERS",
)

#: Thread-count variables recorded (never set: BLAS threads stay at the
#: library default so the small-matrix wake-up cost stays visible).
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)

#: Percentile ladder for the tail rule, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)

#: Samples a reported percentile needs beyond it.
TAIL_MIN_BEYOND = 10


#: Mean calibration-unit time on the reference host (2-CPU x86_64 VM,
#: Python 3.11, numpy 2.4).  Timings are reported at this speed.
CAL_REF_S = 0.020

#: Calibration units each interpreter times after its workload.
CAL_UNITS = 24


def load_spec() -> dict:
    """The benchmark declaration (``BENCHMARK.json`` at the repo root)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ten samples beyond it.

    120 samples give p90 (12 beyond; p99 would have 1.2); fewer than
    20 samples give none, and only the median is reported.
    """
    for q in TAIL_LADDER:
        # In tenths of a percent, so 99.9 compares exactly.
        if n * round((100.0 - q) * 10) >= TAIL_MIN_BEYOND * 1000:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, the tail percentile the rule allows, and the count."""
    out: Dict[str, float] = {"n": len(values), "median": median(values)}
    q = tail_percentile(len(values))
    if q is not None and q > 50.0:
        out[f"p{q:g}"] = percentile(values, q)
    return out


def _calibration_unit() -> float:
    import numpy as np

    acc = 0
    table = {}
    for i in range(60000):
        acc = (acc + i * i) % 1000003
        table[i & 1023] = acc
    a = np.arange(4096, dtype=np.float64)
    for _ in range(600):
        a = np.sqrt(a * 1.0001 + 1.0)
    return acc + float(a[-1])


def calibrate() -> List[float]:
    """Times of ``CAL_UNITS`` runs of a fixed single-threaded work unit
    (interpreter loop, dict stores, elementwise numpy; no BLAS).

    The CPU of a shared host runs a third slower or faster from one
    half-second to the next, and the share of slow time drifts from
    one half-minute to the next.  Each interpreter times these units
    after its workload; the harness scales the run's timings by
    ``CAL_REF_S / mean(unit times)``.  The BLAS thread wake-up cost is
    not part of the unit, so it is not scaled away.
    """
    import time

    _calibration_unit()  # first call pays one-off costs
    times = []
    for _ in range(CAL_UNITS):
        t0 = time.perf_counter()
        _calibration_unit()
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# failure tally
# ---------------------------------------------------------------------------


class Tally:
    """Operations and output checks attempted, and which of them failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def merge(self, checks: Iterable[Mapping[str, object]]) -> None:
        """Fold in the ``{"name", "ok", "detail"}`` records of a child."""
        for c in checks:
            self.check(str(c["name"]), bool(c["ok"]), str(c.get("detail", "")))


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def scrubbed_env(
    base: Mapping[str, str], *, root: Path, cache_dir: Path
) -> Dict[str, str]:
    """The environment every benchmark interpreter starts from.

    Escape hatches and backend selectors are removed, the campaign cache
    points at benchmark-owned scratch, ``src`` leads the import path.
    Everything else, BLAS thread settings included, passes unchanged.
    """
    env = {k: v for k, v in base.items() if k not in SCRUBBED_ENV}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + base["PYTHONPATH"] if base.get("PYTHONPATH") else src
    )
    return env


def git_commit(root: Path) -> str:
    """HEAD of ``root``'s own ``.git`` (no subprocess, no parent walk)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint(env: Mapping[str, str], root: Path) -> Dict[str, object]:
    """The parts of the fingerprint the harness knows without numpy."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "PYTHONHASHSEED": env.get("PYTHONHASHSEED"),
        "git_commit": git_commit(root),
        "repro_env": {k: v for k, v in sorted(env.items()) if k.startswith("REPRO_")},
        "thread_env": {k: env.get(k) for k in THREAD_ENV},
    }


def runtime_fingerprint() -> Dict[str, object]:
    """Library versions and BLAS state of the running interpreter.

    Called in a benchmark interpreter after ``repro`` is imported, so the
    OpenBLAS builds numpy and scipy loaded can be asked for their thread
    counts.
    """
    import ctypes

    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    threads: Dict[str, int] = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads[Path(path).name] = int(fn())
                break
    from repro.experiments.data import DATA_VERSION

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": vendor,
        "blas_threads": threads,
        "DATA_VERSION": DATA_VERSION,
        "executable": Path(sys.executable).name,
    }
