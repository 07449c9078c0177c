"""Canonical end-to-end benchmark of the paper reproduction.

    python3 perfbench/run.py --workload paper-cold --seed 20170529 \\
        --seconds 20 --trace 0

Workloads (see ``perfbench/METRICS.md`` for why each was chosen and
which layers it should and should not move):

* ``paper-cold``: all ``repro-experiments`` experiments, serial, from an
  empty campaign cache;
* ``paper-warm``: the same with the cache filled before timing;
* ``campaign-12x``: 31,200-cell campaign, workflow and all scenarios on
  the process backend at ``nproc`` workers.

Every iteration is a fresh interpreter (``body.py``), so no in-process
memo carries over.  Iterations repeat until ``--seconds`` of
measurement are spent (at least one) and cycle through three campaign
seeds derived from ``--seed``.  Timings are scaled to a reference host
speed (``common.calibrate``).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from a traced
pass plus its overhead against untraced iterations of the same run.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (operations and output checks) and ``metrics``.  The exit
code is 0 only when every check passed; 2 when there is nothing to
measure (no ``src/repro`` next to the benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    BENCH_DIR,
    CAL_REF_S,
    DEFAULT_SEED,
    ROOT,
    WORKLOADS,
    Tally,
    host_fingerprint,
    load_spec,
    median,
    scrubbed_env,
    summarize,
)

#: Whole-run limit, under the 180 s a run may take.
HARD_LIMIT_S = 165.0

#: Set-up samples per run: each iteration gives one, set-up-only
#: interpreters top up the rest.  The first few run before the
#: iterations, so calibration brackets even a one-iteration run.
SETUP_SAMPLES = 6
SETUP_BEFORE = 2

#: Fresh-process samples per import probe in the traced run.
IMPORT_PROBES = 3

WORK_DIR = ROOT / ".perfbench-work"

GOLDEN = BENCH_DIR / "golden.json"

#: Campaign seeds per run: iteration i runs ``panel[i % PANEL]``, the
#: first being ``--seed`` itself.  About one campaign seed in ten makes
#: Algorithm 1 pick another counter set (Table-II MAPE near 9 % instead
#: of 7 %); the median over three campaigns keeps one such seed from
#: deciding a run's ``cv_mape_pct``.  Each campaign's value is in the
#: record.
PANEL = 3
PANEL_STRIDE = 1_000_003

#: Per-iteration values that repeat exactly for a seed.
DETERMINISTIC_KEYS = ("digest", "selected", "cv_mape_pct", "fit_r2", "cells", "rows")


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a body that has not exited, with its workers, and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


class NothingToMeasure(Exception):
    """The checkout holds no program the benchmark can import."""


class Run:
    """One invocation: set-up probes, iterations, checks, aggregation."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.panel = [seed + j * PANEL_STRIDE for j in range(PANEL)]
        self.references: List[dict] = []
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
        self.tally = Tally()
        self.setup_samples: List[float] = []
        self.cal_samples: List[float] = []
        self.untraced: List[dict] = []
        self.traced: List[dict] = []
        self._n = 0
        self.env = scrubbed_env(os.environ, root=ROOT, cache_dir=self.work / "cache")

    # -- spawning ----------------------------------------------------------
    def spawn(
        self, *flags: str, seed: Optional[int] = None, cache_dir: Optional[Path] = None
    ) -> Optional[dict]:
        """Run ``body.py`` once in a fresh interpreter; ``None`` on crash."""
        self._n += 1
        out = self.work / f"out-{self._n}.json"
        env = self.env
        if cache_dir is not None:
            env = dict(env, REPRO_CACHE_DIR=str(cache_dir))
        cmd = [
            sys.executable,
            str(BENCH_DIR / "body.py"),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed if seed is None else seed),
            "--out",
            str(out),
            *flags,
        ]
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned_at = time.monotonic()
        # Own process group, so a timed-out body goes down with its workers.
        proc = subprocess.Popen(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            self.tally.check(f"interpreter {self._n} finished", False, "timed out")
            return None
        except BaseException:
            _kill_group(proc)
            raise
        if proc.returncode != 0 or not out.exists():
            tail = stderr.strip().splitlines()[-3:]
            self.tally.check(
                f"interpreter {self._n} exited cleanly",
                False,
                f"exit {proc.returncode}: {' | '.join(tail)}",
            )
            return None
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        out.unlink()
        result["tracker_warnings"] = sum(
            1 for line in stderr.splitlines() if "UserWarning: resource_tracker" in line
        )
        if "setup_s" in result:
            self.setup_samples.append(result["setup_s"])
            self.cal_samples.extend(result["cal_s"])
        return result

    def time_left(self, margin_s: float = 10.0) -> bool:
        """Room for another short interpreter before the whole-run limit."""
        return time.monotonic() + margin_s < self.deadline

    def iteration(self, traced: bool) -> None:
        """One measured interpreter on the next campaign seed of the panel."""
        cache_dir = None
        if self.workload == "paper-cold":
            cache_dir = self.work / f"cold-{self._n + 1}"
        flags = ["--trace", "--spans-out", str(self.spans_path)] if traced else []
        seed = self.panel[(len(self.untraced) + len(self.traced)) % PANEL]
        result = self.spawn(*flags, seed=seed, cache_dir=cache_dir)
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if result is not None:
            self.tally.merge(result.get("checks", ()))
            (self.traced if traced else self.untraced).append(result)

    @property
    def spans_path(self) -> Path:
        return WORK_DIR / "records" / f"{self.record_stem}-spans.json"

    @property
    def record_stem(self) -> str:
        return f"{self.workload}-seed{self.seed}-trace{int(self.trace)}"

    # -- the run -----------------------------------------------------------
    def execute(self) -> dict:
        (WORK_DIR / "records").mkdir(parents=True, exist_ok=True)
        self.work.mkdir(parents=True, exist_ok=True)
        # The first interpreter also reports the runtime half of the
        # fingerprint.  In a fresh checkout it compiles the bytecode too;
        # the set-up median absorbs that one slow sample.
        first = self.spawn("--setup-only", "--fingerprint")
        if first is None:
            raise NothingToMeasure("the program does not import: " + "; ".join(self.tally.failures))
        self.fingerprint = dict(host_fingerprint(self.env, ROOT), **first["fingerprint"])
        for _ in range(SETUP_BEFORE - 1):
            self.spawn("--setup-only")
        if self.workload == "paper-warm":
            # Fill the cache once per campaign seed: cold acquisitions
            # whose outputs the warm iterations must reproduce.
            for seed in self.panel:
                reference = self.spawn("--fill", seed=seed)
                if reference is not None:
                    self.references.append(reference)
        self.measure()
        while len(self.setup_samples) < SETUP_SAMPLES and self.time_left() and self.spawn("--setup-only"):
            pass
        self.check_consistency()
        return self.report()

    def measure(self) -> None:
        kinds = [False, True] if self.trace else [False]
        t0 = time.monotonic()
        durations: List[float] = []
        while True:
            r0 = time.monotonic()
            for traced in kinds:
                self.iteration(traced)
            kinds.reverse()
            durations.append(time.monotonic() - r0)
            now = time.monotonic()
            expected = median(durations)
            if now - t0 + expected > self.seconds or now + expected > self.deadline:
                break

    def check_consistency(self) -> None:
        """Deterministic outputs agree between iterations of one campaign
        seed, with the cache fill (warm) and with the golden digests."""
        by_seed: Dict[int, List[dict]] = {}
        for r in self.references + self.untraced + self.traced:
            if "digest" in r:
                by_seed.setdefault(r["seed"], []).append(r)
        check = self.tally.check
        check("at least one iteration completed", bool(self.untraced))
        for key in DETERMINISTIC_KEYS:
            diverged = sorted(
                " vs ".join(sorted({json.dumps(r[key]) for r in group}))
                for group in by_seed.values()
                if len({json.dumps(r[key]) for r in group}) > 1
            )
            check(f"{key} identical across iterations", not diverged, "; ".join(diverged))
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        data_version = str(self.fingerprint.get("DATA_VERSION"))
        expected = golden.get(data_version, {}).get(self.workload.split("-")[0], {}).get(str(self.seed))
        if expected is not None and self.seed in by_seed:
            got = by_seed[self.seed][0]
            check("dataset digest matches golden", got["digest"] == expected["digest"], got["digest"])
            check(
                "selected counters match golden",
                got["selected"] == expected["selected"],
                ",".join(got["selected"]),
            )

    # -- aggregation -------------------------------------------------------
    def report(self) -> dict:
        spec = load_spec()
        # Host-speed drift correction for the run (see common.calibrate).
        speed = CAL_REF_S / (sum(self.cal_samples) / len(self.cal_samples))
        samples: Dict[str, List[float]] = {
            "setup_s": [x * speed for x in self.setup_samples],
            "raw.setup_s": self.setup_samples,
            "raw.calibration_s": self.cal_samples,
        }
        per_seed: Dict[int, dict] = {}
        for r in self.untraced:
            if "wall_s" not in r:
                continue
            per_seed.setdefault(r["seed"], r)
            for name, value in (
                ("wall_s", r["wall_s"] * speed),
                ("cells_per_s", r["cells"] / r["acq_s"] / speed),
                ("peak_rss_mib", r["peak_rss_mib"]),
                ("raw.wall_s", r["wall_s"]),
            ):
                samples.setdefault(name, []).append(value)
        # Simulated statistics repeat for a campaign seed: one sample each.
        for r in per_seed.values():
            samples.setdefault("cv_mape_pct", []).append(r["cv_mape_pct"])
            samples.setdefault("fit_r2", []).append(r["fit_r2"])
        if self.trace:
            names = spec["per_layer"]
            samples.update(self.layer_samples())
        else:
            names = spec["end_to_end"]
        metrics = {}
        summaries = {}
        for m in names:
            values = samples.get(m["name"]) or [0.0]
            summaries[m["name"]] = summarize(values)
            metrics[m["name"]] = {"value": median(values), "unit": m["unit"]}
        first = next((r for r in self.untraced + self.traced if "digest" in r), {})
        return {
            "metrics": metrics,
            "summaries": summaries,
            "samples": samples,
            "outputs": {k: first.get(k) for k in DETERMINISTIC_KEYS},
        }

    def layer_samples(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for r in self.traced:
            for name, value in r.get("layer", {}).items():
                out.setdefault(name, []).append(value)
        for module, name in (("repro", "setup.import_repro_s"), ("scipy.stats", "setup.import_scipy_stats_s")):
            for _ in range(IMPORT_PROBES if self.time_left() else 0):
                r = self.spawn("--import-probe", module)
                if r is not None:
                    out.setdefault(name, []).append(r["import_s"])
        results = [r for r in self.untraced + self.traced if "wall_s" in r]
        out["parallel.shm_left"] = [r.get("shm_left", 0) for r in results]
        out["parallel.tracker_warnings"] = [r["tracker_warnings"] for r in results]
        plain = [r["wall_s"] for r in self.untraced if "wall_s" in r]
        traced = [r["wall_s"] for r in self.traced if "wall_s" in r]
        if plain and traced:
            out["trace.overhead_frac"] = [(median(traced) - median(plain)) / median(plain)]
        return out


def _print_human(run: Run, report: dict) -> None:
    print(f"perfbench {run.workload} seed={run.seed} trace={int(run.trace)} "
          f"iterations={len(run.untraced)}+{len(run.traced)} traced")
    print("environment " + json.dumps(run.fingerprint, sort_keys=True))
    ref = next((r for r in run.untraced if "paper_cv_mape_pct" in r), {})
    paper = {
        "cv_mape_pct": ref.get("paper_cv_mape_pct"),
        "fit_r2": ref.get("paper_fit_r2"),
    }
    for name, metric in report["metrics"].items():
        s = report["summaries"][name]
        tail = "".join(f" {k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
        line = f"  {name:32s} {metric['value']:.6g} {metric['unit']}  (median of {s['n']}{tail})"
        if paper.get(name) is not None:
            line += f"  [paper {paper[name]:g}; simulated vs sensor]"
        print(line)
    tally = run.tally
    print(f"  error_rate {tally.error_rate:.4g} ({tally.failed} of {tally.attempted} failed)")
    for failure in tally.failures:
        print(f"  FAILED {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        report = run.execute()
    except NothingToMeasure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    _print_human(run, report)
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "trace": run.trace,
        "environment": run.fingerprint,
        "failures": run.tally.failures,
        "attempted": run.tally.attempted,
        **report,
    }
    record_path = WORK_DIR / "records" / f"{run.record_stem}.json"
    with open(record_path, "w", encoding="utf-8") as fh:  # replint: ignore[RL006] -- scratch output
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
