"""Tests of the benchmark harness itself (no workload is run).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import common
import run as harness
import spans
from common import Tally, scrubbed_env, summarize, tail_percentile
from spans import Probe, Tracer, outer_calls, self_times


# -- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (120, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * round((100 - expected) * 10) >= 10 * 1000


def test_summarize_serve_ticks_reports_median_and_p90():
    ticks = [float(i) for i in range(120)]
    s = summarize(ticks)
    assert s["n"] == 120
    assert s["median"] == pytest.approx(59.5)
    assert s["p90"] == pytest.approx(107.1)
    assert not any(k.startswith("p99") for k in s)


def test_summarize_few_samples_reports_median_only():
    assert summarize([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0}


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_union_of_direct_children():
    spans_ = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: children cover 1..6
        ["leaf", 2.0, 3.0, 1],
        ["a", 7.0, 8.0, 0],
    ]
    st = self_times(spans_)
    assert st["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert st["b"] == pytest.approx(3.0)
    assert st["leaf"] == pytest.approx(1.0)
    assert sum(st.values()) == pytest.approx(10.0 + 1.0)  # only a/b overlap double-counts


def test_tracer_nesting_with_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = tracer.wrap(inner, "inner")
    wrapped_outer = tracer.wrap(outer, "outer")
    assert wrapped_outer() == 2
    # outer opens at 0, inner 1-2, inner 3-4, outer closes at 5.
    st = self_times(tracer.spans)
    assert st == {"outer": pytest.approx(3.0), "inner": pytest.approx(2.0)}
    assert outer_calls(tracer.spans, ("inner",)) == 2
    assert outer_calls(tracer.spans, ("outer", "inner")) == 1


def test_install_patches_callers_bindings_and_restores():
    a = types.ModuleType("repro_perfbench_test_a")
    exec("def f(x):\n    return x + 1\n", a.__dict__)
    b = types.ModuleType("repro_perfbench_test_b")
    b.f = a.f
    sys.modules[a.__name__], sys.modules[b.__name__] = a, b
    original = a.f
    try:
        tracer = Tracer()
        tracer.install([Probe(f"{a.__name__}:f", "layer.f")])
        assert a.f(1) == 2 and b.f(2) == 3
        assert [s[0] for s in tracer.spans] == ["layer.f", "layer.f"]
        tracer.restore()
        assert a.f is original and b.f is original
    finally:
        del sys.modules[a.__name__], sys.modules[b.__name__]


def test_install_wraps_staticmethod_and_inherited_method():
    class Base:
        def m(self):
            return "m"

    class Child(Base):
        @staticmethod
        def s():
            return "s"

    mod = types.ModuleType("repro_perfbench_test_c")
    mod.Child = Child
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer()
        tracer.install([Probe(f"{mod.__name__}:Child.m", "c.m"), Probe(f"{mod.__name__}:Child.s", "c.s")])
        assert Child().m() == "m" and Child.s() == "s"
        assert [s[0] for s in tracer.spans] == ["c.m", "c.s"]
        tracer.restore()
        assert "m" not in vars(Child)
        assert isinstance(vars(Child)["s"], staticmethod)
    finally:
        del sys.modules[mod.__name__]


def test_tick_latency_runs_from_submit_start_to_process_end():
    spans_ = [
        ["serve.submit", 0.0, 0.001, -1],
        ["serve.process", 0.002, 0.005, -1],
        ["serve.submit", 0.010, 0.011, -1],
        ["serve.process", 0.011, 0.012, -1],
    ]
    assert spans.tick_latencies_ms(spans_) == pytest.approx([5.0, 2.0])


# -- failure counting -------------------------------------------------------


def test_tally_counts_failed_checks_against_attempted():
    t = Tally()
    t.check("ok", True)
    t.check("bad", False, "why")
    t.merge([{"name": "child ok", "ok": True}, {"name": "child bad", "ok": False, "detail": "x"}])
    assert (t.attempted, t.failed) == (4, 2)
    assert t.error_rate == 0.5
    assert t.failures == ["bad: why", "child bad: x"]


def test_crashed_interpreter_counts_as_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path)
    run = harness.Run("paper-warm", 1, 1.0, False)
    run.work.mkdir(parents=True)
    assert run.spawn("--no-such-flag") is None
    assert (run.tally.attempted, run.tally.failed) == (1, 1)


def test_timed_out_interpreter_is_killed_and_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path)
    run = harness.Run("paper-warm", 1, 1.0, False)
    run.work.mkdir(parents=True)
    run.deadline = 0.0  # leaves the one-second minimum; importing repro takes longer
    started = harness.time.monotonic()
    assert run.spawn("--setup-only") is None
    assert harness.time.monotonic() - started < 10
    assert run.tally.failures == ["interpreter 1 finished: timed out"]


def test_diverging_iterations_fail_the_consistency_check(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path)
    run = harness.Run("paper-cold", 1, 1.0, False)
    run.fingerprint = {"DATA_VERSION": None}
    same = {"selected": ["A"], "cv_mape_pct": 7.0, "fit_r2": 0.95, "cells": 1, "rows": 1}
    other_seed = dict(same, seed=run.panel[1], digest="cc", cv_mape_pct=9.0)
    run.untraced = [dict(same, seed=1, digest="aa"), other_seed, dict(same, seed=1, digest="bb")]
    run.check_consistency()
    assert run.tally.failed == 1
    assert run.tally.failures[0] == 'digest identical across iterations: "aa" vs "bb"'


def test_report_scales_timings_and_counts_each_campaign_seed_once(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path)
    run = harness.Run("paper-cold", 1, 1.0, False)
    run.setup_samples = [2.0]
    run.cal_samples = [2 * common.CAL_REF_S]  # a host at half the reference speed
    base = {"wall_s": 4.0, "cells": 10, "acq_s": 2.0, "peak_rss_mib": 100.0, "fit_r2": 0.95}
    run.untraced = [
        dict(base, seed=1, cv_mape_pct=9.0),
        dict(base, seed=2, cv_mape_pct=7.0),
        dict(base, seed=3, cv_mape_pct=7.1),
        dict(base, seed=1, cv_mape_pct=9.0),
    ]
    metrics = run.report()["metrics"]
    assert metrics["cv_mape_pct"]["value"] == 7.1
    assert metrics["wall_s"]["value"] == pytest.approx(2.0)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)
    assert metrics["cells_per_s"]["value"] == pytest.approx(10.0)
    assert metrics["peak_rss_mib"]["value"] == 100.0


def test_iterations_cycle_through_the_campaign_panel(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path)
    run = harness.Run("campaign-12x", 5, 1.0, False)
    seeds = []

    def fake_spawn(*flags, seed=None, cache_dir=None):
        seeds.append(seed)
        return {"seed": seed, "checks": []}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    for _ in range(4):
        run.iteration(False)
    assert seeds == [5, 5 + harness.PANEL_STRIDE, 5 + 2 * harness.PANEL_STRIDE, 5]


# -- environment scrub --------------------------------------------------------


def test_scrub_removes_escape_hatches_and_keeps_blas_threads(tmp_path):
    base = {name: "0" for name in common.SCRUBBED_ENV}
    base.update(
        OPENBLAS_NUM_THREADS="1",
        REPRO_CACHE_DIR="/elsewhere",
        REPRO_OTHER="kept",
        PYTHONPATH="extra",
        PYTHONHASHSEED="7",
    )
    env = scrubbed_env(base, root=tmp_path, cache_dir=tmp_path / "cache")
    assert not set(common.SCRUBBED_ENV) & set(env)
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["REPRO_OTHER"] == "kept"
    assert env["PYTHONHASHSEED"] == "7"
    assert env["REPRO_CACHE_DIR"] == str(tmp_path / "cache")
    assert env["PYTHONPATH"].split(":") == [str(tmp_path / "src"), "extra"]
    fp = common.host_fingerprint(env, tmp_path)
    assert fp["repro_env"] == {"REPRO_CACHE_DIR": str(tmp_path / "cache"), "REPRO_OTHER": "kept"}
    assert fp["git_commit"] == "unknown"


# -- the declaration ----------------------------------------------------------


def test_declared_per_layer_metrics_are_the_ones_reported():
    spec = common.load_spec()
    declared = {m["name"] for m in spec["per_layer"]}
    produced = {f"{s}_s" for s in spans.SELF_TIME_SPANS}
    produced |= set(spans.CALL_METRICS) | set(spans.COUNT_METRICS)
    produced |= {"serve.tick_p50_ms", "serve.tick_p90_ms"}
    produced |= {"setup.import_repro_s", "setup.import_scipy_stats_s"}
    produced |= {"parallel.shm_left", "parallel.tracker_warnings", "trace.overhead_frac"}
    experiments = {n for n in declared if n.startswith(spans.EXPERIMENT_PREFIX)}
    assert len(experiments) == 11
    assert declared == produced | experiments
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)


def test_without_the_program_the_benchmark_exits_nonzero_silently(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        common.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cold", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".perfbench-work").exists()
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout or "x")
    assert Path(tmp_path / "perfbench" / "run.py").exists()
