"""Bit-identity and memoization tests for the batched acquisition
kernel (DESIGN.md §17).

The contract under test: every fast-path layer — the vectorized
microarchitecture/power kernel, the phase-state memo, the batched
jitter, the shared-grid tracer — produces byte-identical results to
the scalar reference path (``REPRO_FASTSIM=0``)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.hardware.counters import COUNTER_NAMES
from repro.hardware.fastsim import (
    FASTSIM_ENV,
    PhaseStateMemo,
    fastsim_enabled,
    simulate_phases,
)
from repro.hardware.microarch import evaluate
from repro.hardware.platform import Platform
from repro.hardware.pmu import EventSet
from repro.hardware.power import HASWELL_EP_POWER_PARAMS, compute_power
from repro.seeding import derive_rng, rng_from_state_words
from repro.tracing.phases import profile_trace
from repro.tracing.otf2 import MetricDef
from repro.tracing.plugins import (
    ApapiPlugin,
    MetricPlugin,
    MultiplexedApapiPlugin,
    PowerPlugin,
    VoltagePlugin,
)
from repro.tracing.scorep import (
    ScorePTracer,
    record_runs,
    trace_multiplexed_run,
    trace_run,
)
from repro.workloads import get_workload
from repro.workloads.registry import all_workloads

FREQUENCIES = (1200, 1800, 2400)
THREAD_COUNTS = (1, 2, 8, 12, 13, 24)


def assert_states_equal(a, b):
    """MicroarchState equality, field by field (dataclass ``==`` is
    ambiguous on the ndarray member)."""
    assert np.array_equal(a.counter_rates, b.counter_rates)
    assert a.hidden == b.hidden


class TestFastsimEnabled:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv(FASTSIM_ENV, raising=False)
        assert fastsim_enabled() is True

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(FASTSIM_ENV, "0")
        assert fastsim_enabled(True) is True
        monkeypatch.setenv(FASTSIM_ENV, "1")
        assert fastsim_enabled(False) is False

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(FASTSIM_ENV, value)
        assert fastsim_enabled() is True

    @pytest.mark.parametrize("value", ["0", "false", "No", " off "])
    def test_falsy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(FASTSIM_ENV, value)
        assert fastsim_enabled() is False

    @pytest.mark.parametrize("value", ["fa1se", "2", "", "enabled"])
    def test_invalid_env_value_raises_naming_the_variable(
        self, monkeypatch, value
    ):
        monkeypatch.setenv(FASTSIM_ENV, value)
        with pytest.raises(ValueError, match="REPRO_FASTSIM"):
            fastsim_enabled()


class TestKernelBitIdentity:
    """simulate_phases vs the scalar evaluate/compute_power pair."""

    def test_full_registry_identical(self, platform):
        cfg = platform.cfg
        checked = 0
        for wl in all_workloads():
            for freq_mhz in FREQUENCIES:
                op = cfg.curve.operating_point(freq_mhz)
                for threads in THREAD_COUNTS:
                    specs = tuple(wl.phases(threads))
                    batched = simulate_phases(
                        [s.characterization for s in specs],
                        [s.active_threads for s in specs],
                        op,
                        cfg,
                        HASWELL_EP_POWER_PARAMS,
                    )
                    for spec, (state, breakdown) in zip(specs, batched):
                        ref_state = evaluate(
                            spec.characterization, op, spec.active_threads, cfg
                        )
                        ref_breakdown = compute_power(
                            ref_state.hidden, op, cfg, HASWELL_EP_POWER_PARAMS
                        )
                        assert_states_equal(state, ref_state)
                        assert breakdown == ref_breakdown
                        checked += 1
        assert checked > 500

    def test_single_phase_batch(self, platform):
        wl = get_workload("compute")
        op = platform.cfg.curve.operating_point(2400)
        (spec,) = tuple(wl.phases(8))
        ((state, breakdown),) = simulate_phases(
            [spec.characterization], [spec.active_threads], op, platform.cfg
        )
        ref = evaluate(spec.characterization, op, spec.active_threads, platform.cfg)
        assert_states_equal(state, ref)
        assert breakdown == compute_power(
            ref.hidden, op, platform.cfg, HASWELL_EP_POWER_PARAMS
        )


class TestExecuteBitIdentity:
    """Platform.execute fast path vs scalar path, jitter included."""

    @pytest.mark.parametrize("run_index", [0, 3])
    def test_execute_fast_equals_scalar(self, run_index):
        platform = Platform()
        for wl_name in ("compute", "memory_read", "idle", "md"):
            wl = get_workload(wl_name)
            for freq_mhz in (1200, 2400):
                for threads in (1, 13, 24):
                    fast = platform.execute(
                        wl, freq_mhz, threads, run_index=run_index, fast=True
                    )
                    scalar = platform.execute(
                        wl, freq_mhz, threads, run_index=run_index, fast=False
                    )
                    assert fast.workload_name == scalar.workload_name
                    assert fast.op == scalar.op
                    assert len(fast.phases) == len(scalar.phases)
                    for pf, ps in zip(fast.phases, scalar.phases):
                        assert pf.phase == ps.phase
                        assert pf.start_s == ps.start_s
                        assert pf.end_s == ps.end_s
                        assert_states_equal(pf.state, ps.state)
                        assert pf.power_breakdown == ps.power_breakdown
                        assert pf.true_voltage_v == ps.true_voltage_v

    def test_env_escape_hatch_matches_fast(self, monkeypatch):
        platform = Platform()
        wl = get_workload("memory_write")
        fast = platform.execute(wl, 2400, 8)
        monkeypatch.setenv(FASTSIM_ENV, "0")
        scalar = platform.execute(wl, 2400, 8)
        for pf, ps in zip(fast.phases, scalar.phases):
            assert_states_equal(pf.state, ps.state)
            assert pf.power_breakdown == ps.power_breakdown

    def test_explicit_phases_match_derived(self):
        platform = Platform()
        wl = get_workload("md")
        derived = platform.execute(wl, 2400, 24)
        explicit = platform.execute(
            wl, 2400, 24, phases=tuple(wl.phases(24))
        )
        for pf, ps in zip(derived.phases, explicit.phases):
            assert pf.phase == ps.phase
            assert_states_equal(pf.state, ps.state)
            assert pf.power_breakdown == ps.power_breakdown


class TestPhaseStateMemo:
    def test_event_set_reruns_hit_the_memo(self):
        """A campaign re-executes each experiment once per PMU event
        set; after the first run the memos must serve every repeat."""
        platform = Platform()
        wl = get_workload("md")
        # fast=True pins the path under test: this test asserts memo
        # internals, so it must not follow a REPRO_FASTSIM=0 override.
        platform.execute(wl, 2400, 24, run_index=0, fast=True)
        misses_after_first = platform._phase_memo.misses
        assert (wl.name, 2400, 24) in platform._run_memo
        for run_index in (1, 2, 3):
            platform.execute(wl, 2400, 24, run_index=run_index, fast=True)
        # Repeats replay the run skeleton: no new phase evaluations.
        assert platform._phase_memo.misses == misses_after_first
        # A rebuilt skeleton (fresh worker, evicted entry) is served
        # entirely from the phase-state memo.
        platform._run_memo.clear()
        platform.execute(wl, 2400, 24, run_index=4, fast=True)
        assert platform._phase_memo.misses == misses_after_first
        assert platform._phase_memo.hits > 0

    def test_prime_run_skeletons_is_pure_warmup(self):
        """Cross-experiment priming batches all phase evaluations into
        one kernel call; executes after it are served entirely warm and
        are bit-identical to a cold platform's."""
        primed = Platform()
        experiments = [
            (get_workload("md"), 2400, 24),
            (get_workload("compute"), 1200, 8),
            (get_workload("idle"), 2400, 1),
        ]
        primed.prime_run_skeletons(experiments)
        misses_after_prime = primed._phase_memo.misses
        cold = Platform()
        for wl, freq_mhz, threads in experiments:
            assert (wl.name, freq_mhz, threads) in primed._run_memo
            warm = primed.execute(wl, freq_mhz, threads, run_index=1)
            ref = cold.execute(wl, freq_mhz, threads, run_index=1)
            for pf, ps in zip(warm.phases, ref.phases):
                assert_states_equal(pf.state, ps.state)
                assert pf.power_breakdown == ps.power_breakdown
                assert pf.true_voltage_v == ps.true_voltage_v
        assert primed._phase_memo.misses == misses_after_prime
        # Re-priming the same experiments is a no-op.
        primed.prime_run_skeletons(experiments)
        assert primed._phase_memo.misses == misses_after_prime

    def test_memoized_reexecution_is_identical(self):
        platform = Platform()
        wl = get_workload("compute")
        first = platform.execute(wl, 2400, 8, run_index=0)
        again = platform.execute(wl, 2400, 8, run_index=0)
        for pf, ps in zip(first.phases, again.phases):
            assert_states_equal(pf.state, ps.state)
            assert pf.power_breakdown == ps.power_breakdown

    def test_capacity_eviction_fifo(self):
        memo = PhaseStateMemo(capacity=2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("c", 3)
        assert len(memo) == 2
        assert memo.get("a") is None  # oldest evicted
        assert memo.get("b") == 2
        assert memo.get("c") == 3

    def test_clear_resets_entries_and_stats(self):
        memo = PhaseStateMemo()
        memo.put("a", 1)
        memo.get("a")
        memo.get("zzz")
        memo.clear()
        assert len(memo) == 0
        assert memo.hits == 0 and memo.misses == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PhaseStateMemo(capacity=0)

    def test_pickle_drops_memo(self):
        platform = Platform()
        wl = get_workload("compute")
        platform.execute(wl, 2400, 8, fast=True)
        assert len(platform._phase_memo) > 0
        restored = pickle.loads(pickle.dumps(platform))
        assert len(restored._phase_memo) == 0
        # And the restored platform still executes identically.
        a = platform.execute(wl, 1200, 8)
        b = restored.execute(wl, 1200, 8)
        for pf, ps in zip(a.phases, b.phases):
            assert_states_equal(pf.state, ps.state)


class TestTracerBitIdentity:
    """The shared-grid tracer fast path vs the scalar recording path."""

    EVENTS = tuple(COUNTER_NAMES[:8])

    def assert_traces_equal(self, fast, scalar):
        assert fast.meta == scalar.meta
        assert fast.events == scalar.events
        assert list(fast.metrics) == list(scalar.metrics)
        for name in fast.metrics:
            a, b = fast.metrics[name], scalar.metrics[name]
            assert a.definition == b.definition
            assert np.array_equal(a.times_s, b.times_s)
            assert np.array_equal(a.values, b.values)

    def test_trace_run_identical(self, platform):
        run = platform.execute(get_workload("md"), 2400, 24)
        evset = EventSet(self.EVENTS)
        fast = trace_run(platform, run, evset, fast=True)
        scalar = trace_run(platform, run, evset, fast=False)
        self.assert_traces_equal(fast, scalar)
        assert profile_trace(fast) == profile_trace(scalar)

    def test_trace_multiplexed_identical(self, platform):
        run = platform.execute(get_workload("memory_read"), 1200, 8)
        fast = trace_multiplexed_run(
            platform, run, COUNTER_NAMES[:12], fast=True
        )
        scalar = trace_multiplexed_run(
            platform, run, COUNTER_NAMES[:12], fast=False
        )
        self.assert_traces_equal(fast, scalar)

    def test_fast_streams_share_one_times_array(self, platform):
        run = platform.execute(get_workload("md"), 2400, 24)
        trace = trace_run(platform, run, EventSet(self.EVENTS), fast=True)
        assert len({id(m.times_s) for m in trace.metrics.values()}) == 1

    def test_env_escape_hatch_selects_scalar_path(self, platform, monkeypatch):
        run = platform.execute(get_workload("compute"), 2400, 8)
        fast = trace_run(platform, run, EventSet(self.EVENTS))
        monkeypatch.setenv(FASTSIM_ENV, "0")
        scalar = trace_run(platform, run, EventSet(self.EVENTS))
        self.assert_traces_equal(fast, scalar)
        # The scalar path builds per-stream arrays, not a shared one.
        assert len({id(m.times_s) for m in scalar.metrics.values()}) > 1

    @pytest.mark.parametrize(
        "make_plugin",
        [
            PowerPlugin,
            VoltagePlugin,
            lambda p: ApapiPlugin(p, EventSet(COUNTER_NAMES[:8])),
            lambda p: MultiplexedApapiPlugin(p, COUNTER_NAMES[:12]),
        ],
        ids=["power", "voltage", "apapi", "apapi-mux"],
    )
    def test_paper_plugin_sample_phase(self, platform, make_plugin):
        # sample_phase on a paper plugin is its reference loop, and it
        # reproduces each phase segment the batched tracer records.
        plugin = make_plugin(platform)
        run = platform.execute(get_workload("md"), 2400, 24)
        assert len(run.phases) > 1
        trace = ScorePTracer(platform, [plugin], fast=True).trace(run)
        dt = 0.1
        pos = 0
        for phase in run.phases:
            n = max(int(np.floor(phase.duration_s / dt)), 1)
            grid = phase.start_s + dt * np.arange(1, n + 1)
            grid = grid[grid <= phase.end_s + 1e-9]
            key = (
                platform.seed, "plugin", type(plugin).__name__,
                run.workload_name, run.op.frequency_mhz, run.threads,
                run.run_index, phase.phase.name,
            )
            sampled = plugin.sample_phase(run, phase, grid, dt, derive_rng(*key))
            reference = plugin.sample_phase_reference(
                run, phase, grid, dt, derive_rng(*key)
            )
            assert list(sampled) == [m.name for m in plugin.metric_defs()]
            for name, values in sampled.items():
                assert np.array_equal(values, reference[name])
                recorded = trace.metrics[name].values[pos : pos + grid.size]
                assert np.array_equal(values, recorded)
            pos += grid.size
        assert pos == trace.metrics[plugin.metric_defs()[0].name].values.size

    def test_custom_plugin_samples_phase_by_phase(self, platform):
        # A plugin implementing only sample_phase records through the
        # default sample_runs on the batched path, identically.
        class ThermalPlugin(MetricPlugin):
            def metric_defs(self):
                return [MetricDef("temp", "C"), MetricDef("temp_max", "C")]

            def sample_phase(self, run, phase, sample_times, interval_s, rng):
                temp = 40.0 + phase.true_voltage_v * rng.standard_normal(
                    sample_times.size
                )
                return {"temp": temp, "temp_max": np.maximum.accumulate(temp)}

        run = platform.execute(get_workload("md"), 2400, 24)
        traces = [
            ScorePTracer(
                platform,
                [PowerPlugin(platform), VoltagePlugin(platform), ThermalPlugin()],
                fast=fast,
            ).trace(run)
            for fast in (True, False)
        ]
        self.assert_traces_equal(*traces)
        assert profile_trace(traces[0]) == profile_trace(traces[1])


class TestRngWordsPriming:
    """Per-experiment RNG-word expansion is a pure derivation: words
    expanded for a whole experiment draw the very streams a cold
    ``derive_rng`` construction yields, so the experiment kernel
    (primed) and a cold batch-of-one execute + trace (unprimed) record
    byte-identical jitter and sensor streams."""

    EVENTS = tuple(COUNTER_NAMES[:8])
    HEADS = ("PowerPlugin", "VoltagePlugin", "ApapiPlugin")
    RUNS = (
        ("md", 2400, 24, 0),
        ("md", 2400, 24, 1),
        ("compute", 1200, 8, 0),
    )

    def assert_metrics_equal(self, a_trace, b_trace):
        assert list(a_trace.metrics) == list(b_trace.metrics)
        for name in a_trace.metrics:
            a, b = a_trace.metrics[name], b_trace.metrics[name]
            assert np.array_equal(a.times_s, b.times_s)
            assert np.array_equal(a.values, b.values)

    @staticmethod
    def draws(words):
        return rng_from_state_words(words).standard_normal(6)

    def test_prime_rng_words_is_pure_warmup(self):
        platform = Platform()
        runs = [(get_workload(name), f, t, r) for name, f, t, r in self.RUNS]
        primed = platform.prime_rng_words(runs, self.HEADS)
        # Grouped per experiment, in first-seen order.
        assert list(primed) == [("md", 2400, 24), ("compute", 1200, 8)]
        seed = platform.seed
        for (name, f, t), words in primed.items():
            indices = [r for n, ff, tt, r in self.RUNS if (n, ff, tt) == (name, f, t)]
            assert words.run.shape == (len(indices), 4)
            for i, run_index in enumerate(indices):
                ref = derive_rng(seed, "run", name, f, t, run_index)
                assert np.array_equal(self.draws(words.run[i]), ref.standard_normal(6))
                for head in self.HEADS:
                    for p, phase in enumerate(words.phase_names):
                        ref = derive_rng(
                            seed, "plugin", head, name, f, t, run_index, phase
                        )
                        assert np.array_equal(
                            self.draws(words.streams[head][i, p]),
                            ref.standard_normal(6),
                        )
        # Nothing is cached on the platform: expansion is a pure function.
        again = platform.prime_rng_words(runs, self.HEADS)
        for key, words in primed.items():
            assert np.array_equal(again[key].run, words.run)
        assert not hasattr(platform, "_rng_words")
        # The kernel expands the same words for its batch, and records
        # what a cold platform's execute + trace of each run records.
        md = get_workload("md")
        tracer = ScorePTracer(
            platform,
            [
                PowerPlugin(platform),
                VoltagePlugin(platform),
                ApapiPlugin(platform, EventSet(self.EVENTS)),
            ],
        )
        batch = platform.execute_runs(md, 2400, 24, (0, 1), streams=self.HEADS)
        assert np.array_equal(batch.words.run, primed[("md", 2400, 24)].run)
        for head in self.HEADS:
            assert np.array_equal(
                batch.words.streams[head], primed[("md", 2400, 24)].streams[head]
            )
        samples = record_runs(batch, [tracer, tracer])
        cold = Platform()
        for i, run_index in enumerate((0, 1)):
            ref_run = cold.execute(md, 2400, 24, run_index=run_index)
            ref = trace_run(cold, ref_run, EventSet(self.EVENTS), fast=True)
            self.assert_metrics_equal(samples.trace(i), ref)

    def test_unprimed_plugin_falls_back_to_hashing(self):
        # A batch expanded without the multiplexed plugin's head cannot
        # be recorded by it; a batch of one through the tracer hashes
        # its own seeds and matches a cold platform bit for bit.
        platform = Platform()
        wl = get_workload("memory_read")
        batch = platform.execute_runs(
            wl, 1200, 8, (0,), streams=("PowerPlugin", "VoltagePlugin")
        )
        tracer = ScorePTracer(
            platform,
            [
                PowerPlugin(platform),
                VoltagePlugin(platform),
                MultiplexedApapiPlugin(platform, COUNTER_NAMES[:12]),
            ],
        )
        with pytest.raises(ValueError, match="MultiplexedApapiPlugin"):
            record_runs(batch, [tracer])
        cold = Platform()
        warm = trace_multiplexed_run(
            platform, batch.run(0), COUNTER_NAMES[:12], fast=True
        )
        ref = trace_multiplexed_run(
            cold,
            cold.execute(wl, 1200, 8, run_index=0),
            COUNTER_NAMES[:12],
            fast=True,
        )
        self.assert_metrics_equal(warm, ref)

    def test_priming_survives_pickling_as_empty_cache(self):
        platform = Platform()
        wl = get_workload("md")
        primed = platform.prime_rng_words(
            [(wl, 2400, 24, 0)], ("PowerPlugin", "VoltagePlugin")
        )
        platform.execute(wl, 2400, 24, run_index=1, fast=True)
        assert platform._name_blobs
        clone = pickle.loads(pickle.dumps(platform))
        # Hash state and name blobs are rebuilt, never shipped.
        assert clone._name_blobs == {} and clone._stream_hashers == {}
        again = clone.prime_rng_words(
            [(wl, 2400, 24, 0)], ("PowerPlugin", "VoltagePlugin")
        )
        key = (wl.name, 2400, 24)
        assert np.array_equal(again[key].run, primed[key].run)
        for head in ("PowerPlugin", "VoltagePlugin"):
            assert np.array_equal(again[key].streams[head], primed[key].streams[head])
        run = clone.execute(wl, 2400, 24, run_index=0)
        ref = Platform().execute(wl, 2400, 24, run_index=0)
        for pf, ps in zip(run.phases, ref.phases):
            assert pf.duration_s == ps.duration_s
            assert pf.power_breakdown == ps.power_breakdown


class TestCampaignBitIdentity:
    """End-to-end: a small campaign dataset is byte-equal fast vs
    scalar (the ISSUE-10 acceptance shape in miniature)."""

    def test_small_campaign_dataset_identical(self, monkeypatch):
        from repro.acquisition import run_campaign

        workloads = [get_workload(w) for w in ("idle", "compute", "md")]
        kwargs = dict(
            frequencies_mhz=[1200, 2400],
            thread_counts=[1, 24],
            events=COUNTER_NAMES[:8],
        )
        fast_ds = run_campaign(Platform(), workloads, **kwargs)
        monkeypatch.setenv(FASTSIM_ENV, "0")
        scalar_ds = run_campaign(Platform(), workloads, **kwargs)
        assert fast_ds.counter_names == scalar_ds.counter_names
        assert np.array_equal(fast_ds.counters, scalar_ds.counters)
        assert np.array_equal(fast_ds.power_w, scalar_ds.power_w)
