"""Seeded ingestion faults against the fleet estimation service.

The online fault model (:mod:`repro.faults.online`) corrupts one
node's counter stream; a *fleet* ingestion path fails in more ways:
whole submissions arrive malformed, node ids duplicate, timestamps
step backwards per node, and traffic bursts past queue capacity.
:class:`IngestFaultPlan` declares the rates and
:class:`IngestFaultInjector` applies them to submission batches —
deterministically, keyed by ``(root_seed, "ingest-fault", fault_seed,
kind, tick, node_id[, extra])``, so the chaos soak replays bit for
bit and the bit-identity tests can drive the serial and vectorized
paths from the same corrupted stream.

Only ``faulty_node_fraction`` of nodes (a seeded, per-node decision)
are eligible for per-sample faults — the chaos acceptance criterion
needs healthy nodes whose estimates must come through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Tuple

from repro.seeding import SeedHasher, rng_from_state_words, seedseq_state_words

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.serve.api import NodeSample

__all__ = ["IngestFaultPlan", "IngestFaultInjector"]

_RATE_FIELDS: Tuple[str, ...] = (
    "malformed_rate",
    "drop_rate",
    "nan_rate",
    "negative_rate",
    "context_rate",
    "backwards_time_rate",
    "duplicate_rate",
    "burst_rate",
)

#: Per-sample fault kinds: every rate but the per-tick burst.
_SAMPLE_KINDS: Tuple[str, ...] = tuple(
    name for name in _RATE_FIELDS if name != "burst_rate"
)


@dataclass(frozen=True)
class IngestFaultPlan:
    """Rates of the modelled fleet-ingestion faults.

    Per-sample rates apply only to samples from fault-eligible nodes
    (see ``faulty_node_fraction``); ``burst_rate`` is per submission
    tick and replays the whole tick's traffic ``burst_factor`` times —
    the overload case the bounded queue's backpressure policy exists
    for.
    """

    malformed_rate: float = 0.0
    """Per-sample probability the submission is structural garbage
    (dropped and counted by the schema middleware)."""
    drop_rate: float = 0.0
    """Per-sample probability the report never arrives."""
    nan_rate: float = 0.0
    """Per-sample probability one counter delta reads back NaN."""
    negative_rate: float = 0.0
    """Per-sample probability one counter delta goes negative."""
    context_rate: float = 0.0
    """Per-sample probability of invalid context (zero voltage)."""
    backwards_time_rate: float = 0.0
    """Per-sample probability the timestamp steps backwards (NTP)."""
    duplicate_rate: float = 0.0
    """Per-sample probability the report is delivered twice."""
    burst_rate: float = 0.0
    """Per-tick probability of a traffic burst."""
    burst_factor: int = 2
    """How many times a burst tick's traffic is replayed."""
    faulty_node_fraction: float = 1.0
    """Fraction of nodes eligible for per-sample faults (seeded,
    per-node, stable across ticks)."""
    fault_seed: int = 0
    """Extra stream key, mirroring the other fault plans."""

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS + ("faulty_node_fraction",):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.burst_factor < 1:
            raise ValueError("burst_factor must be at least 1")

    @property
    def any_active(self) -> bool:
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    @classmethod
    def chaos(
        cls,
        intensity: float = 0.1,
        *,
        faulty_node_fraction: float = 0.2,
        fault_seed: int = 0,
    ) -> "IngestFaultPlan":
        """Every ingestion fault class at once, scaled by ``intensity``
        (cf. :meth:`CounterLossPlan.chaos`)."""
        if intensity < 0:
            raise ValueError("intensity must be non-negative")
        return cls(
            malformed_rate=min(0.2 * intensity, 1.0),
            drop_rate=min(0.2 * intensity, 1.0),
            nan_rate=min(0.5 * intensity, 1.0),
            negative_rate=min(0.3 * intensity, 1.0),
            context_rate=min(0.2 * intensity, 1.0),
            backwards_time_rate=min(0.3 * intensity, 1.0),
            duplicate_rate=min(0.3 * intensity, 1.0),
            burst_rate=min(0.2 * intensity, 1.0),
            burst_factor=2,
            faulty_node_fraction=faulty_node_fraction,
            fault_seed=fault_seed,
        )

    def describe(self) -> str:
        active = [
            f"{name}={getattr(self, name):g}"
            for name in _RATE_FIELDS
            if getattr(self, name) > 0.0
        ]
        if active and self.faulty_node_fraction < 1.0:
            active.append(f"faulty_node_fraction={self.faulty_node_fraction:g}")
        return "IngestFaultPlan(" + (", ".join(active) or "inactive") + ")"


class _Garbage:
    """A structurally-invalid submission (not a :class:`NodeSample`)."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<malformed submission>"


class IngestFaultInjector:
    """Apply an :class:`IngestFaultPlan` to per-tick submission batches.

    Every decision draws from its own derived stream keyed by fault
    kind, tick and node id, so changing one rate never shifts another
    fault class's decisions.  ``corrupt`` derives all of a tick's
    decision streams in one batched pass (one BLAKE2b prefix, one
    vectorized ``SeedSequence`` expansion); each decision is still the
    first ``random()`` draw of the ``default_rng`` stream its key names.
    """

    def __init__(self, plan: IngestFaultPlan, root_seed: int) -> None:
        self.plan = plan
        self.root_seed = int(root_seed)
        self._hasher = SeedHasher(
            self.root_seed, "ingest-fault", plan.fault_seed
        )
        self._kinds = tuple(
            kind for kind in _SAMPLE_KINDS if getattr(plan, kind) > 0.0
        )
        self._faulty: Dict[str, bool] = {}

    def node_faulty(self, node_id: str) -> bool:
        """Is this node eligible for per-sample faults?  Seeded and
        stable across the whole session (so memoized per node)."""
        hit = self._faulty.get(node_id)
        if hit is None:
            fraction = self.plan.faulty_node_fraction
            if fraction >= 1.0:
                hit = True
            elif fraction <= 0.0:
                hit = False
            else:
                rng = self._hasher.rng("faulty-node", node_id)
                hit = bool(rng.random() < fraction)
            self._faulty[node_id] = hit
        return hit

    def _tick_decisions(
        self, node_ids: Sequence[str], tick: int
    ) -> Tuple[Dict[str, FrozenSet[str]], bool]:
        """Every rate decision of one tick: the fault kinds that fire
        per eligible node, and whether the tick bursts."""
        seeds = []
        rates = []
        for kind in self._kinds:
            tick_hasher = self._hasher.child(kind, tick)
            seeds.extend(tick_hasher.seed(node_id) for node_id in node_ids)
            rates.extend([getattr(self.plan, kind)] * len(node_ids))
        if self.plan.burst_rate > 0.0:
            seeds.append(self._hasher.seed("burst_rate", tick))
            rates.append(self.plan.burst_rate)
        if not seeds:
            return {}, False
        fires = [
            rng_from_state_words(words).random() < rate
            for words, rate in zip(seedseq_state_words(seeds), rates)
        ]
        n = len(node_ids)
        fired = {
            node_id: frozenset(
                kind
                for k, kind in enumerate(self._kinds)
                if fires[k * n + i]
            )
            for i, node_id in enumerate(node_ids)
        }
        burst = self.plan.burst_rate > 0.0 and bool(fires[-1])
        return fired, burst

    def _victim(self, kind: str, tick: int, node_id: str, names) -> str:
        rng = self._hasher.rng(kind, tick, node_id)
        return names[int(rng.integers(0, len(names)))]

    def corrupt(
        self, samples: Sequence[NodeSample], tick: int
    ) -> List[object]:
        """A corrupted copy of one tick's submissions.

        The input is never mutated.  Returns a mixed list of
        :class:`NodeSample` and garbage objects, possibly with
        duplicates, drops, and a whole-tick burst replay.
        """
        if not self.plan.any_active:
            return list(samples)
        eligible = list(
            dict.fromkeys(
                s.node_id for s in samples if self.node_faulty(s.node_id)
            )
        )
        fired_by_node, burst = self._tick_decisions(eligible, tick)
        out: List[object] = []
        for sample in samples:
            node_id = sample.node_id
            fired = fired_by_node.get(node_id)
            if fired is None:
                out.append(sample)
                continue
            if "drop_rate" in fired:
                continue
            if "malformed_rate" in fired:
                out.append(_Garbage())
                continue
            corrupted = sample
            if "nan_rate" in fired and corrupted.counter_deltas:
                deltas = dict(corrupted.counter_deltas)
                victim = self._victim(
                    "nan-victim", tick, node_id, sorted(deltas)
                )
                deltas[victim] = float("nan")
                corrupted = replace(corrupted, counter_deltas=deltas)
            elif "negative_rate" in fired and corrupted.counter_deltas:
                deltas = dict(corrupted.counter_deltas)
                victim = self._victim(
                    "neg-victim", tick, node_id, sorted(deltas)
                )
                deltas[victim] = -abs(deltas[victim]) - 1.0
                corrupted = replace(corrupted, counter_deltas=deltas)
            if "context_rate" in fired:
                corrupted = replace(corrupted, voltage_v=0.0)
            if corrupted.time_s is not None and "backwards_time_rate" in fired:
                corrupted = replace(
                    corrupted, time_s=corrupted.time_s - 1000.0
                )
            out.append(corrupted)
            if "duplicate_rate" in fired:
                out.append(corrupted)
        if burst:
            out = out * self.plan.burst_factor
        return out
