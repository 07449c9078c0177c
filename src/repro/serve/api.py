"""Wire types of the fleet estimation service.

A monitored node reports one :class:`NodeSample` per sampling interval;
the service packs validated samples into column-major :class:`Batch`
matrices (nodes × counters) that :class:`repro.serve.fleet.FleetEstimator`
steps in one vectorized pass — the only online-estimation kernel; the
single-node :class:`~repro.core.online.OnlineEstimator` packs its one
sample into a one-row batch.  The batch layout preserves everything the
step contract distinguishes — a *missing* counter (absent key), a
*non-finite* delta and a *negative* delta are different degradations
with different messages — so the kernel reproduces the scalar test
oracle (:mod:`repro.core.online_reference`) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = ["NodeSample", "Batch", "make_batch"]


@dataclass(frozen=True)
class NodeSample:
    """One node's counter deltas for one sampling interval."""

    node_id: str
    counter_deltas: Dict[str, float]
    """Raw event counts accumulated over the interval.  Keys the model
    needs but the node failed to report are simply absent."""
    interval_s: float
    voltage_v: float
    frequency_mhz: float
    time_s: Optional[float] = None


@dataclass(frozen=True)
class Batch:
    """Validated samples in (nodes × counters) column-major form.

    ``deltas[i, k]`` is row *i*'s delta for ``counters[k]``;
    ``present[i, k]`` is False where the sample did not carry that
    counter at all (NaN in ``deltas`` with ``present`` True means the
    node *reported* a non-finite value — a different fault).
    ``time_valid[i]`` is False where the sample carried no timestamp.
    The same ``node_id`` may appear in several rows (duplicate reports);
    row order is the arrival order a per-node loop would see.
    """

    counters: Tuple[str, ...]
    node_ids: Tuple[str, ...]
    deltas: np.ndarray
    present: np.ndarray
    interval_s: np.ndarray
    voltage_v: np.ndarray
    frequency_mhz: np.ndarray
    time_s: np.ndarray
    time_valid: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.node_ids)

    @classmethod
    def concat(cls, batches: Sequence["Batch"]) -> "Batch":
        """The batches' rows stacked in order (counters must agree)."""
        counters = batches[0].counters
        if any(b.counters != counters for b in batches):
            raise ValueError("cannot concatenate batches over different counters")
        return cls(
            counters=counters,
            node_ids=tuple(n for b in batches for n in b.node_ids),
            deltas=np.concatenate([b.deltas for b in batches]),
            present=np.concatenate([b.present for b in batches]),
            interval_s=np.concatenate([b.interval_s for b in batches]),
            voltage_v=np.concatenate([b.voltage_v for b in batches]),
            frequency_mhz=np.concatenate([b.frequency_mhz for b in batches]),
            time_s=np.concatenate([b.time_s for b in batches]),
            time_valid=np.concatenate([b.time_valid for b in batches]),
        )

    def row_sample(self, i: int) -> NodeSample:
        """Row *i* back as the :class:`NodeSample` a single-node
        estimator would have been fed — the identity tests step the
        kernel and the scalar oracle from the same rows."""
        deltas = {
            counter: float(self.deltas[i, k])
            for k, counter in enumerate(self.counters)
            if self.present[i, k]
        }
        return NodeSample(
            node_id=self.node_ids[i],
            counter_deltas=deltas,
            interval_s=float(self.interval_s[i]),
            voltage_v=float(self.voltage_v[i]),
            frequency_mhz=float(self.frequency_mhz[i]),
            time_s=float(self.time_s[i]) if self.time_valid[i] else None,
        )


def make_batch(
    samples: Sequence[NodeSample], counters: Sequence[str]
) -> Batch:
    """Pack samples into a :class:`Batch` over the model's counters.

    Counters a sample carries beyond the model's set are ignored, like
    the scalar oracle ignores them; absent counters become
    ``present=False`` holes.
    """
    counters = tuple(counters)
    n, k = len(samples), len(counters)
    deltas = np.full((n, k), np.nan, dtype=np.float64)
    present = np.zeros((n, k), dtype=bool)
    interval_s = np.empty(n, dtype=np.float64)
    voltage_v = np.empty(n, dtype=np.float64)
    frequency_mhz = np.empty(n, dtype=np.float64)
    time_s = np.full(n, np.nan, dtype=np.float64)
    time_valid = np.zeros(n, dtype=bool)
    node_ids = []
    for i, sample in enumerate(samples):
        node_ids.append(sample.node_id)
        for j, counter in enumerate(counters):
            if counter in sample.counter_deltas:
                present[i, j] = True
                deltas[i, j] = float(sample.counter_deltas[counter])
        interval_s[i] = float(sample.interval_s)
        voltage_v[i] = float(sample.voltage_v)
        frequency_mhz[i] = float(sample.frequency_mhz)
        if sample.time_s is not None:
            time_s[i] = float(sample.time_s)
            time_valid[i] = True
    return Batch(
        counters=counters,
        node_ids=tuple(node_ids),
        deltas=deltas,
        present=present,
        interval_s=interval_s,
        voltage_v=voltage_v,
        frequency_mhz=frequency_mhz,
        time_s=time_s,
        time_valid=time_valid,
    )
