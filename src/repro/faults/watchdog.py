"""Acquisition watchdog: plausibility validation of traces/profiles.

Injected faults are only half the story — the campaign loop also needs
to *detect* corrupted acquisitions, the way the paper's post-processing
operator would eyeball a day's traces before merging them.  The checks
here are physical plausibility arguments, not comparisons against the
injector's bookkeeping, so they catch real pipeline bugs too:

* NaN power samples — the sensor link dropped readings;
* a flat-lined power channel — exact float repeats cannot occur with
  live Gaussian sensor noise, so ≥ :data:`STUCK_RUN_LENGTH` identical
  consecutive samples mean a stuck ADC;
* PMC rates beyond :data:`PLAUSIBLE_MAX_RATE_PER_S` — a ~3 GHz chip
  with issue width 4 cannot generate 10¹³ events/s; only a 48-bit
  wrap/saturation can;
* lost phases — a run's profile set must cover every phase the
  workload executed (truncated trace, or phases poisoned by NaN).

All failures raise :class:`~repro.faults.errors.AcquisitionError` with
a machine-readable ``kind`` the resilient loop aggregates.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.faults.errors import AcquisitionError
from repro.hardware.platform import RunExecution
from repro.tracing.otf2 import Trace
from repro.tracing.phases import PhaseProfile
from repro.tracing.plugins import ApapiPlugin, PowerPlugin

__all__ = [
    "PLAUSIBLE_MAX_RATE_PER_S",
    "STUCK_RUN_LENGTH",
    "validate_trace",
    "validate_profiles",
]

#: No realistic PMC event rate exceeds this (≈3 GHz × issue width 4,
#: with an order of magnitude of headroom).  A 48-bit wrap reports
#: ≈2.8e14 events/s and lands far above it.
PLAUSIBLE_MAX_RATE_PER_S = 1e13

#: Consecutive bit-identical power samples that signal a stuck sensor.
#: Live samples carry continuous Gaussian noise; even two exact repeats
#: are vanishingly unlikely, eight are a diagnosis.
STUCK_RUN_LENGTH = 8


def _max_equal_run(values: np.ndarray) -> int:
    """Length of the longest run of identical consecutive values."""
    if values.size < 2:
        return values.size
    # Compare neighbours; NaN != NaN keeps dropout out of this check.
    equal = values[1:] == values[:-1]  # replint: ignore[RL004] -- exact repeats are the signal
    if not equal.any():
        return 1
    best = run = 1
    for same in equal:
        run = run + 1 if same else 1
        best = max(best, run)
    return best


def validate_trace(trace: Trace) -> None:
    """Raise :class:`AcquisitionError` if a trace is physically implausible."""
    power_stream = trace.metrics.get(PowerPlugin.METRIC)
    if power_stream is not None and power_stream.values.size:
        n_nan = int(np.isnan(power_stream.values).sum())
        if n_nan:
            raise AcquisitionError(
                f"power stream has {n_nan} NaN samples of "
                f"{power_stream.values.size} — sensor dropout",
                kind="sensor-dropout",
            )
        longest = _max_equal_run(power_stream.values)
        if longest >= STUCK_RUN_LENGTH:
            raise AcquisitionError(
                f"power stream flat-lined for {longest} consecutive "
                f"samples — stuck sensor",
                kind="sensor-stuck",
            )
    for name, stream in trace.metrics.items():
        if not name.startswith(ApapiPlugin.PREFIX) or not stream.values.size:
            continue
        peak = float(stream.values.max())
        if peak != peak:  # NaN samples present: the peak of the rest
            peak = float(np.nanmax(stream.values))
        if peak > PLAUSIBLE_MAX_RATE_PER_S:
            raise AcquisitionError(
                f"counter {name[len(ApapiPlugin.PREFIX):]} reports "
                f"{peak:.3g} events/s — PMC overflow/saturation",
                kind="counter-overflow",
            )


def validate_profiles(
    profiles: Sequence[PhaseProfile],
    run: RunExecution,
    *,
    min_duration_s: float = 0.5,
) -> None:
    """Raise :class:`AcquisitionError` when profiles lost phases.

    ``min_duration_s`` must match the profile generation's cutoff:
    phases shorter than it are legitimately absent.
    """
    expected = Counter(
        pe.phase.name
        for pe in run.phases
        if pe.duration_s >= min_duration_s
    )
    got = Counter(p.phase_name for p in profiles)
    missing = expected - got
    if missing:
        names = ", ".join(sorted(missing))
        raise AcquisitionError(
            f"run {run.workload_name}@{run.op.frequency_mhz}MHz/"
            f"{run.threads}t#{run.run_index} lost phases: {names} "
            f"(truncated trace or poisoned samples)",
            kind="phase-loss",
        )
