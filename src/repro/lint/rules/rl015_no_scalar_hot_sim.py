"""RL015 — no per-phase scalar simulation in acquisition hot loops.

The batched fastsim kernel (DESIGN.md §17) exists because campaign
acquisition used to evaluate the microarchitecture and power models one
phase at a time — thousands of dict-arithmetic ``evaluate`` /
``compute_power`` calls per campaign, which capped throughput well
below what the 10⁵-cell regime needs.  Those call sites now go through
:meth:`Platform.execute`, which stacks a run's phases into ndarrays and
answers repeats from the phase-state memo; a direct
``evaluate``/``compute_power`` call inside a loop of one of the
configured ``sim-hot-modules`` would silently reintroduce the scalar
path.  The scalar model itself (``hardware/microarch.py``,
``hardware/power.py``) and the scalar acquisition chain that calls it
per phase (``acquisition/reference.py``) stay out of scope — they *are*
the bit-identity oracle.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.framework import FileContext, FileRule, Finding, dotted_name

__all__ = ["NoScalarHotSim"]

#: Scalar model entry points that must not run per loop iteration
#: inside the acquisition-hot modules.
_FORBIDDEN = ("evaluate", "compute_power")


class NoScalarHotSim(FileRule):
    id = "RL015"
    name = "no-scalar-hot-sim"
    description = (
        "direct evaluate/compute_power calls inside acquisition hot "
        "loops defeat the batched fastsim kernel; execute runs through "
        "Platform.execute (repro.hardware.fastsim) instead"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        if not ctx.config.path_matches_any(
            ctx.posix_path, ctx.config.sim_hot_modules
        ):
            return []
        findings: List[Finding] = []
        seen = set()
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call) or id(node) in seen:
                    continue
                seen.add(id(node))
                name = dotted_name(node.func, ctx.aliases)
                if name is None:
                    continue
                terminal = name.rsplit(".", 1)[-1]
                if terminal in _FORBIDDEN:
                    findings.append(
                        ctx.finding(
                            self,
                            node,
                            f"{terminal} called inside a hot loop of "
                            f"{ctx.posix_path.rsplit('/', 1)[-1]}; "
                            "simulate through Platform.execute so the "
                            "batched kernel and phase-state memo "
                            "(repro.hardware.fastsim) stay on the path",
                        )
                    )
        return findings
