"""RL010 — no per-iteration ``fit_ols`` in the fit-layer hot loops.

Greedy selection, VIF screening and k-fold CV fit Equation 1 hundreds
of times over column subsets of one design matrix.  The pipeline
answers those fits from cached sufficient statistics — the Gram-cache
kernels of DESIGN.md §12 are its only OLS fit path — so a direct
``fit_ols``/``fit_robust`` call inside a loop of one of the configured
``fastfit-hot-modules`` would silently reintroduce an O(n·k²) refit
per iteration.  The exact refit keeps legitimate jobs: the fallback for
fits the kernels decline, the Huber and custom-``fit_fn`` paths, and
the reference oracle.  Those run through the module-level per-fit
helpers (``_evaluate_candidate``, ``_score_fold``, ``_cv_fold_worker``)
that the executor dispatches, not through open-coded loops, so this
rule flags any ``fit_ols``/``fit_robust`` call lexically inside a
``for``/``while`` body in those modules.  It fences the shape of the
hot loops, which does not depend on any choice between fit paths.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.framework import FileContext, FileRule, Finding, dotted_name

__all__ = ["NoHotLoopRefit"]

#: Full-refit entry points that must not run per loop iteration inside
#: the fast-fit hot modules.
_FORBIDDEN = ("fit_ols", "fit_robust")


class NoHotLoopRefit(FileRule):
    id = "RL010"
    name = "no-hot-loop-refit"
    description = (
        "direct fit_ols/fit_robust calls inside selection/VIF/CV hot "
        "loops defeat the Gram-cache fast path; fit from the cached "
        "sufficient statistics (repro.stats.fastfit) instead"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        if not ctx.config.path_matches_any(
            ctx.posix_path, ctx.config.fastfit_hot_modules
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
                            f"{ctx.posix_path.rsplit('/', 1)[-1]}; score "
                            "from the Gram cache "
                            "(repro.stats.fastfit) and fall back through "
                            "the module-level helpers instead of "
                            "re-fitting per iteration",
                        )
                    )
        return findings
