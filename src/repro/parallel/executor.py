"""Executor abstraction: serial, thread-pool and process-pool backends.

The one contract every backend honours is **deterministic ordering**:
``map(fn, items)`` returns ``[fn(items[0]), fn(items[1]), …]`` — results
are assembled by item index, never by completion order.  Combined with
the repository-wide rule that work items draw randomness only from
per-item keyed RNG streams (:func:`repro.seeding.derive_rng`), this
makes every parallel pipeline bit-identical to its serial counterpart;
the tier-1 suite asserts exactly that, including under injected faults.

Pools are cached per ``(kind, max_workers)`` and shared across calls:
campaign cells, selection steps and CV folds all reuse the same
workers, so pool start-up cost is paid once per process, not once per
fan-out.  ``shutdown_pools()`` tears them down (registered atexit).

Process-backend caveats: ``fn`` and every item must be picklable (bound
methods pickle their instance — e.g. the whole campaign), and worker
side mutations (fault counters, recorder callbacks) stay in the child.
Callers that need side effects run them in the parent via the
``on_result`` hook, which fires in completion order — use it only for
order-independent effects such as per-cell checkpoint stores.
"""

from __future__ import annotations

import atexit
import math
import os
from multiprocessing import resource_tracker
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from concurrent.futures import Executor as _FuturesExecutor
from concurrent.futures.process import BrokenProcessPool
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.parallel.arena import release_arenas

__all__ = [
    "PARALLEL_KINDS",
    "PARALLEL_ENV",
    "MAX_WORKERS_ENV",
    "BaseExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "default_max_workers",
    "resolve_executor",
    "shutdown_pools",
]

#: Recognised ``parallel=`` values, in cost order.
PARALLEL_KINDS = ("serial", "thread", "process")

#: Environment override for call sites that leave ``parallel=None``.
PARALLEL_ENV = "REPRO_PARALLEL"

#: Environment override for call sites that leave ``max_workers=None``.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

OnResult = Callable[[int, Any], None]


def default_max_workers() -> int:
    """Worker count when neither argument nor environment specifies one.

    At least 2 even on single-core boxes: latency-bound stages (real
    acquisition campaigns waiting on the system under test) still gain
    from overlap there, and CPU-bound stages lose almost nothing.
    """
    return max(os.cpu_count() or 1, 2)


class BaseExecutor:
    """Common surface: ``kind``, ``max_workers`` and ordered ``map``."""

    kind: str = ""

    def __init__(self, max_workers: int = 1) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        on_result: Optional[OnResult] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every item; results ordered by item index.

        ``on_result(index, result)`` fires in the *calling* process as
        results arrive (completion order for pool backends, item order
        for the serial backend) — the hook for order-independent parent
        side effects such as incremental checkpointing.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.kind}×{self.max_workers}"


class SerialExecutor(BaseExecutor):
    """The reference backend: a plain loop, no concurrency at all."""

    kind = "serial"

    def __init__(self) -> None:
        super().__init__(1)

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        on_result: Optional[OnResult] = None,
    ) -> List[Any]:
        results: List[Any] = []
        for index, item in enumerate(items):
            result = fn(item)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results


# ---------------------------------------------------------------------------
# shared pool cache
# ---------------------------------------------------------------------------

_POOL_CACHE: Dict[Tuple[str, int], _FuturesExecutor] = {}

#: True in any process forked from this one (i.e. in pool workers).
_FORKED_WORKER = False


def _forget_inherited_pools() -> None:
    """A forked child inherits the parent's cached pool *objects* but
    not the manager threads and queue feeders behind them — a nested
    ``map`` submitted to an inherited pool deadlocks forever (the
    latent bug behind the hung nested experiment runner).  Forget the
    cache without shutting anything down (the pools, their queues and
    their workers belong to the parent) and remember that we are a
    worker so :func:`resolve_executor` degrades nested process
    backends to serial instead of forking grandchildren."""
    global _FORKED_WORKER
    _FORKED_WORKER = True
    _POOL_CACHE.clear()


os.register_at_fork(after_in_child=_forget_inherited_pools)


def _pool(kind: str, max_workers: int) -> _FuturesExecutor:
    key = (kind, max_workers)
    pool = _POOL_CACHE.get(key)
    if pool is None:
        if kind == "thread":
            pool = ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="repro-parallel"
            )
        else:
            # Start the tracker before forking: a worker that finds none
            # running starts its own, which then reports every arena
            # segment it attached as leaked and fails to unlink it.
            resource_tracker.ensure_running()
            pool = ProcessPoolExecutor(max_workers=max_workers)
        _POOL_CACHE[key] = pool
    return pool


def shutdown_pools(*, join_timeout_s: float = 10.0) -> None:
    """Tear down every cached pool (tests and interpreter exit).

    Thread pools join cleanly (their workers only ever run our own
    short tasks).  Process pools get a *bounded* join: a worker wedged
    in an uninterruptible call would otherwise hang interpreter exit
    forever, so after ``join_timeout_s`` stragglers are terminated,
    then killed.  Any live shared-memory arenas are released last —
    pool teardown must never strand a ``/dev/shm`` segment.
    """
    if join_timeout_s < 0:
        raise ValueError("join_timeout_s must be non-negative")
    pools = list(_POOL_CACHE.values())
    _POOL_CACHE.clear()
    deadline = time.perf_counter() + join_timeout_s
    for pool in pools:
        if isinstance(pool, ProcessPoolExecutor):
            # Snapshot workers before shutdown clears the bookkeeping.
            workers = list(getattr(pool, "_processes", {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in workers:
                proc.join(max(0.0, deadline - time.perf_counter()))
                if proc.is_alive():
                    proc.terminate()
                    proc.join(0.5)
                if proc.is_alive():  # pragma: no cover - last resort
                    proc.kill()
                    proc.join(0.5)
        else:
            pool.shutdown(wait=True)
    release_arenas()


atexit.register(shutdown_pools)


class _PoolExecutor(BaseExecutor):
    """Shared implementation for the thread and process backends."""

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        on_result: Optional[OnResult] = None,
    ) -> List[Any]:
        items = list(items)
        if not items:
            return []
        try:
            return self._map(fn, items, on_result)
        except BrokenProcessPool:
            # A worker died (OOM kill, hard crash, a chaos-killed
            # os._exit).  The pool object is permanently poisoned — and
            # it may have been poisoned *between* fan-outs, in which
            # case this fan-out's items never ran at all.  Evict it and
            # retry the whole batch once on a fresh pool: items are
            # pure functions of their inputs (the determinism
            # contract), so re-running them is safe, and ``on_result``
            # effects are order-independent by the same contract.  A
            # second failure means the workload itself kills workers —
            # evict again and surface it.
            self._evict_pool()
            try:
                return self._map(fn, items, on_result)
            except BrokenProcessPool:
                self._evict_pool()
                raise

    def _evict_pool(self) -> None:
        broken = _POOL_CACHE.pop((self.kind, self.max_workers), None)
        if broken is not None:
            broken.shutdown(wait=False)

    def _map(
        self,
        fn: Callable[[Any], Any],
        items: List[Any],
        on_result: Optional[OnResult],
    ) -> List[Any]:
        pool = _pool(self.kind, self.max_workers)
        if on_result is None:
            # Chunked dispatch: one task per worker slice amortises the
            # per-task pickling of ``fn`` (which for bound methods
            # carries the whole instance).  Executor.map already yields
            # results in submission order.
            chunksize = max(1, math.ceil(len(items) / self.max_workers))
            return list(pool.map(fn, items, chunksize=chunksize))
        futures = {pool.submit(fn, item): index for index, item in enumerate(items)}
        results: List[Any] = [None] * len(items)
        try:
            for future in as_completed(futures):
                index = futures[future]
                result = future.result()
                on_result(index, result)
                results[index] = result
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return results


class ThreadExecutor(_PoolExecutor):
    """Thread-pool backend: zero pickling, shared memory.

    The right choice for latency-bound work (acquisition on real
    hardware waits on the system under test) and for numpy-heavy work
    that releases the GIL.
    """

    kind = "thread"


class ProcessExecutor(_PoolExecutor):
    """Process-pool backend: true CPU parallelism, pickled work items."""

    kind = "process"


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------


def resolve_executor(
    parallel: Optional[str] = None,
    max_workers: Optional[int] = None,
    *,
    n_items: Optional[int] = None,
    min_items_per_worker: int = 1,
) -> BaseExecutor:
    """Turn ``parallel=``/``max_workers=`` call arguments into a backend.

    Resolution order: explicit argument → environment
    (``REPRO_PARALLEL`` / ``REPRO_MAX_WORKERS``) → serial with
    :func:`default_max_workers` workers.  Every parallel-capable entry
    point in the repository funnels through here, so one environment
    variable flips the whole pipeline (the CI ``parallel`` job runs the
    tier-1 suite under ``REPRO_PARALLEL=process``).

    Small-task guard: a call site that knows its fan-out size passes
    ``n_items`` (and its per-item cost class as
    ``min_items_per_worker``); a pool backend is then granted at most
    ``n_items // min_items_per_worker`` workers, and degrades to the
    serial backend entirely below two.  This is what stops a global
    ``REPRO_PARALLEL=process`` from dispatching microsecond candidate
    fits or CV folds to a process pool where pickling costs 3–10× the
    work itself (the 0.11×/0.62× "speedups" recorded in
    ``BENCH_parallel.json`` before this guard existed).  Every backend
    is bit-identical, so the degradation never changes results — only
    wall time.

    Nested resolution: inside a pool worker (any forked child of this
    process), ``process`` resolves to the serial backend.  A worker
    that forked grandchildren would oversubscribe the cores its
    parent's pool already owns and leak the grandchildren when the
    worker is torn down mid-task — and before this rule existed, the
    nested ``map`` deadlocked outright on the fork-inherited pool
    cache.  ``thread`` stays available in workers (fresh pools are
    created after the inherited cache is dropped at fork).
    """
    kind = parallel if parallel is not None else os.environ.get(PARALLEL_ENV)
    kind = (kind or "serial").strip().lower()
    if kind not in PARALLEL_KINDS:
        raise ValueError(
            f"parallel must be one of {PARALLEL_KINDS}, got {kind!r}"
        )
    if min_items_per_worker < 1:
        raise ValueError(
            f"min_items_per_worker must be >= 1, got {min_items_per_worker}"
        )
    if kind == "serial":
        return SerialExecutor()
    if max_workers is None:
        env = os.environ.get(MAX_WORKERS_ENV)
        if env is None or not env.strip():
            max_workers = default_max_workers()
        else:
            # Validate here, by name: a bad value must not surface as a
            # cryptic int() traceback or a pool-construction crash far
            # from the variable that caused it.
            try:
                max_workers = int(env.strip())
            except ValueError:
                raise ValueError(
                    f"{MAX_WORKERS_ENV} must be a positive integer, "
                    f"got {env!r}"
                ) from None
            if max_workers < 1:
                raise ValueError(
                    f"{MAX_WORKERS_ENV} must be a positive integer, "
                    f"got {env!r}"
                )
    if n_items is not None:
        worker_cap = n_items // min_items_per_worker
        if worker_cap < 2:
            return SerialExecutor()
        max_workers = min(max_workers, worker_cap)
    if kind == "thread":
        return ThreadExecutor(max_workers)
    if _FORKED_WORKER:
        # Nested fan-out: this process *is* a pool worker.  Forking
        # grandchildren oversubscribes the same cores and leaks them
        # when the worker is torn down mid-task, so the process backend
        # degrades to serial here — bit-identical by contract, and the
        # parent's fan-out already owns the parallelism budget.
        return SerialExecutor()
    return ProcessExecutor(max_workers)
