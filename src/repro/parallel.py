"""Deterministic fan-out of independent simulation runs over processes.

Every experiment in this library is a sweep of *independent* simulation
runs: policies × Table-4 points, seeds, fault plans, checkpoint
intervals.  Each run builds its whole random universe from its own
arguments (:func:`repro.experiments.runner.run_simulation` creates a
fresh :class:`~repro.sim.rng.StreamRegistry` from ``master_seed``), so
runs share no mutable state and can execute in any order — or in any
*process* — without perturbing each other.  :func:`run_tasks` exploits
that: it fans a list of :class:`Task` objects out over a
``multiprocessing`` pool and collects results **in submission order**,
which makes a parallel sweep bit-identical to the sequential one.

Determinism contract
--------------------

* Task functions must be module-level (picklable) and must derive all
  randomness from their arguments.  Construct schedulers/routers *inside*
  the task, not in the parent (they are stateful once bound).
* Per-task seeds, where a sweep needs them, come from
  :func:`task_seed` — the same SHA-256 derivation chain as
  :meth:`StreamRegistry.spawn`, so seeds do not depend on worker count,
  scheduling order, or platform.
* ``workers <= 1`` runs the tasks inline in the calling process — the
  reference execution the pool is checked against.

Fan-out economics
-----------------

A 27-cell sweep used to pay for its parallelism three times over: a
fresh pool was forked per :func:`run_tasks` call, every task was a
separate round-trip, and shared arguments (the trace appears in every
task of a sweep) were re-pickled once *per task*.  On small
sweeps that overhead exceeded the win — ``parallel_speedup.json``
recorded 0.78x.  Three fixes, all invisible to callers:

* **Persistent pool** — one pool is created lazily, kept warm, and
  reused by every subsequent :func:`run_tasks` call with the same
  process count (fork + import cost is paid once per run of the
  program, not once per sweep batch).  :func:`warm_pool` forks it
  eagerly — call it *before* building big parent state so the workers
  inherit a small heap; :func:`shutdown_pool` (also registered via
  ``atexit``) retires it.
* **Chunked dispatch** — tasks are sent as a few contiguous chunks
  (two per worker) instead of one message each.  Within a chunk the
  tasks share one pickle, so an object referenced by all of them — the
  trace — crosses the process boundary once per chunk, not once per
  task, thanks to pickle memoisation.  What each chunk pays is small
  since traces became columnar: a 5-minute trace (96k transactions)
  pickles to 2.7 MB in 5 ms and loads in 3 ms; as record lists it was
  5.4 MB, 93 ms and 123 ms.
* **Right-sized fan-out** — the pool never runs more processes than
  ``os.cpu_count()``: oversubscribing cores cannot make CPU-bound
  simulations faster, it only multiplies pickling.  Workers also run
  ``gc.freeze()`` after the fork, so the inherited heap is never
  rescanned by their collector.

``timeout_s`` sweeps (see below) keep the old one-task-per-message
dispatch on a dedicated pool: supervision needs per-task handles and
spare workers, and a wedged worker must not poison the shared pool.

Wedged workers
--------------

A run that hangs (e.g. a bug making the event loop spin forever) would
stall the whole sweep.  ``timeout_s`` bounds the wait for each task's
result; a timed-out task is resubmitted up to ``retries`` times (the old
worker keeps spinning but the pool has spare processes) before
:class:`TaskTimeoutError` aborts the sweep.
"""

from __future__ import annotations

import atexit
import dataclasses
import gc
import multiprocessing
import os
import typing

from repro.sim.rng import StreamRegistry

__all__ = ["Task", "TaskTimeoutError", "resolve_workers", "run_tasks",
           "shutdown_pool", "task_seed", "warm_pool"]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"


@dataclasses.dataclass(frozen=True)
class Task:
    """One unit of work: ``fn(*args, **kwargs)`` in some process.

    ``fn`` must be a module-level callable and ``args``/``kwargs`` must be
    picklable.  ``key`` names the task in timeouts/diagnostics and is the
    conventional input to :func:`task_seed`.
    """

    fn: typing.Callable[..., typing.Any]
    args: tuple = ()
    kwargs: dict[str, typing.Any] = dataclasses.field(default_factory=dict)
    key: str = ""

    def run(self) -> typing.Any:
        return self.fn(*self.args, **self.kwargs)


class TaskTimeoutError(RuntimeError):
    """A task exhausted its retries without producing a result."""

    def __init__(self, task: Task, timeout_s: float, attempts: int) -> None:
        super().__init__(
            f"task {task.key or task.fn.__name__!r} produced no result "
            f"within {timeout_s:g}s after {attempts} attempt(s)")
        self.task = task


def resolve_workers(explicit: int | None = None) -> int:
    """Worker count: explicit argument > ``$REPRO_WORKERS`` > 1."""
    if explicit is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        explicit = int(raw) if raw else 1
    workers = int(explicit)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def task_seed(master_seed: int, key: str) -> int:
    """A per-task master seed derived from ``(master_seed, key)``.

    Identical to ``StreamRegistry(master_seed).spawn(key).master_seed``:
    stable across platforms and independent of how many tasks run, in
    what order, or on how many workers.
    """
    return StreamRegistry(master_seed).spawn(key).master_seed


def _start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ----------------------------------------------------------------------
# The persistent pool
# ----------------------------------------------------------------------
_pool: typing.Any = None
_pool_processes = 0


def _worker_init() -> None:
    """Run once in every pool worker, right after the fork.

    ``gc.freeze`` moves everything the worker inherited from the parent
    into the permanent generation: the collector never rescans it, and
    (under fork) copy-on-write pages are not dirtied by refcount-only
    GC traversals.  Task inputs/outputs arrive later via pickle and are
    collected normally.
    """
    gc.collect()
    gc.freeze()


def _warm_noop(_index: int) -> None:
    return None


def _pool_for(processes: int) -> typing.Any:
    """The shared pool with exactly ``processes`` workers, creating (and
    warming) it if the cached one is missing or differently sized."""
    global _pool, _pool_processes
    if _pool is not None and _pool_processes == processes:
        return _pool
    shutdown_pool()
    ctx = multiprocessing.get_context(_start_method())
    pool = ctx.Pool(processes=processes, initializer=_worker_init)
    # One tiny round-trip per worker slot: forces the forks, the result
    # pipes, and the handler threads live before anything is timed.
    pool.map(_warm_noop, range(processes * 4), chunksize=1)
    _pool = pool
    _pool_processes = processes
    return pool


def warm_pool(workers: int | None = None) -> int:
    """Fork and warm the persistent pool ahead of the first sweep.

    Call this *early* — before traces and databases are built — so the
    workers fork off a small heap.  Returns the number of pool
    processes (0 when ``workers`` resolves to sequential execution and
    no pool is needed).
    """
    workers = resolve_workers(workers)
    if workers <= 1:
        return 0
    processes = max(1, min(workers, os.cpu_count() or 1))
    _pool_for(processes)
    return processes


def shutdown_pool() -> None:
    """Retire the persistent pool (no-op when none is live)."""
    global _pool, _pool_processes
    if _pool is not None:
        _pool.terminate()
        _pool.join()
        _pool = None
        _pool_processes = 0


atexit.register(shutdown_pool)


def _run_task_chunk(tasks: list[Task]) -> list[tuple[bool, typing.Any]]:
    """Worker-side executor for one contiguous chunk of tasks.

    Returns ``(True, result)`` per completed task.  A raising task is
    ferried back as ``(False, exception)`` and ends the chunk — under
    sequential semantics nothing after the first failure would have run
    anyway — while keeping the worker (and the shared pool) healthy.
    """
    out: list[tuple[bool, typing.Any]] = []
    for task in tasks:
        try:
            out.append((True, task.fn(*task.args, **task.kwargs)))
        except BaseException as exc:  # noqa: BLE001 - re-raised in parent
            out.append((False, exc))
            break
    return out


def _run_chunked(tasks: list[Task], workers: int) -> list[typing.Any]:
    """Throughput path: persistent pool, contiguous chunked dispatch."""
    processes = max(1, min(workers, len(tasks), os.cpu_count() or 1))
    pool = _pool_for(processes)
    # Two chunks per worker balances uneven task durations without
    # giving up the shared-argument pickle savings; a single worker
    # gets one chunk (one trace pickle, one round-trip).
    n_chunks = min(len(tasks), processes * 2 if processes > 1 else 1)
    base, extra = divmod(len(tasks), n_chunks)
    chunks: list[list[Task]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(tasks[start:start + size])
        start += size
    handles = [pool.apply_async(_run_task_chunk, (chunk,))
               for chunk in chunks]
    try:
        chunk_results = [handle.get() for handle in handles]
    except BaseException:
        # Not a task failure (those come back ferried) — the pool
        # itself broke.  Retire it so the next call starts clean.
        shutdown_pool()
        raise
    results: list[typing.Any] = []
    for chunk_result in chunk_results:
        for ok, value in chunk_result:
            if not ok:
                raise value
            results.append(value)
    return results


def _run_supervised(tasks: list[Task], workers: int, timeout_s: float,
                    retries: int) -> list[typing.Any]:
    """Wedge-tolerant path: dedicated pool, one message per task.

    Supervision needs a per-task handle to bound the wait, spare
    workers to resubmit past a spinning one (so the pool is *not*
    clamped to the core count), and disposal on exit — a wedged worker
    must never be returned to the shared pool.
    """
    ctx = multiprocessing.get_context(_start_method())
    results: list[typing.Any] = [None] * len(tasks)
    with ctx.Pool(processes=min(workers, len(tasks)),
                  initializer=_worker_init) as pool:
        handles = [pool.apply_async(task.fn, task.args, task.kwargs)
                   for task in tasks]
        for index, task in enumerate(tasks):
            handle = handles[index]
            attempts = 1
            while True:
                try:
                    results[index] = handle.get(timeout_s)
                    break
                except multiprocessing.TimeoutError:
                    if attempts > retries:
                        pool.terminate()
                        raise TaskTimeoutError(task, timeout_s or 0.0,
                                               attempts) from None
                    attempts += 1
                    handle = pool.apply_async(task.fn, task.args,
                                              task.kwargs)
    return results


def run_tasks(tasks: typing.Iterable[Task],
              workers: int | None = None, *,
              timeout_s: float | None = None,
              retries: int = 1) -> list[typing.Any]:
    """Execute ``tasks`` and return their results in submission order.

    ``workers`` is resolved via :func:`resolve_workers`; with one worker
    (the default) the tasks run inline, sequentially, in this process.
    With more, they are fanned out over the persistent worker pool in
    contiguous chunks (see *Fan-out economics* in the module docstring);
    the result list is identical either way because every task is
    self-contained (see the determinism contract).  The pool never runs
    more processes than ``os.cpu_count()`` — extra requested workers
    cost nothing.

    ``timeout_s`` bounds the wait for each task's result *from the point
    its turn comes up in collection* (queueing behind unfinished earlier
    tasks does not eat a task's own budget, because collection is in
    submission order).  On timeout the task is resubmitted up to
    ``retries`` times, then :class:`TaskTimeoutError` is raised and the
    pool is terminated.  Supervised sweeps run on a dedicated
    per-call pool sized to the full ``workers`` request.  Exceptions
    raised by a task propagate as-is, as they would sequentially, and
    are never retried.
    """
    tasks = list(tasks)
    workers = resolve_workers(workers)
    if workers <= 1 or len(tasks) <= 1:
        return [task.run() for task in tasks]
    if timeout_s is not None:
        return _run_supervised(tasks, workers, timeout_s, retries)
    return _run_chunked(tasks, workers)
