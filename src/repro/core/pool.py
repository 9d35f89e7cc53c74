"""Warm dispatch: a persistent worker pool with one-shot state broadcast.

Before this module, every sweep paid two dispatch taxes on top of the
actual Monte-Carlo work: each ``SweepEngine.sweep`` call built (and tore
down) a fresh :class:`~concurrent.futures.ProcessPoolExecutor`, and every
per-point submission re-pickled the *entire* worker — parity-check
matrices, trellis index tables, measured channel datasets — even though
the worker is identical for every point of a sweep.  For the many-point
cheap grids that dominate the scenario catalog, pickling and pool
spin-up were the bottleneck, not the simulation.

:class:`WorkerPool` removes both:

* **Warm pool** — the executor is created lazily on first use and reused
  across calls.  Owners (:class:`repro.core.engine.SweepEngine`, the
  campaign runner, the campaign service) hold one pool for their
  lifetime and ``close()`` it when done (also a context manager).  The
  pool is fork-safe: a pool handle inherited by a forked child refers to
  the *parent's* processes, so the child transparently re-creates its
  own on first use.
* **One-shot state broadcast** — each task names its (large) shared
  first argument by a *broadcast key* (derived from
  :func:`repro.utils.hashing.worker_cache_key`).  The pickled worker is
  shipped **once per pool generation** through the executor initializer;
  worker processes keep a process-local object cache
  (:data:`_PROCESS_CACHE`), so per-point messages shrink to ``(function,
  key, params, seed-sequence state)``.  A task whose key is not yet
  installed bumps the pool *generation*: the old executor is retired
  gracefully (in-flight work completes) and a new one starts with the
  accumulated broadcast set, installed into every worker process as it
  spawns.
* **Chunked dispatch** — large batches are grouped into chunks of
  consecutive tasks executed by one submission, amortizing IPC for
  many-point cheap grids.  A mid-chunk failure returns the chunk's
  completed prefix (durability: those values are still recorded) before
  the batch fails.
* **Fast-fail** — the first task exception in :meth:`execute` aborts the
  executor with ``shutdown(cancel_futures=True)`` and terminates its
  worker processes instead of draining in-flight points; the warm pool
  is sacrificed and lazily re-created on next use.

The pool is thread-safe: the campaign service submits from several
dispatcher threads against one shared pool (:meth:`run_one`), while the
engine and campaign runner use the batch API (:meth:`execute`).
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.utils.hashing import content_hash, worker_cache_key

#: How many distinct broadcast blobs a pool keeps pinned (LRU).  Each new
#: generation installs the whole retained set, so alternating between up
#: to this many workers never churns the pool.
MAX_BROADCASTS = 8

#: Worker-process-local cache of broadcast objects, filled once per pool
#: generation by :func:`_install_broadcasts` (the executor initializer)
#: when the process spawns.  Maps broadcast key -> the unpickled object.
_PROCESS_CACHE: Dict[str, Any] = {}


def _install_broadcasts(blobs: Dict[str, bytes]) -> None:
    """Executor initializer: install the generation's broadcast set.

    Runs in every worker process as it spawns (``ProcessPoolExecutor``
    spawns processes lazily, so late-spawned workers of a generation
    still install the same set).  Shipping pickled bytes — produced once
    in the parent — keeps the cost identical under the ``fork`` and
    ``spawn`` start methods and gives every process its own
    reconstructed objects.
    """
    _PROCESS_CACHE.clear()
    for key, blob in blobs.items():
        _PROCESS_CACHE[key] = pickle.loads(blob)


class BroadcastMissing(RuntimeError):
    """A task referenced a broadcast key its worker process never
    installed — a pool-management bug, not a worker failure."""


@dataclass(frozen=True)
class PoolTask:
    """One schedulable unit of work: ``fn(worker, *args)``.

    ``worker`` is the (potentially large) shared first argument.  When
    ``broadcast_key`` is set, the pool ships the worker once per
    generation under that key and the per-task message carries only the
    key; equal keys MUST describe equivalent workers — the same
    equivalence the result cache already assumes (see
    :func:`broadcast_key_for`).  ``None`` ships the worker inline with
    the task (the pre-broadcast behaviour).
    """

    fn: Callable[..., Any]
    worker: Any
    args: Tuple[Any, ...]
    broadcast_key: Optional[str] = None


def broadcast_key_for(worker: Any, key: Any = None) -> str:
    """Stable broadcast key of a worker (or of an explicit cache key).

    The digest of the same identity the result cache uses
    (:func:`~repro.utils.hashing.worker_cache_key`, or the explicit
    ``key`` a scenario provides), so workers the cache would treat as
    equivalent share one broadcast slot.  Identity-keyed (opaque)
    workers fold in a process-local token — correct here, because
    broadcast slots, like the historical identity cache, never outlive
    the parent process.
    """
    identity = worker_cache_key(worker) if key is None else key
    try:
        return content_hash(identity)
    except TypeError:
        # An explicit key the canonical JSON cannot represent: fall back
        # to the worker-derived description, which always serializes.
        return content_hash(worker_cache_key(worker))


def _execute_call(fn: Callable[..., Any], key: Optional[str], worker: Any,
                  args: Tuple[Any, ...]) -> Any:
    """Run one task in a worker process, resolving its broadcast key."""
    if key is not None:
        try:
            worker = _PROCESS_CACHE[key]
        except KeyError:
            raise BroadcastMissing(
                f"broadcast {key!r} is not installed in worker process "
                f"{os.getpid()} (pool generation mismatch)") from None
    return fn(worker, *args)


class _ChunkFailure(Exception):
    """A task inside a chunk failed.

    Carries the chunk-relative ``index`` of the failing task, the
    ``completed`` values of the tasks before it (so the parent can still
    record them — durability is per task, not per chunk) and the
    original exception as ``cause``.  All three travel through
    ``Exception.args`` so the default pickling used by the process pool
    preserves them.
    """

    def __init__(self, index: int, completed: List[Any],
                 cause: BaseException) -> None:
        super().__init__(index, completed, cause)
        self.index = index
        self.completed = completed
        self.cause = cause


def _run_chunk(calls: Sequence[Tuple[Callable[..., Any], Optional[str],
                                     Any, Tuple[Any, ...]]]) -> List[Any]:
    """Execute a chunk of calls in order, returning their values."""
    completed: List[Any] = []
    for index, call in enumerate(calls):
        try:
            completed.append(_execute_call(*call))
        except Exception as exc:
            raise _ChunkFailure(index, completed, exc) from exc
    return completed


class WorkerPool:
    """Persistent process pool with broadcast cache and chunked dispatch.

    Parameters
    ----------
    n_workers:
        Number of worker processes.

    The pool keeps the latest :data:`MAX_BROADCASTS` broadcast workers
    pinned.  Use :meth:`execute` for batches with fail-fast semantics (the
    engine and campaign paths) and :meth:`run_one` for independent
    single tasks (the service's dispatcher threads).  ``close()`` — or
    the context manager — releases the processes.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers is None or int(n_workers) < 1:
            raise ValueError("n_workers must be at least 1")
        self.n_workers = int(n_workers)
        self._lock = threading.RLock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._pid = os.getpid()
        self._blobs: "OrderedDict[str, bytes]" = OrderedDict()
        self._live: frozenset = frozenset()
        # Manager threads of retired generations, joined by close().
        self._retired: List[Any] = []
        self._counters = {"generation": 0, "broadcasts": 0,
                          "broadcast_hits": 0, "tasks": 0, "chunks": 0,
                          "max_chunk_size": 0}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release the worker processes (drains running tasks, cancels
        queued ones).  The pool remains usable — the next task lazily
        creates a fresh generation — so closing between bursts of work
        is a way to give the memory back."""
        self._shutdown(kill=False)

    def _abort(self) -> None:
        """Fast-fail teardown: cancel queued work, kill running work.

        ``shutdown(cancel_futures=True)`` only cancels futures that have
        not started; a long-running point would still pin the caller (and
        interpreter exit) for its full duration, so the worker processes
        are terminated outright — they hold no shared state, every
        completed value was already recorded in the parent.  The
        executor's manager thread, captured before ``shutdown`` drops
        it, then reaps the terminated processes; joining it means no
        worker process outlives the abort.  The warm pool is sacrificed;
        the next task re-creates it.
        """
        self._shutdown(kill=True)

    def _shutdown(self, kill: bool) -> None:
        """Shut the executor down — draining running tasks, or with
        ``kill`` terminating them — and join the manager threads of it
        and of every retired generation, which reap their processes."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._live = frozenset()
            managers, self._retired = self._retired, []
        if executor is not None:
            processes = dict(getattr(executor, "_processes", None) or {})
            managers.append(getattr(executor, "_executor_manager_thread",
                                    None))
            executor.shutdown(wait=not kill, cancel_futures=True)
            for process in processes.values() if kill else ():
                try:
                    process.terminate()
                except Exception:
                    pass
        for manager in managers:
            if manager is not None:
                manager.join()

    def _ensure_executor(self, keys: Sequence[str]) -> ProcessPoolExecutor:
        """The live executor, with every key in ``keys`` installed.

        Caller holds the lock.  Re-creates the executor when it does not
        exist, belongs to a forked parent, broke, or lacks a requested
        broadcast — each re-creation is a new *generation* installing
        the full retained broadcast set, so a key installed once stays
        live across later generations instead of churning the pool.
        """
        if os.getpid() != self._pid:
            # Forked child: the inherited handle points at the parent's
            # processes.  Drop it (without touching those processes) and
            # start our own.
            self._executor = None
            self._live = frozenset()
            self._pid = os.getpid()
        executor = self._executor
        missing = [key for key in keys if key not in self._live]
        if executor is not None and not missing \
                and not getattr(executor, "_broken", False):
            return executor
        if executor is not None:
            # Graceful retirement: in-flight futures (other threads may
            # hold some) run to completion on the old processes, whose
            # manager thread close() joins.
            self._retired = [thread for thread in self._retired
                             if thread is not None and thread.is_alive()]
            self._retired.append(getattr(executor,
                                         "_executor_manager_thread", None))
            executor.shutdown(wait=False)
        blobs = dict(self._blobs)
        self._executor = ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_install_broadcasts, initargs=(blobs,))
        self._live = frozenset(blobs)
        self._counters["generation"] += 1
        self._counters["broadcasts"] += len(blobs)
        return self._executor

    def _prepare(self, tasks: Sequence[Tuple[Any, PoolTask]],
                 error: Callable[[Any, Exception], Exception]) -> None:
        """Pickle any broadcast workers not yet retained (lock held)."""
        for task_id, task in tasks:
            key = task.broadcast_key
            if key is None:
                continue
            if key in self._blobs:
                self._blobs.move_to_end(key)
                continue
            try:
                self._blobs[key] = pickle.dumps(
                    task.worker, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                # An unpicklable worker fails exactly like it did when it
                # was pickled per point: as this task's failure.
                raise error(task_id, exc) from exc
            while len(self._blobs) > MAX_BROADCASTS:
                self._blobs.popitem(last=False)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _chunk_size(self, n_tasks: int) -> int:
        # Aim for ~4 chunks per worker: large enough to amortize IPC on
        # many-point cheap grids, small enough that completion recording
        # (durability) and load balancing stay fine-grained.
        return max(1, n_tasks // (self.n_workers * 4))

    def _build_call(self, task: PoolTask) -> Tuple[Callable[..., Any],
                                                   Optional[str], Any,
                                                   Tuple[Any, ...]]:
        """Wire format of one task (lock held; executor ensured).

        A task whose key failed to stay live (evicted past
        :data:`MAX_BROADCASTS` within one batch) degrades to inline
        shipping rather than failing in the worker.
        """
        key = task.broadcast_key if task.broadcast_key in self._live \
            else None
        return (task.fn, key, None if key is not None else task.worker,
                tuple(task.args))

    def execute(self, tasks: Sequence[Tuple[Any, PoolTask]],
                record: Callable[[Any, Any], None],
                error: Callable[[Any, Exception], Exception]) -> None:
        """Run a batch of ``(task_id, PoolTask)`` with fail-fast.

        ``record(task_id, value)`` is called in the parent for each
        completion as it happens.  The first task exception aborts the
        pool (:meth:`_abort` — queued work cancelled, running work
        killed) and raises ``error(task_id, exception)`` from it; values
        completed before the failure — including a failing chunk's
        completed prefix — are still recorded first.
        """
        if not tasks:
            return
        with self._lock:
            self._prepare(tasks, error)
            pre_live = self._live
            executor = self._ensure_executor(
                [task.broadcast_key for _, task in tasks
                 if task.broadcast_key is not None])
            self._counters["tasks"] += len(tasks)
            self._counters["broadcast_hits"] += sum(
                1 for _, task in tasks if task.broadcast_key in pre_live)
            chunk = self._chunk_size(len(tasks))
            futures: Dict[Any, List[Any]] = {}
            for start in range(0, len(tasks), chunk):
                group = tasks[start:start + chunk]
                future = executor.submit(
                    _run_chunk,
                    [self._build_call(task) for _, task in group])
                futures[future] = [task_id for task_id, _ in group]
            self._counters["chunks"] += len(futures)
            self._counters["max_chunk_size"] = max(
                self._counters["max_chunk_size"], chunk)
        for future in as_completed(futures):
            ids = futures[future]
            try:
                values = future.result()
            except _ChunkFailure as failure:
                for offset, value in enumerate(failure.completed):
                    record(ids[offset], value)
                self._abort()
                raise error(ids[failure.index],
                            failure.cause) from failure.cause
            except Exception as exc:
                # The pool itself broke (a worker died, the task could
                # not be shipped): attribute it to the chunk's first
                # task and fail fast all the same.
                self._abort()
                raise error(ids[0], exc) from exc
            # Outside the except scope: a record() failure (say, a full
            # disk under a DiskStore) is a storage error and propagates
            # as itself, not as a worker failure.
            for offset, value in enumerate(values):
                record(ids[offset], value)

    def run_one(self, task: PoolTask) -> Any:
        """Run one independent task, re-raising its exception as-is.

        The service path: dispatcher threads submit single points
        concurrently.  A task failure does NOT abort the pool — other
        threads' points keep their executor; the caller owns the
        failure.
        """
        with self._lock:
            self._prepare([(None, task)],
                          error=lambda _task_id, exc: exc)
            pre_live = self._live
            keys = [task.broadcast_key] if task.broadcast_key else []
            executor = self._ensure_executor(keys)
            self._counters["tasks"] += 1
            self._counters["chunks"] += 1
            self._counters["max_chunk_size"] = max(
                self._counters["max_chunk_size"], 1)
            if task.broadcast_key in pre_live:
                self._counters["broadcast_hits"] += 1
            future = executor.submit(_run_chunk, [self._build_call(task)])
        try:
            return future.result()[0]
        except _ChunkFailure as failure:
            raise failure.cause

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """How many executors this pool has created so far."""
        return self._counters["generation"]

    def stats(self) -> Dict[str, int]:
        """Dispatch counters: pool generation, broadcast traffic, chunking.

        ``broadcasts`` counts key installations shipped through executor
        initializers (a key re-installed by a later generation counts
        again — it is real IPC); ``broadcast_hits`` counts tasks whose
        key was already live when they were submitted, i.e. points that
        travelled as ``(key, params, seed)`` instead of a full worker.
        """
        with self._lock:
            stats = dict(self._counters)
            stats["n_workers"] = self.n_workers
            stats["live_broadcasts"] = len(self._live)
            return stats
