"""Warm dispatch: a persistent worker pool that ships each worker once.

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
  the *parent's* processes and spool, so the child transparently
  re-creates its own on first use.
* **Spool-once shipping** — a task is just ``(fn, worker, args)``.  On
  each call the parent pickles every distinct worker object once and
  writes the bytes to ``<spool>/<sha256 of the bytes>`` unless that file
  already exists; the per-task message is ``(fn, path, args)``.  A worker
  process loads a path on first use into a bounded process-local cache
  (:data:`_PROCESS_CACHE`), so a worker crosses the process boundary
  once per process, not once per point.  Equal bytes are one file, and
  different workers are always different files — no caller-supplied key
  can alias two workers.  The spool is a private temporary directory,
  removed by ``close()`` or, for a pool that is never closed, when the
  pool is collected or the interpreter exits.
* **Fast-fail** — the first task exception in :meth:`execute` aborts the
  executor with ``shutdown(cancel_futures=True)`` and terminates its
  worker processes instead of draining in-flight points; the warm pool
  is sacrificed and lazily re-created on next use.

The pool is thread-safe: the campaign service submits from several
dispatcher threads against one shared pool (:meth:`run_one`), while the
engine and campaign runner use the batch API (:meth:`execute`).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: How many workers one worker process keeps unpickled.  A task whose
#: worker was evicted reloads it from the spool.
MAX_BROADCASTS = 8

#: Worker-process-local cache: spool path -> the unpickled worker,
#: oldest first.
_PROCESS_CACHE: Dict[str, Any] = {}


@dataclass(frozen=True)
class PoolTask:
    """One schedulable unit of work: ``fn(worker, *args)``.

    ``worker`` is the (potentially large) shared first argument; the
    pool ships it through the spool, once per distinct pickled form.
    """

    fn: Callable[..., Any]
    worker: Any
    args: Tuple[Any, ...]


def _execute_call(fn: Callable[..., Any], path: str,
                  args: Tuple[Any, ...]) -> Any:
    """Run one task in a worker process, loading its worker from the
    spool file ``path`` unless this process already holds it."""
    try:
        worker = _PROCESS_CACHE[path]
    except KeyError:
        with open(path, "rb") as stream:
            worker = pickle.load(stream)
        while len(_PROCESS_CACHE) >= MAX_BROADCASTS:
            del _PROCESS_CACHE[next(iter(_PROCESS_CACHE))]
        _PROCESS_CACHE[path] = worker
    return fn(worker, *args)


def _remove_spool(path: str, pid: int) -> None:
    """Remove a spool directory — only in the process that made it, so a
    forked child exiting never deletes its parent's spool."""
    if os.getpid() == pid:
        shutil.rmtree(path, ignore_errors=True)


class WorkerPool:
    """Persistent process pool that ships each worker once.

    Parameters
    ----------
    n_workers:
        Number of worker processes.

    Use :meth:`execute` for batches with fail-fast semantics (the engine
    and campaign paths) and :meth:`run_one` for independent single tasks
    (the service's dispatcher threads).  ``close()`` — or the context
    manager — releases the processes and the spool.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers is None or int(n_workers) < 1:
            raise ValueError("n_workers must be at least 1")
        self.n_workers = int(n_workers)
        self._lock = threading.RLock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._spool: Optional[str] = None
        self._remove: Optional[weakref.finalize] = None
        self._pid = os.getpid()
        self._counters = {"generation": 0, "broadcasts": 0,
                          "broadcast_hits": 0, "tasks": 0}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release the worker processes (drains running tasks, cancels
        queued ones) and remove the spool.  The pool remains usable —
        the next task lazily creates a fresh generation and spool — so
        closing between bursts of work is a way to give the memory
        back."""
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
        the next task re-creates it.  The spool stays: its files are
        still valid.
        """
        self._shutdown(kill=True)

    def _shutdown(self, kill: bool) -> None:
        """Shut the executor down — draining running tasks, or with
        ``kill`` terminating them — join its manager thread, which reaps
        the processes, and (unless ``kill``) remove the spool."""
        with self._lock:
            executor, self._executor = self._executor, None
            remove = None
            if not kill:
                remove, self._remove, self._spool = self._remove, None, None
        if executor is not None:
            processes = dict(getattr(executor, "_processes", None) or {})
            manager = getattr(executor, "_executor_manager_thread", None)
            executor.shutdown(wait=not kill, cancel_futures=True)
            for process in processes.values() if kill else ():
                try:
                    process.terminate()
                except Exception:
                    pass
            if manager is not None:
                manager.join()
        if remove is not None:
            remove()

    def _submit(self, tasks: Sequence[Tuple[Any, PoolTask]],
                error: Callable[[Any, Exception], Exception]) -> List[Any]:
        """Spool the tasks' workers and submit one future per task (lock
        held); returns the futures in task order.

        Re-creates the executor when it does not exist, belongs to a
        forked parent or broke — each re-creation is a new *generation*.
        A worker that does not pickle fails as its task: ``error(task_id,
        exception)`` is raised and nothing is submitted.
        """
        if os.getpid() != self._pid:
            # Forked child: the inherited executor and spool are the
            # parent's.  Drop them without touching them; start our own.
            self._pid = os.getpid()
            self._executor = self._spool = self._remove = None
        if self._spool is None:
            self._spool = tempfile.mkdtemp(prefix="repro-pool-")
            self._remove = weakref.finalize(self, _remove_spool,
                                            self._spool, self._pid)
        paths: Dict[int, str] = {}       # id(worker) -> spool path
        written = set()                  # paths this call wrote
        for task_id, task in tasks:
            path = paths.get(id(task.worker))
            if path is None:
                try:
                    blob = pickle.dumps(task.worker,
                                        protocol=pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    raise error(task_id, exc) from exc
                path = paths[id(task.worker)] = os.path.join(
                    self._spool, hashlib.sha256(blob).hexdigest())
                if not os.path.exists(path):
                    # Written whole, then renamed: a failed write never
                    # leaves a truncated file that looks spooled.
                    with open(path + ".tmp", "wb") as stream:
                        stream.write(blob)
                    os.replace(path + ".tmp", path)
                    written.add(path)
                    self._counters["broadcasts"] += 1
            self._counters["broadcast_hits"] += path not in written
        executor = self._executor
        if executor is None or getattr(executor, "_broken", False):
            executor = self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers)
            self._counters["generation"] += 1
        self._counters["tasks"] += len(tasks)
        return [executor.submit(_execute_call, task.fn,
                                paths[id(task.worker)], tuple(task.args))
                for _, task in tasks]

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def execute(self, tasks: Sequence[Tuple[Any, PoolTask]],
                record: Callable[[Any, Any], None],
                error: Callable[[Any, Exception], Exception]) -> None:
        """Run a batch of ``(task_id, PoolTask)`` with fail-fast.

        ``record(task_id, value)`` is called in the parent for each
        completion as it happens.  The first task exception aborts the
        pool (:meth:`_abort` — queued work cancelled, running work
        killed) and raises ``error(task_id, exception)`` from it; values
        completed before the failure are still recorded first.
        """
        if not tasks:
            return
        with self._lock:
            futures = dict(zip(self._submit(tasks, error),
                               (task_id for task_id, _ in tasks)))
        for future in as_completed(futures):
            # exception(), not a raising result(): the exception then
            # carries no traceback through this frame, whose futures hold
            # it, so no reference cycle keeps the pool (and its spool)
            # alive after a failure.
            exc = future.exception()
            if exc is not None:
                # A worker failure, or the pool itself broke (a worker
                # died, the task could not be shipped): fail fast.
                self._abort()
                raise error(futures[future], exc) from exc
            # A record() failure (say, a full disk under a DiskStore) is
            # a storage error and propagates as itself, not as a worker
            # failure.
            record(futures[future], future.result())

    def run_one(self, task: PoolTask) -> Any:
        """Run one independent task, re-raising its exception as-is.

        The service path: dispatcher threads submit single points
        concurrently.  A task failure does NOT abort the pool — other
        threads' points keep their executor; the caller owns the
        failure.
        """
        with self._lock:
            future, = self._submit([(None, task)],
                                   error=lambda _task_id, exc: exc)
        return future.result()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """How many executors this pool has created so far."""
        return self._counters["generation"]

    def stats(self) -> Dict[str, int]:
        """Dispatch counters: pool generation and spool traffic.

        ``broadcasts`` counts worker files written to the spool (a file
        removed and written again counts again — it is real I/O);
        ``broadcast_hits`` counts tasks whose worker file existed before
        their call, i.e. points whose worker was already spooled.
        """
        with self._lock:
            return {**self._counters, "n_workers": self.n_workers}
