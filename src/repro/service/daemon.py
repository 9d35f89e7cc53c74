"""The campaign service: a long-running, multi-client compute daemon.

:class:`CampaignService` owns one concurrent-safe
:class:`repro.core.store.RunStore` and (optionally) one shared
:class:`~repro.core.pool.WorkerPool`, and serves scenario submissions
decomposed to **point granularity**.  Every point follows the engine's
one lifecycle (:class:`repro.core.engine.Point`, held per job as a
:class:`~repro.service.jobs.PointSlot`), and the points a job must
compute are dispatched as the engine's groups
(:func:`repro.core.engine.point_groups`), one group per dispatcher:

* **Admission** (:meth:`submit` / :meth:`submit_scenario`) plans the
  scenario through :func:`repro.core.engine.plan_sweep` and resolves
  every point against the store (:meth:`Point.resolve`): a stored point
  is served immediately (a warm resubmission never enters the queue), a
  point whose computation is already *in flight* (same
  :meth:`Point.coalesce_key`) joins it as a follower (two clients
  submitting the same spec share one computation), and only genuinely
  new points are enqueued — the job's non-adaptive points whose worker
  offers ``call_batch`` as one group, every other point as a group of
  one.
* **Scheduling** is a priority queue of groups: interactive submissions
  rank ahead of bulk campaign sweeps, so an interactive request
  enqueued behind a long campaign starts as soon as the next worker
  frees up.  A group is one unit that cannot be preempted: running
  groups are never interrupted, and a batched group runs whole.  Each
  dispatcher runs one group's :func:`~repro.core.engine.group_task` at
  a time through :meth:`~repro.core.pool.WorkerPool.run_one`, so a
  failing group fails only its own job (as the group's first point) and
  never aborts the pool the other dispatchers share; with ``n_workers``
  dispatchers the pool stays busy whenever enough groups are queued.
* **Recording** writes every completed point to the store the moment
  its group finishes (:meth:`Point.record`; for adaptive-precision
  jobs, the upgraded tally), then shares the canonical result with
  every follower.
* **Shutdown** (:meth:`shutdown`) stops admission, drains the points
  that are already running — their results and partial tallies are
  persisted like any other completion — and cancels what was still
  queued; queued-but-cancelled jobs keep their completed points.

Adaptive-precision scenarios ride the same path: their store keys
exclude the precision target (see :meth:`Scenario.cache_key`), so a
submission with a tighter :class:`~repro.scenarios.specs.PrecisionSpec`
resumes the cached tally and simulates only the increment — a cache
upgrade over HTTP.  Two in-flight adaptive submissions coalesce only
when their stopping rules match; different targets advance their own
resume states (against the same stored tally).

The HTTP surface lives in :mod:`repro.service.http`; this class is fully
usable in-process (tests drive it directly).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.engine import group_task, plan_sweep, point_groups
from repro.core.pool import WorkerPool
from repro.core.store import MemoryStore, RunStore
from repro.scenarios.scenario import Scenario
from repro.service.jobs import PRIORITY_RANKS, Job, PointSlot, parse_request


class ServiceUnavailable(RuntimeError):
    """The service is draining and no longer accepts submissions."""


class CampaignService:
    """Multi-client scenario compute daemon over one shared store.

    Parameters
    ----------
    store:
        The :class:`~repro.core.store.RunStore` every result is read
        from and written to (defaults to a private
        :class:`~repro.core.store.MemoryStore`; the daemon CLI passes a
        :class:`~repro.core.store.DiskStore`).
    n_workers:
        Number of groups evaluated concurrently (dispatcher threads,
        and the process-pool size when ``processes=True``).
    processes:
        Evaluate points in a shared :class:`~repro.core.pool.WorkerPool`
        (the daemon default — workers and params must be picklable) or
        inline in the dispatcher threads (``False``; what tests use).
    """

    def __init__(self, store: Optional[RunStore] = None,
                 n_workers: int = 2, processes: bool = True) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.store: RunStore = store if store is not None else MemoryStore()
        self.n_workers = int(n_workers)
        # One warm WorkerPool shared by every dispatcher thread: each
        # scenario's worker is spooled once and loaded once per pool
        # process, so a point's message is its worker's spool path,
        # params and seed state.
        self._pool: Optional[WorkerPool] = (
            WorkerPool(self.n_workers) if processes else None)
        self._lock = threading.Lock()
        self._completion = threading.Condition(self._lock)
        # (rank, sequence, job, group of slots); the unique sequence
        # number means entries never compare their job or group.
        self._queue: "queue.PriorityQueue[Tuple[int, int, Any, Any]]" \
            = queue.PriorityQueue()
        self._seq = itertools.count()
        self._jobs: Dict[str, Job] = {}
        self._job_ids = itertools.count(1)
        # Coalesce key -> the queued-or-running computation's slots:
        # the primary first, then the followers waiting on it.
        self._in_flight: Dict[str, List[Tuple[Job, PointSlot]]] = {}
        self._busy = 0
        self._accepting = True
        self._started_at = time.time()
        self._counters = {"computed": 0, "store_hits": 0, "coalesced": 0,
                          "failed": 0}
        self._threads = [
            threading.Thread(target=self._dispatch_loop, daemon=True,
                             name=f"service-dispatch-{index}")
            for index in range(self.n_workers)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Admit a JSON submission (``POST /v1/scenarios``).

        The payload names a registered scenario plus optional ``set``
        overrides, ``seed``, ``label`` and ``priority``; see
        :func:`repro.service.jobs.parse_request`.  Raises ``ValueError``
        on malformed payloads (HTTP 400) and :class:`ServiceUnavailable`
        while draining (HTTP 503).
        """
        entry, priority = parse_request(payload)
        scenario = entry.build()
        return self.submit_scenario(scenario, seed=entry.seed,
                                    priority=priority, label=entry.label)

    def submit_scenario(self, scenario: Scenario, seed: Optional[int] = 0,
                        priority: str = "interactive",
                        label: Optional[str] = None) -> Dict[str, Any]:
        """Admit an already-built :class:`Scenario` (the in-process path).

        Returns the job descriptor (without per-point payloads); the job
        may already be ``done`` when every point came from the store.
        """
        if priority not in PRIORITY_RANKS:
            raise ValueError(f"priority must be one of "
                             f"{sorted(PRIORITY_RANKS)}, got {priority!r}")
        rule = (scenario.precision.stopping_rule()
                if scenario.precision is not None else None)
        slots = [PointSlot(planned, scenario.worker, rule=rule,
                           scenario=scenario.name)
                 for planned in plan_sweep(scenario.worker, scenario.points,
                                           rng=seed,
                                           key=scenario.cache_key())]
        with self._lock:
            if not self._accepting:
                raise ServiceUnavailable(
                    "service is shutting down; submission rejected")
            job = Job(job_id=f"job-{next(self._job_ids):06d}",
                      scenario=scenario,
                      label=label or scenario.name, priority=priority,
                      seed=seed if isinstance(seed, int) else None,
                      slots=slots)
            self._jobs[job.id] = job
            primaries = [slot for slot in job.slots
                         if self._admit_point(job, slot)]
            for group in point_groups(primaries):
                self._enqueue(job, group)
            job.mark_finished_if_complete()
            return job.descriptor(include_points=False)

    def _admit_point(self, job: Job, slot: PointSlot) -> bool:
        """Serve one point from the store or join an in-flight twin;
        True when it must be computed (caller holds the lock)."""
        if slot.resolve(self.store):
            slot.status = "done"
            self._counters["store_hits"] += 1
            return False
        key = slot.coalesce_key()
        if key is not None:
            twins = self._in_flight.setdefault(key, [])
            twins.append((job, slot))
            return len(twins) == 1
        return True

    def _enqueue(self, job: Job, group: List[PointSlot]) -> None:
        self._queue.put((PRIORITY_RANKS[job.priority], next(self._seq),
                         job, group))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            rank, _, job, group = self._queue.get()
            if job is None:              # shutdown sentinel (rank -1)
                return
            with self._lock:
                if job.error is not None or job.cancelled:
                    for slot in group:
                        self._skip_dead_task(slot)
                    continue
                job.mark_started()
                self._busy += 1
                task = group_task(group)
            try:
                try:
                    if self._pool is not None:
                        # run_one: a group failure stays this job's
                        # failure — the shared pool (and the other
                        # dispatchers' in-flight groups) live on.
                        results = self._pool.run_one(task)
                    else:
                        results = task.fn(task.worker, *task.args)
                except Exception as exc:
                    self._record_failure(job, group, exc)
                else:
                    self._record_success(job, group, results)
            finally:
                with self._lock:
                    self._busy -= 1

    def _skip_dead_task(self, slot: PointSlot) -> None:
        """A queued point of a failed/cancelled job reached the front:
        drop it, but never strand followers — promote the first live
        follower to primary and re-enqueue it under *its* job's priority
        (caller holds the lock)."""
        slot.status = "skipped"
        key = slot.coalesce_key()
        twins = self._in_flight.get(key) if key is not None else None
        if not twins or twins[0][1] is not slot:
            return
        live = [(job, twin) for job, twin in twins[1:]
                if job.error is None and not job.cancelled]
        if live:
            self._in_flight[key] = live
            job, twin = live[0]
            self._enqueue(job, [twin])
        else:
            del self._in_flight[key]

    def _followers(self, slot: PointSlot) -> List[Tuple[Job, PointSlot]]:
        """End the in-flight computation ``slot`` ran, returning the
        followers waiting on it (caller holds the lock)."""
        key = slot.coalesce_key()
        twins = self._in_flight.pop(key, None) if key is not None else None
        return twins[1:] if twins else []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _record_success(self, job: Job, group: List[PointSlot],
                        results: List[Any]) -> None:
        with self._lock:
            for slot, result in zip(group, results):
                slot.record(self.store, result)
                slot.status = "done"
                self._counters["computed"] += 1
                for follower_job, follower in self._followers(slot):
                    follower.share(slot)
                    follower.status = "done"
                    self._counters["coalesced"] += 1
                    follower_job.mark_finished_if_complete()
            job.mark_finished_if_complete()
            self._completion.notify_all()

    def _record_failure(self, job: Job, group: List[PointSlot],
                        exc: Exception) -> None:
        """The group failed as its first point; its other points are
        skipped like any queued point of a failed job."""
        slot = group[0]
        with self._lock:
            slot.status = "failed"
            job.error = str(slot.error(exc))
            self._counters["failed"] += 1
            # An identical computation fails identically: fail the
            # followers too, each attributed to its own job.
            for follower_job, follower in self._followers(slot):
                follower.status = "failed"
                follower_job.error = str(follower.error(exc))
            for other in group[1:]:
                self._skip_dead_task(other)
            self._completion.notify_all()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def job(self, job_id: str,
            include_points: bool = True) -> Dict[str, Any]:
        """Job descriptor (``GET /v1/jobs/<id>``); ``KeyError`` if unknown."""
        with self._lock:
            return self._jobs[job_id].descriptor(
                include_points=include_points)

    def result_json(self, job_id: str) -> str:
        """Deterministic ScenarioResult JSON of a finished job.

        Byte-identical across clients, across coalesced twins, and
        against a local ``repro run`` of the same spec and seed —
        execution provenance stays out of the payload.  ``RuntimeError``
        when the job is not ``done``.
        """
        with self._lock:
            job = self._jobs[job_id]
            return job.result(store_info=self.store.describe()).to_json()

    def fetch(self, key: str) -> Any:
        """A cached point straight from the store (``GET /v1/results/<key>``)."""
        return self.store.get(key)

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, Any]:
        """Block until a job reaches a terminal state; returns its
        descriptor.  Raises ``TimeoutError`` if it does not settle."""
        deadline = time.monotonic() + timeout
        with self._lock:
            job = self._jobs[job_id]
            while job.status in ("queued", "running"):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {job.status} after "
                        f"{timeout:g}s")
                self._completion.wait(timeout=remaining)
            return job.descriptor()

    def health(self) -> Dict[str, Any]:
        """Liveness summary (``GET /v1/health``)."""
        import repro

        return {"status": "ok" if self._accepting else "draining",
                "accepting": self._accepting,
                "version": repro.__version__,
                "uptime_s": time.time() - self._started_at}

    def stats(self) -> Dict[str, Any]:
        """Operational statistics (``GET /v1/stats``).

        ``queue_depth`` counts queued dispatch groups, so a job's batched
        points are one entry, and ``dispatch.tasks`` one task per group.
        ``store`` embeds the manifest-backed :meth:`RunStore.info`, so
        reporting key counts and byte sizes does not walk the store.
        ``dispatch`` reports the worker pool's warm-dispatch counters —
        pool generation, tasks, worker files spooled (``broadcasts``)
        and tasks whose worker was already spooled (``broadcast_hits``)
        — or ``{"mode": "inline"}`` when points run in the dispatcher
        threads.
        """
        if self._pool is not None:
            dispatch = {"mode": "processes", **self._pool.stats()}
        else:
            dispatch = {"mode": "inline"}
        with self._lock:
            by_status: Dict[str, int] = {"queued": 0, "running": 0,
                                         "done": 0, "failed": 0,
                                         "cancelled": 0}
            for job in self._jobs.values():
                by_status[job.status] += 1
            served = (self._counters["store_hits"]
                      + self._counters["coalesced"]
                      + self._counters["computed"])
            return {
                "queue_depth": self._queue.qsize(),
                "busy_workers": self._busy,
                "n_workers": self.n_workers,
                "utilization": self._busy / self.n_workers,
                "in_flight_keys": len(self._in_flight),
                "jobs": by_status,
                "points": dict(self._counters),
                "hit_rate": ((self._counters["store_hits"]
                              + self._counters["coalesced"]) / served
                             if served else None),
                "accepting": self._accepting,
                "uptime_s": time.time() - self._started_at,
                "store": self.store.info(),
                "dispatch": dispatch,
            }

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Graceful stop: refuse new work, drain running groups, cancel
        the rest.

        Sentinels are injected *ahead* of every queued group (rank -1),
        so dispatchers finish only what they had already started —
        every point of a running group is recorded and persisted
        (including partial adaptive tallies), then the pool is shut
        down.  Jobs left with
        unserved points are marked ``cancelled``; their completed points
        remain fetchable.  Idempotent.
        """
        with self._lock:
            already_stopped = not self._accepting
            self._accepting = False
        if not already_stopped:
            for _ in self._threads:
                self._queue.put((-1, next(self._seq), None, None))
        for thread in self._threads:
            thread.join(timeout=timeout)
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        cancelled = 0
        with self._lock:
            for job in self._jobs.values():
                if job.status in ("queued", "running"):
                    job.cancelled = True
                    cancelled += 1
            self._in_flight.clear()
            self._completion.notify_all()
        return {"status": "stopped", "cancelled_jobs": cancelled}
