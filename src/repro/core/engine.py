"""Parameter-sweep engine for the Monte-Carlo experiments.

Every figure of the paper that involves randomness — the Fig. 10
required-Eb/N0 points, the Fig. 8 cross-check latency curves — is a sweep
of one stochastic worker over a parameter grid.  This module centralises
that pattern:

* :func:`parameter_grid` expands named axes into a list of parameter
  points (Cartesian product).
* :class:`SweepEngine` evaluates a worker at every point with

  - **independent per-point seeding**: a root
    :class:`numpy.random.SeedSequence` is spawned into one child per
    point, so no point shares (or partially consumes) another point's
    random stream, and results are invariant to evaluation order;
  - **optional process-level parallelism** (``n_workers > 1``), useful on
    multi-core hosts — workers and parameter values must then be
    picklable.  Parallel engines dispatch through a **warm**
    :class:`repro.core.pool.WorkerPool` (created lazily, reused across
    sweeps, released by :meth:`SweepEngine.close` or the engine's
    context manager): the worker is broadcast to the pool once per
    generation instead of being re-pickled per point, cheap many-point
    grids are submitted in chunks, and incremental workers exposing the
    shard protocol have deep adaptive points split across the pool with
    byte-identical-to-serial results (see
    :meth:`SweepEngine.sweep_adaptive`).  On either path the first
    worker exception fails fast — queued points are cancelled, in-flight
    points killed — and re-raises as :class:`SweepPointError` naming
    the failing point's params;
  - **content-addressed result caching** through a
    :class:`repro.core.store.RunStore`: keys are stable SHA-256 hashes of
    ``(worker key, params, seed, spawn key, repro version)`` — see
    :mod:`repro.utils.hashing` — so equivalent workers share results, and
    a :class:`repro.core.store.DiskStore` serves them across processes
    and days.  The default store is an in-process
    :class:`~repro.core.store.MemoryStore`, preserving the historical
    in-memory cache behaviour.

A worker is any callable ``worker(params, rng)`` taking the parameter
mapping of one point and a dedicated :class:`numpy.random.Generator`.
Workers that additionally expose *incremental evaluation* (the
``decode``/``encode``/``advance``/``satisfied``/``progress``/``finalize``
protocol documented on :meth:`SweepEngine.sweep_adaptive`) can instead be
swept **adaptively**: each point runs until a
:class:`repro.utils.statistics.StoppingRule` precision target is met, and
partial tallies are stored under precision-independent keys so a later,
tighter target resumes from the stored counts — a cache *upgrade*, not a
miss.

**One point lifecycle.**  Every front-end — :class:`SweepEngine`, the
campaign runner (:mod:`repro.scenarios.campaign`) and the campaign
service (:mod:`repro.service.daemon`) — plans a sweep with
:func:`plan_sweep`, wraps each planned point in a :class:`Point` and
drives it through the same steps: :meth:`Point.resolve` (one store lookup;
an adaptive point decodes its stored tally and checks the stopping
rule), :meth:`Point.task` (the picklable pool task),
:meth:`Point.record` (store, canonicalize and — adaptive — finalize) and
:meth:`Point.error` (the attributed :class:`SweepPointError`).
:func:`run_points` is the shared back half: it runs pending points
serially or through a :class:`~repro.core.pool.WorkerPool`, sharding
deep adaptive points across a multi-process pool.

:meth:`repro.coding.ber.BerSimulator.ber_curve`,
:func:`repro.coding.ber.required_ebn0_db` (probe seeding) and
:meth:`repro.noc.simulator.NocSimulator.latency_sweep` route their grids
through this engine; the Fig. 8/Fig. 10 benchmarks, the example scripts
and the campaign runner (:mod:`repro.scenarios.campaign`) use it directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.core.pool import PoolTask, WorkerPool, broadcast_key_for
from repro.core.store import MemoryStore, RunStore, store_and_canonicalize
from repro.utils.hashing import (content_hash, sweep_point_keys,
                                 worker_cache_key)
from repro.utils.rng import RngLike, ensure_seed_sequence
from repro.utils.serialization import to_plain

SweepWorker = Callable[[Mapping[str, Any], np.random.Generator], Any]


def parameter_grid(**axes: Iterable) -> List[Dict[str, Any]]:
    """Cartesian product of named parameter axes.

    The last axis varies fastest, matching ``itertools.product``::

        parameter_grid(n=(25, 40), window=(3, 5))
        # [{'n': 25, 'window': 3}, {'n': 25, 'window': 5},
        #  {'n': 40, 'window': 3}, {'n': 40, 'window': 5}]
    """
    if not axes:
        raise ValueError("at least one parameter axis is required")
    names = list(axes)
    value_lists = [list(axes[name]) for name in names]
    for name, values in zip(names, value_lists):
        if not values:
            raise ValueError(f"parameter axis {name!r} is empty")
    return [dict(zip(names, combination))
            for combination in itertools.product(*value_lists)]


class SweepPointError(RuntimeError):
    """A worker raised at one sweep point.

    Raised on both the serial and the process-pool path; on the pool
    path all outstanding futures are cancelled first.  Carries the
    failing point's parameter mapping as ``params`` and — when the sweep
    ran on behalf of a named scenario (``Scenario.run``, campaigns, the
    campaign service) — the scenario name as ``scenario``, so an error
    report out of a multi-scenario run is attributable without parsing
    the message.  The original worker exception is chained as
    ``__cause__``.
    """

    def __init__(self, message: str, params: Mapping[str, Any],
                 scenario: Optional[str] = None) -> None:
        super().__init__(message)
        self.params = dict(params)
        self.scenario = scenario

    def with_scenario(self, scenario: str) -> "SweepPointError":
        """A copy attributed to ``scenario`` (no-op when already named).

        The engine does not know scenario names — the layers that do
        (:meth:`repro.scenarios.scenario.Scenario.run`, the campaign
        runner, the service) re-raise through this so the message always
        leads with the scenario the point belongs to.
        """
        if self.scenario is not None:
            return self
        error = SweepPointError(f"scenario {scenario!r}: {self}",
                                params=self.params, scenario=scenario)
        return error


@dataclass(frozen=True)
class SweepOutcome:
    """One evaluated sweep point.

    Attributes
    ----------
    params:
        The parameter mapping of the point (a private copy — mutating it
        cannot corrupt the engine's cache or the caller's grid).
    value:
        Whatever the worker returned.
    spawn_key:
        Spawn key of the point's child seed sequence (its position in the
        root sequence's spawn tree) — stable across re-runs with the same
        integer seed, recorded so a single point can be reproduced.
    from_cache:
        True if the value was served from the engine's store.
    adaptive:
        Precision provenance of an adaptive-path point
        (:meth:`SweepEngine.sweep_adaptive`): resumed / newly simulated
        / total work units and whether the stopping rule was satisfied.
        ``None`` on the fixed-count path.
    """

    params: Dict[str, Any]
    value: Any
    spawn_key: Tuple[int, ...]
    from_cache: bool
    adaptive: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable form (NumPy values coerced)."""
        result = {"params": to_plain(self.params),
                  "value": to_plain(self.value),
                  "spawn_key": list(self.spawn_key),
                  "from_cache": bool(self.from_cache)}
        if self.adaptive is not None:
            result["adaptive"] = to_plain(self.adaptive)
        return result


@dataclass(frozen=True)
class PlannedPoint:
    """One point of a planned sweep: params, seeding and store key."""

    params: Dict[str, Any]
    seed_sequence: np.random.SeedSequence
    spawn_key: Tuple[int, ...]
    store_key: Optional[str]


def plan_sweep(worker: SweepWorker, points: Iterable[Mapping[str, Any]],
               rng: RngLike = None, key: Any = None,
               cacheable: bool = True) -> List[PlannedPoint]:
    """Expand a sweep into :class:`PlannedPoint`\\ s with store keys.

    The shared front half of every front-end (:class:`SweepEngine`, the
    campaign runner, the campaign service): spawn one child seed
    sequence per point and derive each point's content-addressed store
    key.  ``store_key`` is ``None`` when
    the sweep is not cacheable — the root entropy is fresh (``rng`` is
    not an integer seed) or caching was disabled — so such points are
    always computed and never stored.
    """
    points = [dict(point) for point in points]
    root = ensure_seed_sequence(rng)
    children = root.spawn(len(points)) if points else []
    seeded = isinstance(rng, (int, np.integer))
    worker_key = worker_cache_key(worker) if key is None else key
    point_key = None
    if cacheable and seeded:
        try:
            point_key = sweep_point_keys(worker_key)
        except TypeError:
            # A worker description the canonical JSON cannot represent:
            # every point still runs, none can be cached.
            pass
    planned = []
    for point, child in zip(points, children):
        spawn_key = tuple(map(int, child.spawn_key))
        store_key = None
        if point_key is not None:
            try:
                store_key = point_key(point, int(rng), spawn_key)
            except TypeError:
                # Param values the canonical JSON cannot represent (an
                # enum, an arbitrary object): the point still runs, it
                # just cannot be cached.
                store_key = None
        planned.append(PlannedPoint(params=point, seed_sequence=child,
                                    spawn_key=spawn_key,
                                    store_key=store_key))
    return planned


def _evaluate_point(worker: SweepWorker, params: Mapping[str, Any],
                    seed_sequence: np.random.SeedSequence) -> Any:
    """Top-level so the process-pool path can pickle it."""
    return worker(params, np.random.default_rng(seed_sequence))


def _advance_point(worker: Any, params: Mapping[str, Any], state: Any,
                   seed_sequence: np.random.SeedSequence,
                   rule: Any) -> Any:
    """Adaptive counterpart of :func:`_evaluate_point` (picklable)."""
    return worker.advance(params, state, seed_sequence, rule)


def _advance_shard(worker: Any, params: Mapping[str, Any],
                   seed_sequence: np.random.SeedSequence,
                   batch_indices: Sequence[int]) -> List[Any]:
    """One shard of a sharded adaptive point (picklable): evaluate the
    given absolute batch indices, returning their per-batch deltas."""
    return worker.advance_shard(params, seed_sequence, batch_indices)


class Point:
    """The lifecycle of one planned point, shared by every front-end.

    A :class:`PlannedPoint` plus its worker, the worker's pool
    ``broadcast`` key, and the ``scenario`` name and campaign entry
    ``label`` failures are attributed to.  A non-``None`` stopping
    ``rule`` makes the point adaptive: its store entry is the worker's
    encoded tally, not a final value.  The steps: :meth:`resolve`; if
    still pending, :meth:`task`, run, then :meth:`record` (or
    :meth:`error`); a twin takes the result with :meth:`share`.
    ``value``, ``from_cache`` and ``coalesced`` hold the outcome.
    """

    __slots__ = ("planned", "worker", "rule", "broadcast", "scenario",
                 "label", "value", "state", "resumed_units", "from_cache",
                 "coalesced")

    def __init__(self, planned: PlannedPoint, worker: Any, rule: Any = None,
                 broadcast: Optional[str] = None,
                 scenario: Optional[str] = None,
                 label: Optional[str] = None) -> None:
        self.planned = planned
        self.worker = worker
        self.rule = rule
        self.broadcast = broadcast
        self.scenario = scenario
        self.label = label
        self.value: Any = None
        self.state: Any = None           # adaptive resume state
        self.resumed_units = 0           # adaptive: units resumed from store
        self.from_cache = False          # served from pre-existing store
        self.coalesced = False           # served from a twin's computation

    def resolve(self, store: RunStore) -> bool:
        """Serve the point from ``store`` if it can; True when done.

        A stored ``None`` is a hit like any other value.  A miss costs
        one ``in`` (no exception on the cold path); an entry removed by
        another process between that check and the ``get`` is a miss
        too.  An adaptive point decodes the stored tally (or fresh
        state) and is done only when that tally already satisfies its
        rule.
        """
        stored, hit = None, False
        key = self.planned.store_key
        if key is not None and key in store:
            try:
                stored, hit = store.get(key), True
            except KeyError:
                pass
        if self.rule is None:
            self.value = stored
        else:
            worker = self.worker
            self.state = worker.decode(stored)
            self.resumed_units = int(worker.progress(self.state))
            hit = hit and bool(worker.satisfied(self.state, self.rule))
            if hit:
                self.value = worker.finalize(self.planned.params, self.state)
        self.from_cache = hit
        return hit

    def task(self) -> PoolTask:
        """The point's computation as a picklable pool task."""
        planned = self.planned
        if self.rule is None:
            return PoolTask(fn=_evaluate_point, worker=self.worker,
                            args=(planned.params, planned.seed_sequence),
                            broadcast_key=self.broadcast)
        return PoolTask(fn=_advance_point, worker=self.worker,
                        args=(planned.params, self.state,
                              planned.seed_sequence, self.rule),
                        broadcast_key=self.broadcast)

    def record(self, store: RunStore, result: Any) -> None:
        """Keep a computed ``result``, storing it first when cacheable.

        The value is written and read back through the store
        (:func:`~repro.core.store.store_and_canonicalize`), so cold and
        warm runs see the identical representation.  An adaptive
        ``result`` is the advanced state: its encoding is stored (the
        upgradable asset), decoded back and finalized into ``value``.
        """
        key = self.planned.store_key
        if self.rule is None:
            self.value = result if key is None else store_and_canonicalize(
                store, key, result)
            return
        worker = self.worker
        if key is not None:
            result = worker.decode(store_and_canonicalize(
                store, key, worker.encode(result)))
        self.state = result
        self.value = worker.finalize(self.planned.params, result)

    def share(self, primary: "Point") -> None:
        """Take the result of a twin that computed the same thing."""
        self.value = primary.value
        self.state = primary.state
        self.coalesced = True

    def coalesce_key(self) -> Optional[str]:
        """Identity of the point's computation (``None``: unshareable).

        The store key — with, for an adaptive point, its stopping rule
        appended: two targets over one stored tally advance it
        differently, while equal targets compute the same thing.
        """
        key = self.planned.store_key
        if key is None or self.rule is None:
            return key
        return f"{key}#rule:{content_hash(self.rule)}"

    def error(self, exc: BaseException) -> SweepPointError:
        """The :class:`SweepPointError` for ``exc`` raised at this point."""
        message = f"sweep point {self.planned.params!r} failed: {exc}"
        if self.label is not None:
            message = f"campaign entry {self.label!r}: {message}"
        error = SweepPointError(message, params=self.planned.params)
        return error if self.scenario is None \
            else error.with_scenario(self.scenario)

    def adaptive(self) -> Optional[Dict[str, Any]]:
        """Precision provenance of an adaptive point, else ``None``:
        resumed / newly simulated / total work units and whether the
        rule is satisfied."""
        if self.rule is None:
            return None
        total = int(self.worker.progress(self.state))
        return {"resumed_units": self.resumed_units,
                "new_units": total - self.resumed_units,
                "total_units": total,
                "satisfied": bool(self.worker.satisfied(self.state,
                                                        self.rule))}

    def to_dict(self) -> Dict[str, Any]:
        """The point's row of a scenario result."""
        return {"params": to_plain(self.planned.params),
                "value": to_plain(self.value),
                "spawn_key": list(self.planned.spawn_key)}


def run_points(points: Sequence[Point], store: RunStore,
               pool: Optional[WorkerPool] = None) -> None:
    """Compute pending points, recording each into ``store``.

    The shared back half of :class:`SweepEngine` and the campaign
    runner.  Without a ``pool`` the points run serially; with one, as
    fail-fast :meth:`~repro.core.pool.WorkerPool.execute` batches.
    Either way each completion is recorded as it arrives (an
    interrupted run resumes from what finished), and the first worker
    exception — queued work cancelled, in-flight work killed —
    re-raises as the failing point's :meth:`Point.error`.

    On a pool of more than one process, an adaptive point whose worker
    exposes the shard protocol advances in rounds instead: each round
    splits its next batch indices across the pool, and the returned
    per-batch deltas are replayed in index order against ``satisfied``
    — the serial advance loop's exact check-then-batch sequence — so
    its state is byte-identical to a serial run, with overshoot
    discarded (see :meth:`SweepEngine.sweep_adaptive`).  The first
    round rides in the batch of the whole-point tasks, at the point's
    place in ``points``, so it keeps its turn and the pool installs
    every worker in one generation; each later round is one batch of
    every point still unsatisfied.  A sharded point is recorded after
    every round (an interrupted deep point resumes mid-way), and the
    canonicalized (store round-tripped) state the record keeps makes
    replay and storage representations identical.
    """
    if pool is None:
        for point in points:
            task = point.task()
            try:
                result = task.fn(task.worker, *task.args)
            except Exception as exc:
                raise point.error(exc) from exc
            point.record(store, result)
        return
    n_shards = pool.n_workers
    ramp: Dict[Point, int] = {}          # sharded point -> batches/shard
    tasks: List[Tuple[Tuple[Point, Optional[int]], PoolTask]] = []
    for point in points:
        if point.rule is None or n_shards < 2 or not all(
                callable(getattr(point.worker, name, None))
                for name in ("cursor", "advance_shard", "absorb")):
            tasks.append(((point, None), point.task()))
        elif point.worker.satisfied(point.state, point.rule):
            point.record(store, point.state)
        else:
            ramp[point] = 1
            tasks.extend(_shard_tasks(point, ramp[point], n_shards))
    deltas: Dict[Tuple[Point, int], List[Any]] = {}

    def record(task_id: Tuple[Point, Optional[int]], result: Any) -> None:
        point, shard = task_id
        if shard is None:
            point.record(store, result)
        else:
            deltas[task_id] = result

    while tasks:
        pool.execute(tasks, record=record,
                     error=lambda task_id, exc: task_id[0].error(exc))
        tasks = []
        for point in list(ramp):
            worker, rule, state = point.worker, point.rule, point.state
            for delta in [delta for shard in range(n_shards)
                          for delta in deltas[(point, shard)]]:
                if worker.satisfied(state, rule):
                    break
                state = worker.absorb(state, delta)
            point.record(store, state)
            if worker.satisfied(point.state, rule):
                del ramp[point]
            else:
                ramp[point] = min(2 * ramp[point], 8)
                tasks.extend(_shard_tasks(point, ramp[point], n_shards))


def _shard_tasks(point: Point, ramp: int, n_shards: int
                 ) -> List[Tuple[Tuple[Point, int], PoolTask]]:
    """One sharded round of ``point``: ``n_shards`` tasks over its next
    consecutive batch indices, ``ramp`` batches per shard at most.

    Rounds ramp geometrically (1, 2, 4, ... batches per shard) so a
    deep point amortizes dispatch while a shallow one overshoots at
    most one small round — overshot batches are discarded by the
    replay, so they only cost compute, never correctness.  When the
    rule carries a ``max_units`` cap, the observed units-per-batch
    rate bounds the round to roughly the batches still needed.
    """
    worker, state = point.worker, point.state
    start = int(worker.cursor(state))
    per = int(ramp)
    max_units = getattr(point.rule, "max_units", None)
    if max_units is not None and start > 0:
        done = int(worker.progress(state))
        if 0 < done < max_units:
            per_batch = max(1, done // start)
            needed = -(-(int(max_units) - done) // per_batch)
            per = min(per, max(1, -(-needed // n_shards)))
    return [((point, shard), PoolTask(
        fn=_advance_shard, worker=worker,
        args=(point.planned.params, point.planned.seed_sequence,
              list(range(start + shard * per, start + (shard + 1) * per))),
        broadcast_key=point.broadcast)) for shard in range(n_shards)]


class SweepEngine:
    """Evaluates stochastic workers over parameter grids.

    Parameters
    ----------
    n_workers:
        Number of worker processes; ``None`` or 1 evaluates serially in
        this process.  With more than one process, the worker and every
        parameter value must be picklable.
    cache:
        Enable result caching through the store.  Cache hits require an
        equivalent worker (same frozen-dataclass state or module-level
        function — or an explicit ``key``), identical parameter values
        and a reproducible seed (an ``int`` passed as ``rng``); sweeps
        seeded with ``None`` or a generator are never cached at all —
        their root entropy is fresh on every call, so entries could never
        be hit and would only grow the store.  Stateful workers that are
        *not* dataclasses are keyed by object identity (the historical
        behaviour): mutating such a worker between sweeps does NOT
        invalidate earlier entries — call :meth:`clear_cache`, or use a
        fresh worker/engine.
    store:
        The :class:`repro.core.store.RunStore` backing the cache.
        Defaults to a private :class:`~repro.core.store.MemoryStore`
        (results live and die with this engine); pass a
        :class:`~repro.core.store.DiskStore` to persist every computed
        point across processes, or share one store between engines.
    """

    def __init__(self, n_workers: Optional[int] = None, cache: bool = True,
                 store: Optional[RunStore] = None) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.n_workers = n_workers
        self.cache_enabled = bool(cache)
        self.store: RunStore = store if store is not None else MemoryStore()
        self._hits = 0
        self._misses = 0
        self._pool: Optional[WorkerPool] = None

    # ------------------------------------------------------------------
    # dispatch backend
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Optional[WorkerPool]:
        """The engine's warm :class:`~repro.core.pool.WorkerPool`.

        Created lazily on the first parallel sweep and reused for the
        engine's lifetime, so repeated sweeps stop paying pool spin-up
        and worker re-pickling; ``None`` on the serial path.  The pool
        itself handles fork-safety and re-creation after a fast-fail
        abort.
        """
        if self.n_workers is None or self.n_workers < 2:
            return None
        if self._pool is None:
            self._pool = WorkerPool(self.n_workers)
        return self._pool

    def close(self) -> None:
        """Release the warm pool's worker processes (no-op when serial
        or never used).  The engine stays usable — the next parallel
        sweep lazily re-creates the processes as a new generation, and
        the pool's dispatch counters keep accumulating."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def dispatch_stats(self) -> Optional[Dict[str, int]]:
        """The warm pool's dispatch counters (``None`` before any
        parallel sweep); see :meth:`repro.core.pool.WorkerPool.stats`."""
        return self._pool.stats() if self._pool is not None else None

    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Cache statistics: stored entries, hits and misses so far."""
        return {"entries": len(self.store), "hits": self._hits,
                "misses": self._misses}

    def clear_cache(self) -> None:
        """Drop every stored result."""
        self.store.clear()

    # ------------------------------------------------------------------
    def _sweep(self, worker: Any, points: Iterable[Mapping[str, Any]],
               rule: Any, rng: RngLike, key: Any) -> List[SweepOutcome]:
        """The one body of :meth:`sweep` (``rule=None``) and
        :meth:`sweep_adaptive`: plan, resolve every point against the
        store, run the pending ones (each stored as it completes), and
        report them all in point order."""
        pool = self._ensure_pool()
        broadcast = broadcast_key_for(worker, key=key) \
            if pool is not None else None
        swept = [Point(planned, worker, rule=rule, broadcast=broadcast)
                 for planned in plan_sweep(worker, points, rng=rng, key=key,
                                           cacheable=self.cache_enabled)]
        pending = [point for point in swept if not point.resolve(self.store)]
        run_points(pending, self.store, pool)
        self._misses += len(pending)
        self._hits += len(swept) - len(pending)
        return [SweepOutcome(params=dict(point.planned.params),
                             value=point.value,
                             spawn_key=point.planned.spawn_key,
                             from_cache=point.from_cache,
                             adaptive=point.adaptive())
                for point in swept]

    # ------------------------------------------------------------------
    def sweep(self, worker: SweepWorker, points: Iterable[Mapping[str, Any]],
              rng: RngLike = None, key: Any = None) -> List[SweepOutcome]:
        """Evaluate ``worker`` at every parameter point.

        Parameters
        ----------
        worker:
            Callable ``worker(params, rng)``.
        points:
            Iterable of parameter mappings (e.g. from
            :func:`parameter_grid`); values must be JSON-representable
            for the content-addressed cache.
        rng:
            Root randomness: ``None`` (fresh entropy), an ``int`` seed
            (reproducible — and cacheable across calls) or a generator.
            One child generator is spawned per point.
        key:
            Optional stable identity used for the cache instead of the
            worker-derived key; pass the same key (any canonically
            JSON-serializable value) to share cached results between
            worker instances the automatic derivation would keep apart.

        Returns
        -------
        list of :class:`SweepOutcome`, in point order.
        """
        return self._sweep(worker, points, None, rng, key)

    def sweep_values(self, worker: SweepWorker,
                     points: Iterable[Mapping[str, Any]],
                     rng: RngLike = None, key: Any = None) -> List[Any]:
        """Like :meth:`sweep` but returning only the worker values."""
        return [outcome.value
                for outcome in self.sweep(worker, points, rng=rng, key=key)]

    # ------------------------------------------------------------------
    def sweep_adaptive(self, worker: Any,
                       points: Iterable[Mapping[str, Any]], rule: Any,
                       rng: RngLike = None,
                       key: Any = None) -> List[SweepOutcome]:
        """Evaluate an *incremental* worker to a precision target.

        Where :meth:`sweep` runs a fixed computation per point, this path
        runs each point **until** a stopping rule (typically a
        :class:`repro.utils.statistics.StoppingRule`) is satisfied, and
        stores the point's partial *state* — not its final value — under
        the point's content-addressed key.  Because that key does not
        involve ``rule``, re-running with a tighter rule is a cache
        *upgrade*: the stored state is resumed and only the increment is
        simulated.  Per-batch randomness is the worker's responsibility
        (see :func:`repro.coding.ber.batch_seed_sequence`); given the
        planned point's seed sequence, resumed and one-shot runs draw
        identical noise.

        ``worker`` must expose the incremental protocol:

        * ``decode(stored) -> state`` — rebuild state from a stored JSON
          value, or create fresh state from ``None``;
        * ``encode(state) -> dict`` — JSON-serializable form of a state;
        * ``satisfied(state, rule) -> bool`` — may the point stop?
        * ``advance(params, state, seed_sequence, rule) -> state`` — run
          until satisfied (picklable for the pool path);
        * ``progress(state) -> int`` — work units spent so far;
        * ``finalize(params, state) -> value`` — the outcome value.

        Every outcome carries an ``adaptive`` provenance dict
        (``resumed_units`` / ``new_units`` / ``total_units`` /
        ``satisfied``); ``from_cache`` is True only for points whose
        stored state already satisfied ``rule`` (zero new units).

        **Deterministic intra-point sharding.**  A worker that
        additionally exposes

        * ``cursor(state) -> int`` — the next batch index to run;
        * ``advance_shard(params, seed_sequence, batch_indices) ->
          [delta, ...]`` — evaluate the given absolute batch indices
          (each independently seeded, e.g. via
          :func:`repro.coding.ber.batch_seed_sequence`), one
          JSON-serializable delta per index, in order;
        * ``absorb(state, delta) -> state`` — fold one delta into the
          state, advancing the cursor by one batch

        is, on a parallel engine (``n_workers > 1``), advanced by
        splitting each pending point's upcoming batch indices across the
        pool and replaying the returned deltas **in batch-index order**
        against ``satisfied`` — exactly the serial advance loop's
        check-then-run-batch sequence — discarding any overshoot.  The
        final state is therefore byte-identical to a serial
        (``n_workers=1``) run by construction; the shard protocol's only
        obligation is that batch ``b``'s delta depends on nothing but
        ``(params, seed_sequence, b)`` and that ``satisfied`` matches
        the stopping check ``advance`` uses internally.
        """
        for method in ("decode", "encode", "satisfied", "advance",
                       "progress", "finalize"):
            if not callable(getattr(worker, method, None)):
                raise TypeError(
                    f"adaptive sweep worker {worker!r} lacks the "
                    f"incremental-evaluation method {method!r}")
        return self._sweep(worker, points, rule, rng, key)
