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
from repro.utils.hashing import sweep_point_keys, worker_cache_key
from repro.utils.rng import RngLike, ensure_seed_sequence

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
        from repro.utils.serialization import to_plain

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

    The shared front half of :meth:`SweepEngine.sweep` and the campaign
    runner: spawn one child seed sequence per point and derive each
    point's content-addressed store key.  ``store_key`` is ``None`` when
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


def _shard_capable(worker: Any) -> bool:
    """Does an incremental worker also expose the shard protocol
    (``cursor`` / ``advance_shard`` / ``absorb``)?"""
    return all(callable(getattr(worker, name, None))
               for name in ("cursor", "advance_shard", "absorb"))


def execute_pending(pending: Sequence[Any],
                    job: Callable[[Any], Any],
                    record: Callable[[Any, Any], None],
                    error: Callable[[Any, Exception], SweepPointError],
                    n_workers: Optional[int],
                    pool: Optional[WorkerPool] = None) -> None:
    """Evaluate opaque tasks serially or through a worker pool.

    The shared back half of :meth:`SweepEngine.sweep`,
    :meth:`SweepEngine.sweep_adaptive` and
    :meth:`repro.scenarios.campaign.Campaign.run`: ``job(task)`` yields a
    :class:`repro.core.pool.PoolTask` (or, for compatibility, a
    ``(function, worker, *args)`` tuple) — typically
    :func:`_evaluate_point` or :func:`_advance_point` plus its
    arguments, everything picklable on the pool path — ``record(task,
    value)`` consumes each completion as it happens (durability for
    interrupted runs), and the first worker exception — on either path —
    cancels queued work, kills in-flight work and re-raises as the
    :class:`SweepPointError` built by ``error(task, exception)``.

    Pass ``pool`` to dispatch through a caller-owned warm
    :class:`~repro.core.pool.WorkerPool` (reused executor, one-shot
    worker broadcast, chunked submission); with ``pool=None`` and
    ``n_workers > 1`` an ephemeral pool is built and closed around the
    batch, preserving the historical per-call behaviour.
    """
    if not pending:
        return
    tasks = []
    for item in pending:
        built = job(item)
        if not isinstance(built, PoolTask):
            fn, worker, *args = built
            built = PoolTask(fn=fn, worker=worker, args=tuple(args))
        tasks.append((item, built))
    if pool is not None or (n_workers is not None and n_workers > 1):
        owned = pool is None
        pool = pool if pool is not None else WorkerPool(n_workers)
        try:
            pool.execute(tasks, record=record, error=error)
        finally:
            if owned:
                pool.close()
    else:
        for item, built in tasks:
            try:
                value = built.fn(built.worker, *built.args)
            except Exception as exc:
                raise error(item, exc) from exc
            record(item, value)


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
    @property
    def _parallel(self) -> bool:
        return self.n_workers is not None and self.n_workers > 1

    def _ensure_pool(self) -> Optional[WorkerPool]:
        """The engine's warm :class:`~repro.core.pool.WorkerPool`.

        Created lazily on the first parallel sweep and reused for the
        engine's lifetime, so repeated sweeps stop paying pool spin-up
        and worker re-pickling; ``None`` on the serial path.  The pool
        itself handles fork-safety and re-creation after a fast-fail
        abort.
        """
        if not self._parallel:
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
    def _run_pending(self, worker: SweepWorker, plan: Sequence[PlannedPoint],
                     pending: Sequence[int],
                     key: Any = None) -> Dict[int, Any]:
        """Evaluate the pending plan indices, storing each completion.

        Every finished point is written to the store immediately, so an
        interrupted run (crash, Ctrl-C, killed pool) resumes from the
        points that already completed.  The first worker exception — on
        either execution path — cancels outstanding futures and
        re-raises as :class:`SweepPointError` naming the failing point.
        """
        values: Dict[int, Any] = {}

        def record(index: int, value: Any) -> None:
            store_key = plan[index].store_key
            if store_key is not None:
                value = store_and_canonicalize(self.store, store_key, value)
            values[index] = value

        broadcast = broadcast_key_for(worker, key=key) \
            if self._parallel else None
        execute_pending(
            pending,
            job=lambda index: PoolTask(
                fn=_evaluate_point, worker=worker,
                args=(plan[index].params, plan[index].seed_sequence),
                broadcast_key=broadcast),
            record=record,
            error=lambda index, exc: SweepPointError(
                f"sweep point {plan[index].params!r} failed: {exc}",
                params=plan[index].params),
            n_workers=self.n_workers,
            pool=self._ensure_pool())
        return values

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
        plan = plan_sweep(worker, points, rng=rng, key=key,
                          cacheable=self.cache_enabled)
        pending = [index for index, planned in enumerate(plan)
                   if planned.store_key is None
                   or planned.store_key not in self.store]
        values = self._run_pending(worker, plan, pending, key=key)
        self._misses += len(pending)

        outcomes: List[SweepOutcome] = []
        for index, planned in enumerate(plan):
            if index in values:
                value = values[index]
                from_cache = False
            else:
                try:
                    value = self.store.get(planned.store_key)
                    self._hits += 1
                    from_cache = True
                except KeyError:
                    # The entry vanished between planning and now (e.g.
                    # `cache clear` from another process): recompute the
                    # point instead of aborting the sweep.
                    value = _evaluate_point(worker, planned.params,
                                            planned.seed_sequence)
                    value = store_and_canonicalize(
                        self.store, planned.store_key, value)
                    self._misses += 1
                    from_cache = False
            outcomes.append(SweepOutcome(params=dict(planned.params),
                                         value=value,
                                         spawn_key=planned.spawn_key,
                                         from_cache=from_cache))
        return outcomes

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
        plan = plan_sweep(worker, points, rng=rng, key=key,
                          cacheable=self.cache_enabled)
        states: Dict[int, Any] = {}
        resumed_units: Dict[int, int] = {}
        pending: List[int] = []
        for index, planned in enumerate(plan):
            stored = None
            if planned.store_key is not None:
                try:
                    stored = self.store.get(planned.store_key)
                except KeyError:
                    stored = None
            state = worker.decode(stored)
            states[index] = state
            resumed_units[index] = int(worker.progress(state))
            if stored is not None and worker.satisfied(state, rule):
                continue  # the stored state already meets the target
            pending.append(index)

        def record(index: int, state: Any) -> None:
            store_key = plan[index].store_key
            if store_key is not None:
                # Persist the *state* (the upgradable asset), then decode
                # it back through the store so cold and warm runs see the
                # identical representation.
                stored = store_and_canonicalize(self.store, store_key,
                                                worker.encode(state))
                state = worker.decode(stored)
            states[index] = state

        broadcast = broadcast_key_for(worker, key=key) \
            if self._parallel else None

        def point_error(index: int, exc: Exception) -> SweepPointError:
            return SweepPointError(
                f"adaptive sweep point {plan[index].params!r} failed: "
                f"{exc}", params=plan[index].params)

        if pending and self._parallel and _shard_capable(worker):
            self._advance_sharded(worker, plan, states, pending, rule,
                                  record, point_error, broadcast)
        else:
            execute_pending(
                pending,
                job=lambda index: PoolTask(
                    fn=_advance_point, worker=worker,
                    args=(plan[index].params, states[index],
                          plan[index].seed_sequence, rule),
                    broadcast_key=broadcast),
                record=record,
                error=point_error,
                n_workers=self.n_workers,
                pool=self._ensure_pool())
        pending_set = set(pending)
        self._misses += len(pending)
        self._hits += len(plan) - len(pending)

        outcomes: List[SweepOutcome] = []
        for index, planned in enumerate(plan):
            state = states[index]
            total = int(worker.progress(state))
            adaptive = {
                "resumed_units": resumed_units[index],
                "new_units": total - resumed_units[index],
                "total_units": total,
                "satisfied": bool(worker.satisfied(state, rule)),
            }
            outcomes.append(SweepOutcome(
                params=dict(planned.params),
                value=worker.finalize(planned.params, state),
                spawn_key=planned.spawn_key,
                from_cache=index not in pending_set,
                adaptive=adaptive))
        return outcomes

    # ------------------------------------------------------------------
    def _shard_round_batches(self, worker: Any, state: Any, rule: Any,
                             ramp: int) -> int:
        """Batches per shard for one point's next sharded round.

        Rounds ramp geometrically (1, 2, 4, ... batches per shard) so a
        deep point amortizes dispatch while a shallow one overshoots at
        most one small round — overshot batches are discarded by the
        replay, so they only cost compute, never correctness.  When the
        rule carries a ``max_units`` cap, the observed units-per-batch
        rate bounds the round to roughly the batches still needed.
        """
        per = int(ramp)
        max_units = getattr(rule, "max_units", None)
        cursor = int(worker.cursor(state))
        if max_units is not None and cursor > 0:
            done = int(worker.progress(state))
            if 0 < done < max_units:
                per_batch = max(1, done // cursor)
                needed = -(-(int(max_units) - done) // per_batch)
                per = min(per, max(1, -(-needed // self.n_workers)))
        return max(1, per)

    def _advance_sharded(self, worker: Any, plan: Sequence[PlannedPoint],
                         states: Dict[int, Any], pending: Sequence[int],
                         rule: Any, record: Callable[[int, Any], None],
                         error: Callable[[int, Exception], SweepPointError],
                         broadcast: Optional[str]) -> None:
        """Advance pending adaptive points by sharding batch indices.

        Each round, every unsatisfied point contributes ``n_workers``
        shard tasks covering consecutive upcoming batch indices; the
        returned per-batch deltas are replayed in index order against
        ``worker.satisfied`` — the serial advance loop's exact
        check-then-batch sequence — so the resulting state is
        byte-identical to a serial run, with overshoot discarded.
        ``record`` persists every point's state after each round
        (durability: an interrupted deep point resumes mid-way), and the
        canonicalized (store round-tripped) state it writes back keeps
        replay and storage representations identical.
        """
        pool = self._ensure_pool()
        n_shards = self.n_workers
        active: List[int] = []
        for index in pending:
            if worker.satisfied(states[index], rule):
                record(index, states[index])
            else:
                active.append(index)
        ramp = {index: 1 for index in active}
        while active:
            tasks: List[Tuple[Tuple[int, int], PoolTask]] = []
            for index in active:
                start = int(worker.cursor(states[index]))
                per = self._shard_round_batches(worker, states[index],
                                                rule, ramp[index])
                for shard in range(n_shards):
                    low = start + shard * per
                    tasks.append((
                        (index, shard),
                        PoolTask(fn=_advance_shard, worker=worker,
                                 args=(plan[index].params,
                                       plan[index].seed_sequence,
                                       list(range(low, low + per))),
                                 broadcast_key=broadcast)))
            results: Dict[Tuple[int, int], List[Any]] = {}
            pool.execute(
                tasks,
                record=lambda task_id, value: results.__setitem__(task_id,
                                                                  value),
                error=lambda task_id, exc: error(task_id[0], exc))
            remaining: List[int] = []
            for index in active:
                deltas = [delta for shard in range(n_shards)
                          for delta in results[(index, shard)]]
                for delta in deltas:
                    if worker.satisfied(states[index], rule):
                        break
                    states[index] = worker.absorb(states[index], delta)
                record(index, states[index])
                if not worker.satisfied(states[index], rule):
                    ramp[index] = min(2 * ramp[index], 8)
                    remaining.append(index)
            active = remaining
