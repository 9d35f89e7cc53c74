"""The :class:`Scenario` object — a declarative, runnable experiment.

A scenario composes per-layer specs (:mod:`repro.scenarios.specs`) with a
parameter grid and a picklable worker, and executes through
:class:`repro.core.engine.SweepEngine`: every point receives an
independently spawned :class:`numpy.random.Generator`, integer seeds make
the whole run reproducible and cacheable, and ``n_workers`` fans points
out over processes.  The outcome is a structured
:class:`repro.scenarios.result.ScenarioResult`.

Runs are **content-addressed**: :meth:`Scenario.cache_key` derives the
sweep-engine cache identity from the spec dicts and the worker's frozen
state — not from Python object identity — so two equivalent scenarios
(same specs, same worker configuration) share cached points, including
across processes and days when executed against a
:class:`repro.core.store.DiskStore` (``Scenario.run(store=...)``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.engine import SweepEngine, SweepPointError
from repro.core.store import RunStore
from repro.scenarios.result import ScenarioResult
from repro.scenarios.specs import PrecisionSpec, SpecBase
from repro.utils.hashing import worker_cache_key
from repro.utils.rng import RngLike
from repro.utils.serialization import to_plain


class Scenario:
    """A named, declarative experiment over the paper's substrates.

    Parameters
    ----------
    name:
        Registry name (``"fig10"``, ``"tx-power-sweep"``, ...).
    artifact:
        Paper artifact label (``"Fig. 10"``) or ``"off-paper"``.
    summary:
        One-line human description.
    specs:
        Mapping of layer label to the :class:`~repro.scenarios.specs`
        dataclass describing it; recorded verbatim in every result.
    points:
        Parameter mappings, one per sweep point (values must be hashable).
    worker:
        Picklable ``worker(params, rng)`` returning a JSON-serializable
        value; typically a frozen dataclass holding the specs.  When
        ``precision`` is given the worker must instead expose the
        incremental-evaluation protocol of
        :meth:`repro.core.engine.SweepEngine.sweep_adaptive`.
    precision:
        Optional :class:`~repro.scenarios.specs.PrecisionSpec`: run every
        point adaptively until its relative-CI target is met, resuming
        from (and persisting) partial tallies in the engine's store.
        Recorded under the ``"precision"`` spec layer for provenance but
        excluded from :meth:`cache_key`, so precision targets share
        cached tallies (a tighter target is a cache upgrade).
    """

    def __init__(self, name: str, artifact: str, summary: str,
                 specs: Mapping[str, SpecBase],
                 points: Sequence[Mapping[str, Any]],
                 worker: Callable[[Mapping[str, Any], np.random.Generator],
                                  Any],
                 precision: Optional[PrecisionSpec] = None) -> None:
        if not points:
            raise ValueError(f"scenario {name!r} has no sweep points")
        self.name = str(name)
        self.artifact = str(artifact)
        self.summary = str(summary)
        self.specs = dict(specs)
        self.points: List[Dict[str, Any]] = [dict(point) for point in points]
        self.worker = worker
        self.precision = precision
        if precision is not None:
            for method in ("decode", "encode", "satisfied", "advance",
                           "progress", "finalize"):
                if not callable(getattr(worker, method, None)):
                    raise ValueError(
                        f"scenario {name!r} has a precision spec but its "
                        f"worker lacks the incremental-evaluation method "
                        f"{method!r}")
            self.specs.setdefault("precision", precision)

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Machine-readable description (specs, axes, point count)."""
        axes: Dict[str, List[Any]] = {}
        for point in self.points:
            for key, value in point.items():
                bucket = axes.setdefault(key, [])
                if value not in bucket:
                    bucket.append(value)
        return {
            "scenario": self.name,
            "artifact": self.artifact,
            "summary": self.summary,
            "specs": {layer: {"spec_type": type(spec).__name__,
                              **to_plain(spec.to_dict())}
                      for layer, spec in self.specs.items()},
            "n_points": len(self.points),
            "axes": to_plain(axes),
        }

    # ------------------------------------------------------------------
    def cache_key(self) -> Dict[str, Any]:
        """Content identity of this scenario's computation.

        Derived from the spec dicts and the worker's frozen state — the
        registry *name* is deliberately excluded, so two scenarios that
        describe the same computation share cached points no matter what
        they are called, which process built them, or when they ran.
        :class:`~repro.scenarios.specs.PrecisionSpec` layers are excluded
        too: precision describes how *well* to measure, not *what* —
        stored tallies must be shared (and upgraded) across precision
        targets rather than recomputed per target.  Specs enter through
        :meth:`~repro.scenarios.specs.SpecBase.cache_dict` (not
        ``to_dict``), so reference fields — e.g. a measured-channel
        dataset path — are canonicalized to content before hashing.
        """
        return {
            "specs": {layer: {"spec_type": type(spec).__name__,
                              **spec.cache_dict()}
                      for layer, spec in self.specs.items()
                      if not isinstance(spec, PrecisionSpec)},
            "worker": worker_cache_key(self.worker),
        }

    # ------------------------------------------------------------------
    def run(self, rng: RngLike = None, n_workers: Optional[int] = None,
            engine: Optional[SweepEngine] = None,
            store: Optional[RunStore] = None) -> ScenarioResult:
        """Execute every point through a sweep engine.

        Parameters
        ----------
        rng:
            Root randomness — ``None`` for fresh entropy, an ``int`` seed
            for a reproducible (and cacheable) run, or a generator.
        n_workers:
            Worker processes for the engine (ignored when ``engine`` is
            given); ``None``/1 evaluates serially.
        engine:
            Optional shared :class:`SweepEngine`, e.g. to reuse its
            store across scenarios.  It stays open; an engine the call
            creates itself is closed (its worker processes released)
            before the call returns.
        store:
            Optional :class:`repro.core.store.RunStore` for the engine
            (ignored when ``engine`` is given) — pass a
            :class:`~repro.core.store.DiskStore` so a warm re-run in a
            new process serves every point from disk.
        """
        owned = engine is None
        if owned:
            engine = SweepEngine(n_workers=n_workers, store=store)
        started = time.perf_counter()
        try:
            if self.precision is not None:
                outcomes = engine.sweep_adaptive(
                    self.worker, self.points, self.precision.stopping_rule(),
                    rng=rng, key=self.cache_key())
            else:
                outcomes = engine.sweep(self.worker, self.points, rng=rng,
                                        key=self.cache_key())
        except SweepPointError as error:
            # Attribute the failure to this scenario (the engine only
            # knows params); keep the original worker exception chained.
            raise error.with_scenario(self.name) from error.__cause__
        finally:
            if owned:
                engine.close()
        elapsed_s = time.perf_counter() - started
        points = tuple(
            {"params": to_plain(outcome.params),
             "value": to_plain(outcome.value),
             "spawn_key": list(outcome.spawn_key)}
            for outcome in outcomes)
        # describe(), not info(): a full DiskStore walk per run would
        # cost O(store size) just to fill a diagnostic block.
        return self.assemble_result(
            seed=rng if isinstance(rng, (int, np.integer)) else None,
            points=points,
            from_cache=[bool(outcome.from_cache) for outcome in outcomes],
            elapsed_s=elapsed_s, store_info=engine.store.describe(),
            adaptive=[outcome.adaptive for outcome in outcomes]
            if self.precision is not None else None)

    # ------------------------------------------------------------------
    def assemble_result(self, seed: Optional[int],
                        points: Sequence[Dict[str, Any]],
                        from_cache: Sequence[bool],
                        elapsed_s: Optional[float] = None,
                        store_info: Optional[Dict[str, Any]] = None,
                        adaptive: Optional[Sequence[Optional[
                            Dict[str, Any]]]] = None) -> ScenarioResult:
        """Build the :class:`ScenarioResult` for already-evaluated points.

        The one place the result/execution schema is defined — used by
        :meth:`run` and by the campaign runner, so ``repro run`` and
        ``repro run-all`` can never drift apart.  ``elapsed_s`` is
        ``None`` for campaign entries (per-entry wall time is
        meaningless under interleaved execution).  ``adaptive`` carries
        the per-point precision provenance of an adaptive run (resumed /
        new / total codewords); like cache provenance it lives in the
        ``execution`` block, outside the deterministic payload — how much
        of a tally was resumed depends on store warmth, not on what was
        measured.
        """
        import repro  # local import: repro.__init__ imports this package

        from_cache = [bool(flag) for flag in from_cache]
        execution = {
            "from_cache": from_cache,
            "cache_hits": sum(from_cache),
            "cache_misses": len(from_cache) - sum(from_cache),
            "elapsed_s": elapsed_s,
            "store": store_info,
        }
        if self.precision is not None and adaptive is not None:
            per_point = [dict(entry) if entry else None
                         for entry in adaptive]
            totals = [entry for entry in per_point if entry]
            execution["precision"] = {
                "spec": to_plain(self.precision.to_dict()),
                "resumed_codewords": sum(entry["resumed_units"]
                                         for entry in totals),
                "new_codewords": sum(entry["new_units"]
                                     for entry in totals),
                "total_codewords": sum(entry["total_units"]
                                       for entry in totals),
                "all_satisfied": all(entry["satisfied"]
                                     for entry in totals),
                "per_point": per_point,
            }
        return ScenarioResult(
            name=self.name, artifact=self.artifact, summary=self.summary,
            specs=dict(self.specs),
            seed=int(seed) if seed is not None else None,
            version=repro.__version__, points=tuple(points),
            execution=execution)
