"""Tests for the Monte-Carlo sweep engine (repro.core.engine)."""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.engine import (
    SweepEngine,
    SweepOutcome,
    SweepPointError,
    parameter_grid,
)
from repro.core.store import DiskStore, MemoryStore
from repro.utils.rng import ensure_seed_sequence, spawn_generators


def _draw(params, rng):
    """Toy stochastic worker: one uniform draw scaled by a parameter."""
    return params["scale"] * float(rng.random())


def _failing(params, rng):
    raise RuntimeError("boom")


def _failing_at_three(params, rng):
    if params["scale"] == 3.0:
        raise ValueError("bad point")
    return _draw(params, rng)


class TestParameterGrid:
    def test_cartesian_product_order(self):
        grid = parameter_grid(n=(25, 40), window=(3, 5))
        assert grid == [
            {"n": 25, "window": 3}, {"n": 25, "window": 5},
            {"n": 40, "window": 3}, {"n": 40, "window": 5},
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            parameter_grid()
        with pytest.raises(ValueError):
            parameter_grid(n=())


class TestSeeding:
    def test_integer_seed_is_reproducible(self):
        engine = SweepEngine(cache=False)
        points = parameter_grid(scale=(1.0, 2.0, 3.0))
        first = engine.sweep_values(_draw, points, rng=42)
        second = engine.sweep_values(_draw, points, rng=42)
        assert first == second

    def test_points_are_independent_of_grid_shape(self):
        # Child generators are spawned by point index, so a leading
        # sub-grid reproduces the full grid's leading values.
        engine = SweepEngine(cache=False)
        full = engine.sweep_values(_draw, parameter_grid(scale=(1.0, 2.0)),
                                   rng=7)
        sub = engine.sweep_values(_draw, parameter_grid(scale=(1.0,)), rng=7)
        assert sub[0] == full[0]

    def test_default_rng_draws_fresh_entropy(self):
        engine = SweepEngine(cache=False)
        points = parameter_grid(scale=(1.0,))
        assert engine.sweep_values(_draw, points) != \
            engine.sweep_values(_draw, points)

    def test_spawn_key_recorded(self):
        engine = SweepEngine()
        outcomes = engine.sweep(_draw, parameter_grid(scale=(1.0, 2.0)),
                                rng=3)
        assert [outcome.spawn_key for outcome in outcomes] == [(0,), (1,)]
        assert all(isinstance(outcome, SweepOutcome)
                   for outcome in outcomes)

    def test_generator_input_accepted(self):
        engine = SweepEngine(cache=False)
        generator = np.random.default_rng(11)
        values = engine.sweep_values(_draw, parameter_grid(scale=(1.0,)),
                                     rng=generator)
        assert 0.0 <= values[0] <= 1.0


class TestCaching:
    def test_same_seed_hits_cache(self):
        engine = SweepEngine()
        points = parameter_grid(scale=(1.0, 2.0))
        first = engine.sweep(_draw, points, rng=5)
        second = engine.sweep(_draw, points, rng=5)
        assert [outcome.from_cache for outcome in first] == [False, False]
        assert [outcome.from_cache for outcome in second] == [True, True]
        assert [o.value for o in first] == [o.value for o in second]
        info = engine.cache_info()
        assert info["entries"] == 2
        assert info["hits"] == 2
        assert info["misses"] == 2

    def test_different_seeds_do_not_collide(self):
        engine = SweepEngine()
        points = parameter_grid(scale=(1.0,))
        first = engine.sweep(_draw, points, rng=1)
        second = engine.sweep(_draw, points, rng=2)
        assert not second[0].from_cache
        assert first[0].value != second[0].value

    def test_explicit_key_shares_cache_between_workers(self):
        engine = SweepEngine()
        points = parameter_grid(scale=(2.0,))

        def other_worker(params, rng):  # same signature, same key
            return _draw(params, rng)

        first = engine.sweep(_draw, points, rng=4, key="shared")
        second = engine.sweep(other_worker, points, rng=4, key="shared")
        assert second[0].from_cache
        assert first[0].value == second[0].value

    def test_unseeded_sweeps_do_not_grow_the_cache(self):
        # With rng=None (or a generator) the root entropy is fresh every
        # call, so entries could never be hit again — the engine must not
        # store them at all.
        engine = SweepEngine()
        points = parameter_grid(scale=(1.0, 2.0))
        engine.sweep(_draw, points)
        engine.sweep(_draw, points, rng=np.random.default_rng(3))
        assert engine.cache_info()["entries"] == 0
        assert engine.cache_info()["hits"] == 0

    def test_outcome_params_are_a_defensive_copy(self):
        # Mutating an outcome's params must corrupt neither the caller's
        # grid nor the engine's cached results on a re-run.
        engine = SweepEngine()
        points = parameter_grid(scale=(1.0, 2.0))
        first = engine.sweep(_draw, points, rng=9)
        first[0].params["scale"] = 999.0
        first[1].params.clear()
        assert points == [{"scale": 1.0}, {"scale": 2.0}]
        second = engine.sweep(_draw, points, rng=9)
        assert [outcome.from_cache for outcome in second] == [True, True]
        assert [outcome.params for outcome in second] == points
        assert [o.value for o in second] == \
            SweepEngine(cache=False).sweep_values(_draw, points, rng=9)

    def test_outcome_to_dict_is_json_serializable(self):
        import json

        engine = SweepEngine()

        def numpy_worker(params, rng):
            return {"scale": np.float64(params["scale"]),
                    "draws": np.arange(2)}

        outcome = engine.sweep(numpy_worker, parameter_grid(scale=(2.0,)),
                               rng=1)[0]
        payload = json.loads(json.dumps(outcome.to_dict()))
        assert payload["params"] == {"scale": 2.0}
        assert payload["value"] == {"scale": 2.0, "draws": [0, 1]}
        assert payload["spawn_key"] == [0]
        assert payload["from_cache"] is False

    def test_cache_can_be_disabled_and_cleared(self):
        engine = SweepEngine(cache=False)
        points = parameter_grid(scale=(1.0,))
        engine.sweep(_draw, points, rng=6)
        assert engine.cache_info()["entries"] == 0
        enabled = SweepEngine()
        enabled.sweep(_draw, points, rng=6)
        assert enabled.cache_info()["entries"] == 1
        enabled.clear_cache()
        assert enabled.cache_info()["entries"] == 0


class TestSharedStore:
    def test_equivalent_workers_share_results_across_engines(self):
        # Content-addressed keys: a different engine with the same store
        # and the same (module-level) worker serves from the store — no
        # shared Python objects required.
        store = MemoryStore()
        points = parameter_grid(scale=(1.0, 2.0))
        first = SweepEngine(store=store).sweep(_draw, points, rng=5)
        second = SweepEngine(store=store).sweep(_draw, points, rng=5)
        assert [outcome.from_cache for outcome in second] == [True, True]
        assert [o.value for o in first] == [o.value for o in second]

    def test_disk_store_roundtrip_between_engines(self, tmp_path):
        # run -> fresh engine on a reopened store -> all points served.
        root = str(tmp_path / "store")
        points = parameter_grid(scale=(1.0, 2.0, 3.0))
        cold = SweepEngine(store=DiskStore(root)).sweep_values(
            _draw, points, rng=5)
        warm_engine = SweepEngine(store=DiskStore(root))
        warm = warm_engine.sweep(_draw, points, rng=5)
        assert [outcome.from_cache for outcome in warm] == [True] * 3
        assert [outcome.value for outcome in warm] == cold
        assert warm_engine.cache_info() == {"entries": 3, "hits": 3,
                                            "misses": 0}

    def test_unseeded_sweeps_never_touch_the_store(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        SweepEngine(store=store).sweep(_draw, parameter_grid(scale=(1.0,)))
        assert len(store) == 0

    def test_points_are_stored_as_they_complete(self):
        # Durability for interrupted runs: by the time a later point
        # fails, every earlier completed point is already in the store.
        store = MemoryStore()
        engine = SweepEngine(store=store)
        points = parameter_grid(scale=(1.0, 2.0, 3.0))
        with pytest.raises(SweepPointError) as excinfo:
            engine.sweep(_failing_at_three, points, rng=5)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert len(store) == 2
        resumed = engine.sweep(_failing_at_three, points[:2], rng=5)
        assert [outcome.from_cache for outcome in resumed] == [True, True]

    def test_unrepresentable_params_run_uncached(self):
        # Param values canonical JSON cannot express must not crash the
        # sweep — the point simply runs without a store key.
        class Mode:
            pass

        store = MemoryStore()
        engine = SweepEngine(store=store)

        def worker(params, rng):
            return 1.0

        outcomes = engine.sweep(worker, [{"mode": Mode()}], rng=0)
        assert outcomes[0].value == 1.0
        assert not outcomes[0].from_cache
        assert len(store) == 0

    def test_disk_store_values_have_identical_shape_cold_and_warm(
            self, tmp_path):
        # The store round-trip (tuples -> lists, int dict keys -> str)
        # must apply to the COLD run too, so code consuming
        # outcome.value behaves the same on both runs.
        def worker(params, rng):
            return {"curve": (1.0, 2.0), "windows": {9: 75.0, 10: 100.0}}

        root = str(tmp_path / "store")
        cold = SweepEngine(store=DiskStore(root)).sweep(
            worker, [{"x": 1}], rng=0)
        warm = SweepEngine(store=DiskStore(root)).sweep(
            worker, [{"x": 1}], rng=0)
        assert warm[0].from_cache
        assert cold[0].value == warm[0].value == \
            {"curve": [1.0, 2.0], "windows": {"9": 75.0, "10": 100.0}}

    def test_entry_vanishing_mid_sweep_recomputes_instead_of_crashing(
            self):
        # Race with `cache clear` from another process: a point judged
        # warm at planning time whose entry is gone by read time must be
        # recomputed, not abort the sweep with KeyError.
        class VanishingStore(MemoryStore):
            def __contains__(self, key):
                return True  # claims every point is already stored

        store = VanishingStore()
        outcomes = SweepEngine(store=store).sweep(
            _draw, parameter_grid(scale=(1.0, 2.0)), rng=5)
        reference = SweepEngine(cache=False).sweep_values(
            _draw, parameter_grid(scale=(1.0, 2.0)), rng=5)
        assert [outcome.value for outcome in outcomes] == reference
        assert [outcome.from_cache for outcome in outcomes] == [False,
                                                                False]
        assert len(store) == 2  # recomputed points were stored after all

    def test_unstorable_value_degrades_to_uncached(self, tmp_path):
        # A value the DiskStore cannot serialize must not read as a
        # worker failure — the point runs and simply stays uncached.
        def worker(params, rng):
            return {"mixed": 1, 2: "keys"}  # unsortable for json.dumps

        store = DiskStore(str(tmp_path / "store"))
        outcomes = SweepEngine(store=store).sweep(worker, [{"x": 1}],
                                                  rng=0)
        assert outcomes[0].value == {"mixed": 1, 2: "keys"}
        assert len(store) == 0


class TestParallelism:
    def test_process_pool_matches_serial(self):
        # Workers must be picklable for the process path; module-level
        # functions are.  Results must be identical to the serial path
        # because seeding is per point, not per worker process.
        points = parameter_grid(scale=(1.0, 2.0, 3.0, 4.0))
        serial = SweepEngine().sweep_values(_draw, points, rng=8)
        parallel = SweepEngine(n_workers=2).sweep_values(_draw, points,
                                                         rng=8)
        assert serial == parallel

    def test_worker_errors_propagate(self):
        with pytest.raises(RuntimeError):
            SweepEngine().sweep(_failing, parameter_grid(scale=(1.0,)))

    def test_pool_failure_names_the_failing_point(self):
        # The pool path must not hang collecting remaining futures: the
        # first exception cancels outstanding work and surfaces as a
        # SweepPointError carrying the failing params.
        points = parameter_grid(scale=(1.0, 2.0, 3.0, 4.0))
        engine = SweepEngine(n_workers=2, cache=False)
        with pytest.raises(SweepPointError) as excinfo:
            engine.sweep(_failing_at_three, points, rng=8)
        assert excinfo.value.params == {"scale": 3.0}
        assert "'scale': 3.0" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_pool_engine_wraps_even_a_single_pending_point(self):
        # Regression: n_workers > 1 with one remaining point must honour
        # the same SweepPointError contract as a full pool run.
        store = MemoryStore()
        engine = SweepEngine(n_workers=2, store=store)
        good = parameter_grid(scale=(1.0, 2.0))
        engine.sweep(_failing_at_three, good, rng=8)  # warm the store
        with pytest.raises(SweepPointError) as excinfo:
            engine.sweep(_failing_at_three,
                         parameter_grid(scale=(1.0, 2.0, 3.0)), rng=8)
        assert excinfo.value.params == {"scale": 3.0}

    def test_pool_serves_warm_points_from_disk_store(self, tmp_path):
        root = str(tmp_path / "store")
        points = parameter_grid(scale=(1.0, 2.0, 3.0, 4.0))
        cold = SweepEngine(n_workers=2, store=DiskStore(root)).sweep_values(
            _draw, points, rng=8)
        warm = SweepEngine(n_workers=2, store=DiskStore(root)).sweep(
            _draw, points, rng=8)
        assert [outcome.from_cache for outcome in warm] == [True] * 4
        assert [outcome.value for outcome in warm] == cold
        assert cold == SweepEngine(cache=False).sweep_values(_draw, points,
                                                             rng=8)

    def test_n_workers_validation(self):
        with pytest.raises(ValueError):
            SweepEngine(n_workers=0)


def _slow_or_fail(params, rng):
    if params["scale"] == 1.0:
        time.sleep(30.0)
        return 0.0
    raise ValueError("early failure")


@dataclass(frozen=True)
class _Offset:
    """A frozen-dataclass worker whose state shows in every value."""

    offset: int

    def __call__(self, params, rng):
        return self.offset + params["i"]


class TestWarmDispatch:
    def test_early_failure_is_not_masked_by_a_slow_point(self):
        # Regression: a failure in a pool-dispatched sweep used to
        # surface only after every in-flight point drained.  With one
        # 30 s point and one immediately-failing point, the
        # SweepPointError must arrive promptly and name the failure.
        engine = SweepEngine(n_workers=2, cache=False)
        start = time.monotonic()
        with pytest.raises(SweepPointError) as excinfo:
            engine.sweep(_slow_or_fail,
                         parameter_grid(scale=(1.0, 2.0)), rng=8)
        assert time.monotonic() - start < 15.0
        assert excinfo.value.params == {"scale": 2.0}
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_repeat_sweeps_reuse_one_pool_generation(self):
        points = parameter_grid(scale=(1.0, 2.0, 3.0, 4.0))
        with SweepEngine(n_workers=2, cache=False) as engine:
            first = engine.sweep_values(_draw, points, rng=8)
            after_first = engine.dispatch_stats()
            second = engine.sweep_values(_draw, points, rng=8)
            after_second = engine.dispatch_stats()
        # Warm dispatch must be invisible in the results: both sweeps
        # (and a fresh engine) agree bit-for-bit.
        assert first == second
        assert first == SweepEngine(cache=False).sweep_values(_draw,
                                                              points, rng=8)
        # ... and visible in the stats: one worker broadcast, one
        # executor generation, with the second sweep all hits.
        assert after_first["generation"] == 1
        assert after_first["broadcasts"] == 1
        assert after_second["generation"] == 1
        assert after_second["broadcast_hits"] \
            == after_first["broadcast_hits"] + len(points)

    def test_distinct_workers_under_one_key_are_not_aliased(self):
        # An explicit cache key names results, not the worker that
        # computes them: with caching off, a pooled sweep must run each
        # worker it is given, exactly as a serial sweep does.
        points = parameter_grid(i=(0, 1, 2, 3))
        workers = (_Offset(0), _Offset(100))
        with SweepEngine(n_workers=2, cache=False) as engine:
            pooled = [engine.sweep_values(worker, points, rng=8,
                                          key="shared")
                      for worker in workers]
        serial = [SweepEngine(cache=False).sweep_values(
            worker, points, rng=8, key="shared") for worker in workers]
        assert serial == [[0, 1, 2, 3], [100, 101, 102, 103]]
        assert pooled == serial

    def test_close_then_sweep_recreates_the_pool(self):
        points = parameter_grid(scale=(1.0, 2.0))
        engine = SweepEngine(n_workers=2, cache=False)
        try:
            first = engine.sweep_values(_draw, points, rng=8)
            engine.close()
            second = engine.sweep_values(_draw, points, rng=8)
            assert first == second
            assert engine.dispatch_stats()["generation"] == 2
        finally:
            engine.close()

    def test_serial_engine_has_no_dispatch_stats(self):
        engine = SweepEngine()
        engine.sweep_values(_draw, parameter_grid(scale=(1.0,)), rng=8)
        assert engine.dispatch_stats() is None


class TestRngHelpers:
    def test_ensure_seed_sequence_types(self):
        assert ensure_seed_sequence(3).entropy == 3
        assert isinstance(ensure_seed_sequence(None),
                          np.random.SeedSequence)
        from_generator = ensure_seed_sequence(np.random.default_rng(0))
        assert isinstance(from_generator, np.random.SeedSequence)
        with pytest.raises(TypeError):
            ensure_seed_sequence("seed")

    def test_spawn_generators(self):
        first, second = spawn_generators(12, 2)
        assert first.random() != second.random()
        again_first, _ = spawn_generators(12, 2)
        # Same root seed -> same children.
        assert again_first.random() == np.random.default_rng(
            np.random.SeedSequence(12).spawn(2)[0]).random()
        with pytest.raises(ValueError):
            spawn_generators(0, -1)
