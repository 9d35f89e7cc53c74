"""Unit tests for the warm worker pool (``repro.core.pool``).

Covers the pool's own contracts in isolation from the sweep engine:
one-shot broadcast per generation, chunked dispatch, mid-chunk failure
durability, fast-fail promptness, fork-safety and lifecycle reuse.
"""

import os
import time

import pytest

from repro.core import pool as pool_module
from repro.core.pool import PoolTask, WorkerPool, broadcast_key_for


# ----------------------------------------------------------------------
# picklable module-level task functions (shipped to worker processes)
# ----------------------------------------------------------------------
def _describe(worker, tag):
    """Return enough to check which process ran us and which object."""
    return (os.getpid(), id(worker), worker["payload"], tag)


def _scale(worker, value):
    return worker["factor"] * value


def _fail(worker, value):
    raise ValueError(f"boom {value}")


def _fail_at(worker, value):
    if value == worker["fail_at"]:
        raise ValueError(f"boom {value}")
    return value


def _sleep_then(worker, seconds, value):
    time.sleep(seconds)
    return value


WORKER = {"payload": "shared-state", "factor": 3, "fail_at": 5}


def _tasks(fn, values, key=None, worker=WORKER):
    return [(value, PoolTask(fn=fn, worker=worker, args=(value,),
                             broadcast_key=key))
            for value in values]


class TestBroadcast:
    def test_worker_shipped_once_per_generation(self):
        with WorkerPool(n_workers=1) as pool:
            results = {}
            tasks = [(tag, PoolTask(fn=_describe, worker=WORKER,
                                    args=(tag,), broadcast_key="k"))
                     for tag in range(4)]
            pool.execute(tasks, record=results.__setitem__,
                         error=lambda _t, exc: exc)
            stats = pool.stats()
        # One generation, one key installation, and every task resolved
        # the *same* process-local object (identical id in one process).
        assert stats["generation"] == 1
        assert stats["broadcasts"] == 1
        assert stats["live_broadcasts"] == 1
        identities = {(pid, obj) for pid, obj, _, _ in results.values()}
        assert len(identities) == 1
        assert all(payload == "shared-state"
                   for _, _, payload, _ in results.values())

    def test_second_batch_with_live_key_is_all_hits(self):
        with WorkerPool(n_workers=1) as pool:
            results = {}
            pool.execute(_tasks(_scale, [1, 2], key="k"),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            first = pool.stats()
            pool.execute(_tasks(_scale, [3, 4], key="k"),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            second = pool.stats()
        # The first batch installs the key (its tasks are not hits); the
        # second batch reuses the warm generation: no new broadcast, no
        # new generation, every task a hit.
        assert first["broadcast_hits"] == 0
        assert second["generation"] == first["generation"] == 1
        assert second["broadcasts"] == 1
        assert second["broadcast_hits"] == 2
        assert results == {1: 3, 2: 6, 3: 9, 4: 12}

    def test_new_key_bumps_generation_and_keeps_old_key_live(self):
        other = {"payload": "other", "factor": 10, "fail_at": -1}
        with WorkerPool(n_workers=1) as pool:
            results = {}
            pool.execute(_tasks(_scale, [1], key="a"),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            pool.execute([(2, PoolTask(fn=_scale, worker=other,
                                       args=(2,), broadcast_key="b"))],
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            stats = pool.stats()
            # "a" survived the generation rollover (full retained set is
            # re-installed), so a third batch on "a" is a hit.
            pool.execute(_tasks(_scale, [5], key="a"),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            final = pool.stats()
        assert stats["generation"] == 2
        assert stats["broadcasts"] == 3  # gen1: {a}; gen2: {a, b}
        assert stats["live_broadcasts"] == 2
        assert final["generation"] == 2
        assert final["broadcast_hits"] == stats["broadcast_hits"] + 1
        assert results == {1: 3, 2: 20, 5: 15}

    def test_eviction_degrades_to_inline_shipping(self, monkeypatch):
        # A one-blob broadcast cache cannot hold both keys; the batch
        # still completes correctly (evicted key ships its worker inline).
        other = {"payload": "other", "factor": 10, "fail_at": -1}
        monkeypatch.setattr(pool_module, "MAX_BROADCASTS", 1)
        with WorkerPool(n_workers=1) as pool:
            results = {}
            tasks = _tasks(_scale, [1], key="a") + \
                [(2, PoolTask(fn=_scale, worker=other, args=(2,),
                              broadcast_key="b"))]
            pool.execute(tasks, record=results.__setitem__,
                         error=lambda _t, exc: exc)
            assert pool.stats()["live_broadcasts"] == 1
        assert results == {1: 3, 2: 20}

    def test_broadcast_key_for_matches_cache_equivalence(self):
        # Explicit keys hash their canonical form; unserializable keys
        # fall back to the worker-derived identity without raising.
        assert broadcast_key_for(WORKER, key={"scenario": "fig4"}) \
            == broadcast_key_for(WORKER, key={"scenario": "fig4"})
        assert broadcast_key_for(WORKER, key={"scenario": "fig4"}) \
            != broadcast_key_for(WORKER, key={"scenario": "fig7"})
        assert broadcast_key_for(WORKER, key=object()) \
            == broadcast_key_for(WORKER)


class TestChunkedDispatch:
    def test_large_batch_is_chunked_and_correct(self):
        values = list(range(40))
        with WorkerPool(n_workers=2) as pool:
            results = {}
            pool.execute(_tasks(_scale, values, key="k"),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            stats = pool.stats()
        assert results == {value: 3 * value for value in values}
        # 40 tasks / (2 workers * 4) = chunks of 5.
        assert stats["max_chunk_size"] == 5
        assert stats["chunks"] == 8

    def test_mid_chunk_failure_records_completed_prefix(self):
        # 8 tasks on 1 worker -> chunks of 2: [0,1] [2,3] [4,5] [6,7].
        # Task 5 fails mid-chunk; task 4's value (same chunk, earlier)
        # must still be recorded before the batch fails.
        with WorkerPool(n_workers=1) as pool:
            results = {}
            with pytest.raises(RuntimeError) as excinfo:
                pool.execute(
                    _tasks(_fail_at, list(range(8)), key="k"),
                    record=results.__setitem__,
                    error=lambda task_id, exc: RuntimeError(
                        f"task {task_id} failed: {exc}"))
        assert "task 5 failed" in str(excinfo.value)
        assert "boom 5" in str(excinfo.value)
        assert results.get(4) == 4
        assert 5 not in results and set(results) <= {0, 1, 2, 3, 4}

    def test_run_one_reraises_the_original_exception(self):
        with WorkerPool(n_workers=1) as pool:
            task = PoolTask(fn=_fail, worker=WORKER, args=(7,),
                            broadcast_key="k")
            with pytest.raises(ValueError, match="boom 7"):
                pool.run_one(task)
            # A run_one failure does not sacrifice the pool: the next
            # task reuses the same generation.
            ok = PoolTask(fn=_scale, worker=WORKER, args=(2,),
                          broadcast_key="k")
            assert pool.run_one(ok) == 6
            assert pool.stats()["generation"] == 1

    def test_unpicklable_worker_fails_as_that_task(self):
        bad = {"payload": lambda: None}  # lambdas do not pickle
        with WorkerPool(n_workers=1) as pool:
            with pytest.raises(RuntimeError, match="task 9"):
                pool.execute(
                    [(9, PoolTask(fn=_describe, worker=bad, args=(0,),
                                  broadcast_key="bad"))],
                    record=lambda *_: None,
                    error=lambda task_id, exc: RuntimeError(
                        f"task {task_id}: {exc}"))


class TestFastFail:
    def test_failure_aborts_without_draining_slow_tasks(self):
        # One immediate failure plus one 30 s sleeper: fail-fast must
        # terminate the sleeper's process instead of waiting it out.
        with WorkerPool(n_workers=2) as pool:
            tasks = [
                ("slow", PoolTask(fn=_sleep_then, worker=WORKER,
                                  args=(30.0, "done"))),
                ("bad", PoolTask(fn=_fail, worker=WORKER, args=(1,))),
            ]
            start = time.monotonic()
            with pytest.raises(ValueError, match="boom 1"):
                pool.execute(tasks, record=lambda *_: None,
                             error=lambda _t, exc: exc)
            elapsed = time.monotonic() - start
            assert elapsed < 15.0
            # The warm pool was sacrificed but lazily re-creates: the
            # next batch works and bumps the generation.
            results = {}
            pool.execute(_tasks(_scale, [4], key="k"),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            assert results == {4: 12}
            assert pool.stats()["generation"] == 2


class TestLifecycle:
    def test_close_between_bursts_then_lazy_recreate(self):
        pool = WorkerPool(n_workers=1)
        try:
            results = {}
            pool.execute(_tasks(_scale, [1], key="k"),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            pool.close()
            assert pool._executor is None
            pool.execute(_tasks(_scale, [2], key="k"),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            assert results == {1: 3, 2: 6}
            assert pool.stats()["generation"] == 2
        finally:
            pool.close()

    def test_forked_child_recreates_its_own_executor(self):
        # Simulate inheriting a pool handle across a fork by faking the
        # recorded parent pid; the next dispatch must drop the handle
        # and build a fresh generation instead of talking to the
        # "parent's" processes.
        with WorkerPool(n_workers=1) as pool:
            results = {}
            pool.execute(_tasks(_scale, [1], key="k"),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            pool._pid = -1
            pool.execute(_tasks(_scale, [2], key="k"),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            assert results == {1: 3, 2: 6}
            assert pool.stats()["generation"] == 2
            assert pool._pid == os.getpid()

    def test_rejects_invalid_worker_counts(self):
        with pytest.raises(ValueError):
            WorkerPool(n_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(n_workers=None)
