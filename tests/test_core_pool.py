"""Unit tests for the warm worker pool (``repro.core.pool``).

Covers the pool's own contracts in isolation from the sweep engine:
each worker spooled once and loaded once per process, batch failure
durability, fast-fail promptness, fork-safety, spool cleanup and
lifecycle reuse.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.core import pool as pool_module
from repro.core.pool import PoolTask, WorkerPool


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


def _scale_and_cache_size(worker, value):
    return worker["factor"] * value, len(pool_module._PROCESS_CACHE)


WORKER = {"payload": "shared-state", "factor": 3, "fail_at": 5}


def _tasks(fn, values, worker=WORKER):
    return [(value, PoolTask(fn=fn, worker=worker, args=(value,)))
            for value in values]


def _spooled(pool):
    """Names of the worker files in the pool's spool."""
    return sorted(os.listdir(pool._spool))


class TestBroadcast:
    def test_worker_shipped_once_per_generation(self):
        with WorkerPool(n_workers=1) as pool:
            results = {}
            tasks = [(tag, PoolTask(fn=_describe, worker=WORKER,
                                    args=(tag,)))
                     for tag in range(4)]
            pool.execute(tasks, record=results.__setitem__,
                         error=lambda _t, exc: exc)
            stats = pool.stats()
        # One generation, one spooled file, and every task resolved the
        # *same* process-local object (identical id in one process).
        assert stats["generation"] == 1
        assert stats["broadcasts"] == 1
        identities = {(pid, obj) for pid, obj, _, _ in results.values()}
        assert len(identities) == 1
        assert all(payload == "shared-state"
                   for _, _, payload, _ in results.values())

    def test_second_batch_with_live_key_is_all_hits(self):
        with WorkerPool(n_workers=1) as pool:
            results = {}
            pool.execute(_tasks(_scale, [1, 2]),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            first = pool.stats()
            pool.execute(_tasks(_scale, [3, 4]),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            second = pool.stats()
        # The first batch spools the worker (its tasks are not hits);
        # the second batch reuses the warm generation: no new file, no
        # new generation, every task a hit.
        assert first["broadcast_hits"] == 0
        assert second["generation"] == first["generation"] == 1
        assert second["broadcasts"] == 1
        assert second["broadcast_hits"] == 2
        assert results == {1: 3, 2: 6, 3: 9, 4: 12}

    def test_new_worker_keeps_the_generation(self):
        # A worker the pool has not seen is one more spool file; the
        # running processes load it on first use, so nothing re-forks.
        other = {"payload": "other", "factor": 10, "fail_at": -1}
        with WorkerPool(n_workers=1) as pool:
            results = {}
            pool.execute(_tasks(_scale, [1]), record=results.__setitem__,
                         error=lambda _t, exc: exc)
            pool.execute(_tasks(_scale, [2], worker=other),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            pool.execute(_tasks(_scale, [5]), record=results.__setitem__,
                         error=lambda _t, exc: exc)
            stats = pool.stats()
            assert len(_spooled(pool)) == 2
        assert stats["generation"] == 1
        assert stats["broadcasts"] == 2
        assert stats["broadcast_hits"] == 1
        assert results == {1: 3, 2: 20, 5: 15}

    def test_evicted_worker_reloads_from_the_spool(self, monkeypatch):
        # A one-entry process cache cannot hold both workers; each task
        # whose worker was evicted loads it from the spool again.
        other = {"payload": "other", "factor": 10, "fail_at": -1}
        monkeypatch.setattr(pool_module, "MAX_BROADCASTS", 1)
        with WorkerPool(n_workers=1) as pool:
            results = {}
            tasks = [(value, PoolTask(fn=_scale_and_cache_size,
                                      worker=WORKER if value % 2 else other,
                                      args=(value,)))
                     for value in range(1, 7)]
            pool.execute(tasks, record=results.__setitem__,
                         error=lambda _t, exc: exc)
            stats = pool.stats()
        assert results == {1: (3, 1), 2: (20, 1), 3: (9, 1), 4: (40, 1),
                           5: (15, 1), 6: (60, 1)}
        assert stats["generation"] == 1
        assert stats["broadcasts"] == 2

    def test_equal_bytes_share_one_file(self):
        # Two distinct objects that pickle alike are one spool file;
        # objects that pickle differently never share one.
        twin = dict(WORKER)
        other = {"payload": "other", "factor": 10, "fail_at": -1}
        with WorkerPool(n_workers=1) as pool:
            results = {}
            pool.execute(_tasks(_scale, [1]) + _tasks(_scale, [2], twin)
                         + _tasks(_scale, [3], other),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            assert len(_spooled(pool)) == 2
            assert pool.stats()["broadcasts"] == 2
        assert results == {1: 3, 2: 6, 3: 30}

    def test_deleted_spool_file_is_rewritten(self):
        # Fresh processes after an abort must read the worker from the
        # spool, so a file removed behind the pool's back is written
        # again rather than assumed present.
        with WorkerPool(n_workers=1) as pool:
            results = {}
            pool.execute(_tasks(_scale, [1]), record=results.__setitem__,
                         error=lambda _t, exc: exc)
            name, = _spooled(pool)
            os.unlink(os.path.join(pool._spool, name))
            pool._abort()
            pool.execute(_tasks(_scale, [2]), record=results.__setitem__,
                         error=lambda _t, exc: exc)
            assert _spooled(pool) == [name]
            stats = pool.stats()
        assert results == {1: 3, 2: 6}
        assert stats["generation"] == 2
        assert stats["broadcasts"] == 2
        assert stats["broadcast_hits"] == 0


class TestChunkedDispatch:
    def test_large_batch_is_correct(self):
        values = list(range(40))
        with WorkerPool(n_workers=2) as pool:
            results = {}
            pool.execute(_tasks(_scale, values),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            stats = pool.stats()
        assert results == {value: 3 * value for value in values}
        assert stats["tasks"] == 40
        assert stats["broadcasts"] == 1

    def test_mid_chunk_failure_records_completed_prefix(self):
        # 8 tasks on 1 worker run in order.  Task 5 fails; task 4's
        # value, completed just before it, must still be recorded
        # before the batch fails.
        with WorkerPool(n_workers=1) as pool:
            results = {}
            with pytest.raises(RuntimeError) as excinfo:
                pool.execute(
                    _tasks(_fail_at, list(range(8))),
                    record=results.__setitem__,
                    error=lambda task_id, exc: RuntimeError(
                        f"task {task_id} failed: {exc}"))
        assert "task 5 failed" in str(excinfo.value)
        assert "boom 5" in str(excinfo.value)
        assert results.get(4) == 4
        assert 5 not in results and set(results) <= {0, 1, 2, 3, 4}

    def test_run_one_reraises_the_original_exception(self):
        with WorkerPool(n_workers=1) as pool:
            task = PoolTask(fn=_fail, worker=WORKER, args=(7,))
            with pytest.raises(ValueError, match="boom 7"):
                pool.run_one(task)
            # A run_one failure does not sacrifice the pool: the next
            # task reuses the same generation.
            ok = PoolTask(fn=_scale, worker=WORKER, args=(2,))
            assert pool.run_one(ok) == 6
            assert pool.stats()["generation"] == 1

    def test_unpicklable_worker_fails_as_that_task(self):
        bad = {"payload": lambda: None}  # lambdas do not pickle
        with WorkerPool(n_workers=1) as pool:
            with pytest.raises(RuntimeError, match="task 9"):
                pool.execute(
                    [(9, PoolTask(fn=_describe, worker=bad, args=(0,)))],
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
            pool.execute(_tasks(_scale, [4]),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            assert results == {4: 12}
            assert pool.stats()["generation"] == 2


#: Runs a task on a pool that is never closed, after forking a child
#: that exits through the interpreter's normal shutdown; prints whether
#: the parent's spool survived the child's exit.
_UNCLOSED_POOL = """
import os, sys
from repro.core.pool import PoolTask, WorkerPool
pool = WorkerPool(1)
assert pool.run_one(PoolTask(fn=max, worker=2, args=(3,))) == 3
if {fork}:
    child = os.fork()
    if child == 0:
        sys.exit(0)
    os.waitpid(child, 0)
print(os.path.isdir(pool._spool))
"""


def _run_unclosed_pool(tmp_path, fork):
    """Run :data:`_UNCLOSED_POOL` with its temp dir under ``tmp_path``;
    returns its output and the spool directories it left behind."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, "-c", _UNCLOSED_POOL.format(fork=fork)],
        capture_output=True, text=True, env=env, check=True,
        timeout=120).stdout
    return output, sorted(path.name for path in tmp_path.iterdir()
                          if path.name.startswith("repro-pool-"))


class TestLifecycle:
    def test_close_between_bursts_then_lazy_recreate(self):
        pool = WorkerPool(n_workers=1)
        try:
            results = {}
            pool.execute(_tasks(_scale, [1]),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            spool = pool._spool
            pool.close()
            assert pool._executor is None
            assert not os.path.exists(spool)
            pool.execute(_tasks(_scale, [2]),
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
            pool.execute(_tasks(_scale, [1]),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            pool._pid = -1
            pool.execute(_tasks(_scale, [2]),
                         record=results.__setitem__,
                         error=lambda _t, exc: exc)
            assert results == {1: 3, 2: 6}
            assert pool.stats()["generation"] == 2
            assert pool._pid == os.getpid()

    def test_unclosed_pool_removes_its_spool_at_exit(self, tmp_path):
        output, left = _run_unclosed_pool(tmp_path, fork=False)
        assert output.split() == ["True"]
        assert left == []

    def test_forked_child_exit_keeps_the_parents_spool(self, tmp_path):
        # The child inherits the pool's finalizer; running it at the
        # child's exit must not delete the spool the parent still uses.
        output, left = _run_unclosed_pool(tmp_path, fork=True)
        assert output.split() == ["True"]
        assert left == []

    def test_rejects_invalid_worker_counts(self):
        with pytest.raises(ValueError):
            WorkerPool(n_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(n_workers=None)
