"""Tests for the campaign service scheduler (repro.service.daemon).

The service is driven fully in-process (``processes=False``: points are
evaluated inline in the dispatcher threads), so these tests can gate
worker execution on :class:`threading.Event` objects to pin down the
interleavings that matter — coalescing while a twin is in flight,
interactive-over-bulk priority, drain-on-shutdown.
"""

import contextlib
import errno
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

import numpy as np
import pytest

import repro
from repro.coding.ber import batch_seed_sequence
from repro.core.store import DiskStore, MemoryStore
from repro.scenarios import PrecisionSpec, Scenario, build_scenario
from repro.service import (MAX_FINISHED_JOBS, CampaignService, JobEvicted,
                           ServiceUnavailable, StoreFailure, parse_request)

#: Gates the inline workers block on, keyed by the ``gate`` param value.
_EVENTS: Dict[str, threading.Event] = {}
#: Evaluation order log (single list: appends are atomic under the GIL,
#: and the ordering tests run with one dispatcher thread anyway).
_LOG: List[Any] = []


def _gate(name: str) -> threading.Event:
    return _EVENTS.setdefault(name, threading.Event())


def _gated_worker(params: Mapping[str, Any], rng: np.random.Generator):
    gate = params.get("gate")
    if gate:
        _gate(gate).wait(timeout=30)
    _LOG.append(params["x"])
    return {"y": params["x"] * 2}


def _gated_boom(params: Mapping[str, Any], rng: np.random.Generator):
    gate = params.get("gate")
    if gate:
        _gate(gate).wait(timeout=30)
    raise RuntimeError("kaboom")


def _gated_boom_if_asked(params: Mapping[str, Any],
                         rng: np.random.Generator):
    if params.get("boom"):
        _gated_boom(params, rng)
    return _gated_worker(params, rng)


def _returns_none(params: Mapping[str, Any], rng: np.random.Generator):
    return None


def _boom_at_one(params: Mapping[str, Any], rng: np.random.Generator):
    if params["x"] == 1:
        raise RuntimeError("kaboom")
    return {"y": params["x"] * 2}


@dataclass(frozen=True)
class GatedCoin:
    """Minimal incremental worker; ``gate`` params block ``advance``."""

    batch: int = 16

    def decode(self, stored) -> Dict[str, int]:
        if stored is None:
            return {"n": 0, "k": 0, "units": 0, "batches": 0}
        return {key: int(stored[key]) for key in ("n", "k", "units",
                                                  "batches")}

    def encode(self, state) -> Dict[str, int]:
        return dict(state)

    def satisfied(self, state, rule) -> bool:
        return rule.satisfied(state["k"], state["n"], state["units"])

    def advance(self, params: Mapping[str, Any], state, seed_sequence,
                rule):
        gate = params.get("gate")
        if gate:
            _gate(gate).wait(timeout=30)
        state = dict(state)
        while not self.satisfied(state, rule):
            child = batch_seed_sequence(seed_sequence, state["batches"])
            draws = np.random.default_rng(child).random(self.batch)
            state["k"] += int(np.count_nonzero(draws < params["p"]))
            state["n"] += self.batch
            state["units"] += self.batch
            state["batches"] += 1
        return state

    def progress(self, state) -> int:
        return int(state["units"])

    def finalize(self, params: Mapping[str, Any], state) -> Dict[str, Any]:
        return {"estimate": state["k"] / state["n"] if state["n"] else 0.0}


def _scenario(points, name="svc-test", worker=_gated_worker,
              precision=None) -> Scenario:
    return Scenario(name, "off-paper", "service test scenario",
                    specs={}, points=points, worker=worker,
                    precision=precision)


def _coin_scenario(precision, points=({"p": 0.4}, {"p": 0.1})) -> Scenario:
    return _scenario(list(points), name="svc-coin", worker=GatedCoin(),
                     precision=precision)


@pytest.fixture(autouse=True)
def _clean_gates():
    _EVENTS.clear()
    _LOG.clear()
    yield
    for event in _EVENTS.values():
        event.set()


@contextlib.contextmanager
def _service(**kwargs):
    kwargs.setdefault("processes", False)
    service = CampaignService(**kwargs)
    try:
        yield service
    finally:
        for event in _EVENTS.values():
            event.set()
        service.shutdown()


def _spin_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


class TestAdmission:
    def test_cold_submission_computes_every_point(self):
        with _service(n_workers=2) as service:
            job = service.submit_scenario(_scenario([{"x": 1}, {"x": 2}]))
            done = service.wait(job["job_id"], timeout=30)
        assert done["status"] == "done"
        assert done["computed"] == 2
        assert done["hits"] == done["coalesced"] == 0
        values = {point["params"]["x"]: point["value"]["y"]
                  for point in done["points"]}
        assert values == {1: 2, 2: 4}

    def test_warm_resubmission_is_all_hits_and_byte_identical(self):
        store = MemoryStore()
        with _service(store=store, n_workers=2) as service:
            cold = service.submit_scenario(_scenario([{"x": 1}, {"x": 2}]),
                                           seed=3)
            service.wait(cold["job_id"], timeout=30)
            warm = service.submit_scenario(_scenario([{"x": 1}, {"x": 2}]),
                                           seed=3)
            # Born done: never touched the queue, zero new computations.
            assert warm["status"] == "done"
            assert warm["hits"] == 2 and warm["computed"] == 0
            assert service.result_json(warm["job_id"]) \
                == service.result_json(cold["job_id"])

    def test_stored_none_is_a_hit_like_any_value(self):
        # A worker may legitimately return None: once stored, the entry
        # is served like any other value, as Scenario.run serves it.
        store = MemoryStore()
        points = [{"x": 1}, {"x": 2}]
        with _service(store=store, n_workers=2) as service:
            cold = service.submit_scenario(
                _scenario(points, worker=_returns_none), seed=3)
            assert service.wait(cold["job_id"], timeout=30)["computed"] == 2
            warm = service.submit_scenario(
                _scenario(points, worker=_returns_none), seed=3)
            assert warm["status"] == "done"
            assert warm["hits"] == 2 and warm["computed"] == 0
            assert service.result_json(warm["job_id"]) \
                == service.result_json(cold["job_id"])
        local = _scenario(points, worker=_returns_none).run(rng=3,
                                                             store=store)
        assert local.execution["cache_hits"] == 2

    def test_service_result_matches_local_run(self):
        store = MemoryStore()
        with _service(store=store, n_workers=2) as service:
            job = service.submit_scenario(_scenario([{"x": 1}, {"x": 2}]),
                                          seed=7)
            service.wait(job["job_id"], timeout=30)
            served = service.result_json(job["job_id"])
        local = _scenario([{"x": 1}, {"x": 2}]).run(
            rng=7, store=MemoryStore()).to_json()
        assert served == local

    def test_unknown_job_raises_keyerror(self):
        with _service(n_workers=1) as service:
            with pytest.raises(KeyError):
                service.job("job-999999")

    def test_result_of_unfinished_job_is_a_conflict(self):
        with _service(n_workers=1) as service:
            job = service.submit_scenario(
                _scenario([{"x": 1, "gate": "hold"}]))
            with pytest.raises(RuntimeError, match="not done"):
                service.result_json(job["job_id"])
            _gate("hold").set()
            service.wait(job["job_id"], timeout=30)

    def test_wait_times_out_on_a_stuck_job(self):
        with _service(n_workers=1) as service:
            job = service.submit_scenario(
                _scenario([{"x": 1, "gate": "stuck"}]))
            with pytest.raises(TimeoutError):
                service.wait(job["job_id"], timeout=0.05)
            _gate("stuck").set()


class FlakyStore(MemoryStore):
    """A :class:`MemoryStore` whose ``in`` raises ``OSError`` from its
    ``fail_from``-th lookup on, until :meth:`heal` is called."""

    def __init__(self, fail_from: Optional[int] = 1) -> None:
        super().__init__()
        self.lookups = 0
        self.fail_from = fail_from

    def heal(self) -> None:
        self.fail_from = None

    def __contains__(self, key: str) -> bool:
        self.lookups += 1
        if self.fail_from is not None and self.lookups >= self.fail_from:
            raise OSError(errno.EIO, "injected store failure")
        return super().__contains__(key)


class TestAdmissionFailure:
    """A store error while a job is admitted admits nothing: no job, no
    job id, no in-flight computation, no hit counted."""

    @pytest.mark.parametrize("fail_from", [1, 2],
                             ids=["first-point", "second-point"])
    def test_a_store_error_admits_nothing(self, fail_from):
        store = FlakyStore(fail_from)
        with _service(store=store, n_workers=1) as service:
            with pytest.raises(StoreFailure, match="OSError") as caught:
                service.submit_scenario(build_scenario("fig8a"), seed=3)
            assert isinstance(caught.value.__cause__, OSError)
            stats = service.stats()
            assert stats["jobs"] == {"queued": 0, "running": 0, "done": 0,
                                     "failed": 0, "cancelled": 0}
            assert stats["in_flight_keys"] == 0
            assert stats["queue_depth"] == 0
            assert stats["points"]["store_hits"] == 0
            # The failed admission took no job id.
            with pytest.raises(KeyError) as unknown:
                service.job("job-000001")
            assert not isinstance(unknown.value, JobEvicted)
            # An identical submission is not stranded behind a twin of
            # the failed one: it computes and matches Scenario.run.
            store.heal()
            job = service.submit_scenario(build_scenario("fig8a"), seed=3)
            assert job["job_id"] == "job-000001"
            done = service.wait(job["job_id"], timeout=60)
            assert done["status"] == "done"
            assert done["computed"] == done["n_points"]
            served = service.result_json(job["job_id"])
        assert served == build_scenario("fig8a").run(rng=3).to_json()

    def test_a_follower_of_a_failed_admission_leaves_its_primary(self):
        # A job whose first point joins another job's in-flight twin and
        # whose second point hits the store error: the twin keeps
        # running, only the failed job's follower is withdrawn.
        store = FlakyStore(fail_from=None)
        with _service(store=store, n_workers=1) as service:
            first = service.submit_scenario(
                _scenario([{"x": 1, "gate": "hold"}]), seed=3)
            store.fail_from = store.lookups + 2
            with pytest.raises(StoreFailure):
                service.submit_scenario(
                    _scenario([{"x": 1, "gate": "hold"}, {"x": 2}]),
                    seed=3)
            assert service.stats()["in_flight_keys"] == 1
            store.heal()
            _gate("hold").set()
            done = service.wait(first["job_id"], timeout=30)
            assert done["status"] == "done" and done["computed"] == 1
            assert service.stats()["in_flight_keys"] == 0
            assert service.stats()["points"]["coalesced"] == 0


class FullStore(MemoryStore):
    """A :class:`MemoryStore` whose ``put`` raises ``OSError(ENOSPC)``, as
    on a full disk, from its ``fail_from``-th put on, until :meth:`heal`
    is called."""

    def __init__(self, fail_from: Optional[int] = 1) -> None:
        super().__init__()
        self.puts = 0
        self.fail_from = fail_from

    def heal(self) -> None:
        self.fail_from = None

    def put(self, key: str, value: Any) -> None:
        self.puts += 1
        if self.fail_from is not None and self.puts >= self.fail_from:
            raise OSError(errno.ENOSPC, "No space left on device")
        super().put(key, value)


class _BatchedDoubler:
    """A gated worker that offers ``call_batch``: a job's points are one
    dispatch group."""

    def __call__(self, params: Mapping[str, Any], rng) -> Dict[str, Any]:
        return _gated_worker(params, rng)

    def call_batch(self, params_list, rngs) -> List[Dict[str, Any]]:
        return [self(params, rng) for params, rng in zip(params_list, rngs)]


def _padded(params: Mapping[str, Any], rng: np.random.Generator):
    return {"y": params["x"] * 2, "pad": "x" * params["pad"]}


class TestRecordFailure:
    """A store error while a finished group is recorded fails that job,
    attributed to the store, and the dispatcher goes on."""

    def test_a_full_store_fails_the_job_not_the_dispatcher(self):
        store = FullStore()
        with _service(store=store, n_workers=1) as service:
            job = service.submit_scenario(build_scenario("fig8a"), seed=3)
            done = service.wait(job["job_id"], timeout=60)
            assert done["status"] == "failed"
            assert "the store failed while recording 'fig8a' point" \
                in done["error"]
            assert "OSError" in done["error"]
            assert "No space left on device" in done["error"]
            assert "sweep point" not in done["error"]  # not the worker's
            _spin_until(lambda: service.stats()["in_flight_keys"] == 0)
            assert service.stats()["queue_depth"] == 0
            assert all(thread.is_alive() for thread in service._threads)
            store.heal()
            job = service.submit_scenario(build_scenario("fig8a"), seed=3)
            done = service.wait(job["job_id"], timeout=60)
            assert done["status"] == "done"
            assert done["computed"] == done["n_points"]
            served = service.result_json(job["job_id"])
        assert served == build_scenario("fig8a").run(rng=3).to_json()

    def test_a_group_fails_at_the_point_the_store_refused(self):
        # One group of three points; the store refuses the second put.
        # The first point stays recorded, the job fails, an identical
        # twin fails with it (each attributed to its own job), and the
        # third point's live follower in another job is promoted.
        points = [{"x": 1, "gate": "go"}, {"x": 2, "gate": "go"},
                  {"x": 3, "gate": "go"}]
        store = FullStore(fail_from=2)
        worker = _BatchedDoubler()
        with _service(store=store, n_workers=1) as service:
            first = service.submit_scenario(
                _scenario(points, worker=worker), seed=0)
            twin = service.submit_scenario(
                _scenario(points, worker=worker), seed=0)
            other = service.submit_scenario(_scenario(
                [{"x": 10, "gate": "later"}, {"x": 20, "gate": "later"},
                 points[2]], worker=worker), seed=0)
            assert service.stats()["in_flight_keys"] == 5
            _gate("go").set()
            for job in (first, twin):
                done = service.wait(job["job_id"], timeout=30)
                assert done["status"] == "failed"
                assert done["error"].startswith(
                    "the store failed while recording 'svc-test' point ")
                assert "'x': 2" in done["error"]
                assert "No space left on device" in done["error"]
                assert done["completed"] == 1
            store.heal()
            _gate("later").set()
            done = service.wait(other["job_id"], timeout=30)
            assert done["status"] == "done"
            assert done["computed"] == 3 and done["coalesced"] == 0
            assert service.stats()["in_flight_keys"] == 0
            assert service.stats()["points"]["failed"] == 1
            assert all(thread.is_alive() for thread in service._threads)
        assert sorted(_LOG) == [1, 2, 3, 3, 10, 20]

    def test_a_full_disk_store_fails_the_job_with_a_store_error(self,
                                                               tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        with store._connection() as connection:
            pages = connection.execute("PRAGMA page_count").fetchone()[0]
            connection.execute(f"PRAGMA max_page_count = {pages}")
        scenario = _scenario([{"x": 1, "pad": 20000}], worker=_padded)
        with _service(store=store, n_workers=1) as service:
            job = service.submit_scenario(scenario, seed=0)
            done = service.wait(job["job_id"], timeout=30)
            assert done["status"] == "failed"
            assert "StoreError" in done["error"]
            assert "database or disk is full" in done["error"]
            assert str(tmp_path / "store") in done["error"]
            assert all(thread.is_alive() for thread in service._threads)
            with store._connection() as connection:
                connection.execute("PRAGMA max_page_count = 1073741823")
            job = service.submit_scenario(scenario, seed=0)
            assert service.wait(job["job_id"], timeout=30)["status"] \
                == "done"
            served = service.result_json(job["job_id"])
        assert len(store) == 1
        assert json.loads(served)["points"] \
            == json.loads(scenario.run(rng=0).to_json())["points"]


class TestCoalescing:
    def test_identical_inflight_submissions_share_one_computation(self):
        # Two clients submit the same spec while it is still in flight:
        # exactly one evaluation per point, both jobs get the value.
        points = [{"x": 1, "gate": "go"}, {"x": 2, "gate": "go"}]
        with _service(n_workers=2) as service:
            first = service.submit_scenario(_scenario(points), seed=0)
            twin = service.submit_scenario(_scenario(points), seed=0)
            _gate("go").set()
            done_first = service.wait(first["job_id"], timeout=30)
            done_twin = service.wait(twin["job_id"], timeout=30)
        assert sorted(_LOG) == [1, 2]          # one computation per point
        assert done_first["computed"] == 2
        assert done_twin["coalesced"] == 2
        assert done_twin["computed"] == done_twin["hits"] == 0
        assert service.result_json(first["job_id"]) \
            == service.result_json(twin["job_id"])

    def test_different_seeds_do_not_coalesce(self):
        points = [{"x": 1, "gate": "go"}]
        with _service(n_workers=2) as service:
            one = service.submit_scenario(_scenario(points), seed=0)
            two = service.submit_scenario(_scenario(points), seed=1)
            _gate("go").set()
            assert service.wait(one["job_id"], timeout=30)["computed"] == 1
            assert service.wait(two["job_id"], timeout=30)["computed"] == 1
        assert _LOG == [1, 1]

    def test_follower_of_a_failed_job_is_promoted(self):
        # The failing job's queued point leads the computation the twin
        # job's point waits on; skipping it must hand the computation to
        # the twin instead of stranding it.
        with _service(n_workers=1) as service:
            failing = service.submit_scenario(_scenario(
                [{"x": 0, "gate": "go", "boom": True}, {"x": 1}],
                worker=_gated_boom_if_asked), seed=0)
            twin = service.submit_scenario(_scenario(
                [{"x": 5}, {"x": 1}], worker=_gated_boom_if_asked), seed=0)
            _gate("go").set()
            done = service.wait(twin["job_id"], timeout=30)
            assert service.job(failing["job_id"])["status"] == "failed"
        assert done["status"] == "done"
        assert done["computed"] == 2 and done["coalesced"] == 0
        assert sorted(_LOG) == [1, 5]

    def test_follower_fails_with_the_primary(self):
        points = [{"x": 1, "gate": "go"}]
        with _service(n_workers=1) as service:
            first = service.submit_scenario(
                _scenario(points, worker=_gated_boom), seed=0)
            twin = service.submit_scenario(
                _scenario(points, worker=_gated_boom), seed=0)
            _gate("go").set()
            _spin_until(lambda: service.job(first["job_id"])["status"]
                        == "failed")
            _spin_until(lambda: service.job(twin["job_id"])["status"]
                        == "failed")
            for job_id in (first["job_id"], twin["job_id"]):
                error = service.job(job_id)["error"]
                assert "svc-test" in error
                assert "kaboom" in error
                assert "'x': 1" in error


class TestPriority:
    def test_interactive_preempts_queued_bulk_points(self):
        # One worker, a bulk sweep holding it: an interactive submission
        # enqueued behind the bulk job runs before the bulk job's
        # remaining points.
        bulk_points = [{"x": 0, "gate": "hold"}, {"x": 1}, {"x": 2}]
        with _service(n_workers=1) as service:
            bulk = service.submit_scenario(_scenario(bulk_points),
                                           priority="bulk")
            _spin_until(lambda: service.stats()["busy_workers"] == 1)
            interactive = service.submit_scenario(
                _scenario([{"x": 100}], name="svc-urgent"),
                priority="interactive")
            _gate("hold").set()
            service.wait(interactive["job_id"], timeout=30)
            service.wait(bulk["job_id"], timeout=30)
        assert _LOG == [0, 100, 1, 2]

    def test_bad_priority_rejected(self):
        with _service(n_workers=1) as service:
            with pytest.raises(ValueError, match="priority"):
                service.submit_scenario(_scenario([{"x": 1}]),
                                        priority="urgent")


class TestAdaptive:
    LOOSE = PrecisionSpec(rel_ci_target=5.0, min_errors=1,
                          min_codewords=4, max_codewords=64)
    TIGHT = PrecisionSpec(rel_ci_target=0.2, min_errors=1,
                          min_codewords=4, max_codewords=8192)

    def test_warm_adaptive_resubmission_is_all_hits(self):
        store = MemoryStore()
        with _service(store=store, n_workers=2) as service:
            cold = service.submit_scenario(_coin_scenario(self.LOOSE),
                                           seed=0)
            assert service.wait(cold["job_id"], timeout=30)["computed"] == 2
            warm = service.submit_scenario(_coin_scenario(self.LOOSE),
                                           seed=0)
            assert warm["status"] == "done"
            assert warm["hits"] == 2 and warm["computed"] == 0

    def test_tighter_precision_upgrades_the_cached_tally(self):
        store = MemoryStore()
        with _service(store=store, n_workers=2) as service:
            loose = service.submit_scenario(_coin_scenario(self.LOOSE),
                                            seed=0)
            service.wait(loose["job_id"], timeout=30)
            loose_units = sum(value["units"]
                              for value in store._entries.values())
            tight = service.submit_scenario(_coin_scenario(self.TIGHT),
                                            seed=0)
            done = service.wait(tight["job_id"], timeout=30)
            # Upgraded, not recomputed: the stored tallies only grew.
            assert done["computed"] == 2 and done["hits"] == 0
            tight_units = sum(value["units"]
                              for value in store._entries.values())
            assert tight_units > loose_units
            # ... and the looser target is now satisfied from the store.
            again = service.submit_scenario(_coin_scenario(self.LOOSE),
                                            seed=0)
            assert again["status"] == "done" and again["hits"] == 2

    def test_same_precision_coalesces_different_precision_does_not(self):
        points = [{"p": 0.4, "gate": "tally"}]
        with _service(n_workers=1) as service:
            first = service.submit_scenario(
                _coin_scenario(self.LOOSE, points), seed=0)
            _spin_until(lambda: service.stats()["busy_workers"] == 1)
            twin = service.submit_scenario(
                _coin_scenario(self.LOOSE, points), seed=0)
            other = service.submit_scenario(
                _coin_scenario(self.TIGHT, points), seed=0)
            _gate("tally").set()
            assert service.wait(first["job_id"], timeout=30)["computed"] == 1
            assert service.wait(twin["job_id"], timeout=30)["coalesced"] == 1
            # The tighter target ran its own (upgrading) computation.
            assert service.wait(other["job_id"], timeout=30)["computed"] == 1


class TestFailure:
    def test_failure_names_scenario_and_params(self):
        with _service(n_workers=1) as service:
            job = service.submit_scenario(
                _scenario([{"x": 9}], worker=_gated_boom))
            _spin_until(lambda: service.job(job["job_id"])["status"]
                        == "failed")
            error = service.job(job["job_id"])["error"]
            assert "'svc-test'" in error
            assert "'x': 9" in error
            assert "kaboom" in error
            with pytest.raises(RuntimeError):
                service.result_json(job["job_id"])


class TestShutdown:
    def test_drains_running_points_and_cancels_the_queue(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        with _service(store=store, n_workers=1) as service:
            job = service.submit_scenario(
                _scenario([{"x": 5, "gate": "drain"}, {"x": 6}]))
            _spin_until(lambda: service.stats()["busy_workers"] == 1)
            threading.Timer(0.1, _gate("drain").set).start()
            report = service.shutdown()
            assert report == {"status": "stopped", "cancelled_jobs": 1}
            descriptor = service.job(job["job_id"])
            # The running point was drained and persisted; the queued
            # one was cancelled without being started.
            assert descriptor["status"] == "cancelled"
            assert descriptor["completed"] == 1
            assert _LOG == [5]
            (completed,) = descriptor["points"]
            assert store.get(completed["store_key"]) == completed["value"]

    def test_rejects_submissions_while_stopped(self):
        with _service(n_workers=1) as service:
            service.shutdown()
            assert service.health()["accepting"] is False
            with pytest.raises(ServiceUnavailable):
                service.submit_scenario(_scenario([{"x": 1}]))
            with pytest.raises(ServiceUnavailable):
                service.submit({"scenario": "fig7"})

    def test_shutdown_is_idempotent(self):
        with _service(n_workers=1) as service:
            first = service.shutdown()
            second = service.shutdown()
        assert first["status"] == second["status"] == "stopped"
        assert second["cancelled_jobs"] == 0


class TestIntrospection:
    def test_health_reports_version_and_acceptance(self):
        with _service(n_workers=1) as service:
            health = service.health()
            assert health["status"] == "ok"
            assert health["accepting"] is True
            assert health["version"] == repro.__version__
            assert health["uptime_s"] >= 0.0

    def test_stats_counters_and_hit_rate(self):
        with _service(n_workers=2) as service:
            assert service.stats()["hit_rate"] is None
            job = service.submit_scenario(_scenario([{"x": 1}, {"x": 2}]))
            service.wait(job["job_id"], timeout=30)
            warm = service.submit_scenario(_scenario([{"x": 1}, {"x": 2}]))
            service.wait(warm["job_id"], timeout=30)
            stats = service.stats()
            assert stats["points"]["computed"] == 2
            assert stats["points"]["store_hits"] == 2
            assert stats["hit_rate"] == 0.5
            assert stats["jobs"]["done"] == 2
            assert stats["n_workers"] == 2
            assert stats["store"]["entries"] == 2

    def test_descriptor_streams_completed_points(self):
        with _service(n_workers=1) as service:
            job = service.submit_scenario(
                _scenario([{"x": 1}, {"x": 2, "gate": "later"}]))
            job_id = job["job_id"]
            _spin_until(lambda: service.job(job_id)["completed"] == 1)
            partial = service.job(job_id)
            assert partial["status"] == "running"
            assert [point["params"]["x"]
                    for point in partial["points"]] == [1]
            assert partial["pending_params"] == [{"x": 2, "gate": "later"}]
            _gate("later").set()
            assert service.wait(job_id, timeout=30)["completed"] == 2


class TestRetention:
    """The finished-job table keeps the most recently finished jobs."""

    def test_the_oldest_finished_jobs_are_evicted(self):
        with _service(n_workers=1) as service:
            ids = []
            # After the first job computes, every resubmission is born
            # done from the store.
            for _ in range(MAX_FINISHED_JOBS + 3):
                job = service.submit_scenario(_scenario([{"x": 1}]))
                service.wait(job["job_id"], timeout=30)
                ids.append(job["job_id"])
            for evicted in ids[:3]:
                for ask in (service.job, service.result_json,
                            service.wait):
                    with pytest.raises(JobEvicted, match="resubmit"):
                        ask(evicted)
            assert service.job(ids[3])["status"] == "done"
            assert service.result_json(ids[-1])
            # An id never assigned is unknown, not evicted.
            for unknown in ("job-999999", "job-1", "job-000000", "x"):
                with pytest.raises(KeyError) as excinfo:
                    service.job(unknown)
                assert not isinstance(excinfo.value, JobEvicted)
            stats = service.stats()
            assert stats["jobs"]["done"] == MAX_FINISHED_JOBS + 3
            assert len(service._jobs) == MAX_FINISHED_JOBS

    def test_queued_and_running_jobs_are_never_evicted(self, monkeypatch):
        monkeypatch.setattr("repro.service.daemon.MAX_FINISHED_JOBS", 2)
        with _service(n_workers=2) as service:
            # One dispatcher holds the first job's gated point while the
            # other finishes four jobs behind it.
            held = service.submit_scenario(
                _scenario([{"x": 1, "gate": "hold"}, {"x": 2}]))
            finished = [service.submit_scenario(
                _scenario([{"x": 3}], name="svc-failing",
                          worker=_gated_boom)) for _ in range(3)]
            done = service.submit_scenario(_scenario([{"x": 4}]))
            service.wait(done["job_id"], timeout=30)
            _spin_until(lambda: service.stats()["jobs"]["failed"] == 3)
            assert service.job(held["job_id"])["status"] == "running"
            _gate("hold").set()
            assert service.wait(held["job_id"], timeout=30)["status"] \
                == "done"
            # The two most recently finished jobs remain: the held job
            # and the last to finish before it.
            with pytest.raises(JobEvicted):
                service.job(finished[0]["job_id"])
            stats = service.stats()["jobs"]
            assert stats == {"queued": 0, "running": 0, "done": 2,
                             "failed": 3, "cancelled": 0}
            assert len(service._jobs) == 2

    def test_an_evicted_failed_job_stays_evicted(self, monkeypatch):
        monkeypatch.setattr("repro.service.daemon.MAX_FINISHED_JOBS", 1)
        with _service(n_workers=2) as service:
            # One dispatcher holds the job's gated point while the other
            # fails its boom point: the job fails, is retired and is
            # evicted by two later jobs before the held point records.
            failed = service.submit_scenario(_scenario(
                [{"x": 1, "gate": "hold"}, {"x": 2, "boom": True}],
                worker=_gated_boom_if_asked), seed=0)
            _spin_until(lambda: service.job(failed["job_id"])["status"]
                        == "failed")
            for x in (3, 4):
                job = service.submit_scenario(_scenario([{"x": x}]))
                service.wait(job["job_id"], timeout=30)
            with pytest.raises(JobEvicted):
                service.job(failed["job_id"])
            _gate("hold").set()
            _spin_until(lambda: service.stats()["points"]["computed"] == 3)
            # Retiring the late group's job again must not re-enter it
            # in the table: the next retirement would find its id there
            # and no job to evict.
            again = service.submit_scenario(_scenario([{"x": 3}]))
            assert again["status"] == "done" and again["hits"] == 1
            with pytest.raises(JobEvicted):
                service.job(failed["job_id"])
            stats = service.stats()["jobs"]
            assert stats == {"queued": 0, "running": 0, "done": 3,
                             "failed": 1, "cancelled": 0}
            assert list(service._jobs) == [again["job_id"]]

    def test_the_table_stays_consistent_under_contention(self,
                                                         monkeypatch):
        # More dispatchers than cores, a short switch interval and a
        # two-job table: failing groups, coalescing twins and store hits
        # retire and evict jobs from every thread at once.
        monkeypatch.setattr("repro.service.daemon.MAX_FINISHED_JOBS", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _service(n_workers=4) as service:
                for index in range(60):
                    service.submit_scenario(_scenario(
                        [{"x": index % 3},
                         {"x": 10, "boom": index % 4 == 0}],
                        worker=_gated_boom_if_asked), seed=0)

                def settled():
                    jobs = service.stats()["jobs"]
                    return jobs["queued"] + jobs["running"] == 0

                _spin_until(settled, timeout=30)
                stats = service.stats()["jobs"]
                assert sum(stats.values()) == 60
                assert stats["failed"] == 15
                # Every held job is finished and in the table, once.
                assert sorted(service._finished) == sorted(service._jobs)
                assert len(service._jobs) == 2
        finally:
            sys.setswitchinterval(interval)


class TestProcessDispatch:
    def test_multi_point_job_reuses_one_broadcast_worker(self):
        # A processes=True service routes points through the shared
        # WorkerPool: the job's worker is broadcast once and every
        # later point of the scenario travels as (key, params, seed).
        points = [{"x": value} for value in range(1, 5)]
        with _service(processes=True, n_workers=2) as service:
            job = service.submit_scenario(_scenario(points), seed=0)
            done = service.wait(job["job_id"], timeout=60)
            assert done["status"] == "done"
            assert [point["value"]["y"] for point in done["points"]] \
                == [2, 4, 6, 8]
            dispatch = service.stats()["dispatch"]
        assert dispatch["mode"] == "processes"
        assert dispatch["broadcasts"] == 1
        assert dispatch["broadcast_hits"] == len(points) - 1
        assert dispatch["tasks"] == len(points)
        assert dispatch["generation"] == 1

    def test_point_failure_does_not_sacrifice_the_pool(self):
        # Both jobs run the same scenario worker (one broadcast key), so
        # any generation churn after the failure would be a pool abort.
        with _service(processes=True, n_workers=1) as service:
            bad = service.submit_scenario(
                _scenario([{"x": 1}], worker=_boom_at_one,
                          name="svc-flaky"), seed=0)
            _spin_until(
                lambda: service.job(bad["job_id"])["status"] == "failed")
            good = service.submit_scenario(
                _scenario([{"x": 3}], worker=_boom_at_one,
                          name="svc-flaky"), seed=0)
            done = service.wait(good["job_id"], timeout=60)
            assert done["points"][0]["value"] == {"y": 6}
            dispatch = service.stats()["dispatch"]
            # run_one failures leave the warm pool intact: one
            # generation, and the second job's point was a broadcast hit.
            assert dispatch["generation"] == 1
            assert dispatch["broadcast_hits"] == 1

    def test_inline_service_reports_inline_dispatch(self):
        with _service(n_workers=1) as service:
            assert service.stats()["dispatch"] == {"mode": "inline"}


class TestParseRequest:
    def test_minimal_payload_defaults(self):
        entry, priority = parse_request({"scenario": "fig7"})
        assert entry.scenario == "fig7"
        assert priority == "interactive"

    def test_full_payload_roundtrip(self):
        entry, priority = parse_request(
            {"scenario": "fig7", "set": {"sweep.n_symbols": 200},
             "seed": 5, "label": "quick", "priority": "bulk"})
        assert entry.overrides == {"sweep.n_symbols": 200}
        assert entry.seed == 5 and entry.label == "quick"
        assert priority == "bulk"

    @pytest.mark.parametrize("payload, match", [
        ([1, 2], "JSON object"),
        ({"scenario": "fig7", "bogus": 1}, "unknown submission key"),
        ({"scenario": "fig7", "priority": "asap"}, "priority"),
    ])
    def test_malformed_payloads_rejected(self, payload, match):
        with pytest.raises(ValueError, match=match):
            parse_request(payload)

    def test_submit_payload_runs_a_registered_scenario(self):
        with _service(n_workers=2) as service:
            job = service.submit({"scenario": "fig7", "label": "from-json"})
            done = service.wait(job["job_id"], timeout=120)
            assert done["label"] == "from-json"
            assert done["scenario"] == "fig7"
            assert done["status"] == "done"
