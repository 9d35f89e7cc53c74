"""The three front-ends agree, and none leaves a worker process behind.

``repro run`` (:meth:`Scenario.run`), ``repro run-all``
(:meth:`Campaign.run`) and ``repro submit`` (:class:`CampaignService`)
drive every point through one lifecycle
(:class:`repro.core.engine.Point`), so one scenario at one seed must give
byte-identical JSON through each of them.  The suite checks the
scenarios whose cold run takes well under 0.1 s plus one cheap adaptive
sweep; run the file as a script to check every registered scenario, and
its seed-0 points against ``tests/data/registry_digests.json`` (about a
minute on two cores)::

    PYTHONPATH=src python tests/test_frontends.py
"""

import multiprocessing
import os
import sys
import tempfile
import threading
import time
from typing import Dict, Sequence

import pytest

from repro.core.engine import SweepEngine, SweepPointError, parameter_grid
from repro.core.pool import PoolTask, WorkerPool
from repro.scenarios import Campaign, CampaignEntry, build_scenario
from repro.service import CampaignService

#: Registry scenarios whose cold run takes < 0.1 s.
FAST = ("table1", "fig1", "fig2", "fig3", "fig4", "fig7", "fig8a",
        "beamforming-sweep", "mesh3d-scaling",
        "measured-freespace-vs-copper")
#: The adaptive sweep stopped at its minimum codeword count.
ADAPTIVE = CampaignEntry("coded-ber-adaptive-sweep", overrides={
    "precision.rel_ci_target": 5.0, "precision.min_errors": 1,
    "precision.min_codewords": 4, "precision.max_codewords": 8})


def frontend_json(entries: Sequence[CampaignEntry]
                  ) -> Dict[str, Dict[str, str]]:
    """Each entry's deterministic JSON through run, run-all and submit."""
    run = [entry.build().run(rng=entry.seed).to_json() for entry in entries]
    campaign = Campaign(entries).run(n_workers=2)
    service = CampaignService(n_workers=2)
    try:
        jobs = [service.submit(entry.to_dict())["job_id"]
                for entry in entries]
        for job_id in jobs:
            assert service.wait(job_id, timeout=600)["status"] == "done"
        submit = [service.result_json(job_id) for job_id in jobs]
    finally:
        service.shutdown()
    return {entry.label: {"run": local, "run-all": result.to_json(),
                          "submit": served}
            for entry, local, result, served in zip(
                entries, run, campaign.results, submit)}


@pytest.fixture(scope="module")
def outputs():
    return frontend_json([CampaignEntry(name) for name in FAST]
                         + [ADAPTIVE])


@pytest.mark.parametrize("label", FAST + (ADAPTIVE.label,))
def test_run_run_all_and_submit_give_identical_json(outputs, label):
    assert outputs[label]["run-all"] == outputs[label]["run"]
    assert outputs[label]["submit"] == outputs[label]["run"]


# ----------------------------------------------------------------------
def _boom(params, rng):
    raise RuntimeError("boom")


def _fail_at_two(params, rng):
    if params["scale"] == 2.0:
        raise ValueError("bad point")
    return params["scale"]


def _started_since(before):
    """Worker processes started since ``before`` that are still alive."""
    return [process for process in multiprocessing.active_children()
            if process not in before]


def _spools():
    """Pool spool directories left in the temp dir."""
    return [name for name in os.listdir(tempfile.gettempdir())
            if name.startswith("repro-pool-")]


class TestNoWorkerProcessOutlivesAFrontEnd:
    """No front end leaves a worker process or a pool spool behind."""

    @pytest.fixture(autouse=True)
    def _private_tempdir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def test_scenario_run(self):
        before = multiprocessing.active_children()
        build_scenario("fig7").run(rng=0, n_workers=2)
        assert _started_since(before) == []
        assert _spools() == []

    def test_fast_failing_pooled_sweep(self):
        # The fast-fail abort terminates the pool's processes; each must
        # be reaped before the SweepPointError reaches the caller.
        before = multiprocessing.active_children()
        points = parameter_grid(scale=(1.0, 2.0, 3.0, 4.0))
        for _ in range(20):
            with pytest.raises(SweepPointError):
                SweepEngine(n_workers=2, cache=False).sweep(
                    _fail_at_two, points, rng=0)
            assert _started_since(before) == []
            assert _spools() == []

    def test_campaign_run(self, monkeypatch):
        before = multiprocessing.active_children()
        Campaign([ADAPTIVE, CampaignEntry("fig7")]).run(n_workers=2)
        assert _started_since(before) == []
        assert _spools() == []
        broken = Campaign([CampaignEntry("fig7")])
        scenarios = broken.build_scenarios()
        scenarios[0].worker = _boom
        monkeypatch.setattr(broken, "build_scenarios", lambda: scenarios)
        with pytest.raises(SweepPointError):
            broken.run(n_workers=2)
        assert _started_since(before) == []
        assert _spools() == []

    def test_new_worker_while_a_task_runs(self):
        # A new worker arrives while another thread's task still runs
        # (the service's dispatchers share one pool): it joins the same
        # generation, and close() reaps both processes.
        before = multiprocessing.active_children()
        pool = WorkerPool(2)
        napping = threading.Thread(target=pool.run_one, args=(PoolTask(
            fn=time.sleep, worker=1.0, args=()),))
        napping.start()
        time.sleep(0.3)
        pool.run_one(PoolTask(fn=time.sleep, worker=0.0, args=()))
        assert pool.generation == 1
        assert len(_started_since(before)) == 2
        pool.close()
        assert _started_since(before) == []
        assert _spools() == []
        napping.join(timeout=30)
        assert not napping.is_alive()

    def test_service_shutdown(self):
        before = multiprocessing.active_children()
        service = CampaignService(n_workers=2, processes=True)
        job = service.submit({"scenario": "fig7"})
        assert service.wait(job["job_id"], timeout=120)["status"] == "done"
        service.shutdown()
        assert _started_since(before) == []
        assert _spools() == []


if __name__ == "__main__":
    from registry_digests import load, points_digest
    from repro.scenarios import scenario_names

    names = scenario_names()
    pinned = load()["scenarios"]
    outputs = frontend_json([CampaignEntry(name) for name in names])
    mismatched = [
        f"{label}: {frontend} differs from run"
        for label, by_frontend in outputs.items()
        for frontend in ("run-all", "submit")
        if by_frontend[frontend] != by_frontend["run"]]
    mismatched += [
        f"{name}: points differ from tests/data/registry_digests.json"
        for name in names
        if points_digest(outputs[name]["run"]) != pinned.get(
            name, {}).get("points")]
    print("\n".join(mismatched) or
          f"{len(names)} scenarios: run, run-all and submit agree, "
          f"and their points match the pinned digests")
    sys.exit(1 if mismatched else 0)
