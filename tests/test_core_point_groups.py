"""Batched dispatch groups (repro.core.engine.point_groups / group_task).

A worker may offer ``call_batch(params_list, rngs)``, which must return
exactly ``[worker(p, rng) for p, rng in zip(params_list, rngs)]``.  The
point lifecycle then computes the pending points of one sweep as one
call — serially, as at most ``n_workers`` chunks on a pool, and as one
task in the campaign service — and every front-end must still produce
the bytes of per-point evaluation.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.engine import (Point, SweepEngine, SweepPointError,
                               plan_sweep, point_groups)
from repro.noc.simulator import NocSimulator, _LatencySweepWorker
from repro.noc.topology import Mesh2D
from repro.scenarios import build_scenario, scenario_names
from repro.service import CampaignService

#: The registry scenarios whose worker batches its points: the NoC
#: sweeps run one merged cycle loop, the fixed-count coded-BER sweeps one
#: window-decoder call per coding spec.
NOC_BATCHED = ("noc-buffer-depth-sweep", "noc-hotspot-sweep",
               "noc-lossy-link-sweep", "noc-sim-crosscheck",
               "noc-transpose-crosscheck")
CODED_BER_BATCHED = ("coded-ber-waveform-sweep", "phy-detector-comparison",
                     "phy-oversampling-coding-ablation")
BATCHED = NOC_BATCHED + CODED_BER_BATCHED


def _values(worker, planned, chosen, batched):
    params = [planned[index].params for index in chosen]
    rngs = [np.random.default_rng(planned[index].seed_sequence)
            for index in chosen]
    if batched:
        return worker.call_batch(params, rngs)
    return [worker(point, rng) for point, rng in zip(params, rngs)]


def test_the_batched_registry_workers_are_the_noc_and_coded_ber_sweeps():
    batched = {name for name in scenario_names()
               if callable(getattr(build_scenario(name).worker,
                                   "call_batch", None))}
    assert batched == set(BATCHED)


def _subsets(n_points, seed):
    """Everything in order, a reordering, and a reordered subset (what
    a pooled chunk or a partly stored sweep hands the worker)."""
    order = np.random.default_rng(seed).permutation(n_points)
    return range(n_points), order, order[:n_points // 2 + 1]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", NOC_BATCHED)
def test_call_batch_equals_the_calls_on_subsets_and_reorderings(name,
                                                                 seed):
    # A shortened horizon keeps the test quick; the scenario's own
    # horizon runs through the digest and front-end checks.
    scenario = build_scenario(name)
    worker = dataclasses.replace(scenario.worker, n_cycles=400,
                                 warmup_cycles=100)
    planned = plan_sweep(worker, scenario.points, rng=seed)
    for chosen in _subsets(len(planned), seed):
        expected = _values(worker, planned, chosen, batched=False)
        got = _values(worker, planned, chosen, batched=True)
        assert repr(got) == repr(expected)


# The workers draw codewords in batches of 8: 4 codewords are one partial
# batch, 8 one full batch, 11 a full and a partial one.
@pytest.mark.parametrize("seed, n_codewords", [(0, 4), (1, 8), (2, 11)])
@pytest.mark.parametrize("name", CODED_BER_BATCHED)
def test_coded_ber_call_batch_equals_the_calls(name, seed, n_codewords):
    # The ablation mixes two window sizes (two coding specs, so two
    # decoders), the waveform sweep two frontends on one decoder.
    scenario = build_scenario(name, {"mc.n_codewords": n_codewords})
    worker = scenario.worker
    planned = plan_sweep(worker, scenario.points, rng=seed)
    # A point's value does not depend on the points beside it, so one
    # pass of calls is the reference for every subset.
    expected = _values(worker, planned, range(len(planned)), batched=False)
    for chosen in _subsets(len(planned), seed):
        got = _values(worker, planned, chosen, batched=True)
        assert repr(got) == repr([expected[index] for index in chosen])


def test_latency_sweep_worker_batch_equals_its_calls():
    worker = _LatencySweepWorker(NocSimulator(Mesh2D(4, 4)), 400, 100)
    planned = plan_sweep(worker, [{"injection_rate": rate}
                                  for rate in (0.3, 0.05, 0.0, 0.15)], rng=4)
    chosen = range(len(planned))
    assert _values(worker, planned, chosen, batched=True) \
        == _values(worker, planned, chosen, batched=False)


class TestGroups:
    def test_batching_workers_group_and_split_into_chunks(self):
        scenario = build_scenario("noc-hotspot-sweep")
        other = build_scenario("fig7")
        points = [Point(planned, scenario.worker) for planned in
                  plan_sweep(scenario.worker, scenario.points, rng=0)]
        plain = [Point(planned, other.worker) for planned in
                 plan_sweep(other.worker, other.points, rng=0)]
        mixed = [plain[0], *points[:4], plain[1], *points[4:]]
        assert point_groups(mixed) == [[plain[0]], points, [plain[1]]]
        assert point_groups(mixed, 2) == [[plain[0]], points[:3],
                                          points[3:], [plain[1]]]
        assert point_groups(points[:1], 4) == [points[:1]]


class TestFrontEnds:
    def test_pooled_sweep_equals_serial_in_two_chunks(self):
        scenario = build_scenario("noc-hotspot-sweep")
        serial = scenario.run(rng=3).to_json()
        with SweepEngine(n_workers=2) as engine:
            pooled = scenario.run(rng=3, engine=engine).to_json()
            assert engine.dispatch_stats()["tasks"] == 2
        assert pooled == serial

    def test_daemon_job_is_one_pool_task_with_the_run_bytes(self):
        self._one_task_job("noc-transpose-crosscheck")

    def test_daemon_coded_ber_job_is_one_pool_task_with_the_run_bytes(self):
        self._one_task_job("phy-detector-comparison")

    @staticmethod
    def _one_task_job(name):
        scenario = build_scenario(name)
        service = CampaignService(n_workers=2, processes=True)
        try:
            job = service.submit({"scenario": scenario.name, "seed": 0})
            assert service.wait(job["job_id"], timeout=120)["status"] \
                == "done"
            served = service.result_json(job["job_id"])
            assert service.stats()["dispatch"]["tasks"] == 1
        finally:
            service.shutdown()
        assert served == scenario.run(rng=0).to_json()


class TestGroupFailure:
    """A failing group fails as its first point, worded as before."""

    SCENARIO = "noc-transpose-crosscheck"
    OVERRIDES = {"noc.pipeline_latency_cycles": 1.5}
    REASON = ("the cycle-level simulator needs an integer "
              "pipeline_latency_cycles, got 1.5")

    def _message(self, scenario, point):
        return (f"scenario {scenario.name!r}: sweep point {point!r} "
                f"failed: {self.REASON}")

    def test_serial_run(self):
        scenario = build_scenario(self.SCENARIO, self.OVERRIDES)
        with pytest.raises(SweepPointError) as excinfo:
            scenario.run(rng=0)
        first = scenario.points[0]
        assert excinfo.value.params == first
        assert str(excinfo.value) == self._message(scenario, first)

    def test_pooled_run_fails_as_a_chunk_first_point(self):
        scenario = build_scenario(self.SCENARIO, self.OVERRIDES)
        with pytest.raises(SweepPointError) as excinfo:
            scenario.run(rng=0, n_workers=2)
        # Two chunks; whichever fails first is reported.
        firsts = [scenario.points[0],
                  scenario.points[len(scenario.points) // 2]]
        assert excinfo.value.params in firsts
        assert str(excinfo.value) == self._message(scenario,
                                                   excinfo.value.params)

    def test_daemon_job(self):
        scenario = build_scenario(self.SCENARIO, self.OVERRIDES)
        service = CampaignService(n_workers=1, processes=True)
        try:
            job = service.submit({"scenario": scenario.name,
                                  "set": self.OVERRIDES, "seed": 0})
            done = service.wait(job["job_id"], timeout=120)
        finally:
            service.shutdown()
        assert done["status"] == "failed"
        assert done["error"] == self._message(scenario, scenario.points[0])


class TestCodedBerGroupFailure(TestGroupFailure):
    SCENARIO = "phy-detector-comparison"
    OVERRIDES = {"mc.n_codewords": 0}
    REASON = "n_codewords must be strictly positive, got 0"
