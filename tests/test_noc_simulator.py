"""Unit and integration tests for repro.noc.simulator."""

import math

import numpy as np
import pytest

from repro.core.engine import SweepEngine
from repro.noc.analytic import AnalyticNocModel, RouterParameters
from repro.noc.metrics import average_hop_count
from repro.noc.routing import ShortestPathRouting
from repro.noc.simulator import NocSimulator, SimulationResult
from repro.noc.topology import Mesh2D, Mesh3D, StarMesh
from repro.noc.traffic import HotspotTraffic, NeighborTraffic, TransposeTraffic

from oracles.noc import ReferenceNocSimulator


class TestSimulatorBasics:
    def test_result_fields(self):
        simulator = NocSimulator(Mesh2D(4, 4))
        result = simulator.run(0.05, n_cycles=1_000, warmup_cycles=200, rng=0)
        assert isinstance(result, SimulationResult)
        assert result.injection_rate == pytest.approx(0.05)
        assert result.delivered_packets > 0
        assert result.offered_packets >= result.delivered_packets
        assert not result.saturated

    def test_zero_injection(self):
        # Defined edge case: no packet delivered and none offered — the
        # latency is infinite (no sample exists) but the network is not
        # called saturated.
        simulator = NocSimulator(Mesh2D(3, 3))
        result = simulator.run(0.0, n_cycles=500, warmup_cycles=100, rng=0)
        assert result.delivered_packets == 0
        assert result.mean_latency_cycles == math.inf
        assert not result.saturated

    @pytest.mark.parametrize("simulator_class",
                             [NocSimulator, ReferenceNocSimulator])
    def test_zero_deliveries_with_offered_traffic_is_inf_and_saturated(
            self, simulator_class):
        # Regression: this used to return NaN.  A huge router pipeline
        # means nothing can reach an ejection port within the horizon,
        # so traffic is offered but none is delivered: the defined result
        # is an infinite mean latency with the saturated flag set.
        simulator = simulator_class(Mesh2D(3, 3),
                                    pipeline_latency_cycles=10_000)
        result = simulator.run(0.5, n_cycles=200, warmup_cycles=50, rng=0)
        assert result.offered_packets > 0
        assert result.delivered_packets == 0
        assert result.mean_latency_cycles == math.inf
        assert result.saturated

    def test_reproducible_with_seed(self):
        simulator = NocSimulator(Mesh2D(4, 4))
        a = simulator.run(0.1, n_cycles=1_000, warmup_cycles=200, rng=42)
        b = simulator.run(0.1, n_cycles=1_000, warmup_cycles=200, rng=42)
        assert a.mean_latency_cycles == pytest.approx(b.mean_latency_cycles)
        assert a.delivered_packets == b.delivered_packets

    def test_parameter_validation(self):
        simulator = NocSimulator(Mesh2D(3, 3))
        with pytest.raises(ValueError):
            simulator.run(-0.1)
        with pytest.raises(ValueError):
            simulator.run(0.1, n_cycles=0)
        with pytest.raises(ValueError):
            simulator.run(0.1, n_cycles=100, warmup_cycles=100)
        with pytest.raises(ValueError):
            NocSimulator(Mesh2D(3, 3), pipeline_latency_cycles=-1)

    def test_accepted_throughput_tracks_offered_load_below_saturation(self):
        simulator = NocSimulator(Mesh2D(4, 4))
        result = simulator.run(0.1, n_cycles=3_000, warmup_cycles=500, rng=1)
        assert result.accepted_throughput == pytest.approx(0.1, abs=0.02)

    def test_latency_sweep(self):
        simulator = NocSimulator(Mesh2D(3, 3))
        results = simulator.latency_sweep([0.05, 0.1], n_cycles=800,
                                          warmup_cycles=200, rng=2)
        assert len(results) == 2
        assert results[0].injection_rate < results[1].injection_rate

    def test_zero_pipeline_respects_one_cycle_per_link(self):
        # Regression: with pipeline_latency_cycles=0 a forwarded flit used
        # to traverse several links within one cycle (the service loop
        # re-encountered it in a queue later in the dict iteration),
        # deflating latencies below the one-cycle-per-link floor.
        topology = Mesh2D(4, 4)
        simulator = NocSimulator(topology, pipeline_latency_cycles=0)
        result = simulator.run(0.02, n_cycles=3_000, warmup_cycles=500,
                               rng=0)
        # Every packet needs at least one cycle per traversed link plus
        # the ejection cycle, so the mean cannot drop below the mean hop
        # count (leaving half a cycle of sampling slack).
        floor = average_hop_count(topology)
        assert result.delivered_packets > 100
        assert result.mean_latency_cycles >= floor + 0.5

    def test_latency_sweep_points_are_order_independent(self):
        # Per-point generators are spawned by point index from the root
        # seed, so a sub-grid evaluated with the same seed reproduces the
        # full grid's leading points exactly.
        simulator = NocSimulator(Mesh2D(3, 3))
        full = simulator.latency_sweep([0.05, 0.1], n_cycles=800,
                                       warmup_cycles=200, rng=9)
        sub = simulator.latency_sweep([0.05], n_cycles=800,
                                      warmup_cycles=200, rng=9)
        assert sub[0] == full[0]

    def test_latency_sweep_shared_engine_caches(self):
        engine = SweepEngine()
        simulator = NocSimulator(Mesh2D(3, 3))
        first = simulator.latency_sweep([0.05, 0.1], n_cycles=800,
                                        warmup_cycles=200, rng=4,
                                        engine=engine)
        # Same worker configuration, points and integer seed: the second
        # sweep must be served from the cache.
        worker_calls = engine.cache_info()["misses"]
        second = simulator.latency_sweep([0.05, 0.1], n_cycles=800,
                                         warmup_cycles=200, rng=4,
                                         engine=engine)
        assert engine.cache_info()["misses"] == worker_calls
        assert engine.cache_info()["hits"] >= 2
        assert first == second


class TestSimulatorAgainstAnalyticModel:
    """Integration: the cycle-level simulator validates the queueing model."""

    @pytest.mark.parametrize("topology_factory", [
        lambda: Mesh2D(4, 4),
        lambda: StarMesh(3, 3, concentration=2),
        lambda: Mesh3D(3, 3, 2),
    ])
    def test_low_load_latency_agreement(self, topology_factory):
        topology = topology_factory()
        simulator = NocSimulator(topology)
        model = AnalyticNocModel(topology)
        simulated = simulator.run(0.05, n_cycles=4_000, warmup_cycles=1_000,
                                  rng=3)
        analytic = model.mean_latency(0.05)
        assert simulated.mean_latency_cycles == pytest.approx(analytic,
                                                              rel=0.25)

    def test_latency_increases_with_load_in_simulation(self):
        topology = Mesh2D(4, 4)
        simulator = NocSimulator(topology)
        low = simulator.run(0.05, n_cycles=4_000, warmup_cycles=1_000, rng=4)
        high = simulator.run(0.3, n_cycles=4_000, warmup_cycles=1_000, rng=4)
        assert high.mean_latency_cycles > low.mean_latency_cycles

    def test_simulator_detects_saturation_above_analytic_limit(self):
        topology = Mesh2D(4, 4)
        model = AnalyticNocModel(topology)
        simulator = NocSimulator(topology)
        overload = 1.6 * model.saturation_rate()
        result = simulator.run(overload, n_cycles=3_000, warmup_cycles=500,
                               rng=5)
        # Either the saturation flag trips or latency explodes well past the
        # zero-load value.
        assert result.saturated or \
            result.mean_latency_cycles > 4.0 * model.zero_load_latency()

    def test_local_traffic_keeps_latency_low(self):
        topology = Mesh2D(4, 4)
        simulator = NocSimulator(topology, traffic_class=NeighborTraffic)
        result = simulator.run(0.4, n_cycles=3_000, warmup_cycles=500, rng=6)
        assert result.mean_latency_cycles < 12.0

    def test_3d_mesh_latency_below_2d_mesh_in_simulation(self):
        # The headline qualitative claim of Fig. 8(a), checked by simulation
        # rather than the analytic model.
        mesh2d = NocSimulator(Mesh2D(4, 4)).run(0.1, n_cycles=3_000,
                                                warmup_cycles=500, rng=7)
        mesh3d = NocSimulator(Mesh3D(2, 2, 4)).run(0.1, n_cycles=3_000,
                                                   warmup_cycles=500, rng=7)
        assert mesh3d.mean_latency_cycles < mesh2d.mean_latency_cycles


class TestVectorizedAgainstReference:
    """The vectorized engine must be distribution-equivalent to the deque
    reference: same topology and comparable seeds give delivered-packet
    counts and mean latencies within statistical tolerance."""

    @pytest.mark.parametrize("topology_factory,rate", [
        (lambda: Mesh2D(4, 4), 0.15),
        (lambda: Mesh2D(8, 8), 0.1),
        (lambda: Mesh3D(3, 3, 2), 0.12),
        (lambda: StarMesh(3, 3, concentration=2), 0.08),
    ])
    def test_delivered_counts_and_latency_match(self, topology_factory, rate):
        topology = topology_factory()
        reference = ReferenceNocSimulator(topology).run(
            rate, n_cycles=4_000, warmup_cycles=800, rng=11)
        vectorized = NocSimulator(topology).run(
            rate, n_cycles=4_000, warmup_cycles=800, rng=11)
        assert vectorized.delivered_packets == pytest.approx(
            reference.delivered_packets, rel=0.08)
        assert vectorized.offered_packets == pytest.approx(
            reference.offered_packets, rel=0.08)
        assert vectorized.mean_latency_cycles == pytest.approx(
            reference.mean_latency_cycles, rel=0.10)
        assert vectorized.saturated == reference.saturated

    def test_reference_latency_sweep_still_works(self):
        results = ReferenceNocSimulator(Mesh2D(3, 3)).latency_sweep(
            [0.05, 0.1], n_cycles=800, warmup_cycles=200, rng=2)
        assert len(results) == 2
        assert all(isinstance(result, SimulationResult)
                   for result in results)

    def test_reference_rejects_patterns_with_silent_modules_clearly(self):
        # The 3x3 transpose fixed point (module 4) sends nothing, which
        # the reference engine's uniform-arrival loop cannot express; it
        # must say so instead of raising from numpy internals.
        simulator = ReferenceNocSimulator(Mesh2D(3, 3),
                                          traffic_class=TransposeTraffic)
        with pytest.raises(ValueError, match="vectorized NocSimulator"):
            simulator.run(0.1, n_cycles=200, warmup_cycles=50, rng=0)


class TestLinkLatency:
    """Regression: ``link_latency_cycles`` used to be silently dropped by
    the cycle simulator (only the analytic RouterParameters honored it)."""

    @pytest.mark.parametrize("simulator_class",
                             [NocSimulator, ReferenceNocSimulator])
    def test_link_latency_increases_zero_load_latency(self, simulator_class):
        topology = Mesh2D(4, 4)
        plain = simulator_class(topology).run(
            0.02, n_cycles=3_000, warmup_cycles=500, rng=0)
        wired = simulator_class(topology, link_latency_cycles=3).run(
            0.02, n_cycles=3_000, warmup_cycles=500, rng=0)
        # Every traversed link now costs 3 extra cycles; the mean hop
        # count of the 4x4 mesh is ~2.5, so the mean latency must grow
        # by several cycles.
        assert wired.mean_latency_cycles > plain.mean_latency_cycles + 4.0

    def test_link_latency_matches_analytic_model_at_low_load(self):
        topology = Mesh2D(4, 4)
        simulated = NocSimulator(topology, link_latency_cycles=2).run(
            0.03, n_cycles=4_000, warmup_cycles=1_000, rng=1)
        analytic = AnalyticNocModel(
            topology,
            router=RouterParameters(link_latency_cycles=2.0)).mean_latency(0.03)
        assert simulated.mean_latency_cycles == pytest.approx(analytic,
                                                              rel=0.2)

    def test_negative_link_latency_rejected(self):
        with pytest.raises(ValueError):
            NocSimulator(Mesh2D(3, 3), link_latency_cycles=-1)


class TestLossyLinks:
    def test_zero_error_rate_is_bit_identical_to_lossless(self):
        # All injection randomness is pre-generated, so the lossy code
        # path at link_error_rate=0 must reproduce the lossless results
        # exactly at the same seed.
        topology = Mesh2D(4, 4)
        lossless = NocSimulator(topology).run(
            0.1, n_cycles=2_000, warmup_cycles=400, rng=3)
        zero_loss = NocSimulator(topology, link_error_rate=0.0).run(
            0.1, n_cycles=2_000, warmup_cycles=400, rng=3)
        assert zero_loss == lossless
        assert zero_loss.retransmitted_flits == 0

    def test_latency_and_retransmissions_grow_with_error_rate(self):
        topology = Mesh2D(4, 4)
        results = [NocSimulator(topology, link_error_rate=p).run(
            0.1, n_cycles=2_500, warmup_cycles=500, rng=4)
            for p in (0.0, 0.1, 0.3)]
        latencies = [r.mean_latency_cycles for r in results]
        retransmissions = [r.retransmitted_flits for r in results]
        assert latencies == sorted(latencies)
        assert retransmissions == sorted(retransmissions)
        assert retransmissions[0] == 0 and retransmissions[-1] > 0

    def test_retransmission_conserves_packets(self):
        # Flits are retried, never silently dropped: below saturation the
        # network still delivers (almost) everything it was offered.
        result = NocSimulator(Mesh2D(4, 4), link_error_rate=0.2).run(
            0.1, n_cycles=3_000, warmup_cycles=500, rng=5)
        assert result.delivered_packets <= result.offered_packets * 1.05
        assert result.delivered_packets >= 0.9 * result.offered_packets
        assert not result.saturated

    def test_error_rate_validation(self):
        with pytest.raises(ValueError):
            NocSimulator(Mesh2D(3, 3), link_error_rate=1.0)
        with pytest.raises(ValueError):
            NocSimulator(Mesh2D(3, 3), link_error_rate=-0.1)


class TestFiniteBuffersAndBackpressure:
    def test_shallow_buffers_throttle_throughput(self):
        topology = Mesh2D(8, 8)
        shallow = NocSimulator(topology, buffer_depth_flits=1).run(
            0.25, n_cycles=2_000, warmup_cycles=400, rng=6)
        deep = NocSimulator(topology).run(
            0.25, n_cycles=2_000, warmup_cycles=400, rng=6)
        assert shallow.accepted_throughput < 0.6 * deep.accepted_throughput
        assert shallow.saturated
        assert not deep.saturated

    def test_generous_buffers_match_infinite(self):
        topology = Mesh2D(4, 4)
        bounded = NocSimulator(topology, buffer_depth_flits=64).run(
            0.1, n_cycles=2_000, warmup_cycles=400, rng=7)
        unbounded = NocSimulator(topology).run(
            0.1, n_cycles=2_000, warmup_cycles=400, rng=7)
        # A depth no queue ever reaches behaves exactly like no depth.
        assert bounded.delivered_packets == unbounded.delivered_packets
        assert bounded.mean_latency_cycles == pytest.approx(
            unbounded.mean_latency_cycles)

    def test_backpressure_never_loses_packets(self):
        result = NocSimulator(Mesh2D(4, 4), buffer_depth_flits=2).run(
            0.05, n_cycles=3_000, warmup_cycles=500, rng=8)
        assert result.delivered_packets >= 0.9 * result.offered_packets

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            NocSimulator(Mesh2D(3, 3), buffer_depth_flits=-1)


class TestPluggableTrafficAndRouting:
    @pytest.mark.parametrize("traffic_class", [HotspotTraffic,
                                               TransposeTraffic,
                                               NeighborTraffic])
    def test_patterns_run_and_deliver(self, traffic_class):
        simulator = NocSimulator(Mesh2D(4, 4), traffic_class=traffic_class)
        result = simulator.run(0.1, n_cycles=2_000, warmup_cycles=400, rng=9)
        assert result.delivered_packets > 0
        assert math.isfinite(result.mean_latency_cycles)

    def test_shortest_path_routing_matches_dor_on_mesh(self):
        # On a plain mesh shortest-path routing is also minimal, so the
        # two routings must give statistically equal latencies.
        topology = Mesh2D(4, 4)
        dor = NocSimulator(topology).run(
            0.1, n_cycles=3_000, warmup_cycles=500, rng=10)
        spf = NocSimulator(topology, routing_class=ShortestPathRouting).run(
            0.1, n_cycles=3_000, warmup_cycles=500, rng=10)
        assert spf.mean_latency_cycles == pytest.approx(
            dor.mean_latency_cycles, rel=0.1)
        assert spf.delivered_packets == pytest.approx(
            dor.delivered_packets, rel=0.08)

    def test_transpose_traffic_fixed_point_injects_nothing(self):
        # 3x3 mesh: module 4 is its own transpose partner and offers no
        # traffic; the run must not crash and the rest still delivers.
        simulator = NocSimulator(Mesh2D(3, 3),
                                 traffic_class=TransposeTraffic)
        result = simulator.run(0.2, n_cycles=1_500, warmup_cycles=300,
                               rng=11)
        assert result.delivered_packets > 0
