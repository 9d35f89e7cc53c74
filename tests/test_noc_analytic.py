"""Unit tests for repro.noc.analytic and repro.noc.metrics (Fig. 8)."""

import numpy as np
import pytest

from repro.noc.analytic import AnalyticNocModel, LatencyResult, RouterParameters
from repro.noc.metrics import (
    average_hop_count,
    bisection_bandwidth_per_module,
    bisection_links,
    latency_throughput_summary,
    saturation_injection_rate,
    zero_load_latency,
)
from repro.noc.topology import Mesh2D, Mesh3D, StarMesh
from repro.noc.traffic import HotspotTraffic, NeighborTraffic


class TestRouterParameters:
    def test_paper_defaults(self):
        params = RouterParameters()
        assert params.pipeline_latency_cycles == 2.0
        assert params.service_time_cycles == 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            RouterParameters(pipeline_latency_cycles=0.0)
        with pytest.raises(ValueError):
            RouterParameters(service_time_cycles=-1.0)
        with pytest.raises(ValueError):
            RouterParameters(link_latency_cycles=-0.5)


class TestZeroLoadLatency:
    def test_paper_64_module_values(self):
        # Fig. 8(a): roughly 13 / 7 / 10 cycles at low traffic.
        assert AnalyticNocModel(Mesh2D(8, 8)).zero_load_latency() == \
            pytest.approx(13.0, abs=1.0)
        assert AnalyticNocModel(StarMesh(4, 4, 4)).zero_load_latency() == \
            pytest.approx(7.0, abs=0.5)
        assert AnalyticNocModel(Mesh3D(4, 4, 4)).zero_load_latency() == \
            pytest.approx(10.0, abs=0.7)

    def test_metrics_helper_agrees_with_model(self):
        for topology in (Mesh2D(6, 6), StarMesh(3, 3, 4), Mesh3D(3, 3, 3)):
            model = AnalyticNocModel(topology)
            assert model.zero_load_latency() == pytest.approx(
                zero_load_latency(topology), rel=1e-12)

    def test_mean_latency_at_zero_injection(self):
        model = AnalyticNocModel(Mesh2D(4, 4))
        assert model.mean_latency(0.0) == pytest.approx(model.zero_load_latency())


class TestSaturation:
    def test_paper_64_module_saturation_ordering(self):
        # Fig. 8(a): star-mesh (0.19) < 2D mesh (0.41) < 3D mesh (0.75).
        star = AnalyticNocModel(StarMesh(4, 4, 4)).saturation_rate()
        mesh2d = AnalyticNocModel(Mesh2D(8, 8)).saturation_rate()
        mesh3d = AnalyticNocModel(Mesh3D(4, 4, 4)).saturation_rate()
        assert star < mesh2d < mesh3d
        assert star == pytest.approx(0.19, abs=0.04)
        assert mesh2d == pytest.approx(0.41, abs=0.04)
        assert mesh3d == pytest.approx(0.75, abs=0.10)

    def test_latency_diverges_at_saturation(self):
        model = AnalyticNocModel(Mesh2D(8, 8))
        saturation = model.saturation_rate()
        assert np.isinf(model.mean_latency(saturation * 1.05))
        assert np.isfinite(model.mean_latency(saturation * 0.9))

    def test_latency_monotonic_in_injection_rate(self):
        model = AnalyticNocModel(Mesh3D(4, 4, 4))
        rates = np.linspace(0.01, 0.7, 15)
        latencies = [model.mean_latency(rate) for rate in rates]
        assert all(b >= a for a, b in zip(latencies, latencies[1:]))

    def test_throughput_capped_at_saturation(self):
        model = AnalyticNocModel(StarMesh(4, 4, 4))
        assert model.throughput_at(0.1) == pytest.approx(0.1)
        assert model.throughput_at(0.5) == pytest.approx(model.saturation_rate())


class TestLatencyCurve:
    def test_latency_result_contents(self):
        model = AnalyticNocModel(Mesh2D(4, 4))
        result = model.latency_curve(np.linspace(0.01, 0.5, 10))
        assert isinstance(result, LatencyResult)
        assert result.injection_rates.shape == (10,)
        assert result.mean_latency_cycles.shape == (10,)
        assert result.topology_name == "4x4 2D mesh"
        assert result.zero_load_latency() > 0.0

    def test_curve_validation(self):
        model = AnalyticNocModel(Mesh2D(3, 3))
        with pytest.raises(ValueError):
            model.latency_curve([])
        with pytest.raises(ValueError):
            model.latency_curve([-0.1, 0.2])
        with pytest.raises(ValueError):
            model.mean_latency(-1.0)

    def test_channel_loads_scale_linearly(self):
        model = AnalyticNocModel(Mesh2D(4, 4))
        loads_low = model.channel_loads(0.1)
        loads_high = model.channel_loads(0.2)
        for channel, load in loads_low.items():
            assert loads_high[channel] == pytest.approx(2.0 * load)

    def test_other_traffic_patterns(self):
        neighbour_model = AnalyticNocModel(Mesh2D(4, 4),
                                           traffic_class=NeighborTraffic)
        hotspot_model = AnalyticNocModel(Mesh2D(4, 4),
                                         traffic_class=HotspotTraffic,
                                         hotspot_modules=[5],
                                         hotspot_fraction=0.5)
        uniform_model = AnalyticNocModel(Mesh2D(4, 4))
        # Local traffic sustains a much higher injection rate than uniform;
        # hotspot traffic saturates earlier.
        assert neighbour_model.saturation_rate() > uniform_model.saturation_rate()
        assert hotspot_model.saturation_rate() < uniform_model.saturation_rate()


class TestScaling512Modules:
    def test_latency_gap_widens(self):
        # Fig. 8(b): at 512 modules the 2D mesh / 3D mesh latency gap grows
        # substantially compared to 64 modules.
        small_2d = AnalyticNocModel(Mesh2D(8, 8)).zero_load_latency()
        small_3d = AnalyticNocModel(Mesh3D(4, 4, 4)).zero_load_latency()
        large_2d = AnalyticNocModel(Mesh2D(32, 16)).zero_load_latency()
        large_3d = AnalyticNocModel(Mesh3D(8, 8, 8)).zero_load_latency()
        assert (large_2d - large_3d) > (small_2d - small_3d) * 2

    def test_3d_mesh_keeps_higher_saturation_at_512(self):
        large_2d = AnalyticNocModel(Mesh2D(32, 16)).saturation_rate()
        large_3d = AnalyticNocModel(Mesh3D(8, 8, 8)).saturation_rate()
        assert large_3d > 3.0 * large_2d


class TestMetrics:
    def test_average_hop_count_small_meshes(self):
        # 2x2 mesh: average Manhattan distance over distinct pairs = 4/3.
        assert average_hop_count(Mesh2D(2, 2)) == pytest.approx(4.0 / 3.0)

    def test_average_hop_count_concentration_reduces_hops(self):
        assert average_hop_count(StarMesh(4, 4, 4)) < \
            average_hop_count(Mesh2D(8, 8))

    def test_bisection_links(self):
        # 8x8 mesh cut across the middle: 8 bidirectional = 16 unidirectional.
        assert bisection_links(Mesh2D(8, 8)) == 16
        # 4x4x4 mesh: 16 bidirectional vertical cut = 32 unidirectional.
        assert bisection_links(Mesh3D(4, 4, 4)) == 32

    def test_bisection_bandwidth_per_module_ordering(self):
        # The 3D mesh has the highest, the star-mesh the lowest bisection
        # bandwidth per module — the structural reason for Fig. 8's ordering.
        mesh2d = bisection_bandwidth_per_module(Mesh2D(8, 8))
        star = bisection_bandwidth_per_module(StarMesh(4, 4, 4))
        mesh3d = bisection_bandwidth_per_module(Mesh3D(4, 4, 4))
        assert star < mesh2d < mesh3d

    def test_saturation_detection_from_curve(self):
        rates = np.linspace(0.05, 0.5, 10)
        latencies = np.where(rates < 0.4, 10.0, np.inf)
        assert saturation_injection_rate(rates, latencies) == pytest.approx(0.4)

    def test_saturation_detection_no_saturation(self):
        rates = np.linspace(0.05, 0.5, 10)
        latencies = np.full(10, 12.0)
        assert saturation_injection_rate(rates, latencies) == pytest.approx(0.5)

    def test_saturation_detection_validation(self):
        with pytest.raises(ValueError):
            saturation_injection_rate([], [])
        with pytest.raises(ValueError):
            saturation_injection_rate([0.1], [10.0], latency_threshold_factor=0.5)

    def test_latency_throughput_summary(self):
        model = AnalyticNocModel(Mesh2D(4, 4))
        rates = np.linspace(0.01, 1.0, 40)
        curve = model.latency_curve(rates)
        zero_load, saturation = latency_throughput_summary(
            rates, curve.mean_latency_cycles)
        assert zero_load == pytest.approx(model.zero_load_latency(), rel=0.05)
        assert saturation == pytest.approx(model.saturation_rate(), abs=0.1)

    def test_summary_requires_finite_points(self):
        with pytest.raises(ValueError):
            latency_throughput_summary([0.1, 0.2], [np.inf, np.inf])

    def test_zero_load_latency_validation(self):
        with pytest.raises(ValueError):
            zero_load_latency(Mesh2D(2, 2), pipeline_latency_cycles=0.0)
