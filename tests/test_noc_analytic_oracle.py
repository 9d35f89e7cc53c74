"""The analytic NoC model and metrics against their retired loop forms.

:class:`~repro.noc.AnalyticNocModel` routes every flow with a frontier
walk over ``next_router_table``, one block of source routers at a time;
the oracle in ``tests/oracles/noc.py`` walks ``router_path`` for every
router pair.  Both must give the same channel loads bit for bit (compared
as ``float.hex``), in the same key order, with the same weighted router
traversals and the same mean latencies.  The hop-count and bisection
metrics are closed forms checked against the loops they replaced.
"""

import copy
import itertools
import tracemalloc

import numpy as np
import pytest

from oracles.noc import (
    loop_average_hop_count,
    loop_bisection_links,
    scalar_unit_traffic,
)
from repro.noc import analytic
from repro.noc.analytic import AnalyticNocModel
from repro.noc.metrics import average_hop_count, bisection_links
from repro.noc.routing import ROUTING_ALGORITHMS
from repro.noc.topology import (
    CiliatedMesh3D,
    GridTopology,
    Mesh2D,
    Mesh3D,
    StarMesh,
)
from repro.noc.traffic import TRAFFIC_PATTERNS, HotspotTraffic

TOPOLOGIES = {
    "8x8": lambda: Mesh2D(8, 8),
    "4x4x4 star-mesh": lambda: StarMesh(4, 4, 4),
    "4x4x4": lambda: Mesh3D(4, 4, 4),
    "4x4x2 ciliated c=2": lambda: CiliatedMesh3D(4, 4, 2, concentration=2),
    "5x3": lambda: Mesh2D(5, 3),
    "1x1": lambda: Mesh2D(1, 1),
    "3x1 c=3": lambda: Mesh2D(3, 1, concentration=3),
}
RATES = (0.0, 0.01, 0.1, 0.3, 0.5)


def _fingerprint(loads):
    """Keys (with their element types), value types and exact values."""
    return [(key, tuple(map(type, key)), type(value), float(value).hex())
            for key, value in loads.items()]


def assert_matches_oracle(model: AnalyticNocModel) -> None:
    loads, weighted = scalar_unit_traffic(model)
    assert _fingerprint(model.channel_loads(1.0)) == _fingerprint(loads)
    assert float(model.weighted_router_traversals).hex() == \
        float(weighted).hex()
    oracle = copy.copy(model)
    oracle._unit_loads, oracle._weighted_hops = loads, weighted
    for rate in RATES:
        assert float(model.mean_latency(rate)).hex() == \
            float(oracle.mean_latency(rate)).hex()


@pytest.mark.parametrize("routing", sorted(ROUTING_ALGORITHMS))
@pytest.mark.parametrize("traffic", sorted(TRAFFIC_PATTERNS))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_walk_matches_per_pair_walk(topology, traffic, routing):
    assert_matches_oracle(AnalyticNocModel(
        TOPOLOGIES[topology](),
        traffic_class=TRAFFIC_PATTERNS[traffic],
        routing_class=ROUTING_ALGORITHMS[routing]))


@pytest.mark.parametrize("routing", sorted(ROUTING_ALGORITHMS))
def test_blocked_walk_sums_unequal_rates_in_scalar_order(routing):
    topology = Mesh2D(12, 10)
    # More routers than one block holds: the walk runs in two blocks.
    assert analytic._WALK_FLOWS // topology.n_routers < topology.n_routers
    # Hotspot flows carry different rates, so the order of each link's
    # additions shows in its rounding.
    rates = HotspotTraffic(topology, 1.0).rate_matrix()
    assert np.unique(rates[rates > 0.0]).size > 1
    assert_matches_oracle(AnalyticNocModel(
        topology, traffic_class=HotspotTraffic,
        routing_class=ROUTING_ALGORITHMS[routing]))


def _small_grids():
    shapes = [*itertools.product(range(1, 6), repeat=2),
              *itertools.product(range(1, 5), repeat=3)]
    return [(shape, concentration) for shape in shapes
            for concentration in (1, 2, 3)]


def test_closed_forms_match_the_loops_on_every_small_grid():
    grids = _small_grids()
    assert len(grids) == 267
    for shape, concentration in grids:
        topology = GridTopology(shape, concentration)
        assert average_hop_count(topology) == \
            loop_average_hop_count(topology), (shape, concentration)
        assert bisection_links(topology) == \
            loop_bisection_links(topology), (shape, concentration)


def test_large_model_build_memory_is_bounded():
    topology = Mesh2D(32, 16)
    tracemalloc.start()
    try:
        AnalyticNocModel(topology)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
