"""3D Network-in-Chip-Stack (NiCS) topologies and performance models (Section IV).

The paper compares a classical 2D mesh, a concentrated ("star") mesh and a
3D mesh under uniform Poisson traffic using a queueing-theory performance
model, concluding that the 3D mesh combines low latency with the highest
saturation throughput and scales best to many-core systems (Fig. 8).

Modules:

* :mod:`repro.noc.topology` — grid topologies with optional concentration:
  2D mesh, star-mesh (concentrated 2D mesh), 3D mesh and ciliated 3D mesh.
* :mod:`repro.noc.routing` — dimension-ordered (XY/XYZ) and shortest-path
  routing.
* :mod:`repro.noc.traffic` — uniform, hotspot, transpose and neighbour
  traffic patterns with Poisson arrivals.
* :mod:`repro.noc.analytic` — the queueing-theory latency/throughput model
  used for Fig. 8.
* :mod:`repro.noc.simulator` — the vectorized cycle-level flit simulator
  (finite buffers with backpressure, lossy links with retransmission).
* :mod:`repro.noc.model` — the unified :class:`~repro.noc.model.NocModel`
  protocol both engines implement.
* :mod:`repro.noc.metrics` — hop counts, bisection bandwidth, saturation
  detection.
"""

from repro.noc.topology import (
    CiliatedMesh3D,
    GridTopology,
    Mesh2D,
    Mesh3D,
    StarMesh,
)
from repro.noc.routing import (
    ROUTING_ALGORITHMS,
    DimensionOrderedRouting,
    ShortestPathRouting,
    make_routing_class,
)
from repro.noc.traffic import (
    TRAFFIC_PATTERNS,
    HotspotTraffic,
    NeighborTraffic,
    TransposeTraffic,
    UniformTraffic,
    make_traffic_class,
)
from repro.noc.analytic import AnalyticNocModel, LatencyResult, RouterParameters
from repro.noc.simulator import NocSimulator, SimulationResult
from repro.noc.model import NocEvaluation, NocModel, SimulatedNocModel
from repro.noc.metrics import (
    average_hop_count,
    bisection_links,
    saturation_injection_rate,
    zero_load_latency,
)

__all__ = [
    "GridTopology",
    "Mesh2D",
    "Mesh3D",
    "StarMesh",
    "CiliatedMesh3D",
    "DimensionOrderedRouting",
    "ShortestPathRouting",
    "UniformTraffic",
    "HotspotTraffic",
    "TransposeTraffic",
    "NeighborTraffic",
    "AnalyticNocModel",
    "RouterParameters",
    "LatencyResult",
    "NocModel",
    "NocEvaluation",
    "SimulatedNocModel",
    "NocSimulator",
    "SimulationResult",
    "TRAFFIC_PATTERNS",
    "ROUTING_ALGORITHMS",
    "make_traffic_class",
    "make_routing_class",
    "average_hop_count",
    "bisection_links",
    "saturation_injection_rate",
    "zero_load_latency",
]
