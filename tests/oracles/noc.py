"""Retired NoC implementations, kept as test oracles.

* :class:`ReferenceNocSimulator` — the pre-vectorization engine behind
  :class:`repro.noc.NocSimulator`: output-queued routers with per-cycle
  Python loops over channels and packets.  The test suite checks the
  vectorized engine against it (same topology and comparable seeds give
  statistically indistinguishable delivered counts and latencies), and
  the Fig. 8 benchmark times the speed-up over it.
* :func:`scalar_unit_traffic` — the per-router-pair path walk behind
  :class:`repro.noc.AnalyticNocModel`'s channel loads, which the frontier
  walk must reproduce bit for bit.
* :func:`loop_average_hop_count` and :func:`loop_bisection_links` — the
  router-pair and link loops the closed forms in :mod:`repro.noc.metrics`
  replaced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

import numpy as np

from repro.noc.routing import DimensionOrderedRouting
from repro.noc.simulator import SimulationResult, _finish
from repro.noc.topology import GridTopology
from repro.noc.traffic import UniformTraffic, _TrafficPattern
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_non_negative, check_positive


class ReferenceNocSimulator:
    """Deque-of-queues reference implementation (behavioural baseline).

    The pre-vectorization engine: output-queued routers with per-cycle
    Python loops over channels and packets.  Kept (and tested) as the
    ground truth the vectorized :class:`NocSimulator` is compared
    against; it supports uniform-style traffic patterns and infinite
    buffers only.

    Parameters
    ----------
    topology:
        Any grid topology.
    pipeline_latency_cycles:
        Cycles a flit spends in every traversed router before it can
        compete for an output channel.
    link_latency_cycles:
        Additional wire delay per router-to-router channel traversal.
    traffic_class:
        Pattern used to pick packet destinations (default uniform).
    """

    def __init__(self, topology: GridTopology,
                 pipeline_latency_cycles: int = 2,
                 traffic_class=UniformTraffic,
                 link_latency_cycles: int = 0, **traffic_kwargs) -> None:
        if pipeline_latency_cycles < 0:
            raise ValueError("pipeline_latency_cycles must be non-negative")
        if link_latency_cycles < 0:
            raise ValueError("link_latency_cycles must be non-negative")
        self.topology = topology
        self.routing = DimensionOrderedRouting(topology)
        self.pipeline_latency_cycles = int(pipeline_latency_cycles)
        self.link_latency_cycles = int(link_latency_cycles)
        self.traffic_class = traffic_class
        self.traffic_kwargs = traffic_kwargs

    def _destination_distribution(self, injection_rate: float) -> np.ndarray:
        pattern: _TrafficPattern = self.traffic_class(
            self.topology, injection_rate, **self.traffic_kwargs)
        rates = pattern.rate_matrix()
        row_sums = rates.sum(axis=1, keepdims=True)
        if self.topology.n_modules > 1 and not (row_sums > 0.0).all():
            # The reference engine draws Poisson arrivals at *every*
            # module, so a pattern with silent modules (e.g. the
            # transpose fixed point) has no destination distribution to
            # sample from — fail clearly instead of letting
            # generator.choice raise from numpy internals.
            raise ValueError(
                "ReferenceNocSimulator only supports traffic patterns in "
                "which every module sends (uniform-style); use the "
                "vectorized NocSimulator for other patterns")
        with np.errstate(invalid="ignore", divide="ignore"):
            probabilities = np.where(row_sums > 0.0, rates / row_sums, 0.0)
        return probabilities

    def run(self, injection_rate: float, n_cycles: int = 5_000,
            warmup_cycles: int = 1_000, rng: RngLike = None
            ) -> SimulationResult:
        """Simulate the network at one injection rate.

        Packets created during the warm-up period are routed but excluded
        from the latency statistics.
        """
        check_non_negative("injection_rate", injection_rate)
        check_positive("n_cycles", n_cycles)
        if warmup_cycles < 0 or warmup_cycles >= n_cycles:
            raise ValueError("warmup_cycles must lie in [0, n_cycles)")
        generator = ensure_rng(rng)
        topology = self.topology
        destination_probs = self._destination_distribution(max(injection_rate,
                                                               1e-9))

        # Per-channel FIFO queues.  A queue entry is (ready_cycle, packet,
        # remaining_router_path).
        link_queues: Dict[Tuple[int, int], Deque] = {
            link: deque() for link in topology.links()}
        ejection_queues: Dict[int, Deque] = {
            router: deque() for router in range(topology.n_routers)}

        latencies: List[int] = []
        offered_measured = 0
        delivered_measured = 0

        for cycle in range(n_cycles):
            # --- injection ------------------------------------------------
            if injection_rate > 0.0:
                arrivals = generator.poisson(injection_rate,
                                             size=topology.n_modules)
                for module in np.nonzero(arrivals)[0]:
                    for _ in range(int(arrivals[module])):
                        destination = int(generator.choice(
                            topology.n_modules, p=destination_probs[module]))
                        packet = _Packet(module, destination, cycle,
                                         measured=cycle >= warmup_cycles)
                        if packet.measured:
                            offered_measured += 1
                        source_router = topology.router_of_module(module)
                        destination_router = topology.router_of_module(destination)
                        path = self.routing.router_path(source_router,
                                                        destination_router)
                        ready = cycle + self.pipeline_latency_cycles
                        self._enqueue(link_queues, ejection_queues, packet,
                                      path, ready)

            # --- channel service (one flit per channel per cycle) ---------
            # A forwarded flit becomes available at the next router no
            # earlier than the next cycle: a link traversal takes one
            # cycle even when the router pipeline is configured as
            # zero-latency.  (Without the max() a zero-pipeline flit would
            # arrive "ready" in a queue the dict iteration has not reached
            # yet and hop across several links within one cycle.)  Each
            # traversal additionally pays the per-channel wire delay.
            forward_delay = (max(self.pipeline_latency_cycles, 1)
                             + self.link_latency_cycles)
            for link, queue in link_queues.items():
                if queue and queue[0][0] <= cycle:
                    ready, packet, remaining_path = queue.popleft()
                    arrival = cycle + forward_delay
                    self._enqueue(link_queues, ejection_queues, packet,
                                  remaining_path, arrival)
            for router, queue in ejection_queues.items():
                if queue and queue[0][0] <= cycle:
                    ready, packet, _ = queue.popleft()
                    if packet.measured:
                        delivered_measured += 1
                        latencies.append(cycle - packet.creation_cycle + 1)

        measured_cycles = n_cycles - warmup_cycles
        return _finish(injection_rate, float(sum(latencies)),
                       delivered_measured, offered_measured, measured_cycles,
                       topology.n_modules)

    @staticmethod
    def _enqueue(link_queues: Dict[Tuple[int, int], Deque],
                 ejection_queues: Dict[int, Deque], packet: "_Packet",
                 router_path: List[int], ready_cycle: int) -> None:
        """Place a packet in the queue of its next channel."""
        if len(router_path) <= 1:
            ejection_queues[router_path[0]].append((ready_cycle, packet, None))
            return
        link = (router_path[0], router_path[1])
        link_queues[link].append((ready_cycle, packet, router_path[1:]))

    def latency_sweep(self, injection_rates, n_cycles: int = 5_000,
                      warmup_cycles: int = 1_000, rng: RngLike = None,
                      engine=None) -> List[SimulationResult]:
        """Run the reference simulator at several injection rates."""
        from repro.core.engine import SweepEngine

        if engine is None:
            engine = SweepEngine()
        worker = _ReferenceSweepWorker(self, int(n_cycles),
                                       int(warmup_cycles))
        points = [{"injection_rate": float(rate)}
                  for rate in injection_rates]
        return engine.sweep_values(worker, points, rng=rng)


@dataclass(frozen=True)
class _ReferenceSweepWorker:
    """Sweep worker running the reference simulator at one rate (one
    point per call: the reference engine has no merged loop)."""

    simulator: ReferenceNocSimulator
    n_cycles: int
    warmup_cycles: int

    def __call__(self, params, rng) -> SimulationResult:
        return self.simulator.run(params["injection_rate"],
                                  n_cycles=self.n_cycles,
                                  warmup_cycles=self.warmup_cycles,
                                  rng=rng)


@dataclass
class _Packet:
    source_module: int
    destination_module: int
    creation_cycle: int
    measured: bool


# ----------------------------------------------------------------------
# analytic model and metrics
# ----------------------------------------------------------------------
def scalar_unit_traffic(model) -> Tuple[Dict[Tuple[str, int, int], float],
                                        float]:
    """Unit-injection channel loads and weighted router traversals of an
    :class:`~repro.noc.AnalyticNocModel`, by walking ``router_path`` for
    every router pair in source-major order."""
    topology = model.topology
    pattern = model.traffic_class(topology, 1.0, **model.traffic_kwargs)
    rates = pattern.rate_matrix()
    n_modules = topology.n_modules
    loads: Dict[Tuple[str, int, int], float] = {}
    total_rate = rates.sum()
    weighted_routers = 0.0
    router_rates = rates.reshape(
        topology.n_routers, topology.concentration,
        topology.n_routers, topology.concentration,
    ).sum(axis=(1, 3))
    for module in range(n_modules):
        injected = rates[module].sum()
        if injected > 0.0:
            loads[("injection", module, -1)] = injected
        received = rates[:, module].sum()
        if received > 0.0:
            loads[("ejection", module, -1)] = received
    for source_router in range(topology.n_routers):
        for destination_router in range(topology.n_routers):
            rate = router_rates[source_router, destination_router]
            if rate <= 0.0:
                continue
            path = model.routing.router_path(source_router,
                                             destination_router)
            weighted_routers += rate * len(path)
            for upstream, downstream in zip(path[:-1], path[1:]):
                key = ("link", upstream, downstream)
                loads[key] = loads.get(key, 0.0) + rate
    if total_rate <= 0.0:
        return loads, 1.0
    return loads, weighted_routers / total_rate


def loop_average_hop_count(topology: GridTopology) -> float:
    """Mean hop count over distinct module pairs, by a router-pair loop."""
    n_modules = topology.n_modules
    if n_modules < 2:
        return 0.0
    routing = DimensionOrderedRouting(topology)
    total = 0.0
    concentration = topology.concentration
    n_routers = topology.n_routers
    pair_count = 0
    for source_router in range(n_routers):
        for destination_router in range(n_routers):
            hops = routing.hop_count(source_router, destination_router)
            if source_router == destination_router:
                pairs = concentration * (concentration - 1)
            else:
                pairs = concentration * concentration
            total += hops * pairs
            pair_count += pairs
    return total / pair_count


def loop_bisection_links(topology: GridTopology) -> int:
    """Channels crossing the middle of the longest axis, by a link loop."""
    dimensions = topology.dimensions
    longest_axis = int(np.argmax(dimensions))
    cut_position = dimensions[longest_axis] // 2
    count = 0
    for upstream, downstream in topology.links():
        a = topology.router_coordinate(upstream)[longest_axis]
        b = topology.router_coordinate(downstream)[longest_axis]
        if min(a, b) < cut_position <= max(a, b):
            count += 1
    return count
