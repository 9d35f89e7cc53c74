"""Analytic queueing-theory performance model for NoC topologies.

This reproduces the role of the model the paper cites as [14] (Fischer,
Fehske, Fettweis, "A flexible analytic model for the design space
exploration of many-core network-on-chips based on queueing theory"): mean
packet latency and saturation throughput are obtained without cycle-level
simulation by

1. routing every traffic flow over the topology (dimension-ordered routing),
2. accumulating the per-channel loads,
3. modelling every channel (router-to-router link, injection and ejection
   port) as an M/M/1 queue whose waiting time diverges as the channel load
   approaches its capacity, and
4. summing pipeline latency and waiting times along each flow's path,
   weighted by the flow rates.

Steps 1-2 are a frontier walk over the routing's next-router table: every
router-pair flow advances one hop per step, a block of source routers at a
time, and the recorded links are sorted back into per-pair order (source
by source, destination by destination, hop by hop along each path) before
``np.add.at`` adds the flow rates in index order.  Every addition happens
in the order a per-pair path walk would make it, so the channel loads,
their key order and the weighted hop count are bit-identical to that
walk, which ``tests/oracles/noc.py`` keeps as the reference.

Calibration: the router pipeline latency (2 cycles per traversed router)
and the effective channel service time (1.2 cycles per flit, absorbing
switch-allocation and protocol overheads of the reference router) are
chosen so the 64-module zero-load latencies and saturation points of the
paper's Fig. 8(a) are reproduced: about 13 / 7 / 10 cycles and
0.41 / 0.19 / 0.75 flits/cycle/module for the 8x8 2D mesh, 4x4x4 star-mesh
and 4x4x4 3D mesh respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.noc.routing import DimensionOrderedRouting
from repro.noc.topology import GridTopology
from repro.noc.traffic import UniformTraffic, _TrafficPattern
from repro.utils.validation import check_non_negative, check_positive

Channel = Tuple[str, int, int]

#: Flows one block of the routing walk advances together: a block holds
#: ``_WALK_FLOWS // n_routers`` source routers (at least one), which
#: bounds the walk's memory on large grids; 64-router models are one block.
_WALK_FLOWS = 8192


def _frontier_walk(table: np.ndarray, sources: np.ndarray,
                   destinations: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Every link of every flow's path, in the per-pair walk's order.

    ``table[current, destination]`` is the next router on a path.  All
    unfinished flows advance one hop per step, and each step records
    ``(flow, link)`` with the link as ``upstream * n_routers +
    downstream``.  Steps are recorded one after another, flows in
    ascending order within each, so a stable sort by flow lists each
    flow's links in path order, flow after flow; returns their flow
    indices and links.
    """
    n_routers = table.shape[0]
    flows = np.flatnonzero(sources != destinations)
    position = sources[flows]
    target = destinations[flows]
    records = []
    while flows.size:
        following = table[position, target]
        records.append((flows, position * n_routers + following))
        moving = following != target
        flows = flows[moving]
        position = following[moving]
        target = target[moving]
    if not records:                 # no flow leaves its source router
        return flows, flows
    flow_ids, links = (np.concatenate(part) for part in zip(*records))
    order = np.argsort(flow_ids, kind="stable")
    return flow_ids[order], links[order]


@dataclass(frozen=True)
class RouterParameters:
    """Timing parameters of the router model.

    Attributes
    ----------
    pipeline_latency_cycles:
        Cycles a head flit spends inside each traversed router at zero load.
    service_time_cycles:
        Effective time a flit occupies a channel (link or local port);
        values above 1.0 absorb allocation/protocol overheads.
    link_latency_cycles:
        Additional wire delay per router-to-router channel.
    """

    pipeline_latency_cycles: float = 2.0
    service_time_cycles: float = 1.2
    link_latency_cycles: float = 0.0

    def __post_init__(self) -> None:
        check_positive("pipeline_latency_cycles", self.pipeline_latency_cycles)
        check_positive("service_time_cycles", self.service_time_cycles)
        check_non_negative("link_latency_cycles", self.link_latency_cycles)


@dataclass(frozen=True)
class LatencyResult:
    """Mean latency evaluated at a list of injection rates.

    Attributes
    ----------
    injection_rates:
        Offered load per module in flits/cycle/module.
    mean_latency_cycles:
        Mean packet latency; ``inf`` beyond the saturation point.
    saturation_rate:
        Injection rate at which the most loaded channel reaches 100 %
        utilisation.
    topology_name:
        Name of the evaluated topology.
    """

    injection_rates: np.ndarray
    mean_latency_cycles: np.ndarray
    saturation_rate: float
    topology_name: str

    def zero_load_latency(self) -> float:
        """Latency of the lowest evaluated injection rate."""
        finite = self.mean_latency_cycles[np.isfinite(self.mean_latency_cycles)]
        if finite.size == 0:
            raise ValueError("no finite latency points in the result")
        return float(finite[0])


class AnalyticNocModel:
    """Queueing-theory latency/throughput model for one topology + pattern.

    Parameters
    ----------
    topology:
        Any :class:`repro.noc.topology.GridTopology`.
    router:
        Timing parameters; defaults reproduce the paper's calibration.
    traffic_class:
        Traffic pattern class (default uniform, as in Fig. 8); the pattern
        is instantiated per injection rate but its *shape* is assumed
        independent of the rate, which holds for all shipped patterns.
    routing_class:
        Routing algorithm class (default dimension-ordered, the paper's
        assumption); any class from :mod:`repro.noc.routing` works.
    """

    def __init__(self, topology: GridTopology,
                 router: RouterParameters = RouterParameters(),
                 traffic_class=UniformTraffic,
                 routing_class=DimensionOrderedRouting,
                 **traffic_kwargs) -> None:
        self.topology = topology
        self.router = router
        self.routing = routing_class(topology)
        self.traffic_class = traffic_class
        self.traffic_kwargs = traffic_kwargs
        self._unit_loads, self._weighted_hops = self._analyse_unit_traffic()

    # ------------------------------------------------------------------
    # traffic analysis (per unit injection rate)
    # ------------------------------------------------------------------
    def _analyse_unit_traffic(self) -> Tuple[Dict[Channel, float], float]:
        """Channel loads and rate-weighted hop count for unit injection
        (steps 1-2 of the module docstring)."""
        pattern: _TrafficPattern = self.traffic_class(
            self.topology, 1.0, **self.traffic_kwargs)
        rates = pattern.rate_matrix()
        n_modules = self.topology.n_modules
        if rates.shape != (n_modules, n_modules):
            raise ValueError("traffic pattern produced a mis-shaped rate matrix")
        loads: Dict[Channel, float] = {}
        total_rate = rates.sum()
        n_routers = self.topology.n_routers
        # Aggregate module pairs by router pairs to cut the path
        # enumeration from (c*R)^2 to R^2 flows.
        router_rates = rates.reshape(
            n_routers, self.topology.concentration,
            n_routers, self.topology.concentration,
        ).sum(axis=(1, 3))
        for module in range(n_modules):
            injected = rates[module].sum()
            if injected > 0.0:
                loads[("injection", module, -1)] = injected
            received = rates[:, module].sum()
            if received > 0.0:
                loads[("ejection", module, -1)] = received
        table = self.routing.next_router_table()
        # Link (u, v) is entry u * R + v of the per-link arrays.
        link_loads = np.zeros(n_routers * n_routers)
        seen = np.zeros(n_routers * n_routers, dtype=bool)
        link_order = []
        weighted_routers = 0.0
        block = max(1, _WALK_FLOWS // n_routers)
        for first_source in range(0, n_routers, block):
            sources, destinations = np.nonzero(
                router_rates[first_source:first_source + block] > 0.0)
            sources += first_source
            flow_rates = router_rates[sources, destinations]
            flow_ids, links = _frontier_walk(table, sources, destinations)
            # ufunc.at adds in index order, so every load is the running
            # sum of its flows' rates in the per-pair walk's order.
            np.add.at(link_loads, links, flow_rates[flow_ids])
            # Links new to this block join the key order where they first
            # occur in its link stream.
            new, first = np.unique(links[~seen[links]], return_index=True)
            link_order.append(new[np.argsort(first)])
            seen[new] = True
            # cumsum adds sequentially: the running sum of rate * |path|.
            path_routers = np.bincount(flow_ids, minlength=sources.size) + 1
            weighted_routers = np.cumsum(np.concatenate(
                ([weighted_routers], flow_rates * path_routers)))[-1]
        order = np.concatenate(link_order)
        for link, load in zip(order.tolist(), link_loads[order]):
            loads[("link", link // n_routers, link % n_routers)] = load
        if total_rate <= 0.0:
            return loads, 1.0
        return loads, weighted_routers / total_rate

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------
    @property
    def weighted_router_traversals(self) -> float:
        """Rate-weighted mean number of routers a packet traverses."""
        return self._weighted_hops

    def channel_loads(self, injection_rate: float) -> Dict[Channel, float]:
        """Per-channel loads (flits/cycle) at an injection rate."""
        check_non_negative("injection_rate", injection_rate)
        return {channel: load * injection_rate
                for channel, load in self._unit_loads.items()}

    def max_channel_load_per_unit_injection(self) -> float:
        """Load of the busiest channel for unit injection rate."""
        if not self._unit_loads:
            return 0.0
        return max(self._unit_loads.values())

    def saturation_rate(self) -> float:
        """Injection rate at which the busiest channel reaches utilisation 1."""
        max_load = self.max_channel_load_per_unit_injection()
        if max_load <= 0.0:
            return float("inf")
        return 1.0 / (max_load * self.router.service_time_cycles)

    def zero_load_latency(self) -> float:
        """Mean packet latency in the no-contention limit."""
        hops = self._weighted_hops - 1.0
        return (self._weighted_hops * self.router.pipeline_latency_cycles
                + hops * self.router.link_latency_cycles)

    def mean_latency(self, injection_rate: float) -> float:
        """Mean packet latency at an injection rate (``inf`` past saturation)."""
        check_non_negative("injection_rate", injection_rate)
        service = self.router.service_time_cycles
        base = self.zero_load_latency()
        if injection_rate == 0.0:
            return base
        waiting_total = 0.0
        total_rate = 0.0
        for channel, unit_load in self._unit_loads.items():
            load = unit_load * injection_rate
            utilisation = load * service
            if utilisation >= 1.0:
                return float("inf")
            waiting = utilisation * service / (1.0 - utilisation)
            waiting_total += waiting * load
            if channel[0] == "injection":
                total_rate += load
        if total_rate <= 0.0:
            return base
        return base + waiting_total / total_rate

    def evaluate(self, injection_rate: float, rng=None) -> "NocEvaluation":
        """One operating point in the unified :class:`~repro.noc.model.NocModel` shape.

        ``rng`` is accepted for interface parity with the simulated model
        and ignored — the analytic model is deterministic.
        """
        from repro.noc.model import NocEvaluation

        check_non_negative("injection_rate", injection_rate)
        return NocEvaluation(
            injection_rate=float(injection_rate),
            mean_latency_cycles=float(self.mean_latency(injection_rate)),
            accepted_throughput=float(self.throughput_at(injection_rate)),
            saturated=bool(injection_rate >= self.saturation_rate()),
            source="analytic")

    def latency_curve(self, injection_rates: Sequence[float],
                      rng=None) -> LatencyResult:
        """Evaluate the latency at a list of injection rates (Fig. 8 curves).

        ``rng`` is accepted for interface parity with
        :class:`~repro.noc.model.SimulatedNocModel` and ignored.
        """
        rates = np.asarray(list(injection_rates), dtype=float)
        if rates.size == 0:
            raise ValueError("at least one injection rate is required")
        if np.any(rates < 0.0):
            raise ValueError("injection rates must be non-negative")
        latencies = np.array([self.mean_latency(rate) for rate in rates])
        return LatencyResult(injection_rates=rates,
                             mean_latency_cycles=latencies,
                             saturation_rate=self.saturation_rate(),
                             topology_name=self.topology.name)

    def throughput_at(self, injection_rate: float) -> float:
        """Accepted throughput (flits/cycle/module): offered load capped at saturation."""
        check_non_negative("injection_rate", injection_rate)
        return float(min(injection_rate, self.saturation_rate()))
