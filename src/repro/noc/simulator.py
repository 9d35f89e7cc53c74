"""Vectorized cycle-level flit simulator for the NoC topologies.

:class:`NocSimulator` is *vectorized*: all injection randomness (Poisson
arrivals, destination draws) is generated up front as NumPy batches,
every channel is a slot in one flat ring buffer, and each cycle is a
fixed handful of array operations over all channels at once instead of a
Python loop over queues and packets.  On the paper's 64-module topologies
it is an order of magnitude faster than the original deque-of-queues
engine, which the test suite keeps as its behavioural oracle (same
topology and comparable seeds give statistically indistinguishable
delivered counts and latencies; benchmarked in
``benchmarks/test_bench_fig8_vectorized_sim.py``).

Model: output-queued routers, single-flit packets, per-module Poisson
injection, one flit per channel per cycle, a fixed pipeline delay per
traversed router and an optional per-channel wire delay
(``link_latency_cycles``).  On top of that the engine supports

* pluggable routing (:class:`~repro.noc.routing.DimensionOrderedRouting`
  or :class:`~repro.noc.routing.ShortestPathRouting`) and all traffic
  patterns of :mod:`repro.noc.traffic`,
* **finite channel buffers with backpressure**: when
  ``buffer_depth_flits`` is set, a flit may only advance into a
  downstream channel holding fewer than that many flits at the start of
  the cycle (a slot freed in cycle *t* is reusable from cycle *t + 1*);
  blocked flits stall in place.  Newly injected flits always enter their
  first channel — the network-interface source queue is modelled as
  infinite, the standard open-loop assumption.
* **lossy links**: each link traversal fails independently with
  probability ``link_error_rate`` (flit dropped or corrupted beyond the
  FEC's correction ability) and is retransmitted from the same buffer
  slot one cycle later.  The error probability is typically derived from
  the PHY/coding operating point via
  :func:`repro.core.crosslayer.link_flit_error_rate`.  With
  ``link_error_rate=0`` the loss machinery is skipped entirely and — all
  injection randomness being pre-generated — results are bit-identical
  to a lossless run at the same seed.

Edge case (defined behaviour): when **zero packets are delivered** after
the warm-up period there is no latency sample, and ``mean_latency_cycles``
is ``math.inf`` — with ``saturated=True`` when traffic was offered (the
network moved none of it within the horizon) and ``saturated=False`` when
nothing was offered (``injection_rate=0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.noc.routing import DimensionOrderedRouting
from repro.noc.topology import GridTopology
from repro.noc.traffic import UniformTraffic, _TrafficPattern
from repro.utils.rng import RngLike, ensure_rng, spawn_generators
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    injection_rate:
        Offered load per module in flits/cycle/module.
    mean_latency_cycles:
        Mean latency of packets delivered after the warm-up period;
        ``math.inf`` when no packet was delivered (see the module
        docstring for the defined edge case).
    delivered_packets:
        Number of packets the latency average is based on.
    offered_packets:
        Number of packets injected after the warm-up period.
    accepted_throughput:
        Delivered flits per cycle per module (measured after warm-up).
    saturated:
        Heuristic flag: the network failed to deliver most of the offered
        traffic within the simulated horizon.
    retransmitted_flits:
        Link traversals that failed and were retried (0 unless the
        simulator models lossy links).
    """

    injection_rate: float
    mean_latency_cycles: float
    delivered_packets: int
    offered_packets: int
    accepted_throughput: float
    saturated: bool
    retransmitted_flits: int = 0


def _finish(injection_rate: float, latency_sum: float, delivered: int,
            offered: int, measured_cycles: int, n_modules: int,
            retransmitted: int = 0) -> SimulationResult:
    """Assemble a :class:`SimulationResult` with the zero-delivery rule."""
    if delivered > 0:
        mean_latency = latency_sum / delivered
        saturated = bool(offered > 0 and delivered < 0.8 * offered)
    else:
        # No latency sample exists: report an infinite mean, and call the
        # network saturated only if it was actually offered traffic.
        mean_latency = math.inf
        saturated = bool(offered > 0)
    throughput = delivered / (measured_cycles * n_modules)
    return SimulationResult(injection_rate=float(injection_rate),
                            mean_latency_cycles=float(mean_latency),
                            delivered_packets=int(delivered),
                            offered_packets=int(offered),
                            accepted_throughput=float(throughput),
                            saturated=saturated,
                            retransmitted_flits=int(retransmitted))


def _check_horizon(n_cycles: int, warmup_cycles: int) -> None:
    check_positive("n_cycles", n_cycles)
    if warmup_cycles < 0 or warmup_cycles >= n_cycles:
        raise ValueError("warmup_cycles must lie in [0, n_cycles)")


class NocSimulator:
    """Vectorized discrete-time NoC simulator with output-queued routers.

    Parameters
    ----------
    topology:
        Any grid topology.
    pipeline_latency_cycles:
        Cycles a flit spends in every traversed router before it can
        compete for an output channel (2 in the paper calibration).
    traffic_class:
        Pattern used to pick packet destinations (default uniform); extra
        keyword arguments are forwarded to the pattern constructor.
    routing_class:
        Routing algorithm class (default dimension-ordered); anything
        providing ``next_router_table()`` works.
    link_latency_cycles:
        Additional wire delay charged per router-to-router channel
        traversal (the :class:`~repro.noc.analytic.RouterParameters`
        knob, now honored by the cycle simulator as well).
    buffer_depth_flits:
        Finite per-channel buffer depth enabling backpressure; ``None``
        (or 0) models infinite buffers, matching the analytic model.
    link_error_rate:
        Per-traversal flit error probability on every router-to-router
        link; failed traversals are retransmitted (see module docstring).
    """

    def __init__(self, topology: GridTopology,
                 pipeline_latency_cycles: int = 2,
                 traffic_class=UniformTraffic,
                 routing_class=DimensionOrderedRouting,
                 link_latency_cycles: int = 0,
                 buffer_depth_flits: Optional[int] = None,
                 link_error_rate: float = 0.0,
                 **traffic_kwargs) -> None:
        if pipeline_latency_cycles < 0:
            raise ValueError("pipeline_latency_cycles must be non-negative")
        if link_latency_cycles < 0:
            raise ValueError("link_latency_cycles must be non-negative")
        check_probability("link_error_rate", link_error_rate)
        if link_error_rate >= 1.0:
            raise ValueError("link_error_rate must be below 1 (a link that "
                             "always fails never delivers a flit)")
        if buffer_depth_flits is not None and buffer_depth_flits < 0:
            raise ValueError("buffer_depth_flits must be non-negative")
        self.topology = topology
        self.routing = routing_class(topology)
        self.pipeline_latency_cycles = int(pipeline_latency_cycles)
        self.link_latency_cycles = int(link_latency_cycles)
        self.buffer_depth_flits = (int(buffer_depth_flits)
                                   if buffer_depth_flits else None)
        self.link_error_rate = float(link_error_rate)
        self.traffic_class = traffic_class
        self.traffic_kwargs = traffic_kwargs
        self._tables = self._build_tables()

    # ------------------------------------------------------------------
    # static routing tables
    # ------------------------------------------------------------------
    def _build_tables(self) -> Dict[str, np.ndarray]:
        """Queue-indexed routing tables.

        Queues ``0..L-1`` are the unidirectional router-to-router
        channels, queues ``L..L+R-1`` the per-router ejection ports.
        ``first_q[s, d]`` is the queue a packet injected at router ``s``
        for router ``d`` enters; ``next_q[l, d]`` the queue a flit leaving
        link ``l`` towards ``d`` enters.
        """
        topology = self.topology
        n_routers = topology.n_routers
        links = list(topology.links())
        n_links = len(links)
        link_src = np.array([u for u, _ in links], dtype=np.int64)
        link_dst = np.array([v for _, v in links], dtype=np.int64)
        link_of = np.full((n_routers, n_routers), -1, dtype=np.int64)
        link_of[link_src, link_dst] = np.arange(n_links)
        next_router = self.routing.next_router_table()

        routers = np.arange(n_routers)
        # first hop from an injecting router
        first_q = np.where(routers[None, :] == routers[:, None],
                           (n_links + routers)[:, None],
                           link_of[routers[:, None], next_router])
        # next hop after traversing each link
        next_q = np.where(routers[None, :] == link_dst[:, None],
                          (n_links + link_dst)[:, None],
                          link_of[link_dst[:, None], next_router[link_dst]])
        if (first_q < 0).any() or (next_q < 0).any():
            raise ValueError("routing produced a hop that is not a channel "
                             "of the topology")
        return {"first_q": first_q, "next_q": next_q,
                "n_links": n_links, "n_queues": n_links + n_routers}

    # ------------------------------------------------------------------
    # injection pre-generation
    # ------------------------------------------------------------------
    def _pregenerate_injections(self, injection_rate: float, n_cycles: int,
                                generator: np.random.Generator):
        """All packets of the run, in creation order (NumPy-batched).

        Per-module arrival rates equal the traffic pattern's row sums
        (each sending module offers its pattern rate; a module without
        destinations — e.g. the transpose fixed point — injects nothing),
        and destinations are drawn from the normalised row distribution
        by inverse CDF.
        """
        topology = self.topology
        n_modules = topology.n_modules
        pattern: _TrafficPattern = self.traffic_class(
            topology, float(injection_rate), **self.traffic_kwargs)
        rates = pattern.rate_matrix()
        if rates.shape != (n_modules, n_modules):
            raise ValueError("traffic pattern produced a mis-shaped rate matrix")
        row_sums = rates.sum(axis=1)
        if not row_sums.any():
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        with np.errstate(invalid="ignore", divide="ignore"):
            probabilities = np.where(row_sums[:, None] > 0.0,
                                     rates / row_sums[:, None], 0.0)
        cdf = np.cumsum(probabilities, axis=1)
        arrivals = generator.poisson(row_sums, size=(n_cycles, n_modules))
        n_packets = int(arrivals.sum())
        if n_packets == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        source_module = np.repeat(np.tile(np.arange(n_modules), n_cycles),
                                  arrivals.ravel())
        creation = np.repeat(np.arange(n_cycles, dtype=np.int64),
                             arrivals.sum(axis=1))
        uniforms = generator.random(n_packets)
        destination = np.empty(n_packets, dtype=np.int64)
        block = 1 << 16  # bound the (packets, modules) CDF slice memory
        for start in range(0, n_packets, block):
            stop = min(start + block, n_packets)
            rows = cdf[source_module[start:stop]]
            destination[start:stop] = (
                rows < uniforms[start:stop, None]).sum(axis=1)
        np.minimum(destination, n_modules - 1, out=destination)
        return source_module, destination, creation

    # ------------------------------------------------------------------
    # the engine
    # ------------------------------------------------------------------
    def run(self, injection_rate: float, n_cycles: int = 5_000,
            warmup_cycles: int = 1_000, rng: RngLike = None
            ) -> SimulationResult:
        """Simulate the network at one injection rate.

        Packets created during the warm-up period are routed but excluded
        from the latency statistics.
        """
        check_non_negative("injection_rate", injection_rate)
        _check_horizon(n_cycles, warmup_cycles)
        return _run_merged([self], [injection_rate], [ensure_rng(rng)],
                           int(n_cycles), int(warmup_cycles))[0]

    def run_batch(self, injection_rate, n_cycles: int = 5_000,
                  warmup_cycles: int = 1_000, rngs=None,
                  n_replications: Optional[int] = None,
                  rng: RngLike = None,
                  simulators: Optional[Sequence["NocSimulator"]] = None
                  ) -> List[SimulationResult]:
        """Run several independent replications in one merged cycle loop.

        The replications are simulated as one system whose queue/packet id
        spaces are partitioned per replication: replication ``r``'s queues
        are a contiguous block of global queue ids, so replications never
        interact and each per-replication result is **bit-identical** to a
        solo :meth:`run` of its simulator with the same rate and generator
        (including lossy-link retransmission draws).  The per-cycle
        Python/NumPy dispatch overhead — which dominates the solo engine on
        the paper's 64-module topologies — is paid once for all
        replications instead of once per replication.

        Parameters
        ----------
        injection_rate:
            One offered load for every replication, or a sequence holding
            one per replication.
        n_cycles, warmup_cycles:
            As in :meth:`run`; shared by every replication.
        rngs:
            Explicit per-replication seeds/generators.  Each entry yields
            the same result a solo ``run(..., rng=entry)`` would.
        n_replications:
            Alternative to ``rngs``: spawn this many independent child
            generators from ``rng``.
        rng:
            Parent generator for ``n_replications``.
        simulators:
            Optional per-replication simulators — each may differ in
            topology, traffic, routing, latencies, buffer depth and link
            error rate; by default every replication runs this one.

        Returns
        -------
        One :class:`SimulationResult` per replication, in input order.
        """
        _check_horizon(n_cycles, warmup_cycles)
        if rngs is not None:
            if n_replications is not None and n_replications != len(rngs):
                raise ValueError("pass either rngs or n_replications, "
                                 "not conflicting values of both")
            generators = [ensure_rng(entry) for entry in rngs]
        else:
            if n_replications is None:
                raise ValueError("run_batch needs rngs or n_replications")
            check_positive("n_replications", n_replications)
            generators = spawn_generators(ensure_rng(rng),
                                          int(n_replications))
        if not generators:
            raise ValueError("run_batch needs at least one replication")
        rates = (list(injection_rate) if np.ndim(injection_rate)
                 else [injection_rate] * len(generators))
        simulators = ([self] * len(generators) if simulators is None
                      else list(simulators))
        if len(rates) != len(generators) or \
                len(simulators) != len(generators):
            raise ValueError("run_batch needs one injection rate and one "
                             "simulator per replication")
        for rate in rates:
            check_non_negative("injection_rate", rate)
        return _run_merged(simulators, rates, generators, int(n_cycles),
                           int(warmup_cycles))

    # ------------------------------------------------------------------
    def latency_sweep(self, injection_rates, n_cycles: int = 5_000,
                      warmup_cycles: int = 1_000, rng: RngLike = None,
                      engine=None) -> List[SimulationResult]:
        """Run the simulator at several injection rates.

        The rates are evaluated through a
        :class:`repro.core.engine.SweepEngine` (a private serial one by
        default): each rate gets an independent generator spawned from
        ``rng``, so the points share no random stream.  Pass a shared
        engine for result caching or process-level parallelism.
        """
        from repro.core.engine import SweepEngine

        if engine is None:
            engine = SweepEngine()
        worker = _LatencySweepWorker(self, int(n_cycles), int(warmup_cycles))
        points = [{"injection_rate": float(rate)}
                  for rate in injection_rates]
        return engine.sweep_values(worker, points, rng=rng)


def _run_merged(simulators: Sequence[NocSimulator], injection_rates,
                generators, n_cycles: int,
                warmup_cycles: int) -> List[SimulationResult]:
    """The cycle engine over ``len(generators)`` merged replications.

    Replication ``r`` runs ``simulators[r]`` at ``injection_rates[r]``
    with ``generators[r]``.  Its queues are the global ids
    ``offset[r] .. offset[r] + n_queues[r] - 1`` (its local ids shifted),
    so every per-queue table below is the concatenation of the
    replications' own, and a replication's queues, packets and draws never
    meet another's: each result is bit-identical to a solo run.
    """
    n_reps = len(generators)
    measured_cycles = n_cycles - warmup_cycles
    per_rep = [simulator._pregenerate_injections(rate, n_cycles, generator)
               for simulator, rate, generator
               in zip(simulators, injection_rates, generators)]
    pkt_counts = np.array([sources.size for sources, _, _ in per_rep],
                          dtype=np.int64)
    n_packets = int(pkt_counts.sum())
    if n_packets == 0:
        return [_finish(rate, 0.0, 0, 0, measured_cycles,
                        simulator.topology.n_modules)
                for simulator, rate in zip(simulators, injection_rates)]

    # Global queue layout and the per-queue tables of the cycle loop:
    # whether a queue is a link (else an ejection port), where its row of
    # the merged next-hop table starts, its replication's buffer depth,
    # forward delay and link error rate.
    tables = [simulator._tables for simulator in simulators]
    n_queues = np.array([table["n_queues"] for table in tables],
                        dtype=np.int64)
    offset = np.concatenate(([0], np.cumsum(n_queues)))
    total_queues = int(offset[-1])
    queue_rep = np.repeat(np.arange(n_reps, dtype=np.int64), n_queues)
    is_link = np.concatenate([np.arange(table["n_queues"]) < table["n_links"]
                              for table in tables])
    next_rows, row_start, next_base = [], [], 0
    pkt_first, pkt_dest, pkt_ready = [], [], []
    for rep, (simulator, table, (sources, destinations, creation)) in \
            enumerate(zip(simulators, tables, per_rep)):
        n_routers = simulator.topology.n_routers
        concentration = simulator.topology.concentration
        next_rows.append(table["next_q"].ravel() + offset[rep])
        row_start.append(next_base + n_routers
                         * np.arange(table["n_queues"], dtype=np.int64))
        next_base += table["next_q"].size
        dest = destinations // concentration
        pkt_dest.append(dest)
        pkt_first.append(offset[rep] + table["first_q"].ravel()[
            (sources // concentration) * n_routers + dest])
        pkt_ready.append(creation + simulator.pipeline_latency_cycles)
    next_global = np.concatenate(next_rows)
    row_start = np.concatenate(row_start)
    pkt_first = np.concatenate(pkt_first)
    pkt_dest = np.concatenate(pkt_dest)
    pkt_ready = np.concatenate(pkt_ready)
    creation = np.concatenate([p[2] for p in per_rep])
    pkt_rep = np.repeat(np.arange(n_reps, dtype=np.int64), pkt_counts)

    forward_delay = np.array([max(simulator.pipeline_latency_cycles, 1)
                              + simulator.link_latency_cycles
                              for simulator in simulators],
                             dtype=np.int64)[queue_rep]
    depths = [simulator.buffer_depth_flits for simulator in simulators]
    # Per-queue buffer limit when any replication has finite buffers; an
    # infinite buffer's limit exceeds any occupancy, so it never blocks.
    depth = (None if not any(depths) else np.array(
        [value or n_packets + 1 for value in depths],
        dtype=np.int64)[queue_rep])
    error_rates = np.array([simulator.link_error_rate
                            for simulator in simulators])
    lossy_reps = np.flatnonzero(error_rates > 0.0)
    error_rate = error_rates[queue_rep]

    pkt_measured = creation >= warmup_cycles
    offered_measured = np.zeros(n_reps, dtype=np.int64)
    np.add.at(offered_measured, pkt_rep[pkt_measured], 1)
    # Packets in (cycle, replication, module) order: a stable sort by
    # creation keeps each replication's within-cycle order, so every
    # queue receives its packets in exactly the solo-run order.
    injection_order = np.argsort(creation, kind="stable")
    cycle_start = np.zeros(n_cycles + 1, dtype=np.int64)
    np.cumsum(np.bincount(creation, minlength=n_cycles),
              out=cycle_start[1:])

    # One flat ring buffer of packet ids for all channels of all
    # replications; grown by doubling whenever any queue would overflow
    # its slice.
    capacity = 16
    buf = np.zeros(total_queues * capacity, dtype=np.int64)
    base = np.arange(total_queues, dtype=np.int64) * capacity
    head = np.zeros(total_queues, dtype=np.int64)
    count = np.zeros(total_queues, dtype=np.int64)

    def grow() -> None:
        nonlocal buf, capacity, base
        old = buf.reshape(total_queues, capacity)
        positions = (head[:, None]
                     + np.arange(capacity)[None, :]) & (capacity - 1)
        capacity *= 2
        buf = np.zeros(total_queues * capacity, dtype=np.int64)
        buf.reshape(total_queues, capacity)[:, :capacity // 2] = \
            old[np.arange(total_queues)[:, None], positions]
        head[:] = 0
        base = np.arange(total_queues, dtype=np.int64) * capacity

    def push(queues: np.ndarray, packets: np.ndarray) -> None:
        # Grouped tail insert: stable order by queue keeps the within-
        # cycle arrival order deterministic (module-ascending for
        # injections, channel-ascending for forwards; replication queue
        # id ranges are disjoint, so merged pushes preserve each
        # replication's solo order).
        order = np.argsort(queues, kind="stable")
        sorted_q = queues[order]
        rank = (np.arange(sorted_q.size)
                - np.searchsorted(sorted_q, sorted_q))
        while int((count[sorted_q] + rank).max()) >= capacity:
            grow()
        slots = base[sorted_q] + ((head[sorted_q] + count[sorted_q]
                                   + rank) & (capacity - 1))
        buf[slots] = packets[order]
        np.add.at(count, sorted_q, 1)

    delivered_measured = np.zeros(n_reps, dtype=np.int64)
    latency_sum = np.zeros(n_reps, dtype=np.int64)
    retransmitted = np.zeros(n_reps, dtype=np.int64)

    for cycle in range(n_cycles):
        # --- injection (pre-generated, pushed in module order) ----------
        first, last = cycle_start[cycle], cycle_start[cycle + 1]
        if last > first:
            ids = injection_order[first:last]
            push(pkt_first[ids], ids)

        # --- one service decision per channel per cycle -----------------
        head_packet = buf[base + (head & (capacity - 1))]
        ready = (count > 0) & (pkt_ready[head_packet] <= cycle)
        if not ready.any():
            continue
        serviced = np.flatnonzero(ready)
        serviced_packet = head_packet[serviced]

        if lossy_reps.size:
            # Each attempted link traversal fails independently; the flit
            # stays at the head of its buffer and retries next cycle.
            # Ejection ports are local and lossless.  Each lossy
            # replication draws from its own generator, over its own
            # (ascending-id) serviced queues — exactly the solo-run
            # stream; a lossless one draws nothing, as solo.
            bounds = np.searchsorted(serviced, offset)
            draws = np.ones(serviced.size)
            for rep in lossy_reps:
                lo, hi = bounds[rep], bounds[rep + 1]
                if hi > lo:
                    draws[lo:hi] = generators[rep].random(int(hi - lo))
            failed = is_link[serviced] & (draws < error_rate[serviced])
            if failed.any():
                pkt_ready[serviced_packet[failed]] = cycle + 1
                np.add.at(retransmitted, queue_rep[serviced[failed]], 1)
                kept = ~failed
                serviced = serviced[kept]
                serviced_packet = serviced_packet[kept]

        ejecting = ~is_link[serviced]
        if ejecting.any():
            ejected = serviced_packet[ejecting]
            measured = pkt_measured[ejected]
            if measured.any():
                done = ejected[measured]
                reps = pkt_rep[done]
                np.add.at(delivered_measured, reps, 1)
                np.add.at(latency_sum, reps, (cycle + 1) - creation[done])

        forward_q = serviced[~ejecting]
        forward_p = serviced_packet[~ejecting]
        if forward_q.size:
            target = next_global[row_start[forward_q] + pkt_dest[forward_p]]
            if depth is not None:
                # Backpressure: only advance into a link buffer with a
                # free slot at the cycle's occupancy (ejection ports are
                # sinks and never block); contending flits are admitted in
                # channel order, the rest stall in place.
                order = np.argsort(target, kind="stable")
                sorted_t = target[order]
                rank = (np.arange(sorted_t.size)
                        - np.searchsorted(sorted_t, sorted_t))
                admitted_sorted = rank < depth[sorted_t] - count[sorted_t]
                admitted = np.empty(sorted_t.size, dtype=bool)
                admitted[order] = admitted_sorted
                admitted |= ~is_link[target]
                forward_q = forward_q[admitted]
                forward_p = forward_p[admitted]
                target = target[admitted]
            pkt_ready[forward_p] = cycle + forward_delay[forward_q]

        popped = (np.concatenate([serviced[ejecting], forward_q])
                  if depth is not None else serviced)
        count[popped] -= 1
        head[popped] += 1
        if forward_q.size:
            push(target, forward_p)

    return [_finish(rate, int(latency_sum[rep]), int(delivered_measured[rep]),
                    int(offered_measured[rep]), measured_cycles,
                    simulator.topology.n_modules, int(retransmitted[rep]))
            for rep, (simulator, rate)
            in enumerate(zip(simulators, injection_rates))]


@dataclass(frozen=True)
class _LatencySweepWorker:
    """Picklable sweep worker running a simulator at one rate."""

    simulator: NocSimulator
    n_cycles: int
    warmup_cycles: int

    def __call__(self, params, rng) -> SimulationResult:
        return self.simulator.run(params["injection_rate"],
                                  n_cycles=self.n_cycles,
                                  warmup_cycles=self.warmup_cycles,
                                  rng=rng)

    def call_batch(self, params_list, rngs) -> List[SimulationResult]:
        """Every point in one merged cycle loop (equal to the calls)."""
        return self.simulator.run_batch(
            [params["injection_rate"] for params in params_list],
            n_cycles=self.n_cycles, warmup_cycles=self.warmup_cycles,
            rngs=rngs)
