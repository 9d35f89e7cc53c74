"""End-to-end wireless interconnect system (the paper's overall proposal).

The paper's vision is a box of boards, each board carrying several 3D
chip-stacks, with

* 3D Network-in-Chip-Stack meshes *inside* each stack (Section IV),
* wireless 200+ GHz links *between* boards replacing the backplane
  (Section II), carried by
* 1-bit oversampling receivers (Section III) and protected by
* low-latency LDPC convolutional codes (Section V).

:class:`repro.core.link.WirelessBoardLink` composes the channel, PHY and
coding layers into a single board-to-board link abstraction;
:class:`repro.core.system.WirelessInterconnectSystem` assembles many such
links plus the per-stack NoCs into a system-level model with throughput and
latency reports.  :class:`repro.core.engine.SweepEngine` is the shared
Monte-Carlo sweep engine (per-point independent seeding, optional process
parallelism, content-addressed result caching) behind the BER/NoC parameter
sweeps, :class:`repro.core.pool.WorkerPool` the persistent worker pool
(each worker pickled once per call and loaded once per process,
deterministic intra-point sharding) its parallel path dispatches
through, and
:mod:`repro.core.store` holds the durable
:class:`~repro.core.store.RunStore` backends it caches into.
:mod:`repro.core.crosslayer` bridges the layers the paper keeps separate:
it turns a PHY/coding operating point into the per-link flit error
probability the lossy NoC simulator consumes.
"""

from repro.core.crosslayer import (
    coded_residual_ber,
    link_flit_error_rate,
    link_operating_ebn0_db,
)
from repro.core.engine import (
    SweepEngine,
    SweepOutcome,
    SweepPointError,
    parameter_grid,
)
from repro.core.link import LinkReport, WirelessBoardLink
from repro.core.pool import PoolTask, WorkerPool
from repro.core.store import DiskStore, MemoryStore, RunStore, StoreError
from repro.core.system import SystemReport, WirelessInterconnectSystem

__all__ = [
    "WirelessBoardLink",
    "LinkReport",
    "WirelessInterconnectSystem",
    "SystemReport",
    "SweepEngine",
    "SweepOutcome",
    "SweepPointError",
    "parameter_grid",
    "WorkerPool",
    "PoolTask",
    "RunStore",
    "MemoryStore",
    "DiskStore",
    "StoreError",
    "link_flit_error_rate",
    "coded_residual_ber",
    "link_operating_ebn0_db",
]
