"""repro — reproduction of "Wireless Interconnect for Board and Chip Level".

The library is organised as four substrates plus integration layers:

* :mod:`repro.channel` — 200+ GHz board-to-board channel models, synthetic
  measurement campaign and link budget (Section II of the paper).
* :mod:`repro.phy` — bandwidth- and energy-efficient multi-gigabit/s
  communication with 1-bit oversampling receivers (Section III).
* :mod:`repro.noc` — 3D Network-in-Chip-Stack topologies, analytic queueing
  latency model and cycle-level simulator (Section IV).
* :mod:`repro.coding` — low-latency LDPC convolutional codes with window
  decoding (Section V).
* :mod:`repro.core` — the end-to-end wireless interconnect system composing
  all of the above, plus :class:`repro.core.engine.SweepEngine`, the
  batched Monte-Carlo sweep engine (per-point independent seeding,
  optional process parallelism over the persistent
  :class:`~repro.core.pool.WorkerPool`), and :mod:`repro.core.store`, the
  content-addressed result stores (:class:`~repro.core.store.MemoryStore`
  in process, :class:`~repro.core.store.DiskStore` across processes and
  days) the engine caches into.
* :mod:`repro.scenarios` — the declarative scenario API: per-layer spec
  dataclasses, a registry of named scenarios covering every paper figure
  and table (plus off-paper workloads), structured, JSON-exportable
  results, and :class:`~repro.scenarios.campaign.Campaign` for running
  many scenarios through one shared process pool.  ``python -m repro
  list`` shows the catalog; ``python -m repro run-all`` runs it.
* :mod:`repro.service` — the campaign service: ``python -m repro serve``
  runs the whole execution stack as a long-running, multi-client HTTP
  daemon over one shared :class:`~repro.core.store.DiskStore` (store-key
  deduplication, in-flight request coalescing, interactive-over-bulk
  priority), with :class:`~repro.service.client.ServiceClient` and the
  ``submit``/``status``/``fetch`` CLI verbs as consumers.
* :mod:`repro.bench` — the ``python -m repro bench`` microbenchmarks of
  the three hot kernels (batched BP decode, trellis demod, NoC cycle
  engine), one NumPy kernel each, at float64 (bit-exact) or float32.
* :mod:`repro.instrument` — the acquisition layer: an abstract
  :class:`~repro.instrument.driver.Instrument` driver
  (connect/configure/sweep/fetch) with a
  :class:`~repro.instrument.driver.SimulatedVna` backend, explicit-seed
  :class:`~repro.instrument.acquire.AcquisitionPlan` campaigns, and
  versioned, content-addressed
  :class:`~repro.instrument.dataset.ChannelDataset` files that the
  :class:`~repro.phy.measured.MeasuredChannelFrontend` replays through
  the 1-bit trellis stack (``python -m repro acquire`` / ``datasets``).

The user-facing surface is re-exported here, so a single ``import repro``
gives the links, the system, the sweep engine and the scenario registry.
"""

__version__ = "1.10.0"

from repro import channel, coding, core, instrument, noc, phy, utils
from repro.core import (
    DiskStore,
    LinkReport,
    MemoryStore,
    RunStore,
    StoreError,
    SweepEngine,
    SweepOutcome,
    SweepPointError,
    SystemReport,
    WirelessBoardLink,
    WirelessInterconnectSystem,
    WorkerPool,
    link_flit_error_rate,
    parameter_grid,
)
from repro.instrument import (
    AcquisitionPlan,
    ChannelDataset,
    Instrument,
    SimulatedVna,
    acquire_dataset,
    resolve_dataset,
)
from repro.noc import NocEvaluation, NocModel, SimulatedNocModel
from repro.phy import (
    BpskAwgnFrontend,
    ChannelFrontend,
    MeasuredChannelFrontend,
    OneBitWaveformFrontend,
    TrellisKernel,
)
from repro.scenarios import (
    Campaign,
    CampaignEntry,
    CampaignResult,
    ChannelSpec,
    CodingSpec,
    NocSpec,
    PhySpec,
    PrecisionSpec,
    Scenario,
    ScenarioResult,
    SystemSpec,
    build_scenario,
    describe_scenario,
    run_campaign,
    run_scenario,
    scenario_names,
)
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    serve,
)
from repro.utils.validation import resolve_dtype
from repro import scenarios, service

__all__ = [
    # submodules
    "channel",
    "coding",
    "core",
    "instrument",
    "noc",
    "phy",
    "scenarios",
    "service",
    "utils",
    "__version__",
    "resolve_dtype",
    # integration layer
    "WirelessBoardLink",
    "LinkReport",
    "WirelessInterconnectSystem",
    "SystemReport",
    "SweepEngine",
    "SweepOutcome",
    "SweepPointError",
    "parameter_grid",
    "WorkerPool",
    # cross-layer NoC engine
    "NocModel",
    "NocEvaluation",
    "SimulatedNocModel",
    "link_flit_error_rate",
    # waveform transceiver pipeline
    "ChannelFrontend",
    "BpskAwgnFrontend",
    "OneBitWaveformFrontend",
    "MeasuredChannelFrontend",
    "TrellisKernel",
    # instrument acquisition layer
    "Instrument",
    "SimulatedVna",
    "AcquisitionPlan",
    "acquire_dataset",
    "ChannelDataset",
    "resolve_dataset",
    # execution stores
    "RunStore",
    "MemoryStore",
    "DiskStore",
    "StoreError",
    # scenario API
    "ChannelSpec",
    "PhySpec",
    "CodingSpec",
    "NocSpec",
    "PrecisionSpec",
    "SystemSpec",
    "Scenario",
    "ScenarioResult",
    "build_scenario",
    "describe_scenario",
    "run_scenario",
    "scenario_names",
    # campaign API
    "Campaign",
    "CampaignEntry",
    "CampaignResult",
    "run_campaign",
    # campaign service
    "CampaignService",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "serve",
]
