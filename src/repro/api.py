"""Flat facade over the user-facing surface of the library.

``repro.api`` gathers the objects a system designer actually touches —
the link/system models, the sweep engine and the declarative scenario
API — into one import, without reaching into substrate submodules:

>>> from repro import api
>>> result = api.run_scenario("table1")
>>> api.scenario_names()[:3]
['fig1', 'fig10', 'fig2']

Everything here is re-exported from its home package; importing
``repro.api`` never builds anything.
"""

from repro.bench import run_kernel_benchmarks
from repro.channel import (
    LinkBudget,
    LinkBudgetParameters,
    PAPER_LINK_BUDGET,
)
from repro.core import (
    DiskStore,
    LinkReport,
    MemoryStore,
    RunStore,
    SweepEngine,
    SweepOutcome,
    SweepPointError,
    SystemReport,
    WirelessBoardLink,
    WirelessInterconnectSystem,
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
    scenario_entries,
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

__all__ = [
    "resolve_dtype",
    "run_kernel_benchmarks",
    "LinkBudget",
    "LinkBudgetParameters",
    "PAPER_LINK_BUDGET",
    "WirelessBoardLink",
    "LinkReport",
    "WirelessInterconnectSystem",
    "SystemReport",
    "SweepEngine",
    "SweepOutcome",
    "SweepPointError",
    "parameter_grid",
    "NocModel",
    "NocEvaluation",
    "SimulatedNocModel",
    "link_flit_error_rate",
    "ChannelFrontend",
    "BpskAwgnFrontend",
    "OneBitWaveformFrontend",
    "MeasuredChannelFrontend",
    "TrellisKernel",
    "Instrument",
    "SimulatedVna",
    "AcquisitionPlan",
    "acquire_dataset",
    "ChannelDataset",
    "resolve_dataset",
    "RunStore",
    "MemoryStore",
    "DiskStore",
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
    "scenario_entries",
    "scenario_names",
    "Campaign",
    "CampaignEntry",
    "CampaignResult",
    "run_campaign",
    "CampaignService",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "serve",
]
