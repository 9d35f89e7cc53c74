"""Frozen, validated specification dataclasses — one per substrate layer.

A *spec* is the declarative description of one layer of an experiment:
which channel, which pulse design, which code, which NoC, which system.
Specs are

* **frozen** (hashable — they can sit inside sweep-engine cache keys and
  picklable worker dataclasses),
* **validated** on construction (a bad field fails immediately, not three
  layers down inside a Monte-Carlo worker), and
* **round-trippable**: ``Spec.from_dict(spec.to_dict()) == spec``, so a
  :class:`repro.scenarios.result.ScenarioResult` JSON file fully records
  the experiment that produced it.

Each spec also knows how to build the concrete objects of its layer
(``ChannelSpec.link_budget()``, ``CodingSpec.make_code()``, ...), which is
what keeps the scenario catalog free of hand-wired layer composition.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.utils.constants import (
    PAPER_CENTER_FREQUENCY_HZ,
    PAPER_RX_TEMPERATURE_K,
    PAPER_SIGNAL_BANDWIDTH_HZ,
)
from repro.utils.validation import (
    SUPPORTED_DTYPES,
    check_non_negative,
    check_positive,
)


class SpecBase:
    """Shared ``to_dict``/``from_dict``/``replace`` plumbing for specs."""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form of the spec (tuples become lists, JSON-safe)."""
        result: Dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = list(value)
            result[field.name] = value
        return result

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpecBase":
        """Rebuild a spec from :meth:`to_dict` output (validating it).

        Unknown keys raise ``ValueError`` so a typo in a stored spec (or a
        CLI override) cannot be silently ignored.
        """
        field_names = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - field_names
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} field(s): {sorted(unknown)}; "
                f"valid fields: {sorted(field_names)}")
        kwargs = {key: tuple(value) if isinstance(value, list) else value
                  for key, value in data.items()}
        return cls(**kwargs)

    def replace(self, **changes: Any) -> "SpecBase":
        """A copy with some fields replaced (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    def cache_dict(self) -> Dict[str, Any]:
        """The spec as it enters scenario cache keys.

        Defaults to :meth:`to_dict`.  Specs whose fields are *references*
        override this to canonicalize them — e.g.
        :meth:`ChannelSpec.cache_dict` replaces a dataset file path with
        its content key, so equal dataset bytes share cached points no
        matter how they were referenced.
        """
        return self.to_dict()


def _check_choice(name: str, value: str, choices: Tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {sorted(choices)}, "
                         f"got {value!r}")


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChannelSpec(SpecBase):
    """Section II — the board-to-board channel and its link budget.

    Defaults reproduce Table I of the paper; ``distance_m`` /
    ``tx_power_dbm`` describe the operating point of the link under study.

    ``dataset`` optionally references a measured channel dataset
    (:class:`repro.instrument.ChannelDataset`) — either a file path or a
    64-hex content key — for scenarios that replay measured data through
    a ``MeasuredChannelFrontend``.  Cache keys hash the dataset's
    *content key* (:meth:`cache_dict`), never the path.
    """

    distance_m: float = 0.1
    tx_power_dbm: float = 10.0
    include_butler_mismatch: bool = False
    frequency_hz: float = PAPER_CENTER_FREQUENCY_HZ
    bandwidth_hz: float = PAPER_SIGNAL_BANDWIDTH_HZ
    rx_temperature_k: float = PAPER_RX_TEMPERATURE_K
    rx_noise_figure_db: float = 10.0
    path_loss_exponent: float = 2.0
    array_gain_db: float = 12.0
    butler_matrix_inaccuracy_db: float = 5.0
    polarization_mismatch_db: float = 3.0
    implementation_loss_db: float = 5.0
    dataset: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive("distance_m", self.distance_m)
        if self.dataset is not None:
            dataset = str(self.dataset)
            if not dataset:
                raise ValueError("dataset reference must be a non-empty "
                                 "string (file path or content key) or None")
            object.__setattr__(self, "dataset", dataset)
        check_positive("frequency_hz", self.frequency_hz)
        check_positive("bandwidth_hz", self.bandwidth_hz)
        check_positive("rx_temperature_k", self.rx_temperature_k)
        check_non_negative("rx_noise_figure_db", self.rx_noise_figure_db)
        check_positive("path_loss_exponent", self.path_loss_exponent)
        check_non_negative("array_gain_db", self.array_gain_db)
        check_non_negative("butler_matrix_inaccuracy_db",
                           self.butler_matrix_inaccuracy_db)

    def budget_parameters(self):
        """The :class:`repro.channel.LinkBudgetParameters` this spec encodes."""
        from repro.channel.link_budget import LinkBudgetParameters

        return LinkBudgetParameters(
            frequency_hz=self.frequency_hz,
            bandwidth_hz=self.bandwidth_hz,
            rx_temperature_k=self.rx_temperature_k,
            rx_noise_figure_db=self.rx_noise_figure_db,
            path_loss_exponent=self.path_loss_exponent,
            tx_array_gain_db=self.array_gain_db,
            rx_array_gain_db=self.array_gain_db,
            butler_matrix_inaccuracy_db=self.butler_matrix_inaccuracy_db,
            polarization_mismatch_db=self.polarization_mismatch_db,
            implementation_loss_db=self.implementation_loss_db,
        )

    def link_budget(self):
        """A :class:`repro.channel.LinkBudget` built from this spec."""
        from repro.channel.link_budget import LinkBudget

        return LinkBudget(self.budget_parameters())

    def cache_dict(self) -> Dict[str, Any]:
        """:meth:`to_dict` with the dataset reference canonicalized.

        A dataset referenced by file path and the same dataset referenced
        by content key describe the same computation, so both hash to the
        content key in cache identities.
        """
        data = self.to_dict()
        if data.get("dataset") is not None:
            from repro.instrument.dataset import dataset_reference_key

            data["dataset"] = dataset_reference_key(data["dataset"])
        return data

    def resolve_dataset(self, store=None):
        """Load the referenced :class:`~repro.instrument.ChannelDataset`.

        Raises ``ValueError`` when no dataset is referenced or the
        reference cannot be resolved.
        """
        if self.dataset is None:
            raise ValueError("this ChannelSpec references no dataset")
        from repro.instrument.dataset import resolve_dataset

        return resolve_dataset(self.dataset, store=store)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhySpec(SpecBase):
    """Section III — the 1-bit oversampling PHY.

    Beyond the pulse design, the spec carries the waveform-frontend
    knobs: ``modulation_order`` sizes the ASK constellation (the paper
    uses 4), ``detector`` selects the soft demodulator of the waveform
    frontend (``"bcjr"`` max-log sequence demod or ``"symbolwise"``
    state-marginalised demod), and ``frontend`` names the default
    :class:`~repro.phy.frontend.ChannelFrontend` built by
    :meth:`make_frontend` (``"bpsk-awgn"`` keeps the idealized channel,
    ``"one-bit-waveform"`` runs the full waveform chain).
    """

    PULSE_DESIGNS = ("rectangular", "ramp", "raised_cosine_tail",
                     "sequence_optimized", "symbolwise_optimized",
                     "suboptimal_unique")
    DETECTORS = ("bcjr", "symbolwise")
    FRONTENDS = ("bpsk-awgn", "one-bit-waveform", "measured")

    pulse_design: str = "sequence_optimized"
    oversampling: int = 5
    n_symbols: int = 5_000
    dual_polarization: bool = True
    modulation_order: int = 4
    detector: str = "bcjr"
    frontend: str = "bpsk-awgn"
    dtype: str = "float64"

    def __post_init__(self) -> None:
        _check_choice("pulse_design", self.pulse_design, self.PULSE_DESIGNS)
        check_positive("oversampling", self.oversampling)
        check_positive("n_symbols", self.n_symbols)
        order = self.modulation_order
        if order < 2 or (order & (order - 1)) != 0:
            raise ValueError("modulation_order must be a power of two >= 2")
        _check_choice("detector", self.detector, self.DETECTORS)
        _check_choice("frontend", self.frontend, self.FRONTENDS)
        # dtype is a spec field (not a runtime knob) precisely so it
        # participates in scenario cache keys: a float32 sweep can never
        # alias a float64 cache entry.
        _check_choice("dtype", self.dtype, SUPPORTED_DTYPES)

    def make_pulse(self):
        """Construct the :class:`repro.phy.Pulse` this spec describes."""
        from repro.phy import pulse as pulse_module

        factories = {
            "rectangular": pulse_module.rectangular_pulse,
            "ramp": pulse_module.ramp_pulse,
            "raised_cosine_tail": pulse_module.raised_cosine_tail_pulse,
            "sequence_optimized": pulse_module.sequence_optimized_pulse,
            "symbolwise_optimized": pulse_module.symbolwise_optimized_pulse,
            "suboptimal_unique": pulse_module.suboptimal_unique_detection_pulse,
        }
        return factories[self.pulse_design](self.oversampling)

    def make_constellation(self):
        """The :class:`repro.phy.AskConstellation` this spec describes."""
        from repro.phy.modulation import AskConstellation

        return AskConstellation(self.modulation_order)

    def make_frontend(self, rate: float = 0.5, kind: Optional[str] = None,
                      dataset=None, distance_m: Optional[float] = None):
        """Build the :class:`~repro.phy.frontend.ChannelFrontend` described.

        ``rate`` is the code rate folded into the Eb/N0 conversion (take
        it from the :class:`CodingSpec` riding the same scenario);
        ``kind`` overrides the spec's :attr:`frontend` field, e.g. to
        force the waveform chain for a ``method="waveform"`` cross-layer
        derivation.  The ``"measured"`` frontend additionally needs the
        :class:`~repro.instrument.ChannelDataset` to replay (``dataset``)
        and optionally the link distance whose sweep to pick
        (``distance_m``, defaulting to the dataset's first sweep).
        """
        from repro.phy.frontend import BpskAwgnFrontend, OneBitWaveformFrontend

        kind = self.frontend if kind is None else kind
        _check_choice("frontend", kind, self.FRONTENDS)
        if kind == "bpsk-awgn":
            return BpskAwgnFrontend(rate=float(rate))
        if kind == "measured":
            if dataset is None:
                raise ValueError(
                    "the 'measured' frontend needs a channel dataset; pass "
                    "make_frontend(dataset=...) — typically resolved from "
                    "ChannelSpec.dataset")
            from repro.phy.measured import MeasuredChannelFrontend

            return MeasuredChannelFrontend.from_dataset(
                dataset, distance_m=distance_m,
                rate=float(rate), base_pulse=self.make_pulse(),
                constellation=self.make_constellation(),
                detector=self.detector, dtype=self.dtype)
        return OneBitWaveformFrontend(pulse=self.make_pulse(),
                                      constellation=self.make_constellation(),
                                      rate=float(rate),
                                      detector=self.detector,
                                      dtype=self.dtype)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CodingSpec(SpecBase):
    """Section V — the LDPC-CC (or reference LDPC block code) FEC layer.

    ``family`` selects the paper's (4,8)-regular LDPC-CC with window
    decoding (``"ldpc-cc"``) or the (4,8)-regular LDPC block code it is
    derived from (``"ldpc-bc"``, where ``window_size`` and
    ``termination_length`` are ignored).
    """

    FAMILIES = ("ldpc-cc", "ldpc-bc")

    family: str = "ldpc-cc"
    lifting_factor: int = 40
    window_size: int = 6
    termination_length: int = 12
    max_iterations: int = 40
    construction_seed: int = 0
    dtype: str = "float64"

    def __post_init__(self) -> None:
        _check_choice("family", self.family, self.FAMILIES)
        check_positive("lifting_factor", self.lifting_factor)
        check_positive("window_size", self.window_size)
        check_positive("termination_length", self.termination_length)
        check_positive("max_iterations", self.max_iterations)
        # A spec field (rather than a runtime knob) so it enters scenario
        # cache keys — float32 results never alias float64 entries.
        _check_choice("dtype", self.dtype, SUPPORTED_DTYPES)

    @property
    def design_rate(self) -> float:
        """Design rate of the paper's (4,8)-regular family."""
        return 0.5

    def make_code(self):
        """Instantiate the code (deterministic given ``construction_seed``)."""
        from repro.coding.codes import LdpcBlockCode, LdpcConvolutionalCode
        from repro.coding.protograph import (
            PAPER_BLOCK_PROTOGRAPH,
            paper_edge_spreading,
        )

        if self.family == "ldpc-cc":
            return LdpcConvolutionalCode(paper_edge_spreading(),
                                         self.lifting_factor,
                                         self.termination_length,
                                         rng=self.construction_seed,
                                         dtype=self.dtype)
        return LdpcBlockCode(PAPER_BLOCK_PROTOGRAPH, self.lifting_factor,
                             rng=self.construction_seed, dtype=self.dtype)

    def make_ber_simulator(self, batch_size: int = 16, frontend=None):
        """Code + decoder + batched BER harness in one call.

        ``frontend`` selects the channel the coded bits ride
        (:class:`~repro.phy.frontend.ChannelFrontend`); ``None`` keeps
        the idealized BPSK/AWGN channel.
        """
        from repro.coding.ber import BerSimulator
        from repro.coding.window_decoder import WindowDecoder

        code = self.make_code()
        if self.family == "ldpc-cc":
            decoder = WindowDecoder(code, window_size=self.window_size,
                                    max_iterations=self.max_iterations,
                                    dtype=self.dtype)
            return BerSimulator(code.n, self.design_rate, decoder.decode_bits,
                                decode_batch=decoder.decode_bits_batch,
                                batch_size=batch_size, frontend=frontend)
        return BerSimulator(code.n, self.design_rate,
                            lambda llrs: code.decode(llrs).hard_decisions,
                            decode_batch=code.decode_bits_batch,
                            batch_size=batch_size, frontend=frontend)

    def structural_latency_bits(self) -> float:
        """Structural latency in information bits (Eqs. (4) / (5))."""
        from repro.coding.latency import (
            block_code_structural_latency,
            window_decoder_structural_latency,
        )

        if self.family == "ldpc-cc":
            return window_decoder_structural_latency(
                self.window_size, self.lifting_factor, 2, self.design_rate)
        return block_code_structural_latency(self.lifting_factor, 2,
                                             self.design_rate)

    def de_threshold_db(self) -> float:
        """Asymptotic Eb/N0 threshold from density evolution (memoised)."""
        from repro.coding.density_evolution import paper_de_threshold_db

        return paper_de_threshold_db(self.family, self.window_size)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NocSpec(SpecBase):
    """Section IV — the intra-stack Network-in-Chip-Stack.

    Beyond the topology and router calibration, the spec carries the
    cross-layer NoC engine knobs: ``traffic`` and ``routing`` select the
    pattern/algorithm by registry name, ``buffer_depth_flits`` enables
    finite channel buffers with backpressure (0 = infinite),
    ``link_error_rate`` makes every link traversal lossy with that flit
    error probability, and ``ebn0_db`` derives that probability from the
    coding layer instead (via
    :func:`repro.core.crosslayer.link_flit_error_rate`); setting both
    ``link_error_rate`` and ``ebn0_db`` is rejected as ambiguous.
    ``link_error_method`` selects how the ``ebn0_db`` derivation obtains
    the residual BER: the deterministic DE-anchored ``"surrogate"``
    (default), ``"mc"`` Monte-Carlo over BPSK/AWGN, or ``"waveform"``
    Monte-Carlo over the phy spec's actual 1-bit waveform chain.
    """

    TOPOLOGIES = ("mesh2d", "mesh3d", "starmesh", "ciliated3d")

    topology: str = "mesh3d"
    dimensions: Tuple[int, ...] = (4, 4, 4)
    concentration: int = 1
    pipeline_latency_cycles: float = 2.0
    service_time_cycles: float = 1.2
    link_latency_cycles: float = 0.0
    traffic: str = "uniform"
    routing: str = "dimension_ordered"
    buffer_depth_flits: int = 0
    link_error_rate: float = 0.0
    ebn0_db: Optional[float] = None
    link_error_method: str = "surrogate"

    def __post_init__(self) -> None:
        # Traffic/routing names validate against the registries they
        # resolve through, so adding a pattern or algorithm there is
        # enough (no second list to keep in sync here).
        from repro.noc.routing import ROUTING_ALGORITHMS
        from repro.noc.traffic import TRAFFIC_PATTERNS

        _check_choice("topology", self.topology, self.TOPOLOGIES)
        _check_choice("traffic", self.traffic, tuple(TRAFFIC_PATTERNS))
        _check_choice("routing", self.routing, tuple(ROUTING_ALGORITHMS))
        object.__setattr__(self, "dimensions",
                           tuple(int(v) for v in self.dimensions))
        expected = 2 if self.topology in ("mesh2d", "starmesh") else 3
        if len(self.dimensions) != expected:
            raise ValueError(
                f"topology {self.topology!r} needs {expected} dimensions, "
                f"got {self.dimensions}")
        for extent in self.dimensions:
            check_positive("dimensions", extent)
        check_positive("concentration", self.concentration)
        # Zero pipeline latency is a valid cycle-level-simulator regime
        # (regression-tested in the simulator); the analytic model's own
        # RouterParameters still rejects it at make_model() time.
        check_non_negative("pipeline_latency_cycles",
                           self.pipeline_latency_cycles)
        check_positive("service_time_cycles", self.service_time_cycles)
        check_non_negative("link_latency_cycles", self.link_latency_cycles)
        if self.buffer_depth_flits < 0:
            raise ValueError("buffer_depth_flits must be non-negative "
                             "(0 models infinite buffers)")
        if not 0.0 <= self.link_error_rate < 1.0:
            raise ValueError("link_error_rate must lie in [0, 1)")
        if self.ebn0_db is not None and self.link_error_rate > 0.0:
            raise ValueError(
                "give either link_error_rate (a direct per-hop flit error "
                "probability) or ebn0_db (derive it from the coding "
                "layer), not both")
        # Validate against the authoritative method list of the function
        # this field is forwarded to, so the two can never drift.
        from repro.core.crosslayer import LINK_ERROR_METHODS

        _check_choice("link_error_method", self.link_error_method,
                      LINK_ERROR_METHODS)
        if self.link_error_method != "surrogate" and self.ebn0_db is None:
            raise ValueError(
                "link_error_method only applies to the ebn0_db derivation; "
                "set ebn0_db (or keep the default 'surrogate')")

    def make_topology(self):
        """Instantiate the :class:`repro.noc.GridTopology` subclass."""
        from repro.noc.topology import CiliatedMesh3D, Mesh2D, Mesh3D, StarMesh

        if self.topology == "mesh2d":
            return Mesh2D(*self.dimensions, concentration=self.concentration)
        if self.topology == "starmesh":
            return StarMesh(*self.dimensions,
                            concentration=self.concentration)
        if self.topology == "ciliated3d":
            return CiliatedMesh3D(*self.dimensions,
                                  concentration=self.concentration)
        return Mesh3D(*self.dimensions, concentration=self.concentration)

    def router_parameters(self):
        """The :class:`repro.noc.RouterParameters` this spec encodes."""
        from repro.noc.analytic import RouterParameters

        return RouterParameters(
            pipeline_latency_cycles=self.pipeline_latency_cycles,
            service_time_cycles=self.service_time_cycles,
            link_latency_cycles=self.link_latency_cycles,
        )

    def make_traffic_class(self):
        """Traffic pattern class named by :attr:`traffic`."""
        from repro.noc.traffic import make_traffic_class

        return make_traffic_class(self.traffic)

    def make_routing_class(self):
        """Routing algorithm class named by :attr:`routing`."""
        from repro.noc.routing import make_routing_class

        return make_routing_class(self.routing)

    def make_model(self):
        """Analytic queueing model for this NoC (traffic/routing-aware)."""
        from repro.noc.analytic import AnalyticNocModel

        return AnalyticNocModel(self.make_topology(),
                                router=self.router_parameters(),
                                traffic_class=self.make_traffic_class(),
                                routing_class=self.make_routing_class())

    def effective_link_error_rate(self, coding=None, phy=None,
                                  channel=None) -> float:
        """Per-hop flit error probability this spec asks for.

        Plain :attr:`link_error_rate` unless :attr:`ebn0_db` is set, in
        which case the probability is derived from the coding layer via
        :func:`repro.core.crosslayer.link_flit_error_rate` using
        :attr:`link_error_method`; the optional ``coding``/``phy``/
        ``channel`` specs override the cross-layer defaults.
        """
        if self.ebn0_db is None:
            return self.link_error_rate
        from repro.core.crosslayer import link_flit_error_rate

        return link_flit_error_rate(coding or CodingSpec(),
                                    phy or PhySpec(),
                                    channel or ChannelSpec(),
                                    ebn0_db=self.ebn0_db,
                                    method=self.link_error_method)

    def _integer_cycles(self, name: str) -> int:
        value = getattr(self, name)
        if value != int(value):
            raise ValueError(
                f"the cycle-level simulator needs an integer {name}, "
                f"got {value}")
        return int(value)

    def make_simulator(self, coding=None, phy=None, channel=None):
        """Cycle-level simulator for this NoC (all engine knobs threaded).

        The simulator counts whole cycles, so fractional
        ``pipeline_latency_cycles`` / ``link_latency_cycles`` (which the
        analytic model accepts) are rejected here rather than silently
        truncated — otherwise a model-vs-simulation comparison would
        quietly run two different configurations.  The optional layer
        specs feed the cross-layer :attr:`ebn0_db` derivation.
        """
        from repro.noc.simulator import NocSimulator

        return NocSimulator(
            self.make_topology(),
            pipeline_latency_cycles=self._integer_cycles(
                "pipeline_latency_cycles"),
            traffic_class=self.make_traffic_class(),
            routing_class=self.make_routing_class(),
            link_latency_cycles=self._integer_cycles("link_latency_cycles"),
            buffer_depth_flits=self.buffer_depth_flits or None,
            link_error_rate=self.effective_link_error_rate(coding, phy,
                                                           channel))

    def make_simulated_model(self, n_cycles: int = 4_000,
                             warmup_cycles: int = 1_000,
                             coding=None, phy=None, channel=None):
        """Simulator wrapped in the unified :class:`~repro.noc.model.NocModel` shape."""
        from repro.noc.model import SimulatedNocModel

        return SimulatedNocModel(self.make_simulator(coding, phy, channel),
                                 n_cycles=n_cycles,
                                 warmup_cycles=warmup_cycles)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrecisionSpec(SpecBase):
    """Adaptive Monte-Carlo precision target for error-rate measurements.

    Describes *how well* a stochastic point must be measured, not *what*
    is measured: run codeword batches until the relative half-width of
    the ``confidence`` Wilson interval on the bit error rate drops to
    ``rel_ci_target``, bounded below by ``min_codewords`` and a
    ``min_errors`` floor (so zero-error points cannot stop early at a
    meaningless estimate of exactly 0) and above by the ``max_codewords``
    budget cap.

    A precision spec deliberately stays **out** of scenario cache keys
    (:meth:`repro.scenarios.scenario.Scenario.cache_key`): the stored
    asset is the error *tally*, which any precision target can resume —
    tightening ``rel_ci_target`` against a warm store simulates only the
    increment.  See EXPERIMENTS.md, "Statistical methodology".
    """

    rel_ci_target: float = 0.25
    confidence: float = 0.95
    min_codewords: int = 4
    max_codewords: int = 512
    min_errors: int = 10

    def __post_init__(self) -> None:
        check_positive("rel_ci_target", self.rel_ci_target)
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly in (0, 1)")
        check_positive("min_codewords", self.min_codewords)
        check_positive("max_codewords", self.max_codewords)
        if self.max_codewords < self.min_codewords:
            raise ValueError("max_codewords must be at least min_codewords")
        check_non_negative("min_errors", self.min_errors)

    def stopping_rule(self):
        """The :class:`repro.utils.statistics.StoppingRule` this spec
        describes (codewords are the rule's work units)."""
        from repro.utils.statistics import StoppingRule

        return StoppingRule(rel_ci_target=self.rel_ci_target,
                            confidence=self.confidence,
                            min_units=self.min_codewords,
                            max_units=self.max_codewords,
                            min_errors=self.min_errors)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SystemSpec(SpecBase):
    """The paper's overall proposal — a box of boards with wireless links."""

    n_boards: int = 4
    stack_mesh_shape: Tuple[int, ...] = (4, 4, 4)
    tx_power_dbm: float = 10.0
    window_size: int = 6
    lifting_factor: int = 40
    n_symbols: int = 4_000

    def __post_init__(self) -> None:
        if self.n_boards < 2:
            raise ValueError("a wireless interconnect needs at least 2 boards")
        object.__setattr__(self, "stack_mesh_shape",
                           tuple(int(v) for v in self.stack_mesh_shape))
        if len(self.stack_mesh_shape) != 3:
            raise ValueError("stack_mesh_shape must have three dimensions")
        check_positive("window_size", self.window_size)
        check_positive("lifting_factor", self.lifting_factor)
        check_positive("n_symbols", self.n_symbols)

    def make_system(self):
        """Instantiate :class:`repro.core.WirelessInterconnectSystem`."""
        from repro.core.system import WirelessInterconnectSystem

        return WirelessInterconnectSystem(
            n_boards=self.n_boards,
            stack_mesh_shape=self.stack_mesh_shape,
            tx_power_dbm=self.tx_power_dbm,
            window_size=self.window_size,
            lifting_factor=self.lifting_factor,
        )
