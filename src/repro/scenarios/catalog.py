"""The scenario catalog: every paper artifact plus off-paper workloads.

Each entry composes the layer specs of :mod:`repro.scenarios.specs` into a
runnable :class:`repro.scenarios.scenario.Scenario`.  Workers are frozen
module-level dataclasses so they are picklable (process-parallel sweeps)
and hashable (sweep-engine cache keys); every stochastic worker consumes
the per-point generator the engine spawns for it, so any scenario is
reproducible end to end from ``(name, overrides, seed)``.

Paper artifacts: ``fig1`` … ``fig10`` (with ``fig8a``/``fig8b``) and
``table1``.  Off-paper scenarios extend the paper's sweeps: distances and
transmit powers beyond Table I, alternate ``Mesh3D`` dimensions,
oversampling factors and window lengths beyond Fig. 10, the Butler-matrix
penalty over the full geometry, and an analytic-vs-simulation NoC
cross-check, plus the cross-layer NoC engine sweeps: hotspot traffic,
a transpose-traffic crosscheck, a buffer-depth (backpressure) ablation
and lossy links whose flit error rate is fed from the coding layer
(``noc-hotspot-sweep``, ``noc-transpose-crosscheck``,
``noc-buffer-depth-sweep``, ``noc-lossy-link-sweep``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Tuple

import numpy as np

# The workers' bodies call the coding layer's memo by this name.
from repro.coding.density_evolution import \
    paper_de_threshold_db as _de_threshold_db
from repro.scenarios.registry import Overrides, register_scenario
from repro.scenarios.scenario import Scenario
from repro.scenarios.specs import (
    ChannelSpec,
    CodingSpec,
    NocSpec,
    PhySpec,
    PrecisionSpec,
    SystemSpec,
)

HORN_GAIN_DB = 2 * 9.5  # standard-gain horns on both VNA ports


# ======================================================================
# Table I — link budget
# ======================================================================
@dataclass(frozen=True)
class _Table1Worker:
    channel: ChannelSpec

    def __call__(self, params: Mapping, rng: np.random.Generator) -> float:
        table = self.channel.link_budget().table_entries()
        return float(table[params["parameter"]])


@register_scenario("table1", "Table I",
                   "Link-budget parameters for board-to-board communication")
def _table1(overrides: Overrides) -> Scenario:
    channel = overrides.apply("channel", ChannelSpec())
    parameters = list(channel.link_budget().table_entries())
    return Scenario(
        "table1", "Table I",
        "Link-budget parameters for board-to-board communication",
        specs={"channel": channel},
        points=[{"parameter": name} for name in parameters],
        worker=_Table1Worker(channel))


# ======================================================================
# Fig. 1 — pathloss vs distance, fitted exponents
# ======================================================================
@dataclass(frozen=True)
class _Fig1Worker:
    n_points: int
    freespace_span_m: Tuple[float, float, int]
    copper_span_m: Tuple[float, float, int]

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        from repro.channel.fitting import fit_from_sweeps
        from repro.channel.measurement import SyntheticVNA

        vna = SyntheticVNA(n_points=self.n_points, rng=rng)
        span = (self.freespace_span_m if params["environment"] == "freespace"
                else self.copper_span_m)
        distances = np.linspace(span[0], span[1], span[2])
        sweeps = vna.distance_sweep(distances, params["environment"])
        fit = fit_from_sweeps(sweeps, antenna_gain_db=HORN_GAIN_DB)
        return {"fitted_exponent": fit.exponent,
                "reference_loss_db": fit.reference_loss_db,
                "rms_error_db": fit.rms_error_db,
                "n_sweeps": len(sweeps)}


@register_scenario("fig1", "Fig. 1",
                   "Pathloss exponent fits from the synthetic VNA campaign")
def _fig1(overrides: Overrides) -> Scenario:
    return Scenario(
        "fig1", "Fig. 1",
        "Pathloss exponent fits from the synthetic VNA campaign",
        specs={},
        points=[{"environment": "freespace"},
                {"environment": "parallel copper boards"}],
        worker=_Fig1Worker(n_points=1024,
                           freespace_span_m=(0.02, 0.2, 12),
                           copper_span_m=(0.05, 0.2, 10)))


# ======================================================================
# Figs. 2 and 3 — impulse responses (50 mm ahead, 150 mm diagonal)
# ======================================================================
@dataclass(frozen=True)
class _ImpulseResponseWorker:
    channel: ChannelSpec

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        from repro.channel.impulse_response import (
            reflection_margin_db,
            sweep_to_impulse_response,
        )
        from repro.channel.measurement import SyntheticVNA

        vna = SyntheticVNA(rng=rng)
        distance = self.channel.distance_m
        if params["environment"] == "freespace":
            sweep = vna.measure_freespace(distance)
        else:
            sweep = vna.measure_parallel_copper_boards(distance)
        response = sweep_to_impulse_response(sweep)
        peaks = response.peaks(threshold_below_los_db=25.0)
        return {"los_delay_ns": response.los_delay_s * 1e9,
                "reflection_margin_db": reflection_margin_db(response),
                "n_peaks": len(peaks),
                "peaks": [{"delay_ns": delay * 1e9, "level_db": level}
                          for delay, level in peaks]}


def _impulse_scenario(name: str, artifact: str, summary: str,
                      distance_m: float, overrides: Overrides) -> Scenario:
    channel = overrides.apply("channel", ChannelSpec(distance_m=distance_m))
    return Scenario(
        name, artifact, summary,
        specs={"channel": channel},
        points=[{"environment": "freespace"},
                {"environment": "parallel copper boards"}],
        worker=_ImpulseResponseWorker(channel))


@register_scenario("fig2", "Fig. 2",
                   "Impulse response of the 50 mm link (reflection margins)")
def _fig2(overrides: Overrides) -> Scenario:
    return _impulse_scenario(
        "fig2", "Fig. 2",
        "Impulse response of the 50 mm link (reflection margins)",
        0.05, overrides)


@register_scenario("fig3", "Fig. 3",
                   "Impulse response of the 150 mm diagonal link")
def _fig3(overrides: Overrides) -> Scenario:
    return _impulse_scenario(
        "fig3", "Fig. 3",
        "Impulse response of the 150 mm diagonal link",
        0.15, overrides)


# ======================================================================
# Fig. 4 — required transmit power vs target SNR
# ======================================================================
@dataclass(frozen=True)
class _Fig4Worker:
    channel: ChannelSpec
    short_distance_m: float
    long_distance_m: float

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        budget = self.channel.link_budget()
        snr = params["target_snr_db"]
        return {
            "short_dbm": float(budget.required_tx_power_dbm(
                snr, self.short_distance_m)),
            "long_dbm": float(budget.required_tx_power_dbm(
                snr, self.long_distance_m)),
            "long_butler_dbm": float(budget.required_tx_power_dbm(
                snr, self.long_distance_m, True)),
        }


@register_scenario("fig4", "Fig. 4",
                   "Required transmit power vs target SNR (Table I budget)")
def _fig4(overrides: Overrides) -> Scenario:
    channel = overrides.apply("channel", ChannelSpec())
    return Scenario(
        "fig4", "Fig. 4",
        "Required transmit power vs target SNR (Table I budget)",
        specs={"channel": channel},
        points=[{"target_snr_db": float(snr)}
                for snr in np.arange(0.0, 36.0, 5.0)],
        worker=_Fig4Worker(channel, short_distance_m=0.1,
                           long_distance_m=0.3))


# ======================================================================
# Fig. 5 — the four ISI filter designs
# ======================================================================
@dataclass(frozen=True)
class _Fig5Worker:
    phy: PhySpec
    design_snr_db: float

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        from repro.phy.filter_design import unique_detection_fraction
        from repro.phy.information_rate import (
            sequence_information_rate,
            symbolwise_information_rate,
        )

        pulse = self.phy.replace(pulse_design=params["design"]).make_pulse()
        return {
            "taps": list(pulse.taps),
            "unique_detection_fraction": unique_detection_fraction(pulse),
            "symbolwise_rate_bpcu": symbolwise_information_rate(
                pulse, self.design_snr_db),
            "sequence_rate_bpcu": sequence_information_rate(
                pulse, self.design_snr_db, n_symbols=self.phy.n_symbols,
                rng=rng),
        }


@register_scenario("fig5", "Fig. 5",
                   "The four ISI filter designs of the 1-bit receiver")
def _fig5(overrides: Overrides) -> Scenario:
    phy = overrides.apply("phy", PhySpec(n_symbols=6_000))
    designs = ("rectangular", "symbolwise_optimized", "sequence_optimized",
               "suboptimal_unique")
    return Scenario(
        "fig5", "Fig. 5",
        "The four ISI filter designs of the 1-bit receiver",
        specs={"phy": phy},
        points=[{"design": design} for design in designs],
        worker=_Fig5Worker(phy, design_snr_db=25.0))


# ======================================================================
# Fig. 6 — information rates of 4-ASK with 1-bit oversampling
# ======================================================================
@dataclass(frozen=True)
class _Fig6Worker:
    phy: PhySpec

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        from repro.phy.information_rate import (
            ask_awgn_information_rate,
            one_bit_no_oversampling_rate,
            sequence_information_rate,
            symbolwise_information_rate,
        )

        snr = params["snr_db"]
        make = lambda design: self.phy.replace(pulse_design=design).make_pulse()
        candidates = tuple(make(design) for design in
                           ("rectangular", "sequence_optimized",
                            "suboptimal_unique"))
        return {
            "no_quantization": ask_awgn_information_rate(snr),
            "one_bit_no_oversampling": one_bit_no_oversampling_rate(snr),
            "max_sequence": max(
                sequence_information_rate(pulse, snr,
                                          n_symbols=self.phy.n_symbols,
                                          rng=rng)
                for pulse in candidates),
            "max_symbolwise": max(
                symbolwise_information_rate(make(design), snr)
                for design in ("rectangular", "symbolwise_optimized")),
            "rect_oversampled": symbolwise_information_rate(
                make("rectangular"), snr),
            "suboptimal": sequence_information_rate(
                make("suboptimal_unique"), snr, n_symbols=self.phy.n_symbols,
                rng=rng),
        }


@register_scenario("fig6", "Fig. 6",
                   "Information rates of 4-ASK 1-bit oversampling receivers")
def _fig6(overrides: Overrides) -> Scenario:
    phy = overrides.apply("phy", PhySpec(n_symbols=6_000))
    return Scenario(
        "fig6", "Fig. 6",
        "Information rates of 4-ASK 1-bit oversampling receivers",
        specs={"phy": phy},
        points=[{"snr_db": float(snr)}
                for snr in np.arange(-5.0, 36.0, 5.0)],
        worker=_Fig6Worker(phy))


# ======================================================================
# Fig. 7 — the Network-in-Chip-Stack topology portfolio
# ======================================================================
@dataclass(frozen=True)
class _NocPortfolioWorker:
    variants: Tuple[Tuple[str, NocSpec], ...]

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        from repro.noc.metrics import average_hop_count, bisection_links

        spec = dict(self.variants)[params["topology"]]
        topology = spec.make_topology()
        model = spec.make_model()
        return {
            "n_routers": topology.n_routers,
            "n_modules": topology.n_modules,
            "diameter": topology.diameter(),
            "average_hop_count": average_hop_count(topology),
            "bisection_links": bisection_links(topology),
            "zero_load_latency_cycles": model.zero_load_latency(),
            "saturation_rate": model.saturation_rate(),
        }


@register_scenario("fig7", "Fig. 7",
                   "NiCS topology portfolio: 2D, star, 3D and ciliated mesh")
def _fig7(overrides: Overrides) -> Scenario:
    base = overrides.apply("noc", NocSpec())
    variants = (
        ("8x8 2D mesh", base.replace(topology="mesh2d", dimensions=(8, 8),
                                     concentration=1)),
        ("4x4x4 star-mesh", base.replace(topology="starmesh",
                                         dimensions=(4, 4), concentration=4)),
        ("4x4x4 3D mesh", base.replace(topology="mesh3d",
                                       dimensions=(4, 4, 4),
                                       concentration=1)),
        ("4x4x2 ciliated 3D mesh", base.replace(topology="ciliated3d",
                                                dimensions=(4, 4, 2),
                                                concentration=2)),
    )
    return Scenario(
        "fig7", "Fig. 7",
        "NiCS topology portfolio: 2D, star, 3D and ciliated mesh",
        specs={f"noc[{label}]": spec for label, spec in variants},
        points=[{"topology": label} for label, _ in variants],
        worker=_NocPortfolioWorker(variants))


# ======================================================================
# Fig. 8 — mean latency vs injection rate (64 and 512 modules)
# ======================================================================
@dataclass(frozen=True)
class _NocCurveWorker:
    variants: Tuple[Tuple[str, NocSpec], ...]
    injection_rates: Tuple[float, ...]

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        spec = dict(self.variants)[params["topology"]]
        model = spec.make_model()
        curve = model.latency_curve(self.injection_rates)
        return {
            "injection_rates": list(self.injection_rates),
            "mean_latency_cycles": list(curve.mean_latency_cycles),
            "zero_load_latency_cycles": model.zero_load_latency(),
            "saturation_rate": model.saturation_rate(),
        }


def _noc_curve_scenario(name: str, artifact: str, summary: str,
                        variants, rates, overrides: Overrides) -> Scenario:
    base = overrides.apply("noc", NocSpec())
    built = tuple((label, base.replace(**changes))
                  for label, changes in variants)
    return Scenario(
        name, artifact, summary,
        specs={f"noc[{label}]": spec for label, spec in built},
        points=[{"topology": label} for label, _ in built],
        worker=_NocCurveWorker(built, tuple(float(r) for r in rates)))


# Shared topology-variant definitions: fig8 is the union of its panels,
# so a calibration change cannot silently de-synchronise them.
_MESH2D_8X8 = ("8x8 2D mesh",
               dict(topology="mesh2d", dimensions=(8, 8), concentration=1))
_STARMESH_4X4X4 = ("4x4x4 star-mesh",
                   dict(topology="starmesh", dimensions=(4, 4),
                        concentration=4))
_MESH3D_4X4X4 = ("4x4x4 3D mesh",
                 dict(topology="mesh3d", dimensions=(4, 4, 4),
                      concentration=1))
_MESH2D_32X16 = ("32x16 2D mesh",
                 dict(topology="mesh2d", dimensions=(32, 16),
                      concentration=1))
_MESH3D_8X8X8 = ("8x8x8 3D mesh",
                 dict(topology="mesh3d", dimensions=(8, 8, 8),
                      concentration=1))
_FIG8A_VARIANTS = (_MESH2D_8X8, _STARMESH_4X4X4, _MESH3D_4X4X4)
_FIG8B_VARIANTS = (_MESH2D_32X16, _MESH3D_8X8X8, _MESH2D_8X8, _MESH3D_4X4X4)
_FIG8A_RATES = (0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
_FIG8B_RATES = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


@register_scenario("fig8a", "Fig. 8(a)",
                   "Mean packet latency vs injection rate, 64 modules")
def _fig8a(overrides: Overrides) -> Scenario:
    return _noc_curve_scenario(
        "fig8a", "Fig. 8(a)",
        "Mean packet latency vs injection rate, 64 modules",
        _FIG8A_VARIANTS, _FIG8A_RATES, overrides)


@register_scenario("fig8b", "Fig. 8(b)",
                   "Latency scaling to 512 modules: 2D mesh vs 3D mesh")
def _fig8b(overrides: Overrides) -> Scenario:
    return _noc_curve_scenario(
        "fig8b", "Fig. 8(b)",
        "Latency scaling to 512 modules: 2D mesh vs 3D mesh",
        _FIG8B_VARIANTS, _FIG8B_RATES, overrides)


@register_scenario("fig8", "Fig. 8",
                   "Both Fig. 8 panels: all five topologies on one rate grid")
def _fig8(overrides: Overrides) -> Scenario:
    variants = _FIG8A_VARIANTS + tuple(
        variant for variant in _FIG8B_VARIANTS
        if variant not in _FIG8A_VARIANTS)
    return _noc_curve_scenario(
        "fig8", "Fig. 8",
        "Both Fig. 8 panels: all five topologies on one rate grid",
        variants, _FIG8A_RATES, overrides)


# ======================================================================
# Fig. 9 — the sliding window decoder
# ======================================================================
@dataclass(frozen=True)
class _Fig9Worker:
    coding: CodingSpec

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        spec = self.coding.replace(window_size=params["window_size"])
        return {
            "structural_latency_info_bits": spec.structural_latency_bits(),
            "window_span_coded_bits":
                params["window_size"] * 2 * spec.lifting_factor,
            "de_threshold_ebn0_db": _de_threshold_db("ldpc-cc",
                                                     params["window_size"]),
        }


@register_scenario("fig9", "Fig. 9",
                   "Sliding window decoder: latency and DE threshold vs W")
def _fig9(overrides: Overrides) -> Scenario:
    coding = overrides.apply("coding", CodingSpec())
    return Scenario(
        "fig9", "Fig. 9",
        "Sliding window decoder: latency and DE threshold vs W",
        specs={"coding": coding},
        points=[{"window_size": window} for window in range(3, 9)],
        worker=_Fig9Worker(coding))


# ======================================================================
# Fig. 10 — required Eb/N0 vs structural decoding latency
# ======================================================================
@dataclass(frozen=True)
class _Fig10Worker:
    coding: CodingSpec
    target_ber: float
    n_codewords_cc: int
    n_codewords_bc: int
    low_db: float
    high_db: float
    tolerance_db: float

    def _error_budget(self, codeword_length: int, n_codewords: int) -> int:
        """4x the expected errors at the BER target (see EXPERIMENTS.md)."""
        return math.ceil(4.0 * self.target_ber * n_codewords
                         * codeword_length)

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        from repro.coding.ber import required_ebn0_db

        family = params["family"]
        window = params["window"] or self.coding.window_size
        if params["mode"] == "de":
            return {"de_threshold_ebn0_db": _de_threshold_db(family, window),
                    "required_ebn0_db": None,
                    "structural_latency_info_bits": None}
        spec = self.coding.replace(family=family,
                                   lifting_factor=params["lifting_factor"],
                                   window_size=window)
        is_cc = family == "ldpc-cc"
        n_codewords = self.n_codewords_cc if is_cc else self.n_codewords_bc
        simulator = spec.make_ber_simulator(batch_size=8 if is_cc else 16)
        required = required_ebn0_db(
            simulator, self.target_ber, low_db=self.low_db,
            high_db=self.high_db, tolerance_db=self.tolerance_db,
            n_codewords=n_codewords, rng=rng,
            max_bit_errors=self._error_budget(simulator.codeword_length,
                                              n_codewords))
        return {"de_threshold_ebn0_db": _de_threshold_db(family, window),
                "required_ebn0_db": required,
                "structural_latency_info_bits": spec.structural_latency_bits()}


@register_scenario("fig10", "Fig. 10",
                   "Required Eb/N0 vs structural latency: LDPC-CC vs LDPC-BC")
def _fig10(overrides: Overrides) -> Scenario:
    coding = overrides.apply("coding", CodingSpec())
    target_ber = overrides.scalar("mc.target_ber", 1e-3)
    n_codewords_cc = overrides.scalar("mc.n_codewords_cc", 25)
    n_codewords_bc = overrides.scalar("mc.n_codewords_bc", 60)
    points = (
        # Asymptotic placement: window-decoding DE for W = 3..8 plus the
        # block-code reference (deterministic, no Monte-Carlo).
        [{"mode": "de", "family": "ldpc-cc", "window": window,
          "lifting_factor": 0} for window in range(3, 9)]
        + [{"mode": "de", "family": "ldpc-bc", "window": 0,
            "lifting_factor": 0}]
        # Finite-length placement: Monte-Carlo required-Eb/N0 searches.
        + [{"mode": "mc", "family": "ldpc-cc", "window": window,
            "lifting_factor": lifting}
           for lifting, window in ((25, 3), (25, 5), (25, 8),
                                   (40, 3), (40, 5), (40, 8))]
        + [{"mode": "mc", "family": "ldpc-bc", "window": 0,
            "lifting_factor": lifting} for lifting in (100, 200, 400)]
    )
    return Scenario(
        "fig10", "Fig. 10",
        "Required Eb/N0 vs structural latency: LDPC-CC vs LDPC-BC",
        specs={"coding": coding},
        points=points,
        worker=_Fig10Worker(coding, target_ber=target_ber,
                            n_codewords_cc=n_codewords_cc,
                            n_codewords_bc=n_codewords_bc,
                            low_db=0.5, high_db=6.0, tolerance_db=0.25))


# ======================================================================
# Off-paper — link evaluation beyond Table I's distances
# ======================================================================
@dataclass(frozen=True)
class _LinkEvaluationWorker:
    channel: ChannelSpec
    phy: PhySpec
    coding: CodingSpec

    def _evaluate(self, distance_m: float, tx_power_dbm: float) -> dict:
        from repro.core.link import WirelessBoardLink

        link = WirelessBoardLink(
            distance_m=distance_m,
            budget_parameters=self.channel.budget_parameters(),
            include_butler_mismatch=self.channel.include_butler_mismatch,
            pulse=self.phy.make_pulse(),
            window_size=self.coding.window_size,
            lifting_factor=self.coding.lifting_factor,
            dual_polarization=self.phy.dual_polarization)
        report = link.evaluate(tx_power_dbm, n_symbols=self.phy.n_symbols)
        return report.to_dict()

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        return self._evaluate(params.get("distance_m",
                                         self.channel.distance_m),
                              params.get("tx_power_dbm",
                                         self.channel.tx_power_dbm))


@register_scenario("link-distance-sweep", "off-paper",
                   "Full link reports for distances beyond Table I (to 0.5 m)")
def _link_distance_sweep(overrides: Overrides) -> Scenario:
    channel = overrides.apply("channel", ChannelSpec())
    phy = overrides.apply("phy", PhySpec(n_symbols=2_000))
    coding = overrides.apply("coding", CodingSpec())
    return Scenario(
        "link-distance-sweep", "off-paper",
        "Full link reports for distances beyond Table I (to 0.5 m)",
        specs={"channel": channel, "phy": phy, "coding": coding},
        points=[{"distance_m": distance}
                for distance in (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)],
        worker=_LinkEvaluationWorker(channel, phy, coding))


@register_scenario("tx-power-sweep", "off-paper",
                   "Worst-case diagonal link vs transmit power (-10..30 dBm)")
def _tx_power_sweep(overrides: Overrides) -> Scenario:
    channel = overrides.apply(
        "channel", ChannelSpec(distance_m=0.3, include_butler_mismatch=True))
    phy = overrides.apply("phy", PhySpec(n_symbols=2_000))
    coding = overrides.apply("coding", CodingSpec())
    return Scenario(
        "tx-power-sweep", "off-paper",
        "Worst-case diagonal link vs transmit power (-10..30 dBm)",
        specs={"channel": channel, "phy": phy, "coding": coding},
        points=[{"tx_power_dbm": float(power)}
                for power in np.arange(-10.0, 31.0, 5.0)],
        worker=_LinkEvaluationWorker(channel, phy, coding))


# ======================================================================
# Off-paper — alternate Mesh3D dimensions
# ======================================================================
@dataclass(frozen=True)
class _MeshScalingWorker:
    noc: NocSpec

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        from repro.noc.metrics import average_hop_count, bisection_links

        dims = tuple(int(v) for v in params["dimensions"].split("x"))
        spec = self.noc.replace(topology="mesh3d", dimensions=dims,
                                concentration=1)
        topology = spec.make_topology()
        model = spec.make_model()
        return {
            "n_modules": topology.n_modules,
            "diameter": topology.diameter(),
            "average_hop_count": average_hop_count(topology),
            "bisection_links": bisection_links(topology),
            "zero_load_latency_cycles": model.zero_load_latency(),
            "saturation_rate": model.saturation_rate(),
        }


@register_scenario("mesh3d-scaling", "off-paper",
                   "3D-mesh NiCS dimensions beyond the paper's 4x4x4 / 8x8x8")
def _mesh3d_scaling(overrides: Overrides) -> Scenario:
    noc = overrides.apply("noc", NocSpec())
    shapes = ("2x2x2", "3x3x3", "4x4x2", "4x4x4", "5x5x4", "6x6x4")
    return Scenario(
        "mesh3d-scaling", "off-paper",
        "3D-mesh NiCS dimensions beyond the paper's 4x4x4 / 8x8x8",
        specs={"noc": noc},
        points=[{"dimensions": shape} for shape in shapes],
        worker=_MeshScalingWorker(noc))


# ======================================================================
# Off-paper — oversampling factor sweep
# ======================================================================
@dataclass(frozen=True)
class _OversamplingWorker:
    phy: PhySpec

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        from repro.phy.information_rate import (
            sequence_information_rate,
            symbolwise_information_rate,
        )

        factor = params["oversampling"]
        rect = self.phy.replace(pulse_design="rectangular",
                                oversampling=factor).make_pulse()
        isi = self.phy.replace(oversampling=factor).make_pulse()
        return {
            "rect_symbolwise_bpcu": symbolwise_information_rate(rect, 25.0),
            "isi_sequence_bpcu": sequence_information_rate(
                isi, 25.0, n_symbols=self.phy.n_symbols, rng=rng),
        }


@register_scenario("oversampling-sweep", "off-paper",
                   "Information rate vs oversampling factor (1x..8x)")
def _oversampling_sweep(overrides: Overrides) -> Scenario:
    phy = overrides.apply("phy", PhySpec(pulse_design="ramp",
                                         n_symbols=6_000))
    return Scenario(
        "oversampling-sweep", "off-paper",
        "Information rate vs oversampling factor (1x..8x)",
        specs={"phy": phy},
        points=[{"oversampling": factor} for factor in (1, 2, 3, 4, 5, 6, 8)],
        worker=_OversamplingWorker(phy))


# ======================================================================
# Off-paper — the waveform-level transceiver pipeline (ChannelFrontend)
# ======================================================================
@dataclass(frozen=True)
class _CodedBerFrontendWorker:
    """Coded BER of one (frontend, detector, Eb/N0) operating point."""

    coding: CodingSpec
    phy: PhySpec
    n_codewords: int

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        phy = self.phy
        if "detector" in params:
            phy = phy.replace(detector=params["detector"])
        if "oversampling" in params:
            phy = phy.replace(oversampling=params["oversampling"])
        coding = self.coding
        if "window_size" in params:
            coding = coding.replace(window_size=params["window_size"])
        frontend = phy.make_frontend(rate=coding.design_rate,
                                     kind=params.get("frontend",
                                                     phy.frontend))
        simulator = coding.make_ber_simulator(batch_size=8,
                                              frontend=frontend)
        point = simulator.simulate(params["ebn0_db"],
                                   n_codewords=self.n_codewords, rng=rng)
        value = {
            "bit_error_rate": point.bit_error_rate,
            "block_error_rate": point.block_error_rate,
            "n_bits": point.n_bits,
            "bits_per_channel_use": frontend.bits_per_channel_use,
            "samples_per_bit": frontend.samples_per_bit,
        }
        if "window_size" in params:
            value["de_threshold_ebn0_db"] = _de_threshold_db(
                coding.family, coding.window_size)
        return value

    def call_batch(self, params_list, rngs) -> list:
        """Every point's value, the points of one coding spec decoded
        together, one window-decoder call per round of batches
        (:meth:`BerSimulator.simulate_sweep`)."""
        codings, frontends = [], []
        for params in params_list:
            phy = self.phy
            if "detector" in params:
                phy = phy.replace(detector=params["detector"])
            if "oversampling" in params:
                phy = phy.replace(oversampling=params["oversampling"])
            coding = self.coding
            if "window_size" in params:
                coding = coding.replace(window_size=params["window_size"])
            codings.append(coding)
            frontends.append(phy.make_frontend(
                rate=coding.design_rate,
                kind=params.get("frontend", phy.frontend)))
        by_coding = {}
        for index, coding in enumerate(codings):
            by_coding.setdefault(coding, []).append(index)
        points = [None] * len(params_list)
        for coding, indices in by_coding.items():
            simulator = coding.make_ber_simulator(batch_size=8)
            swept = simulator.simulate_sweep(
                [params_list[index]["ebn0_db"] for index in indices],
                [rngs[index] for index in indices],
                [frontends[index] for index in indices],
                n_codewords=self.n_codewords)
            for index, point in zip(indices, swept):
                points[index] = point
        values = []
        for params, coding, frontend, point in zip(params_list, codings,
                                                   frontends, points):
            value = {
                "bit_error_rate": point.bit_error_rate,
                "block_error_rate": point.block_error_rate,
                "n_bits": point.n_bits,
                "bits_per_channel_use": frontend.bits_per_channel_use,
                "samples_per_bit": frontend.samples_per_bit,
            }
            if "window_size" in params:
                value["de_threshold_ebn0_db"] = _de_threshold_db(
                    coding.family, coding.window_size)
            values.append(value)
        return values


@register_scenario("coded-ber-waveform-sweep", "off-paper",
                   "Coded BER vs Eb/N0: BPSK/AWGN baseline vs the 1-bit "
                   "waveform PHY")
def _coded_ber_waveform_sweep(overrides: Overrides) -> Scenario:
    coding = overrides.apply("coding", CodingSpec(lifting_factor=25,
                                                  termination_length=10))
    phy = overrides.apply("phy", PhySpec())
    n_codewords = overrides.scalar("mc.n_codewords", 4)
    # One shared grid spanning both waterfalls: the BPSK baseline falls
    # around 2.5-3.5 dB, the 1-bit waveform chain around 12-15 dB — the
    # horizontal gap between the two curves is the frontend's Eb/N0 cost.
    grid = (2.0, 3.0, 6.0, 10.0, 12.0, 14.0, 16.0)
    return Scenario(
        "coded-ber-waveform-sweep", "off-paper",
        "Coded BER vs Eb/N0: BPSK/AWGN baseline vs the 1-bit waveform PHY",
        specs={"coding": coding, "phy": phy},
        points=[{"frontend": frontend, "ebn0_db": float(ebn0)}
                for frontend in ("bpsk-awgn", "one-bit-waveform")
                for ebn0 in grid],
        worker=_CodedBerFrontendWorker(coding, phy, n_codewords))


@dataclass(frozen=True)
class _AdaptiveBerWorker:
    """Incremental coded-BER point: simulate until the CI target is met.

    Implements the incremental-evaluation protocol of
    :meth:`repro.core.engine.SweepEngine.sweep_adaptive` over
    :class:`~repro.coding.ber.BerTally` states, so partial tallies are
    persisted in the run store and a tighter precision target resumes
    from (upgrades) them instead of starting over.
    """

    coding: CodingSpec
    phy: PhySpec
    batch_size: int = 4

    def _simulator(self, params: Mapping):
        phy = self.phy
        if "detector" in params:
            phy = phy.replace(detector=params["detector"])
        if "oversampling" in params:
            phy = phy.replace(oversampling=params["oversampling"])
        frontend = phy.make_frontend(rate=self.coding.design_rate,
                                     kind=params.get("frontend",
                                                     phy.frontend))
        return self.coding.make_ber_simulator(batch_size=self.batch_size,
                                              frontend=frontend)

    # -- incremental-evaluation protocol -------------------------------
    def decode(self, stored):
        from repro.coding.ber import BerTally

        return BerTally() if stored is None else BerTally.from_dict(stored)

    def encode(self, state):
        return state.to_dict()

    def satisfied(self, state, rule) -> bool:
        return rule.satisfied(state.n_bit_errors, state.n_bits,
                              state.n_codewords)

    def advance(self, params: Mapping, state, seed_sequence, rule):
        return self._simulator(params).simulate_adaptive(
            float(params["ebn0_db"]), rule, seed_sequence, tally=state)

    def progress(self, state) -> int:
        return int(state.n_codewords)

    # -- deterministic intra-point sharding ----------------------------
    # Optional extension of the incremental protocol: the sweep engine
    # splits a deep point's upcoming batch indices across its worker
    # pool and replays the per-batch deltas in index order, which is
    # bit-exact against a serial run because every batch draws from its
    # own index-derived seed (see BerSimulator.simulate_batches).
    def cursor(self, state) -> int:
        return int(state.n_batches)

    def advance_shard(self, params: Mapping, seed_sequence, batch_indices):
        tallies = self._simulator(params).simulate_batches(
            float(params["ebn0_db"]), seed_sequence, batch_indices)
        return [tally.to_dict() for tally in tallies]

    def absorb(self, state, delta):
        from repro.coding.ber import BerTally

        return state.merge(BerTally.from_dict(delta))

    def finalize(self, params: Mapping, state) -> dict:
        from repro.utils.statistics import wilson_interval

        value = {
            "bit_error_rate": state.bit_error_rate,
            "frame_error_rate": state.frame_error_rate,
            "n_codewords": state.n_codewords,
            "n_bits": state.n_bits,
            "n_bit_errors": state.n_bit_errors,
        }
        if state.n_bits > 0:
            low, high = wilson_interval(state.n_bit_errors, state.n_bits)
            value["ber_ci_low"] = low
            value["ber_ci_high"] = high
        return value


@register_scenario("coded-ber-adaptive-sweep", "off-paper",
                   "CI-targeted coded BER vs Eb/N0 with upgradable "
                   "cached tallies")
def _coded_ber_adaptive_sweep(overrides: Overrides) -> Scenario:
    coding = overrides.apply("coding", CodingSpec(lifting_factor=25,
                                                  termination_length=10))
    phy = overrides.apply("phy", PhySpec())
    precision = overrides.apply("precision", PrecisionSpec())
    # The BPSK/AWGN waterfall region: points where a fixed codeword
    # budget either wastes samples (low Eb/N0, errors everywhere) or
    # starves (high Eb/N0) — exactly where CI-targeted stopping pays.
    grid = (1.0, 1.5, 2.0, 2.5, 3.0)
    return Scenario(
        "coded-ber-adaptive-sweep", "off-paper",
        "CI-targeted coded BER vs Eb/N0 with upgradable cached tallies",
        specs={"coding": coding, "phy": phy},
        points=[{"frontend": "bpsk-awgn", "ebn0_db": float(ebn0)}
                for ebn0 in grid],
        worker=_AdaptiveBerWorker(coding, phy),
        precision=precision)


@register_scenario("phy-detector-comparison", "off-paper",
                   "Coded BER over the waveform PHY: max-log BCJR vs "
                   "symbol-by-symbol soft demod")
def _phy_detector_comparison(overrides: Overrides) -> Scenario:
    coding = overrides.apply("coding", CodingSpec(lifting_factor=25,
                                                  termination_length=10))
    phy = overrides.apply("phy", PhySpec(frontend="one-bit-waveform"))
    n_codewords = overrides.scalar("mc.n_codewords", 4)
    return Scenario(
        "phy-detector-comparison", "off-paper",
        "Coded BER over the waveform PHY: max-log BCJR vs symbol-by-symbol "
        "soft demod",
        specs={"coding": coding, "phy": phy},
        points=[{"detector": detector, "ebn0_db": float(ebn0)}
                for detector in ("bcjr", "symbolwise")
                for ebn0 in (8.0, 12.0, 16.0)],
        worker=_CodedBerFrontendWorker(coding, phy, n_codewords))


@register_scenario("phy-oversampling-coding-ablation", "off-paper",
                   "Oversampling x window-size ablation of the coded "
                   "waveform link")
def _phy_oversampling_coding_ablation(overrides: Overrides) -> Scenario:
    coding = overrides.apply("coding", CodingSpec(lifting_factor=25,
                                                  termination_length=10))
    # The ramp pulse is defined for every oversampling factor (the
    # shipped optimised designs exist only for 5x).
    phy = overrides.apply("phy", PhySpec(pulse_design="ramp",
                                         frontend="one-bit-waveform"))
    n_codewords = overrides.scalar("mc.n_codewords", 4)
    ebn0_db = overrides.scalar("mc.ebn0_db", 14.0)
    points = [{"oversampling": factor, "window_size": window,
               "ebn0_db": float(ebn0_db)}
              for factor in (2, 3, 5)
              for window in (3, 6)]
    worker = _CodedBerFrontendWorker(coding, phy, n_codewords)
    return Scenario(
        "phy-oversampling-coding-ablation", "off-paper",
        "Oversampling x window-size ablation of the coded waveform link",
        specs={"coding": coding, "phy": phy},
        points=points,
        worker=worker)


# ======================================================================
# Off-paper — window lengths and lifting factors beyond Fig. 10
# ======================================================================
@dataclass(frozen=True)
class _WindowSweepWorker:
    coding: CodingSpec

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        spec = self.coding.replace(window_size=params["window_size"],
                                   lifting_factor=params["lifting_factor"])
        return {
            "structural_latency_info_bits": spec.structural_latency_bits(),
            "de_threshold_ebn0_db": _de_threshold_db("ldpc-cc",
                                                     params["window_size"]),
        }


@register_scenario("window-sweep", "off-paper",
                   "Window decoder trade-off beyond Fig. 10 (W up to 12)")
def _window_sweep(overrides: Overrides) -> Scenario:
    coding = overrides.apply("coding", CodingSpec())
    return Scenario(
        "window-sweep", "off-paper",
        "Window decoder trade-off beyond Fig. 10 (W up to 12)",
        specs={"coding": coding},
        points=[{"window_size": window, "lifting_factor": lifting}
                for window in range(3, 13)
                for lifting in (25, 40, 60, 80)],
        worker=_WindowSweepWorker(coding))


# ======================================================================
# Off-paper — Butler-matrix penalty over the whole geometry
# ======================================================================
@dataclass(frozen=True)
class _BeamformingWorker:
    channel: ChannelSpec
    target_snr_db: float

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        budget = self.channel.link_budget()
        distance = params["distance_m"]
        ideal = float(budget.required_tx_power_dbm(self.target_snr_db,
                                                   distance))
        butler = float(budget.required_tx_power_dbm(
            self.target_snr_db, distance, include_butler_mismatch=True))
        return {"ideal_dbm": ideal, "butler_dbm": butler,
                "penalty_db": butler - ideal}


@register_scenario("beamforming-sweep", "off-paper",
                   "Butler-matrix TX-power penalty across all node distances")
def _beamforming_sweep(overrides: Overrides) -> Scenario:
    from repro.channel.geometry import BoardToBoardGeometry

    channel = overrides.apply("channel", ChannelSpec())
    geometry = BoardToBoardGeometry.paper_geometry()
    distances = np.unique(np.round(geometry.link_distances_m(), 6))
    return Scenario(
        "beamforming-sweep", "off-paper",
        "Butler-matrix TX-power penalty across all node distances",
        specs={"channel": channel},
        points=[{"distance_m": float(distance)} for distance in distances],
        worker=_BeamformingWorker(channel, target_snr_db=20.0))


# ======================================================================
# Off-paper — analytic NoC model vs cycle-level simulation
# ======================================================================
def _per_spec(specs, build) -> list:
    """``build(spec)`` for each point's spec, built once per distinct spec."""
    built = {}
    for spec in specs:
        if spec not in built:
            built[spec] = build(spec)
    return [built[spec] for spec in specs]


def _simulate_batch(specs, rates, rngs, n_cycles: int,
                    warmup_cycles: int) -> list:
    """Each point's ``spec.make_simulator().run(rate, rng=...)``, all in
    one merged cycle loop (:meth:`NocSimulator.run_batch`)."""
    simulators = _per_spec(specs, lambda spec: spec.make_simulator())
    return simulators[0].run_batch(rates, n_cycles=n_cycles,
                                   warmup_cycles=warmup_cycles, rngs=rngs,
                                   simulators=simulators)


@dataclass(frozen=True)
class _NocCrosscheckWorker:
    variants: Tuple[Tuple[str, NocSpec], ...]
    n_cycles: int
    warmup_cycles: int

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        spec = dict(self.variants)[params["topology"]]
        rate = params["injection_rate"]
        analytic = spec.make_model().mean_latency(rate)
        simulated = spec.make_simulator().run(
            rate, n_cycles=self.n_cycles, warmup_cycles=self.warmup_cycles,
            rng=rng)
        return {
            "analytic_latency_cycles": analytic,
            "simulated_latency_cycles": simulated.mean_latency_cycles,
            "delivered_packets": simulated.delivered_packets,
            "accepted_throughput": simulated.accepted_throughput,
            "saturated": simulated.saturated,
        }

    def call_batch(self, params_list, rngs) -> list:
        """Every point's value, the simulations in one cycle loop."""
        variants = dict(self.variants)
        specs = [variants[params["topology"]] for params in params_list]
        rates = [params["injection_rate"] for params in params_list]
        models = _per_spec(specs, lambda spec: spec.make_model())
        analytic = [model.mean_latency(rate)
                    for model, rate in zip(models, rates)]
        simulated = _simulate_batch(specs, rates, rngs, self.n_cycles,
                                    self.warmup_cycles)
        return [{
            "analytic_latency_cycles": latency,
            "simulated_latency_cycles": result.mean_latency_cycles,
            "delivered_packets": result.delivered_packets,
            "accepted_throughput": result.accepted_throughput,
            "saturated": result.saturated,
        } for latency, result in zip(analytic, simulated)]


# ======================================================================
# Off-paper — the cross-layer NoC engine (unified NocModel interface)
# ======================================================================
@dataclass(frozen=True)
class _NocEngineSweepWorker:
    """Analytic and simulated evaluations of one NocSpec at one rate."""

    variants: Tuple[Tuple[str, NocSpec], ...]
    n_cycles: int
    warmup_cycles: int

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        spec = dict(self.variants)[params["topology"]]
        rate = params["injection_rate"]
        analytic = spec.make_model().evaluate(rate)
        simulated = spec.make_simulated_model(
            n_cycles=self.n_cycles,
            warmup_cycles=self.warmup_cycles).evaluate(rate, rng=rng)
        return {
            "analytic_latency_cycles": analytic.mean_latency_cycles,
            "simulated_latency_cycles": simulated.mean_latency_cycles,
            "analytic_saturated": analytic.saturated,
            "simulated_saturated": simulated.saturated,
            "delivered_packets": simulated.delivered_packets,
            "accepted_throughput": simulated.accepted_throughput,
        }

    def call_batch(self, params_list, rngs) -> list:
        """Every point's value, the simulations in one cycle loop."""
        variants = dict(self.variants)
        specs = [variants[params["topology"]] for params in params_list]
        rates = [params["injection_rate"] for params in params_list]
        models = _per_spec(specs, lambda spec: spec.make_model())
        analytic = [model.evaluate(rate)
                    for model, rate in zip(models, rates)]
        simulated = _simulate_batch(specs, rates, rngs, self.n_cycles,
                                    self.warmup_cycles)
        return [{
            "analytic_latency_cycles": estimate.mean_latency_cycles,
            "simulated_latency_cycles": result.mean_latency_cycles,
            "analytic_saturated": estimate.saturated,
            "simulated_saturated": result.saturated,
            "delivered_packets": result.delivered_packets,
            "accepted_throughput": result.accepted_throughput,
        } for estimate, result in zip(analytic, simulated)]


@register_scenario("noc-hotspot-sweep", "off-paper",
                   "Hotspot-traffic latency: analytic vs vectorized simulator")
def _noc_hotspot_sweep(overrides: Overrides) -> Scenario:
    noc = overrides.apply("noc", NocSpec(topology="mesh2d",
                                         dimensions=(8, 8),
                                         concentration=1,
                                         traffic="hotspot"))
    variants = (("8x8 2D mesh", noc),)
    rates = (0.01, 0.02, 0.03, 0.045, 0.06, 0.08, 0.12)
    return Scenario(
        "noc-hotspot-sweep", "off-paper",
        "Hotspot-traffic latency: analytic vs vectorized simulator",
        specs={"noc": noc},
        points=[{"topology": label, "injection_rate": rate}
                for label, _ in variants for rate in rates],
        worker=_NocEngineSweepWorker(variants, n_cycles=2_500,
                                     warmup_cycles=500))


@register_scenario("noc-transpose-crosscheck", "off-paper",
                   "Analytic vs simulated latency under transpose traffic")
def _noc_transpose_crosscheck(overrides: Overrides) -> Scenario:
    base = overrides.apply("noc", NocSpec(traffic="transpose"))
    variants = (
        ("4x4 2D mesh", base.replace(topology="mesh2d", dimensions=(4, 4),
                                     concentration=1)),
        ("3x3x3 3D mesh", base.replace(topology="mesh3d",
                                       dimensions=(3, 3, 3),
                                       concentration=1)),
    )
    rates = (0.02, 0.08)
    return Scenario(
        "noc-transpose-crosscheck", "off-paper",
        "Analytic vs simulated latency under transpose traffic",
        specs={f"noc[{label}]": spec for label, spec in variants},
        points=[{"topology": label, "injection_rate": rate}
                for label, _ in variants for rate in rates],
        worker=_NocEngineSweepWorker(variants, n_cycles=3_000,
                                     warmup_cycles=750))


@dataclass(frozen=True)
class _BufferDepthWorker:
    """One finite-buffer simulation per depth at a fixed offered load."""

    noc: NocSpec
    injection_rate: float
    n_cycles: int
    warmup_cycles: int

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        spec = self.noc.replace(
            buffer_depth_flits=params["buffer_depth_flits"])
        result = spec.make_simulator().run(
            self.injection_rate, n_cycles=self.n_cycles,
            warmup_cycles=self.warmup_cycles, rng=rng)
        return {
            "mean_latency_cycles": result.mean_latency_cycles,
            "accepted_throughput": result.accepted_throughput,
            "delivered_packets": result.delivered_packets,
            "offered_packets": result.offered_packets,
            "saturated": result.saturated,
        }

    def call_batch(self, params_list, rngs) -> list:
        """Every point's value, the simulations in one cycle loop."""
        specs = [self.noc.replace(
            buffer_depth_flits=params["buffer_depth_flits"])
            for params in params_list]
        results = _simulate_batch(specs, [self.injection_rate] * len(specs),
                                  rngs, self.n_cycles, self.warmup_cycles)
        return [{
            "mean_latency_cycles": result.mean_latency_cycles,
            "accepted_throughput": result.accepted_throughput,
            "delivered_packets": result.delivered_packets,
            "offered_packets": result.offered_packets,
            "saturated": result.saturated,
        } for result in results]


@register_scenario("noc-buffer-depth-sweep", "off-paper",
                   "Backpressure ablation: latency/throughput vs buffer depth")
def _noc_buffer_depth_sweep(overrides: Overrides) -> Scenario:
    noc = overrides.apply("noc", NocSpec(topology="mesh2d",
                                         dimensions=(8, 8),
                                         concentration=1))
    rate = overrides.scalar("sim.injection_rate", 0.25)
    depths = (1, 2, 4, 8, 16, 0)  # 0 = infinite (the reference regime)
    return Scenario(
        "noc-buffer-depth-sweep", "off-paper",
        "Backpressure ablation: latency/throughput vs buffer depth",
        specs={"noc": noc},
        points=[{"buffer_depth_flits": depth} for depth in depths],
        worker=_BufferDepthWorker(noc, injection_rate=rate,
                                  n_cycles=2_500, warmup_cycles=500))


@dataclass(frozen=True)
class _LossyLinkWorker:
    """Cross-layer point: Eb/N0 -> flit error rate -> NoC latency."""

    noc: NocSpec
    coding: CodingSpec
    phy: PhySpec
    channel: ChannelSpec
    injection_rate: float
    n_cycles: int
    warmup_cycles: int

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        # Each replace() neutralizes the other loss knob, so a user-set
        # --set noc.link_error_rate / noc.ebn0_db base spec cannot trip
        # the spec's mutual-exclusion check: the swept ebn0_db always
        # defines the operating point of this scenario.
        error_rate = self.noc.replace(
            ebn0_db=params["ebn0_db"],
            link_error_rate=0.0).effective_link_error_rate(
                self.coding, self.phy, self.channel)
        # Derive once and pin the probability, so the reported rate and
        # the rate the simulator ran with can never diverge.
        simulator = self.noc.replace(
            link_error_rate=error_rate, ebn0_db=None).make_simulator()
        result = simulator.run(self.injection_rate, n_cycles=self.n_cycles,
                               warmup_cycles=self.warmup_cycles, rng=rng)
        return {
            "link_flit_error_rate": error_rate,
            "mean_latency_cycles": result.mean_latency_cycles,
            "retransmitted_flits": result.retransmitted_flits,
            "delivered_packets": result.delivered_packets,
            "accepted_throughput": result.accepted_throughput,
            "saturated": result.saturated,
        }

    def call_batch(self, params_list, rngs) -> list:
        """Every point's value, the simulations in one cycle loop."""
        error_rates = [self.noc.replace(
            ebn0_db=params["ebn0_db"],
            link_error_rate=0.0).effective_link_error_rate(
                self.coding, self.phy, self.channel)
            for params in params_list]
        specs = [self.noc.replace(link_error_rate=error_rate, ebn0_db=None)
                 for error_rate in error_rates]
        results = _simulate_batch(specs, [self.injection_rate] * len(specs),
                                  rngs, self.n_cycles, self.warmup_cycles)
        return [{
            "link_flit_error_rate": error_rate,
            "mean_latency_cycles": result.mean_latency_cycles,
            "retransmitted_flits": result.retransmitted_flits,
            "delivered_packets": result.delivered_packets,
            "accepted_throughput": result.accepted_throughput,
            "saturated": result.saturated,
        } for error_rate, result in zip(error_rates, results)]


@register_scenario("noc-lossy-link-sweep", "off-paper",
                   "NoC latency vs link Eb/N0 (flit errors fed from coding)")
def _noc_lossy_link_sweep(overrides: Overrides) -> Scenario:
    noc = overrides.apply("noc", NocSpec())
    coding = overrides.apply("coding", CodingSpec())
    phy = overrides.apply("phy", PhySpec())
    channel = overrides.apply("channel", ChannelSpec())
    rate = overrides.scalar("sim.injection_rate", 0.1)
    return Scenario(
        "noc-lossy-link-sweep", "off-paper",
        "NoC latency vs link Eb/N0 (flit errors fed from coding)",
        specs={"noc": noc, "coding": coding, "phy": phy, "channel": channel},
        points=[{"ebn0_db": float(ebn0)}
                for ebn0 in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)],
        worker=_LossyLinkWorker(noc, coding, phy, channel,
                                injection_rate=rate, n_cycles=2_500,
                                warmup_cycles=500))


@register_scenario("noc-sim-crosscheck", "off-paper",
                   "Analytic queueing model vs cycle-level NoC simulation")
def _noc_sim_crosscheck(overrides: Overrides) -> Scenario:
    base = overrides.apply("noc", NocSpec())
    variants = (
        ("8x8 2D mesh", base.replace(topology="mesh2d", dimensions=(8, 8),
                                     concentration=1)),
        ("4x4x4 3D mesh", base.replace(topology="mesh3d",
                                       dimensions=(4, 4, 4),
                                       concentration=1)),
    )
    rates = (0.05, 0.15, 0.25)
    return Scenario(
        "noc-sim-crosscheck", "off-paper",
        "Analytic queueing model vs cycle-level NoC simulation",
        specs={f"noc[{label}]": spec for label, spec in variants},
        points=[{"topology": label, "injection_rate": rate}
                for label, _ in variants for rate in rates],
        worker=_NocCrosscheckWorker(variants, n_cycles=4_000,
                                    warmup_cycles=1_000))


# ======================================================================
# Off-paper — the full system at several transmit powers
# ======================================================================
@dataclass(frozen=True)
class _SystemWorker:
    system: SystemSpec

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        spec = self.system.replace(tx_power_dbm=params["tx_power_dbm"])
        report = spec.make_system().evaluate(n_symbols=spec.n_symbols)
        return report.to_dict()


@register_scenario("system-power-sweep", "off-paper",
                   "Box-of-boards system report vs per-node transmit power")
def _system_power_sweep(overrides: Overrides) -> Scenario:
    system = overrides.apply("system", SystemSpec())
    return Scenario(
        "system-power-sweep", "off-paper",
        "Box-of-boards system report vs per-node transmit power",
        specs={"system": system},
        points=[{"tx_power_dbm": float(power)}
                for power in (0.0, 10.0, 20.0)],
        worker=_SystemWorker(system))


# ======================================================================
# Off-paper — measured-channel datasets through the coded-BER stack
# ======================================================================
#: Deterministic default acquisition behind `measured-channel-coded-ber-
#: sweep` when no `channel.dataset` override is given: a small copper-
#: board campaign over the paper's diagonal-link distances.  The fixed
#: seed makes the dataset — and therefore its content key and every
#: cached BER point derived from it — identical across processes.
_DEFAULT_MEASURED_SEED = 20130318  # the paper's publication date


@lru_cache(maxsize=1)
def _default_measured_dataset():
    from repro.instrument import AcquisitionPlan, SimulatedVna, acquire_dataset

    plan = AcquisitionPlan(distances_m=(0.05, 0.1, 0.15),
                           seed=_DEFAULT_MEASURED_SEED,
                           environment="parallel copper boards",
                           n_points=256,
                           name="default copper-board campaign")
    with SimulatedVna(seed=plan.seed) as vna:
        return acquire_dataset(vna, plan)


@dataclass(frozen=True)
class _MeasuredAdaptiveBerWorker(_AdaptiveBerWorker):
    """Adaptive coded-BER worker replaying a measured channel dataset.

    The dataset rides along as its canonical JSON **string** —
    content-stable under :func:`repro.utils.hashing.worker_cache_key`
    (equal bytes share cached tallies) and hashable/picklable for the
    process-parallel engine.  Points with ``frontend="measured"`` replay
    it through :class:`repro.phy.MeasuredChannelFrontend`; other points
    fall through to the inherited synthetic frontends, so one sweep holds
    the measured curve and its ideal baseline.
    """

    dataset_json: str = ""
    distance_m: float = 0.1

    def _simulator(self, params: Mapping):
        kind = params.get("frontend", self.phy.frontend)
        if kind != "measured":
            return super()._simulator(params)
        import json

        from repro.instrument.dataset import ChannelDataset

        dataset = ChannelDataset.from_dict(json.loads(self.dataset_json))
        frontend = self.phy.make_frontend(rate=self.coding.design_rate,
                                          kind="measured", dataset=dataset,
                                          distance_m=self.distance_m)
        return self.coding.make_ber_simulator(batch_size=self.batch_size,
                                              frontend=frontend)


@register_scenario("measured-channel-coded-ber-sweep", "off-paper",
                   "Coded BER over a measured channel dataset vs the "
                   "ideal BPSK/AWGN baseline")
def _measured_channel_coded_ber_sweep(overrides: Overrides) -> Scenario:
    coding = overrides.apply("coding", CodingSpec(lifting_factor=25,
                                                  termination_length=10))
    phy = overrides.apply("phy", PhySpec(frontend="measured"))
    channel = overrides.apply("channel", ChannelSpec())
    # Reduced default precision: the measured (1-bit waveform) points sit
    # deep below their waterfall at the low-Eb/N0 grid entries, where a
    # tight CI would burn codewords on a curve whose *shape* is the
    # assertion.  Override `precision.*` for production-grade tails.
    precision = overrides.apply("precision",
                                PrecisionSpec(rel_ci_target=0.4,
                                              min_codewords=2,
                                              max_codewords=24,
                                              min_errors=4))
    if channel.dataset is None:
        dataset = _default_measured_dataset()
    else:
        dataset = channel.resolve_dataset()
    # Matched Eb/N0 points for both frontends: the BPSK baseline falls
    # around 2.5-3.5 dB while the measured (1-bit + measured echoes)
    # chain needs >12 dB — the right-shift is the scenario's assertion.
    grid = (2.0, 3.0, 12.0)
    return Scenario(
        "measured-channel-coded-ber-sweep", "off-paper",
        "Coded BER over a measured channel dataset vs the ideal "
        "BPSK/AWGN baseline",
        specs={"coding": coding, "phy": phy,
               "channel": channel.replace(dataset=dataset.content_key)},
        points=[{"frontend": frontend, "ebn0_db": float(ebn0)}
                for frontend in ("bpsk-awgn", "measured")
                for ebn0 in grid],
        worker=_MeasuredAdaptiveBerWorker(
            coding, phy, dataset_json=dataset.to_json(),
            distance_m=channel.distance_m),
        precision=precision)


@dataclass(frozen=True)
class _MeasuredEnvironmentWorker:
    """Acquire one environment through the Instrument seam and analyse it.

    Unlike :class:`_Fig1Worker` (which drives the ray model directly),
    this worker exercises the full acquisition pipeline — driver
    lifecycle, plan, content-addressed dataset — and reports the
    dataset's content key alongside the fitted exponent, so a fixed-seed
    run proves end-to-end acquisition determinism.
    """

    n_points: int
    freespace_span_m: Tuple[float, float, int]
    copper_span_m: Tuple[float, float, int]

    def __call__(self, params: Mapping, rng: np.random.Generator) -> dict:
        from repro.channel.fitting import fit_from_sweeps
        from repro.channel.impulse_response import (
            reflection_margin_db,
            sweep_to_impulse_response,
        )
        from repro.instrument import (AcquisitionPlan, SimulatedVna,
                                      acquire_dataset)

        span = (self.freespace_span_m if params["environment"] == "freespace"
                else self.copper_span_m)
        plan = AcquisitionPlan(
            distances_m=tuple(np.linspace(span[0], span[1], span[2])),
            seed=int(rng.integers(2 ** 31)),   # explicit, engine-derived
            environment=params["environment"],
            n_points=self.n_points)
        with SimulatedVna(seed=plan.seed) as vna:
            dataset = acquire_dataset(vna, plan)
        fit = fit_from_sweeps(dataset.sweeps, antenna_gain_db=HORN_GAIN_DB)
        margins = [reflection_margin_db(sweep_to_impulse_response(sweep))
                   for sweep in dataset.sweeps]
        return {"content_key": dataset.content_key,
                "fitted_exponent": fit.exponent,
                "reference_loss_db": fit.reference_loss_db,
                "min_reflection_margin_db": float(min(margins)),
                "n_sweeps": len(dataset.sweeps)}


@register_scenario("measured-freespace-vs-copper", "off-paper",
                   "Fig. 1 geometries re-acquired through the Instrument "
                   "seam: free space vs parallel copper boards")
def _measured_freespace_vs_copper(overrides: Overrides) -> Scenario:
    n_points = int(overrides.scalar("acquire.n_points", 512))
    return Scenario(
        "measured-freespace-vs-copper", "off-paper",
        "Fig. 1 geometries re-acquired through the Instrument seam: "
        "free space vs parallel copper boards",
        specs={},
        points=[{"environment": "freespace"},
                {"environment": "parallel copper boards"}],
        worker=_MeasuredEnvironmentWorker(n_points=n_points,
                                          freespace_span_m=(0.02, 0.2, 12),
                                          copper_span_m=(0.05, 0.2, 10)))
