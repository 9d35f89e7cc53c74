"""A single wireless board-to-board link: channel + PHY + coding.

:class:`WirelessBoardLink` answers the questions a system designer asks of
one link of the paper's architecture:

* What SNR does a given transmit power buy at this distance (link budget,
  Section II)?
* How many bits per channel use does the 1-bit oversampling receiver
  extract at that SNR (Section III), and what data rate does that yield in
  the 25 GHz signal bandwidth?
* What Eb/N0 margin and structural latency does the chosen LDPC-CC window
  decoder add (Section V)?
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from repro.channel.link_budget import LinkBudget, PAPER_LINK_BUDGET, LinkBudgetParameters
from repro.coding.density_evolution import paper_de_threshold_db
from repro.coding.latency import window_decoder_structural_latency
from repro.coding.protograph import paper_edge_spreading
from repro.phy.information_rate import sequence_information_rate
from repro.phy.pulse import Pulse, sequence_optimized_pulse
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class LinkReport:
    """Operating point of one wireless board-to-board link.

    Attributes
    ----------
    distance_m:
        Link distance.
    tx_power_dbm:
        Transmit power.
    snr_db:
        Received SNR from the link budget.
    information_rate_bpcu:
        Achievable rate of the 1-bit oversampling receiver at that SNR,
        in bits per channel use.
    data_rate_gbps:
        Resulting net data rate (dual polarisation, after the code rate).
    coding_threshold_ebn0_db:
        Asymptotic Eb/N0 the chosen window decoder needs.
    coding_latency_information_bits:
        Structural latency of the window decoder, Eq. (4).
    closes:
        True if the received SNR exceeds the coding threshold expressed as
        SNR (i.e. the link closes with the chosen code).
    waveform_ber:
        Measured pre-FEC bit error rate of the actual 1-bit oversampled
        waveform receiver (vectorized Viterbi sequence detection) at the
        link SNR — the Monte-Carlo counterpart of the analytic
        information rate (``None`` when the measurement was skipped).
    frontend_data_rate_gbps:
        Net data rate the waveform frontend carries when the link closes:
        modulation bits per channel use times symbol rate, code rate and
        polarisations (``None`` when the measurement was skipped).
    """

    distance_m: float
    tx_power_dbm: float
    snr_db: float
    information_rate_bpcu: float
    data_rate_gbps: float
    coding_threshold_ebn0_db: float
    coding_latency_information_bits: float
    closes: bool
    waveform_ber: Optional[float] = None
    frontend_data_rate_gbps: Optional[float] = None

    def to_dict(self) -> dict:
        """Plain JSON-serializable form (NumPy scalars coerced)."""
        from repro.utils.serialization import to_plain

        return {field.name: to_plain(getattr(self, field.name))
                for field in fields(self)}


class WirelessBoardLink:
    """One beam-steered wireless link between two boards.

    Parameters
    ----------
    distance_m:
        Node-to-node distance (0.1 m "ahead" to 0.3 m "diagonal" in the
        paper).
    budget_parameters:
        Link-budget inputs (defaults to Table I).
    include_butler_mismatch:
        Charge the worst-case Butler-matrix pointing loss (the paper does
        so for the longest links only).
    pulse:
        ISI design for the 1-bit oversampling receiver.
    window_size, lifting_factor:
        LDPC-CC window-decoder configuration (Section V).
    dual_polarization:
        The paper reaches 100 Gbit/s by using both polarisations.
    """

    def __init__(self, distance_m: float,
                 budget_parameters: LinkBudgetParameters = PAPER_LINK_BUDGET,
                 include_butler_mismatch: bool = False,
                 pulse: Optional[Pulse] = None,
                 window_size: int = 6, lifting_factor: int = 40,
                 dual_polarization: bool = True) -> None:
        check_positive("distance_m", distance_m)
        check_positive("window_size", window_size)
        check_positive("lifting_factor", lifting_factor)
        self.distance_m = float(distance_m)
        self.budget = LinkBudget(budget_parameters)
        self.include_butler_mismatch = bool(include_butler_mismatch)
        self.pulse = (pulse if pulse is not None else sequence_optimized_pulse())
        self.window_size = int(window_size)
        self.lifting_factor = int(lifting_factor)
        self.dual_polarization = bool(dual_polarization)
        self._spreading = paper_edge_spreading()
        self._code_rate = self._spreading.base.design_rate

    # ------------------------------------------------------------------
    @property
    def code_rate(self) -> float:
        """Design rate of the LDPC-CC protecting the link."""
        return self._code_rate

    def coding_threshold_ebn0_db(self) -> float:
        """Asymptotic Eb/N0 required by the window decoder (memoised per
        window size by the coding layer)."""
        return paper_de_threshold_db("ldpc-cc", self.window_size)

    def received_snr_db(self, tx_power_dbm: float) -> float:
        """Received SNR for a transmit power (Section II link budget)."""
        return float(self.budget.received_snr_db(
            tx_power_dbm, self.distance_m, self.include_butler_mismatch))

    def required_tx_power_dbm(self, target_snr_db: float) -> float:
        """Transmit power needed for a target SNR (the Fig. 4 question)."""
        return float(self.budget.required_tx_power_dbm(
            target_snr_db, self.distance_m, self.include_butler_mismatch))

    def information_rate_bpcu(self, snr_db: float,
                              n_symbols: int = 10_000) -> float:
        """Achievable rate of the 1-bit oversampling receiver at an SNR."""
        return sequence_information_rate(self.pulse, snr_db,
                                         n_symbols=n_symbols, rng=0)

    def frontend(self, detector: str = "bcjr"):
        """The waveform :class:`~repro.phy.frontend.OneBitWaveformFrontend`
        this link's PHY configuration describes (pulse, 4-ASK, code rate)."""
        from repro.phy.frontend import OneBitWaveformFrontend

        return OneBitWaveformFrontend(pulse=self.pulse, rate=self._code_rate,
                                      detector=detector)

    def waveform_ber(self, snr_db: float, n_symbols: int = 2_000,
                     rng: int = 0) -> float:
        """Measured pre-FEC BER of the 1-bit waveform receiver at an SNR.

        Simulates the oversampled 1-bit channel at the link SNR, runs the
        vectorized Viterbi sequence detector and counts Gray-mapped bit
        errors (the first ``memory`` transient symbols are skipped, as in
        the information-rate estimators).
        """
        from repro.phy.channel_model import OversampledOneBitChannel
        from repro.phy.receiver import ViterbiSequenceDetector

        channel = OversampledOneBitChannel(pulse=self.pulse, snr_db=snr_db)
        indices, signs = channel.simulate(int(n_symbols), rng=rng)
        detected = ViterbiSequenceDetector(channel).detect(signs)
        skip = channel.memory
        sent_bits = channel.constellation.indices_to_bits(indices[skip:])
        seen_bits = channel.constellation.indices_to_bits(detected[skip:])
        return float(np.mean(sent_bits != seen_bits))

    def frontend_data_rate_gbps(self) -> float:
        """Net data rate carried by the waveform frontend when it closes.

        Unlike :meth:`data_rate_gbps` (which prices in the achievable
        information rate at the operating SNR), this is the rate the
        fixed 4-ASK modulation actually clocks through the link:
        bits per channel use times symbol rate, code rate and
        polarisations.
        """
        frontend = self.frontend()
        symbol_rate = self.budget.parameters.bandwidth_hz
        polarisations = 2.0 if self.dual_polarization else 1.0
        return float(frontend.bits_per_channel_use * symbol_rate
                     * self._code_rate * polarisations / 1e9)

    def data_rate_gbps(self, snr_db: float, n_symbols: int = 10_000) -> float:
        """Net data rate in Gbit/s at an SNR.

        Symbol rate equals the signal bandwidth (25 GHz in Table I); the
        achievable rate in bits per channel use is multiplied by the symbol
        rate, the code rate and, if enabled, the two polarisations.
        """
        return self._data_rate_gbps(
            self.information_rate_bpcu(snr_db, n_symbols=n_symbols))

    def _data_rate_gbps(self, rate_bpcu: float) -> float:
        symbol_rate = self.budget.parameters.bandwidth_hz
        polarisations = 2.0 if self.dual_polarization else 1.0
        return float(rate_bpcu * symbol_rate * self._code_rate
                     * polarisations / 1e9)

    def evaluate(self, tx_power_dbm: float, n_symbols: int = 10_000,
                 measure_waveform: bool = True) -> LinkReport:
        """Full link report at a given transmit power.

        ``measure_waveform`` additionally runs the 1-bit waveform
        receiver (Monte-Carlo, vectorized trellis detection) at the
        operating SNR and reports its measured pre-FEC BER and the
        frontend's carried data rate next to the analytic information
        rate; pass ``False`` to skip the measurement (the two fields are
        then ``None``).
        """
        snr_db = self.received_snr_db(tx_power_dbm)
        information_rate = self.information_rate_bpcu(snr_db,
                                                      n_symbols=n_symbols)
        data_rate = self._data_rate_gbps(information_rate)
        threshold = self.coding_threshold_ebn0_db()
        latency = window_decoder_structural_latency(
            self.window_size, self.lifting_factor, 2, self._code_rate)
        # Convert the coding threshold (Eb/N0) to the SNR the modem needs:
        # SNR = Eb/N0 * R * bits-per-symbol for the 4-ASK carrying 2 bits.
        bits_per_symbol = 2.0
        required_snr_db = threshold + 10.0 * np.log10(
            self._code_rate * bits_per_symbol)
        closes = bool(snr_db >= required_snr_db)
        waveform_ber = None
        frontend_rate = None
        if measure_waveform:
            waveform_ber = self.waveform_ber(snr_db, n_symbols=n_symbols)
            frontend_rate = self.frontend_data_rate_gbps()
        return LinkReport(distance_m=self.distance_m,
                          tx_power_dbm=float(tx_power_dbm),
                          snr_db=snr_db,
                          information_rate_bpcu=information_rate,
                          data_rate_gbps=data_rate,
                          coding_threshold_ebn0_db=threshold,
                          coding_latency_information_bits=latency,
                          closes=closes,
                          waveform_ber=waveform_ber,
                          frontend_data_rate_gbps=frontend_rate)
