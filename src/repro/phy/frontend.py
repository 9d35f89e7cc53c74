"""Channel frontends: one soft-output interface over every physical channel.

A *frontend* is the piece of the transceiver between coded bits and
decoder LLRs: it maps a batch of codewords onto channel inputs, runs the
physical channel, and demodulates the received samples back into per-bit
log-likelihood ratios.  The :class:`ChannelFrontend` protocol is what the
BER harness (:class:`repro.coding.ber.BerSimulator`), the link report and
the cross-layer NoC bridge program against, so the *same* coding stack can
be measured over

* :class:`BpskAwgnFrontend` — the idealized unit-energy BPSK/AWGN channel
  (bit-exact with the historical ``BerSimulator`` noise path at a fixed
  seed), and
* :class:`OneBitWaveformFrontend` — the paper's actual PHY: Gray-mapped
  M-ASK symbols through the ISI pulse, AWGN, 1-bit oversampled
  quantization, and a vectorized soft-output trellis demodulator (max-log
  BCJR over the finite-state channel model, or the state-marginalised
  symbol-by-symbol soft demod) recovering per-bit LLRs.

LLR sign convention throughout: **positive LLR favours bit 0** (the
all-zero codeword maps to +1 under BPSK), matching
``2 * received / sigma**2`` and the hard-decision rule ``bit = llr < 0``
of every decoder in :mod:`repro.coding`.

The ASK waveform channel is *not* output-symmetric, so the all-zero
codeword the BER harness transmits would see an unrepresentative channel
(a constant lowest-amplitude line).  :class:`OneBitWaveformFrontend`
therefore applies the standard i.i.d. channel-adapter construction: each
codeword is XOR-scrambled with a uniform bit sequence before mapping
(making the transmitted symbol stream uniform, exactly what a real link's
scrambler does) and the resulting LLRs are de-scrambled by flipping signs
where the scramble bit is 1.  For any linear code with a symmetric
decoder this is distribution-identical to transmitting a random codeword.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.phy.channel_model import OversampledOneBitChannel
from repro.phy.modulation import AskConstellation
from repro.phy.pulse import Pulse, sequence_optimized_pulse
from repro.phy.trellis import TrellisKernel
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.units import db_to_linear


@runtime_checkable
class ChannelFrontend(Protocol):
    """Protocol every channel frontend implements.

    Attributes
    ----------
    rate:
        Code rate folded into the Eb/N0 to channel-SNR conversion (the
        frontend must agree with the code it carries; the BER harness
        validates this on construction).
    """

    rate: float

    @property
    def bits_per_channel_use(self) -> float:
        """Coded bits carried per channel use (symbol period)."""
        ...

    @property
    def samples_per_bit(self) -> float:
        """Receiver samples consumed per coded bit."""
        ...

    def transmit_llrs(self, bits: np.ndarray, ebn0_db: float,
                      rng: RngLike = None) -> np.ndarray:
        """Channel LLRs for a ``(B, n)`` batch of coded bits at an Eb/N0."""
        ...


def _as_bit_matrix(bits: np.ndarray) -> Tuple[np.ndarray, bool]:
    bits = np.asarray(bits)
    if bits.ndim == 1:
        return bits[None, :], True
    if bits.ndim != 2:
        raise ValueError(f"bits must have shape (B, n) or (n,), got "
                         f"{bits.shape}")
    return bits, False


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BpskAwgnFrontend:
    """Unit-energy BPSK over AWGN — the idealized reference frontend.

    Reproduces the historical :class:`repro.coding.ber.BerSimulator`
    channel bit-exactly: the noise standard deviation is
    ``sqrt(1 / (2 * rate * Eb/N0))``, one generator draw of shape
    ``(B, n)`` produces the received samples, and the LLRs are
    ``2 * received / sigma**2``.
    """

    rate: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must lie in (0, 1]")

    @property
    def bits_per_channel_use(self) -> float:
        return 1.0

    @property
    def samples_per_bit(self) -> float:
        return 1.0

    def noise_std(self, ebn0_db: float) -> float:
        """Noise standard deviation at an Eb/N0 operating point."""
        ebn0 = float(db_to_linear(ebn0_db))
        return float(np.sqrt(1.0 / (2.0 * self.rate * ebn0)))

    def transmit_llrs(self, bits: np.ndarray, ebn0_db: float,
                      rng: RngLike = None) -> np.ndarray:
        bits, squeeze = _as_bit_matrix(bits)
        generator = ensure_rng(rng)
        sigma = self.noise_std(ebn0_db)
        symbols = 1.0 - 2.0 * bits.astype(float)
        received = symbols + generator.normal(0.0, sigma, size=bits.shape)
        llrs = 2.0 * received / sigma ** 2
        return llrs[0] if squeeze else llrs


# ----------------------------------------------------------------------
@dataclass
class OneBitWaveformFrontend:
    """The paper's PHY as a frontend: ASK → ISI → AWGN → 1-bit → trellis.

    Parameters
    ----------
    pulse:
        Combined ISI pulse design (defaults to the Fig. 5(c)
        sequence-optimised design, matching the default link model).
    constellation:
        ASK constellation; the paper uses 4-ASK (2 coded bits/symbol,
        Gray-mapped).
    rate:
        Code rate in the Eb/N0 to channel-SNR conversion:
        ``SNR = Eb/N0 * rate * bits_per_symbol`` — the same relation the
        link report and :mod:`repro.core.crosslayer` use.
    detector:
        Soft demodulator: ``"bcjr"`` (max-log BCJR sequence demod over
        the finite-state trellis) or ``"symbolwise"`` (state-marginalised
        symbol-by-symbol soft demod, ISI treated as an unknown dither).
    scramble:
        Apply the i.i.d. channel adapter (XOR scrambling, see the module
        docstring).  Disable only for diagnostics on known-symmetric
        workloads.
    dtype:
        Metric dtype forwarded to every cached
        :class:`~repro.phy.trellis.TrellisKernel`; the float64 default is
        the bit-exact reference.

    The pre-start line state is the lowest constellation level (a known
    index-0 preamble), so the trellis recursions can start exactly from
    the all-zero state instead of guessing over a transient.
    """

    DETECTORS = ("bcjr", "symbolwise")

    pulse: Pulse = field(default_factory=sequence_optimized_pulse)
    constellation: AskConstellation = field(default_factory=AskConstellation)
    rate: float = 0.5
    detector: str = "bcjr"
    scramble: bool = True
    dtype: object = None
    _channels: Dict[float, Tuple[OversampledOneBitChannel, TrellisKernel]] = \
        field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must lie in (0, 1]")
        if self.detector not in self.DETECTORS:
            raise ValueError(f"detector must be one of {self.DETECTORS}, "
                             f"got {self.detector!r}")
        # Gray bit labels of each constellation index, and the index sets
        # behind each bit value — the max-log bit-LLR reduction tables.
        order = self.constellation.order
        self._bit_labels = self.constellation.indices_to_bits(
            np.arange(order))                       # (order, bits_per_symbol)
        self._zero_mask = (self._bit_labels == 0)

    # ------------------------------------------------------------------
    @property
    def bits_per_channel_use(self) -> float:
        return float(self.constellation.bits_per_symbol)

    @property
    def samples_per_bit(self) -> float:
        return float(self.pulse.oversampling
                     / self.constellation.bits_per_symbol)

    def snr_db(self, ebn0_db: float) -> float:
        """Channel SNR (symbol-rate bandwidth) at a coded Eb/N0."""
        return float(ebn0_db) + 10.0 * np.log10(
            self.rate * self.constellation.bits_per_symbol)

    def channel(self, ebn0_db: float) -> OversampledOneBitChannel:
        """The finite-state channel at an Eb/N0 (cached per operating point)."""
        return self._channel_and_kernel(ebn0_db)[0]

    def _channel_and_kernel(self, ebn0_db: float):
        key = float(ebn0_db)
        if key not in self._channels:
            channel = OversampledOneBitChannel(
                pulse=self.pulse, constellation=self.constellation,
                snr_db=self.snr_db(key))
            self._channels[key] = (channel, TrellisKernel(
                channel, dtype=self.dtype))
        return self._channels[key]

    # The per-Eb/N0 channel cache holds precomputed transition tables;
    # drop it when pickling (process-parallel sweeps) and rebuild lazily.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_channels"] = {}
        return state

    # ------------------------------------------------------------------
    def _waveform_signs(self, amplitudes: np.ndarray,
                        channel: OversampledOneBitChannel,
                        generator: np.random.Generator) -> np.ndarray:
        """1-bit receiver output blocks for a ``(B, n_sym)`` amplitude batch."""
        pulse = channel.pulse  # normalized on channel entry
        taps = pulse.tap_matrix                     # (span, oversampling)
        memory = pulse.memory
        n_rows, n_symbols = amplitudes.shape
        preamble = channel.constellation.levels[0]
        padded = np.concatenate(
            [np.full((n_rows, memory), preamble), amplitudes], axis=1)
        means = np.zeros((n_rows, n_symbols, pulse.oversampling))
        for lag in range(memory + 1):
            contribution = padded[:, memory - lag: memory - lag + n_symbols]
            means += contribution[:, :, None] * taps[lag][None, None, :]
        noise = generator.normal(0.0, channel.noise_std, size=means.shape)
        return np.where(means + noise > 0.0, 1, -1).astype(np.int8)

    def _bit_llrs(self, app: np.ndarray) -> np.ndarray:
        """Max-log per-bit LLRs from per-symbol log-posteriors ``(B, n, M)``."""
        scores = app[..., :, None]                  # (B, n, order, 1)
        best_zero = np.max(np.where(self._zero_mask, scores, -np.inf),
                           axis=-2)
        best_one = np.max(np.where(~self._zero_mask, scores, -np.inf),
                          axis=-2)
        return best_zero - best_one                 # (B, n, bits_per_symbol)

    def transmit_llrs(self, bits: np.ndarray, ebn0_db: float,
                      rng: RngLike = None) -> np.ndarray:
        bits, squeeze = _as_bit_matrix(bits)
        generator = ensure_rng(rng)
        n_rows, n_bits = bits.shape
        bits = bits.astype(np.int8)
        if self.scramble:
            scramble = generator.integers(0, 2, size=bits.shape,
                                          dtype=np.int8)
            transmitted = bits ^ scramble
        else:
            transmitted = bits
        bps = self.constellation.bits_per_symbol
        pad = (-n_bits) % bps
        if pad:
            transmitted = np.concatenate(
                [transmitted, np.zeros((n_rows, pad), dtype=np.int8)], axis=1)
        indices = self.constellation.bits_to_indices(
            transmitted.reshape(n_rows, -1, bps))
        amplitudes = self.constellation.indices_to_symbols(indices)
        channel, kernel = self._channel_and_kernel(ebn0_db)
        signs = self._waveform_signs(amplitudes, channel, generator)
        log_obs = channel.log_observation_probabilities(signs)
        if self.detector == "bcjr":
            app = kernel.symbol_log_posteriors(log_obs, initial="zero-state")
        else:
            app = kernel.symbolwise_log_marginals(log_obs)
        llrs = self._bit_llrs(app).reshape(n_rows, -1)[:, :n_bits]
        if self.scramble:
            llrs = llrs * (1.0 - 2.0 * scramble)
        return llrs[0] if squeeze else llrs
