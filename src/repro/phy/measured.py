"""Replaying measured channels through the waveform transceiver.

:class:`MeasuredChannelFrontend` closes the loop the ROADMAP names: the
whole PHY → coding → NoC stack running over *measured* channel data
instead of an idealized model.  It implements the same
:class:`~repro.phy.frontend.ChannelFrontend` protocol as the synthetic
frontends, so ``BerSimulator``, ``crosslayer.link_flit_error_rate`` and
every scenario in the registry accept it unchanged.

Construction pipeline (all deterministic, no RNG involved):

1. The selected :class:`~repro.channel.measurement.FrequencySweep` is
   converted to the delay domain with
   :func:`~repro.channel.impulse_response.sweep_to_impulse_response` —
   the paper's own Figs. 2/3 processing.
2. The LoS peak and every echo within ``echo_threshold_db`` of it become
   a sparse discrete-time reflection kernel: tap 0 carries the LoS at
   unit amplitude, each echo lands at
   ``round(excess_delay * symbol_rate * oversampling)`` samples with its
   measured relative amplitude.
3. The transceiver's ISI design pulse is convolved with that kernel and
   truncated to ``max_span_symbols`` symbol periods, yielding the
   *composite* pulse actually seen by the 1-bit receiver.  (Truncation
   is safe: the paper's headline result is that every echo sits ≥ 15 dB
   below the LoS, so the clipped tail carries ≤ 3 % of the amplitude.)
4. An inner :class:`~repro.phy.frontend.OneBitWaveformFrontend` built on
   the composite pulse does the rest — ASK mapping, scrambling, AWGN,
   1-bit quantization and trellis demodulation — exactly as over the
   synthetic channel.

The span cap exists because trellis complexity is ``order**memory``
states: the default (span 3, 4-ASK) costs 16 states, the same order as
the synthetic designs.  Raising ``max_span_symbols`` trades BER fidelity
for state count explicitly rather than silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.channel.impulse_response import sweep_to_impulse_response
from repro.channel.measurement import FrequencySweep
from repro.phy.frontend import OneBitWaveformFrontend
from repro.phy.modulation import AskConstellation
from repro.phy.pulse import Pulse, sequence_optimized_pulse
from repro.utils.rng import RngLike


@dataclass
class MeasuredChannelFrontend:
    """A :class:`ChannelFrontend` that replays one measured sweep.

    Parameters
    ----------
    sweep:
        The measured (or synthetically acquired) S21 trace to replay.
    rate:
        Code rate folded into the Eb/N0 → SNR conversion, as everywhere.
    base_pulse:
        The transceiver's ISI design pulse (default: the Fig. 5(c)
        sequence-optimised design); the measured echoes are composed on
        top of it.
    detector:
        Soft demodulator of the inner waveform frontend
        (``"bcjr"``/``"symbolwise"``).
    window:
        Spectral window of the sweep → impulse-response conversion.
    symbol_rate_hz:
        Symbol rate the replayed link runs at; together with the pulse
        oversampling it sets the delay-to-sample quantization.  The
        default 2.5 GBd puts the paper's measured echo delays (tens to
        hundreds of ps) within a few samples of the LoS.
    max_span_symbols:
        Composite-pulse span cap in symbol periods (trellis state bound).
    echo_threshold_db:
        Echoes more than this far below the LoS are ignored (they are
        below the synthetic instrument's effective resolution anyway).
    """

    sweep: FrequencySweep
    rate: float = 0.5
    base_pulse: Pulse = field(default_factory=sequence_optimized_pulse)
    constellation: AskConstellation = field(default_factory=AskConstellation)
    detector: str = "bcjr"
    dtype: object = None
    window: str = "hann"
    symbol_rate_hz: float = 2.5e9
    max_span_symbols: int = 3
    echo_threshold_db: float = 25.0

    def __post_init__(self) -> None:
        if self.symbol_rate_hz <= 0.0:
            raise ValueError("symbol_rate_hz must be positive")
        if self.max_span_symbols < self.base_pulse.span_symbols:
            raise ValueError(
                f"max_span_symbols ({self.max_span_symbols}) must cover at "
                f"least the base pulse span "
                f"({self.base_pulse.span_symbols})")
        if self.echo_threshold_db <= 0.0:
            raise ValueError("echo_threshold_db must be positive")
        response = sweep_to_impulse_response(self.sweep, window=self.window)
        oversampling = self.base_pulse.oversampling
        sample_rate = self.symbol_rate_hz * oversampling
        n_taps = self.max_span_symbols * oversampling
        kernel = np.zeros(n_taps)
        kernel[0] = 1.0                               # the LoS component
        echoes = []
        for delay_s, level_db in response.peaks(
                threshold_below_los_db=self.echo_threshold_db):
            excess_s = delay_s - response.los_delay_s
            offset = int(round(excess_s * sample_rate))
            if offset <= 0:
                continue                              # the LoS peak itself
            amplitude = float(10.0 ** ((level_db
                                        - response.los_level_db) / 20.0))
            echoes.append((float(excess_s), amplitude))
            if offset < n_taps:
                kernel[offset] += amplitude
        composite = np.convolve(self.base_pulse.taps, kernel)[:n_taps]
        pulse = Pulse(taps=composite, oversampling=oversampling,
                      name=f"measured[{self.sweep.scenario} @ "
                           f"{self.sweep.distance_m:g} m] * "
                           f"{self.base_pulse.name}").normalized()
        self.echoes: Tuple[Tuple[float, float], ...] = tuple(echoes)
        self._inner = OneBitWaveformFrontend(
            pulse=pulse, constellation=self.constellation,
            rate=self.rate, detector=self.detector, dtype=self.dtype)

    # -- construction helpers ------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: "ChannelDataset",
                     distance_m: Optional[float] = None,
                     **kwargs) -> "MeasuredChannelFrontend":
        """Build a frontend from a dataset, picking the sweep to replay.

        Without ``distance_m`` the first sweep is used; with it, the
        sweep whose distance is closest.
        """
        if distance_m is None:
            sweep = dataset.sweeps[0]
        else:
            sweep = dataset.sweep_near(float(distance_m))
        return cls(sweep=sweep, **kwargs)

    # -- ChannelFrontend protocol --------------------------------------
    @property
    def bits_per_channel_use(self) -> float:
        return self._inner.bits_per_channel_use

    @property
    def samples_per_bit(self) -> float:
        return self._inner.samples_per_bit

    @property
    def pulse(self) -> Pulse:
        """The composite (measured-echo) pulse the receiver sees."""
        return self._inner.pulse

    def snr_db(self, ebn0_db: float) -> float:
        """Channel SNR at a coded Eb/N0 (delegated to the inner PHY)."""
        return self._inner.snr_db(ebn0_db)

    def transmit_llrs(self, bits: np.ndarray, ebn0_db: float,
                      rng: RngLike = None) -> np.ndarray:
        return self._inner.transmit_llrs(bits, ebn0_db, rng=rng)
