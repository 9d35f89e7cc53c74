"""Detectors for the 1-bit oversampled receiver.

Two receiver architectures are compared in the paper:

* symbol-by-symbol detection, where the ISI is treated as an unknown
  dither (the receiver marginalises over the interfering symbols), and
* sequence estimation, where the ISI is exploited through the trellis of
  the finite-state channel (implemented here as a Viterbi detector with
  exact 1-bit branch metrics).

Both detectors work on the sign blocks produced by
:meth:`repro.phy.channel_model.OversampledOneBitChannel.simulate` and
return hard symbol-index decisions, so symbol-error-rate comparisons are a
one-liner.  The trellis search runs through the vectorized
:class:`repro.phy.trellis.TrellisKernel` (NumPy operations over the state
dimension, batch-capable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.phy.channel_model import OversampledOneBitChannel
from repro.phy.trellis import TrellisKernel


@dataclass
class SymbolBySymbolDetector:
    """MAP symbol detection treating the ISI as an unknown dither."""

    channel: OversampledOneBitChannel

    def detect(self, signs: np.ndarray) -> np.ndarray:
        """Detect symbol indices from sign blocks of shape ``(n, M)``."""
        log_obs = self.channel.log_observation_probabilities(signs)
        # Marginalise the unknown state with a uniform prior:
        # P(z | a) = mean over states of P(z | state, a), computed in the
        # log domain (logsumexp) so strongly negative observation
        # log-probabilities — e.g. high SNR with many samples per symbol —
        # cannot underflow to exp() = 0 and leave a -inf/argmax-ties mess.
        # (Static helper: no trellis structure is needed or built.)
        marginal = TrellisKernel.symbolwise_log_marginals(log_obs)
        return np.argmax(marginal, axis=-1)

    def symbol_error_rate(self, transmitted_indices: np.ndarray,
                          signs: np.ndarray,
                          skip: Optional[int] = None) -> float:
        """Symbol error rate against the transmitted indices."""
        decisions = self.detect(signs)
        return _symbol_error_rate(self.channel, transmitted_indices, decisions,
                                  skip)


@dataclass
class ViterbiSequenceDetector:
    """Maximum-likelihood sequence estimation over the ISI trellis."""

    channel: OversampledOneBitChannel
    _kernel: TrellisKernel = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._kernel = TrellisKernel(self.channel)

    def detect(self, signs: np.ndarray) -> np.ndarray:
        """Detect the ML symbol-index sequence from sign blocks.

        Accepts a single block of shape ``(n, oversampling)`` or a batch
        ``(B, n, oversampling)`` (returning ``(B, n)`` decisions).
        """
        log_obs = self.channel.log_observation_probabilities(signs)
        return self._kernel.viterbi(log_obs)

    def symbol_error_rate(self, transmitted_indices: np.ndarray,
                          signs: np.ndarray,
                          skip: Optional[int] = None) -> float:
        """Symbol error rate against the transmitted indices."""
        decisions = self.detect(signs)
        return _symbol_error_rate(self.channel, transmitted_indices, decisions,
                                  skip)


def _symbol_error_rate(channel: OversampledOneBitChannel,
                       transmitted: np.ndarray, detected: np.ndarray,
                       skip: Optional[int] = None) -> float:
    """SER with the first ``skip`` symbols of *each sequence* discarded.

    Accepts matching ``(n,)`` or batched ``(B, n)`` index arrays; every
    row starts from the zero state with its own start-up transient, so
    the skip applies per row, never to a flattened stream.
    """
    transmitted = np.asarray(transmitted, dtype=int)
    detected = np.asarray(detected, dtype=int)
    if transmitted.shape != detected.shape:
        raise ValueError("transmitted and detected sequences differ in shape")
    if transmitted.ndim not in (1, 2):
        raise ValueError("sequences must have shape (n,) or (B, n)")
    if skip is None:
        skip = channel.memory
    if skip >= transmitted.shape[-1]:
        raise ValueError("skip removes every symbol")
    errors = transmitted[..., skip:] != detected[..., skip:]
    return float(np.mean(errors))
