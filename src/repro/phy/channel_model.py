"""Finite-state model of the oversampled 1-bit ASK channel.

The cascade "ASK mapper -> ISI pulse -> AWGN -> 1-bit quantiser sampled at
``oversampling`` times the symbol rate" is a finite-state channel: the
state is the content of the pulse's symbol memory, and given state and
current symbol the ``oversampling`` binary outputs of the current symbol
period are conditionally independent with closed-form probabilities
(Gaussian tail functions).  This class precomputes those transition
probabilities; the information-rate estimators and the trellis detectors
are thin layers on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from scipy.special import ndtr

from repro.phy.modulation import AskConstellation
from repro.phy.pulse import Pulse
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.units import db_to_linear

#: Probabilities are clipped to [EPS, 1-EPS] before taking logarithms so a
#: deterministic sample (noise-free limit) cannot produce -inf branch
#: metrics.
_PROBABILITY_EPS = 1e-12

#: Oversampling factors up to this many bits use the cached
#: sign-pattern lookup table (2**O table rows); larger factors fall back
#: to the direct per-sample computation.
_SIGN_TABLE_MAX_BITS = 12


@dataclass
class OversampledOneBitChannel:
    """4-ASK (or any M-ASK) over an ISI pulse with a 1-bit oversampled front end.

    Parameters
    ----------
    pulse:
        Combined transmit/channel/receive impulse response.  It is
        normalised to unit average transmit power per sample on entry so
        different designs are compared at equal transmit power.
    constellation:
        ASK constellation (the paper uses 4-ASK).
    snr_db:
        Ratio of average signal power to the noise power *in the symbol-rate
        bandwidth*, in dB.  Sampling at ``oversampling`` times the symbol
        rate widens the receiver noise bandwidth by the same factor, so the
        per-sample noise variance is ``oversampling / SNR`` for the
        unit-power pulses used here.  Noise samples are i.i.d. within the
        oversampling vector, as assumed in the paper.  This convention makes
        the unquantised single-sample reference
        (:func:`repro.phy.information_rate.ask_awgn_information_rate`) an
        upper bound for every quantised/oversampled scheme at the same SNR.
    """

    pulse: Pulse
    constellation: AskConstellation = field(default_factory=AskConstellation)
    snr_db: float = 25.0

    def __post_init__(self) -> None:
        self.pulse = self.pulse.normalized()
        self._order = self.constellation.order
        self._memory = self.pulse.memory
        self._oversampling = self.pulse.oversampling
        self._noise_std = float(
            np.sqrt(self._oversampling / db_to_linear(self.snr_db)))
        self._prob_plus = self._build_transition_probabilities()
        self._log_obs_table = None  # lazy (2**O, S, M) sign-pattern table

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Constellation order."""
        return self._order

    @property
    def memory(self) -> int:
        """Channel memory in symbols."""
        return self._memory

    @property
    def oversampling(self) -> int:
        """Samples per symbol period."""
        return self._oversampling

    @property
    def n_states(self) -> int:
        """Number of trellis states (``order ** memory``)."""
        return self._order ** self._memory

    @property
    def noise_std(self) -> float:
        """Per-sample noise standard deviation."""
        return self._noise_std

    @property
    def transition_prob_plus(self) -> np.ndarray:
        """``P(sample = +1)`` for every (state, input, sample phase).

        Shape ``(n_states, order, oversampling)``.
        """
        return self._prob_plus

    # ------------------------------------------------------------------
    # state bookkeeping
    # ------------------------------------------------------------------
    def state_to_symbols(self, state: int) -> np.ndarray:
        """Decode a state index into the previous ``memory`` symbol indices.

        The returned array is ordered most recent first:
        ``[idx_{k-1}, idx_{k-2}, ..., idx_{k-memory}]``.
        """
        if not 0 <= state < self.n_states:
            raise ValueError("state index out of range")
        symbols = np.empty(self._memory, dtype=int)
        remaining = state
        for position in range(self._memory - 1, -1, -1):
            symbols[position] = remaining % self._order
            remaining //= self._order
        return symbols

    def symbols_to_state(self, previous_indices: np.ndarray) -> int:
        """Encode previous symbol indices (most recent first) into a state."""
        previous = np.asarray(previous_indices, dtype=int).reshape(-1)
        if previous.size != self._memory:
            raise ValueError(f"expected {self._memory} previous symbols")
        state = 0
        for index in previous:
            if not 0 <= index < self._order:
                raise ValueError("symbol index out of range")
            state = state * self._order + int(index)
        return state

    def next_state(self, state: int, input_index: int) -> int:
        """Trellis successor state after transmitting ``input_index``."""
        if self._memory == 0:
            return 0
        if not 0 <= input_index < self._order:
            raise ValueError("input index out of range")
        if not 0 <= state < self.n_states:
            raise ValueError("state index out of range")
        return (input_index * self._order ** (self._memory - 1)
                + state // self._order)

    # ------------------------------------------------------------------
    # transition probabilities
    # ------------------------------------------------------------------
    def _build_transition_probabilities(self) -> np.ndarray:
        levels = self.constellation.levels
        tap_matrix = self.pulse.tap_matrix
        prob_plus = np.empty((self.n_states, self._order, self._oversampling))
        for state in range(self.n_states):
            previous = self.state_to_symbols(state)
            for input_index in range(self._order):
                window_indices = np.concatenate(([input_index], previous))
                window = levels[window_indices.astype(int)]
                means = window @ tap_matrix
                prob_plus[state, input_index] = ndtr(means / self._noise_std)
        return np.clip(prob_plus, _PROBABILITY_EPS, 1.0 - _PROBABILITY_EPS)

    def noise_free_signs(self) -> np.ndarray:
        """Noise-free sign patterns for every (state, input) pair.

        Shape ``(n_states, order, oversampling)`` with entries ±1; used by
        the unique-detection analysis of the filter designs.
        """
        levels = self.constellation.levels
        tap_matrix = self.pulse.tap_matrix
        signs = np.empty((self.n_states, self._order, self._oversampling),
                         dtype=np.int8)
        for state in range(self.n_states):
            previous = self.state_to_symbols(state)
            for input_index in range(self._order):
                window_indices = np.concatenate(([input_index], previous))
                window = levels[window_indices.astype(int)]
                means = window @ tap_matrix
                signs[state, input_index] = np.where(means > 0.0, 1, -1)
        return signs

    def log_observation_probabilities(self, signs: np.ndarray) -> np.ndarray:
        """Log-probability of observed sign blocks for every (state, input).

        Parameters
        ----------
        signs:
            Array of shape ``(..., n_symbols, oversampling)`` with entries
            ±1; leading axes (e.g. a batch of sequences) broadcast through.

        Returns
        -------
        Array of shape ``(..., n_symbols, n_states, order)`` holding
        ``log P(z_k | state, input)`` for every symbol period ``k``.
        """
        signs = np.asarray(signs)
        if signs.ndim < 2 or signs.shape[-1] != self._oversampling:
            raise ValueError(
                f"signs must have shape (..., n, {self._oversampling})"
            )
        positive = (signs > 0)
        if self._oversampling <= _SIGN_TABLE_MAX_BITS:
            # With only 2**oversampling possible sign blocks, precompute
            # log P(block | state, input) for every block once and reduce
            # each symbol period to a single table gather.  The table rows
            # are built by the exact expression of the direct branch below
            # (same operands, same sample-axis summation order), so the
            # result is bit-identical — just ~two orders of magnitude less
            # arithmetic per call.
            table = self._sign_pattern_table()
            weights = 1 << np.arange(self._oversampling)
            patterns = positive @ weights                 # (..., n)
            return table[patterns]
        log_p = np.log(self._prob_plus)
        log_q = np.log1p(-self._prob_plus)
        # Broadcast: (..., n, 1, 1, M) selecting between log_p/log_q of
        # shape (S, O, M), then sum over the sample axis.
        chosen = np.where(positive[..., None, None, :], log_p, log_q)
        return chosen.sum(axis=-1)

    def _sign_pattern_table(self) -> np.ndarray:
        """``(2**O, n_states, order)`` log-likelihoods of every sign block."""
        if self._log_obs_table is None:
            bits = np.arange(1 << self._oversampling)
            positive = ((bits[:, None] >> np.arange(self._oversampling))
                        & 1).astype(bool)
            log_p = np.log(self._prob_plus)
            log_q = np.log1p(-self._prob_plus)
            chosen = np.where(positive[:, None, None, :], log_p, log_q)
            self._log_obs_table = chosen.sum(axis=-1)
        return self._log_obs_table

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def simulate(self, n_symbols: int, rng: RngLike = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Simulate a transmission of ``n_symbols`` i.i.d. uniform symbols.

        Returns
        -------
        indices:
            Transmitted symbol indices, shape ``(n_symbols,)``.
        signs:
            1-bit receiver output, shape ``(n_symbols, oversampling)`` with
            entries ±1.  Symbols before the start of the block are taken as
            zero amplitude (idle line).
        """
        if n_symbols < 1:
            raise ValueError("n_symbols must be at least 1")
        generator = ensure_rng(rng)
        indices = self.constellation.random_indices(n_symbols, generator)
        amplitudes = self.constellation.indices_to_symbols(indices)
        noiseless = self.pulse.waveform(amplitudes)
        noise = generator.normal(0.0, self._noise_std, size=noiseless.shape)
        signs = np.where(noiseless + noise > 0.0, 1, -1).astype(np.int8)
        return indices, signs.reshape(n_symbols, self._oversampling)

    def state_sequence(self, indices: np.ndarray) -> np.ndarray:
        """Trellis state before each symbol of a transmitted index sequence.

        Symbols before the start of the block are treated as index 0 — the
        same convention as :meth:`simulate` only when the zero-amplitude
        idle line coincides with index 0; estimators therefore discard the
        first ``memory`` symbols, where the two conventions differ.
        """
        indices = np.asarray(indices, dtype=int).reshape(-1)
        states = np.zeros(indices.size, dtype=int)
        state = 0
        for position, index in enumerate(indices):
            states[position] = state
            state = self.next_state(state, int(index))
        return states
