"""Achievable-rate computations for the 1-bit oversampling receiver (Fig. 6).

Four quantities are needed to reproduce Fig. 6 of the paper:

* :func:`sequence_information_rate` — the information rate of the
  finite-state channel (ISI exploited by sequence estimation), estimated
  with the simulation-based forward-recursion method of Arnold/Loeliger:
  ``I = H(Z) - H(Z|A)`` with both entropy rates evaluated on one long
  simulated realisation.
* :func:`symbolwise_information_rate` — the rate achievable by a
  symbol-by-symbol receiver that treats the ISI as an unknown dither; this
  is the mutual information of the *memoryless* channel obtained by
  averaging the transition law over the interfering symbols.  It is
  computed exactly (no Monte Carlo).
* :func:`one_bit_no_oversampling_rate` — the classic 1-bit quantised ASK
  reference (saturates at 1 bit/channel use).
* :func:`ask_awgn_information_rate` — the unquantised ASK reference,
  computed with Gauss-Hermite quadrature.

All rates are in bits per channel use (bpcu), i.e. per transmitted symbol.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.phy.channel_model import OversampledOneBitChannel
from repro.phy.modulation import AskConstellation
from repro.phy.pulse import Pulse, rectangular_pulse
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.units import db_to_linear

_LOG2 = np.log(2.0)


def _normal_pdf(y: np.ndarray, loc: float, scale: float) -> np.ndarray:
    """Density of N(loc, scale**2) at ``y``, in the order of operations
    of ``scipy.stats.norm.pdf`` (so bit for bit what it returns)."""
    x = (y - loc) / scale
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi) / scale


def _entropy_rate_of_observations(channel: OversampledOneBitChannel,
                                  log_obs: np.ndarray) -> float:
    """-1/n log2 P(z_1^n) via the normalised forward recursion.

    ``log_obs`` has shape ``(n, n_states, order)`` and holds
    ``log P(z_k | state, input)``.
    """
    n_symbols = log_obs.shape[0]
    n_states = channel.n_states
    order = channel.order
    prior = 1.0 / order
    # Successor state for every (state, input) pair.
    successors = np.array([
        [channel.next_state(state, inp) for inp in range(order)]
        for state in range(n_states)
    ])
    alpha = np.full(n_states, 1.0 / n_states)
    log_prob = 0.0
    flat_successors = successors.reshape(-1)
    for k in range(n_symbols):
        branch = alpha[:, None] * prior * np.exp(log_obs[k])
        new_alpha = np.bincount(flat_successors, weights=branch.reshape(-1),
                                minlength=n_states)
        normaliser = new_alpha.sum()
        if normaliser <= 0.0:
            raise FloatingPointError("forward recursion underflowed")
        log_prob += np.log(normaliser)
        alpha = new_alpha / normaliser
    return float(-log_prob / (n_symbols * _LOG2))


def _conditional_entropy_rate(channel: OversampledOneBitChannel,
                              indices: np.ndarray,
                              log_obs: np.ndarray,
                              skip: int) -> float:
    """-1/n log2 P(z | a) for the realised symbol sequence."""
    states = channel.state_sequence(indices)
    n_symbols = indices.size
    picked = log_obs[np.arange(n_symbols), states, indices]
    picked = picked[skip:]
    return float(-np.mean(picked) / _LOG2)


def sequence_information_rate(pulse: Pulse, snr_db: float,
                              constellation: Optional[AskConstellation] = None,
                              n_symbols: int = 20_000,
                              rng: RngLike = 0) -> float:
    """Information rate with sequence estimation over the ISI trellis.

    This is the "Max Information Rate 1Bit-OS" family of curves in Fig. 6
    when evaluated on an optimised pulse.  The estimate converges as
    ``n_symbols`` grows; 20k symbols give roughly two-decimal accuracy for
    the 4-state channels used in the paper.
    """
    if constellation is None:
        constellation = AskConstellation(4)
    if n_symbols < 100:
        raise ValueError("n_symbols must be at least 100 for a usable estimate")
    channel = OversampledOneBitChannel(pulse=pulse, constellation=constellation,
                                       snr_db=snr_db)
    generator = ensure_rng(rng)
    indices, signs = channel.simulate(n_symbols, generator)
    skip = channel.memory
    log_obs = channel.log_observation_probabilities(signs)
    # Discard the start-up transient where the idle-line assumption of the
    # simulator and the index-0 assumption of the state sequence differ.
    channel_entropy = _entropy_rate_of_observations(channel, log_obs[skip:])
    conditional = _conditional_entropy_rate(channel, indices, log_obs, skip)
    rate = channel_entropy - conditional
    return float(np.clip(rate, 0.0, constellation.bits_per_symbol))


def symbolwise_information_rate(pulse: Pulse, snr_db: float,
                                constellation: Optional[AskConstellation] = None
                                ) -> float:
    """Exact rate of a symbol-by-symbol receiver that treats ISI as dither.

    The receiver observes only the current symbol period's sign block and
    knows nothing about the interfering symbols, so the effective channel
    is ``P(z | a) = E_interferers[ P(z | a, interferers) ]`` and the rate is
    the mutual information of that memoryless channel with uniform inputs.
    """
    if constellation is None:
        constellation = AskConstellation(4)
    channel = OversampledOneBitChannel(pulse=pulse, constellation=constellation,
                                       snr_db=snr_db)
    prob_plus = channel.transition_prob_plus  # (S, O, M)
    n_states, order, oversampling = prob_plus.shape
    # Enumerate all 2^M sign blocks once.
    patterns = np.array(
        [[(block >> m) & 1 for m in range(oversampling)]
         for block in range(2 ** oversampling)], dtype=bool)
    # P(z | a, state) for every pattern: (patterns, S, O)
    log_p = np.log(prob_plus)
    log_q = np.log1p(-prob_plus)
    log_block = np.where(patterns[:, None, None, :], log_p[None], log_q[None]
                         ).sum(axis=-1)
    block_prob = np.exp(log_block)
    # Average over interfering symbols (uniform states).
    prob_given_input = block_prob.mean(axis=1)          # (patterns, O)
    prob_marginal = prob_given_input.mean(axis=1)       # (patterns,)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(prob_given_input > 0.0,
                         prob_given_input / prob_marginal[:, None], 1.0)
        contributions = prob_given_input * np.log2(ratio)
    rate = contributions.sum(axis=0).mean()
    return float(np.clip(rate, 0.0, constellation.bits_per_symbol))


def one_bit_no_oversampling_rate(snr_db: float,
                                 constellation: Optional[AskConstellation] = None
                                 ) -> float:
    """Rate of 1-bit quantisation at symbol rate (no oversampling).

    With a rectangular pulse and a single sign sample per symbol the
    receiver can at best distinguish the sign of the amplitude, so the rate
    saturates at 1 bpcu — the reference the paper's oversampling schemes
    are measured against.
    """
    if constellation is None:
        constellation = AskConstellation(4)
    pulse = rectangular_pulse(oversampling=1)
    return symbolwise_information_rate(pulse, snr_db, constellation)


def ask_awgn_information_rate(snr_db: float,
                              constellation: Optional[AskConstellation] = None,
                              n_quadrature: int = 129) -> float:
    """Mutual information of unquantised M-ASK over AWGN (uniform inputs).

    Computed with Gauss-Hermite quadrature:  ``I = H(Y) - H(Y|X)`` where
    ``Y = X + N`` and ``H(Y)`` integrates the Gaussian-mixture density.
    This is the "No Quantization" reference curve of Fig. 6.
    """
    if constellation is None:
        constellation = AskConstellation(4)
    if n_quadrature < 3:
        raise ValueError("n_quadrature must be at least 3")
    levels = constellation.levels
    order = levels.size
    noise_variance = 1.0 / float(db_to_linear(snr_db))
    sigma = np.sqrt(noise_variance)
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_quadrature)
    # y = level + sigma * node ; weights integrate against standard normal.
    weights = weights / np.sqrt(2.0 * np.pi)
    rate = 0.0
    for level in levels:
        y = level + sigma * nodes
        mixture = np.zeros_like(y)
        for other in levels:
            mixture += _normal_pdf(y, other, sigma) / order
        conditional = _normal_pdf(y, level, sigma)
        integrand = np.log2(conditional / mixture)
        rate += (weights * integrand).sum() / order
    return float(np.clip(rate, 0.0, constellation.bits_per_symbol))
