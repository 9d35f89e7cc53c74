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

The forward recursion behind :func:`sequence_information_rate` steps
through every symbol in turn, and each step is only ``n_states × order``
multiply-adds (16 for the paper's 4-state channels).  As one numpy call
per operation it spent ~5 µs of dispatch per symbol on that work, so it
runs on Python floats instead: numpy computes ``exp`` of a block of
:data:`_BLOCK` symbols at once, and a plain loop does the rest.  It
returns the bytes of the retired numpy loop (``tests/oracles``) because
it repeats its order of operations:

* ``exp`` and ``log`` are elementwise, so numpy's block calls give the
  bits of its per-symbol calls (``math.exp``/``math.log`` would not);
* a branch weight is ``(alpha[s] * prior) * exp(log_obs[k, s, i])``,
  added into its successor state from ``0.0`` in ascending flat
  ``(s, i)`` order, as ``np.bincount`` adds them;
* the normaliser sums the states in ``ndarray.sum``'s order
  (:func:`_ndarray_sum`): one after another below 8 states, numpy's
  pairwise blocks from 8 up.  A normaliser ``<= 0`` raises
  ``FloatingPointError``; a NaN passes through;
* ``alpha = new_alpha / normaliser`` elementwise;
* the logs of the normalisers are added into one running float, from
  ``0.0``, strictly in order (not ``np.sum``, which is pairwise,
  ``math.fsum``, which is exact, or the builtin ``sum``, which
  compensates from Python 3.12).

Converting one block of likelihoods at a time keeps the Python floats
held at once to about 100 KB.  On a 2-core x86 container the loop ran
2.6x faster than the numpy loop at 4 states and 5.7x at 1 state, but
0.96x at 8 states and 0.80x at 16 (EXPERIMENTS.md, "The information rate
on Python floats"); no registry scenario runs more than 4.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.phy.channel_model import OversampledOneBitChannel
from repro.phy.modulation import AskConstellation
from repro.phy.pulse import Pulse, rectangular_pulse
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.units import db_to_linear

_LOG2 = np.log(2.0)
#: Symbols whose likelihoods are converted to Python floats at a time
#: (about 100 KB of floats for a 16-branch trellis section).
_BLOCK = 256


def _normal_pdf(y: np.ndarray, loc: float, scale: float) -> np.ndarray:
    """Density of N(loc, scale**2) at ``y``, in the order of operations
    of ``scipy.stats.norm.pdf`` (so bit for bit what it returns)."""
    x = (y - loc) / scale
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi) / scale


def _ndarray_sum(values: List[float]) -> float:
    """Sum ``values`` in the order of ``np.ndarray.sum`` on float64.

    numpy adds fewer than 8 values one after another.  From 8 up it keeps
    eight running sums over every eighth value, combines them pairwise
    and adds the remainder in turn; it halves runs of more than 128
    values (keeping the first half a multiple of 8) and adds the halves.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _ndarray_sum(values[:half]) + _ndarray_sum(values[half:])
    partial = values[:8]
    stop = n - n % 8
    for start in range(8, stop, 8):
        for lane in range(8):
            partial[lane] += values[start + lane]
    total = (((partial[0] + partial[1]) + (partial[2] + partial[3]))
             + ((partial[4] + partial[5]) + (partial[6] + partial[7])))
    for value in values[stop:]:
        total += value
    return total


def _entropy_rate_of_observations(channel: OversampledOneBitChannel,
                                  log_obs: np.ndarray) -> float:
    """-1/n log2 P(z_1^n) via the normalised forward recursion.

    ``log_obs`` has shape ``(n, n_states, order)`` and holds
    ``log P(z_k | state, input)``.  The recursion steps on Python floats
    in numpy's order of operations (see the module docstring).
    """
    n_symbols = log_obs.shape[0]
    n_states = channel.n_states
    order = channel.order
    prior = 1.0 / order
    # The (state, flat (state, input) index) branches into each successor
    # state, in ascending flat order: the order np.bincount adds them in.
    incoming: List[List[Tuple[int, int]]] = [[] for _ in range(n_states)]
    for state in range(n_states):
        for inp in range(order):
            incoming[channel.next_state(state, inp)].append(
                (state, state * order + inp))
    # alpha * prior, the factor every branch of a state starts from.
    weighted = [1.0 / n_states * prior] * n_states
    log_prob = 0.0
    for start in range(0, n_symbols, _BLOCK):
        block = np.exp(log_obs[start:start + _BLOCK])
        normalisers = []
        for likelihoods in block.reshape(len(block), -1).tolist():
            new_alpha = []
            for branches in incoming:
                total = 0.0
                for state, index in branches:
                    total += weighted[state] * likelihoods[index]
                new_alpha.append(total)
            normaliser = _ndarray_sum(new_alpha)
            if normaliser <= 0.0:
                raise FloatingPointError("forward recursion underflowed")
            normalisers.append(normaliser)
            weighted = [value / normaliser * prior for value in new_alpha]
        for term in np.log(normalisers).tolist():
            log_prob += term
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
