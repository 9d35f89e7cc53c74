"""The historical Python-loop Viterbi search, kept as a test oracle.

The vectorized :meth:`repro.phy.trellis.TrellisKernel.viterbi` is
regression-tested against these per-(state, input) loops and benchmarked
against them in ``benchmarks/test_bench_trellis_demod.py``.
"""

from __future__ import annotations

import numpy as np

from repro.phy.channel_model import OversampledOneBitChannel


def viterbi_loop_reference(channel: OversampledOneBitChannel,
                           log_obs: np.ndarray) -> np.ndarray:
    """The pre-vectorization Viterbi search (per-(state, input) Python loop).

    Takes observation log-probabilities of shape ``(n, n_states, order)``
    and returns the ML symbol-index sequence.
    """
    n_symbols = log_obs.shape[0]
    n_states = channel.n_states
    order = channel.order
    successors = np.array([
        [channel.next_state(state, inp) for inp in range(order)]
        for state in range(n_states)
    ])
    metrics = np.full(n_states, -np.inf)
    metrics[0] = 0.0  # transmissions start from the all-zero state
    backpointers = np.zeros((n_symbols, n_states), dtype=np.int32)
    decisions = np.zeros((n_symbols, n_states), dtype=np.int32)
    for k in range(n_symbols):
        candidate = metrics[:, None] + log_obs[k]          # (state, input)
        new_metrics = np.full(n_states, -np.inf)
        new_back = np.zeros(n_states, dtype=np.int32)
        new_decision = np.zeros(n_states, dtype=np.int32)
        for state in range(n_states):
            for inp in range(order):
                succ = successors[state, inp]
                if candidate[state, inp] > new_metrics[succ]:
                    new_metrics[succ] = candidate[state, inp]
                    new_back[succ] = state
                    new_decision[succ] = inp
        metrics = new_metrics
        backpointers[k] = new_back
        decisions[k] = new_decision
    # Trace back from the best final state.
    best_state = int(np.argmax(metrics))
    detected = np.zeros(n_symbols, dtype=int)
    state = best_state
    for k in range(n_symbols - 1, -1, -1):
        detected[k] = decisions[k, state]
        state = backpointers[k, state]
    return detected


def detect_reference(detector, signs: np.ndarray) -> np.ndarray:
    """The loop Viterbi search behind a
    :class:`~repro.phy.receiver.ViterbiSequenceDetector` (one block)."""
    log_obs = detector.channel.log_observation_probabilities(signs)
    return viterbi_loop_reference(detector.channel, log_obs)
