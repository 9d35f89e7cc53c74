"""The retired numpy forward recursion of the information rate, kept as a
test oracle.

:func:`repro.phy.information_rate._entropy_rate_of_observations` steps
the same normalised forward recursion on Python floats; it must return
the bytes of this per-symbol numpy loop (one ``exp``, ``bincount``,
``sum`` and ``log`` per symbol) for every channel, including the
``FloatingPointError`` of an all-zero step and the NaN of a NaN input.
"""

from __future__ import annotations

import numpy as np

from repro.phy.channel_model import OversampledOneBitChannel

_LOG2 = np.log(2.0)


def entropy_rate_of_observations(channel: OversampledOneBitChannel,
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
