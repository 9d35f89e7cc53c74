"""The retired float64 belief-propagation kernel, kept as a test oracle.

This is the row-major ``(B, n_edges)`` sum-product decoder that was the
bit-exact float64 path of :class:`repro.coding.bp.BeliefPropagationDecoder`
before the decoder was folded into one edge-major kernel.  Its per-check
sums are ``np.add.reduceat`` segments and its per-variable sums one
flattened ``np.bincount``; the library kernel must reproduce its output
byte for byte at float64.  Every table is rebuilt here from the
parity-check matrix, so the oracle shares no state with the kernel it
checks.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.coding.bp import LLR_CLIP, BatchDecodeResult

_TANH_FLOOR = 1e-300


def decode_batch_exact(parity_check, channel_llrs,
                       max_iterations: int = 50) -> BatchDecodeResult:
    """Decode a ``(B, n)`` LLR matrix with the retired float64 kernel."""
    matrix = sparse.csr_matrix(parity_check).astype(np.int8)
    n_checks, n_variables = matrix.shape
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    edge_check = coo.row[order].astype(np.int64)
    edge_variable = coo.col[order].astype(np.int64)
    n_edges = edge_variable.size
    check_ptr = np.searchsorted(edge_check, np.arange(n_checks + 1))
    nonempty = np.flatnonzero(np.diff(check_ptr) > 0)
    segments = check_ptr[:-1][nonempty]
    segment_of_check = np.full(n_checks, -1, dtype=np.int64)
    segment_of_check[nonempty] = np.arange(nonempty.size)
    edge_segment = segment_of_check[edge_check]

    def variable_sums(messages):
        # One flattened bincount over row-offset bins: each row's edges
        # are visited in ascending order, like a per-row bincount.
        rows = messages.shape[0]
        bins = (np.arange(rows, dtype=np.int64)[:, None] * n_variables
                + edge_variable[None, :]).ravel()
        sums = np.bincount(bins, weights=messages.ravel(),
                           minlength=rows * n_variables)
        return sums.reshape(rows, n_variables)

    channel_llrs = np.clip(np.asarray(channel_llrs, dtype=float),
                           -LLR_CLIP, LLR_CLIP)
    batch_size = channel_llrs.shape[0]
    posterior_out = channel_llrs.copy()
    iterations_out = np.zeros(batch_size, dtype=int)
    converged_out = np.zeros(batch_size, dtype=bool)

    active = np.arange(batch_size)
    active_llrs = channel_llrs
    check_messages = np.zeros((batch_size, n_edges))
    sums = np.zeros_like(active_llrs)
    for iteration in range(1, max_iterations + 1):
        iterations_out[active] = iteration
        # ---- variable-node update ------------------------------------
        variable_messages = (active_llrs + sums)[:, edge_variable] \
            - check_messages
        variable_messages = np.clip(variable_messages, -LLR_CLIP, LLR_CLIP)
        # ---- check-node update (sign / log-magnitude) -----------------
        tanh_half = np.tanh(variable_messages / 2.0)
        signs = np.where(tanh_half < 0.0, -1.0, 1.0)
        magnitudes = np.maximum(np.abs(tanh_half), _TANH_FLOOR)
        log_magnitudes = np.log(magnitudes)
        negative = (signs < 0.0).astype(np.int64)
        neg_counts = np.add.reduceat(negative, segments, axis=1)
        log_sums = np.add.reduceat(log_magnitudes, segments, axis=1)
        excl_neg = neg_counts[:, edge_segment] - negative
        excl_log = log_sums[:, edge_segment] - log_magnitudes
        excl_sign = np.where(excl_neg % 2 == 1, -1.0, 1.0)
        excl_magnitude = np.exp(np.minimum(excl_log, 0.0))
        excl_magnitude = np.clip(excl_magnitude, 0.0, 1.0 - 1e-15)
        check_messages = 2.0 * np.arctanh(excl_sign * excl_magnitude)
        check_messages = np.clip(check_messages, -LLR_CLIP, LLR_CLIP)
        # ---- posterior and per-codeword stopping rule ------------------
        sums = variable_sums(check_messages)
        posterior = active_llrs + sums
        hard = (posterior < 0.0).astype(np.int8)
        syndromes = matrix.dot(hard.T) % 2
        satisfied = ~np.any(syndromes, axis=0)
        finished = satisfied | (iteration == max_iterations)
        if np.any(finished):
            rows = active[finished]
            posterior_out[rows] = posterior[finished]
            converged_out[rows] = satisfied[finished]
            keep = ~finished
            active = active[keep]
            if active.size == 0:
                break
            active_llrs = active_llrs[keep]
            check_messages = check_messages[keep]
            sums = sums[keep]
    hard_out = (posterior_out < 0.0).astype(np.int8)
    return BatchDecodeResult(hard_decisions=hard_out,
                             posterior_llrs=posterior_out,
                             converged=converged_out,
                             iterations=iterations_out)
