"""Sliding window decoder for terminated LDPC convolutional codes (Fig. 9).

A window of ``W`` consecutive coupled blocks is decoded at a time.  To
decode the target block ``t`` the decoder needs

* the channel values of blocks ``t .. t + W - 1`` (it must *wait* for
  ``W - 1`` future blocks, which is what creates the structural latency of
  Eq. 4), and
* read access to the ``mcc`` previously decoded blocks, whose bits enter
  the window as perfectly known (saturated) messages.

After running belief propagation inside the window, only the target block's
decisions are committed and the window slides forward by one block.  The
window size trades latency against performance at the decoder side without
touching the encoder — the flexibility the paper emphasises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.coding.bp import BeliefPropagationDecoder, LLR_CLIP
from repro.coding.codes import LdpcConvolutionalCode
from repro.coding.latency import window_decoder_structural_latency


@dataclass(frozen=True)
class WindowDecodeResult:
    """Outcome of sliding-window decoding of one received word.

    Attributes
    ----------
    hard_decisions:
        Decoded bits for the full coupled codeword.
    block_converged:
        Per-target-block flag: did the window's BP satisfy all checks?
    iterations_per_block:
        BP iterations spent on each window position.
    structural_latency_bits:
        Structural latency of the configuration in information bits (Eq. 4).
    """

    hard_decisions: np.ndarray
    block_converged: np.ndarray
    iterations_per_block: np.ndarray
    structural_latency_bits: float


@dataclass(frozen=True)
class WindowBatchDecodeResult:
    """Outcome of sliding-window decoding of a batch of received words.

    Attributes
    ----------
    hard_decisions:
        ``(B, n)`` decoded bits, one row per received word.
    block_converged:
        ``(B, L)`` per-codeword, per-target-block convergence flags.
    iterations_per_block:
        ``(B, L)`` BP iterations spent on each window position.
    structural_latency_bits:
        Structural latency of the configuration in information bits (Eq. 4).
    """

    hard_decisions: np.ndarray
    block_converged: np.ndarray
    iterations_per_block: np.ndarray
    structural_latency_bits: float

    def __len__(self) -> int:
        return int(self.hard_decisions.shape[0])

    def __getitem__(self, index: int) -> WindowDecodeResult:
        """Scalar view of one codeword's outcome."""
        return WindowDecodeResult(
            hard_decisions=self.hard_decisions[index],
            block_converged=self.block_converged[index],
            iterations_per_block=self.iterations_per_block[index],
            structural_latency_bits=self.structural_latency_bits)


class WindowDecoder:
    """Sliding window decoder over an :class:`LdpcConvolutionalCode`.

    Parameters
    ----------
    code:
        The terminated LDPC-CC to decode.
    window_size:
        Window size ``W`` in blocks; must satisfy
        ``mcc + 1 <= W <= L`` (the paper allows up to ``L - 1``; ``W = L``
        degenerates into full-codeword decoding and is permitted here for
        cross-checks).
    max_iterations:
        BP iteration limit per window position.
    dtype:
        Message dtype forwarded to every per-window
        :class:`~repro.coding.bp.BeliefPropagationDecoder`; the float64
        default is the bit-exact reference.
    """

    def __init__(self, code: LdpcConvolutionalCode, window_size: int,
                 max_iterations: int = 50, dtype=None) -> None:
        if window_size < code.memory + 1:
            raise ValueError(
                "window size must be at least the coupling memory + 1")
        if window_size > code.termination_length:
            raise ValueError(
                "window size cannot exceed the termination length")
        self.code = code
        self.window_size = int(window_size)
        self.max_iterations = int(max_iterations)
        self.dtype = dtype
        self._decoder_cache: Dict[Tuple[int, int, int], Tuple[BeliefPropagationDecoder, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _window_ranges(self, target_block: int) -> Tuple[int, int, int, int]:
        """Variable-block and check-block-row ranges of one window."""
        code = self.code
        first_variable_block = max(0, target_block - code.memory)
        last_variable_block = min(target_block + self.window_size - 1,
                                  code.termination_length - 1)
        first_check_row = target_block
        last_check_row = min(target_block + self.window_size - 1,
                             code.termination_length + code.memory - 1)
        return (first_variable_block, last_variable_block,
                first_check_row, last_check_row)

    def _window_decoder(self, target_block: int
                        ) -> Tuple[BeliefPropagationDecoder, np.ndarray, np.ndarray]:
        """(decoder, variable column indices, check row indices) of a window."""
        code = self.code
        first_vb, last_vb, first_cr, last_cr = self._window_ranges(target_block)
        cache_key = (first_vb, last_vb, first_cr)
        if cache_key not in self._decoder_cache:
            col_start = first_vb * code.block_length
            col_stop = (last_vb + 1) * code.block_length
            row_start = first_cr * code.check_block_length
            row_stop = (last_cr + 1) * code.check_block_length
            columns = np.arange(col_start, col_stop)
            rows = np.arange(row_start, row_stop)
            sub_matrix = code.parity_check[rows][:, columns]
            decoder = BeliefPropagationDecoder(sub_matrix,
                                               max_iterations=self.max_iterations,
                                               dtype=self.dtype)
            self._decoder_cache[cache_key] = (decoder, columns, rows)
        return self._decoder_cache[cache_key]

    # ------------------------------------------------------------------
    def decode(self, channel_llrs: np.ndarray) -> WindowDecodeResult:
        """Decode a full received coupled codeword block by block.

        The result equals ``decode_batch(channel_llrs[None])[0]``.
        """
        channel_llrs = np.asarray(channel_llrs, dtype=float).reshape(1, -1)
        return self.decode_batch(channel_llrs)[0]

    def decode_bits(self, channel_llrs: np.ndarray) -> np.ndarray:
        """Convenience wrapper returning only the hard decisions."""
        return self.decode(channel_llrs).hard_decisions

    def _structural_latency(self) -> float:
        code = self.code
        return window_decoder_structural_latency(
            window_size=self.window_size,
            lifting_factor=code.lifting_factor,
            n_variables=code.spreading.components[0].shape[1],
            rate=code.design_rate)

    # ------------------------------------------------------------------
    def decode_batch(self, channel_llrs: np.ndarray) -> WindowBatchDecodeResult:
        """Decode a ``(B, n)`` batch of received coupled codewords.

        The window slides over all codewords in lockstep: each window
        position runs one batched BP decode
        (:meth:`~repro.coding.bp.BeliefPropagationDecoder.decode_batch`)
        across the batch, so the per-iteration numpy work grows with ``B``
        while the Python overhead stays that of a single codeword.
        """
        code = self.code
        channel_llrs = np.asarray(channel_llrs, dtype=float)
        if channel_llrs.ndim != 2:
            raise ValueError("decode_batch expects a (B, n) LLR matrix")
        if channel_llrs.shape[1] != code.n:
            raise ValueError(f"expected {code.n} channel LLRs per codeword, "
                             f"got {channel_llrs.shape[1]}")
        batch_size = channel_llrs.shape[0]
        if batch_size == 0:
            raise ValueError("decode_batch needs at least one codeword")
        decisions = np.zeros((batch_size, code.n), dtype=np.int8)
        decided_llrs = channel_llrs.copy()
        converged = np.zeros((batch_size, code.termination_length), dtype=bool)
        iterations = np.zeros((batch_size, code.termination_length), dtype=int)
        for target_block in range(code.termination_length):
            decoder, columns, _ = self._window_decoder(target_block)
            # Blocks before the target are decided: they enter the window
            # with their posterior LLRs (rather than hard, saturated
            # decisions), which limits error propagation when an earlier
            # window left residual errors.  Later blocks still hold their
            # channel LLRs.
            result = decoder.decode_batch(decided_llrs[:, columns])
            start, stop = code.variable_range_of_block(target_block)
            local = slice(start - columns[0], stop - columns[0])
            decisions[:, start:stop] = result.hard_decisions[:, local]
            decided_llrs[:, start:stop] = np.clip(
                result.posterior_llrs[:, local], -LLR_CLIP, LLR_CLIP)
            converged[:, target_block] = result.converged
            iterations[:, target_block] = result.iterations
        return WindowBatchDecodeResult(
            hard_decisions=decisions,
            block_converged=converged,
            iterations_per_block=iterations,
            structural_latency_bits=self._structural_latency())

    def decode_bits_batch(self, channel_llrs: np.ndarray) -> np.ndarray:
        """Convenience wrapper returning only the ``(B, n)`` hard decisions."""
        return self.decode_batch(channel_llrs).hard_decisions
