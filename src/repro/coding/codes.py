"""Concrete LDPC codes: block codes and terminated convolutional codes.

Both classes bundle a lifted parity-check matrix with an encoder (systematic
via GF(2) elimination) and a full belief-propagation decoder.  The
convolutional code additionally exposes its block structure (termination
length ``L``, coupling memory ``mcc``, block length ``N * nv``) which the
sliding window decoder and the latency formulas build on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.coding.bp import (
    BatchDecodeResult,
    BeliefPropagationDecoder,
    DecodeResult,
)
from repro.coding.lifting import lift_protograph
from repro.coding.protograph import (
    EdgeSpreading,
    Protograph,
    coupled_protograph,
)
from repro.utils.rng import RngLike


def _gf2_row_reduce(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon form over GF(2) and the pivot column indices."""
    work = matrix.copy().astype(np.uint8) % 2
    n_rows, n_cols = work.shape
    pivot_columns = []
    pivot_row = 0
    for column in range(n_cols):
        if pivot_row >= n_rows:
            break
        candidates = np.nonzero(work[pivot_row:, column])[0]
        if candidates.size == 0:
            continue
        swap = pivot_row + candidates[0]
        if swap != pivot_row:
            work[[pivot_row, swap]] = work[[swap, pivot_row]]
        # Eliminate the column everywhere else.
        rows_with_one = np.nonzero(work[:, column])[0]
        rows_with_one = rows_with_one[rows_with_one != pivot_row]
        work[rows_with_one] ^= work[pivot_row]
        pivot_columns.append(column)
        pivot_row += 1
    return work, np.asarray(pivot_columns, dtype=int)


class _LiftedLdpcCode:
    """Shared machinery: parity-check matrix, encoder, full BP decoder."""

    def __init__(self, parity_check: sparse.csr_matrix,
                 max_iterations: int = 50, dtype=None) -> None:
        self.parity_check = sparse.csr_matrix(parity_check).astype(np.int8)
        self.n = int(self.parity_check.shape[1])
        self._decoder = BeliefPropagationDecoder(self.parity_check,
                                                 max_iterations=max_iterations,
                                                 dtype=dtype)
        self._rref: Optional[np.ndarray] = None
        self._pivot_columns: Optional[np.ndarray] = None
        self._info_columns: Optional[np.ndarray] = None

    # -- encoder -------------------------------------------------------
    def _ensure_encoder(self) -> None:
        if self._rref is not None:
            return
        dense = np.asarray(self.parity_check.todense(), dtype=np.uint8)
        rref, pivots = _gf2_row_reduce(dense)
        self._rref = rref
        self._pivot_columns = pivots
        mask = np.ones(self.n, dtype=bool)
        mask[pivots] = False
        self._info_columns = np.nonzero(mask)[0]

    @property
    def k(self) -> int:
        """Number of information bits (codeword length minus check rank)."""
        self._ensure_encoder()
        return int(self.n - self._pivot_columns.size)

    @property
    def rate(self) -> float:
        """Actual code rate ``k / n``."""
        return self.k / self.n

    def encode(self, message_bits: np.ndarray) -> np.ndarray:
        """Encode ``k`` message bits into an ``n``-bit codeword.

        Information bits occupy the non-pivot columns of the parity-check
        matrix; parity bits are obtained from the reduced row-echelon form.
        """
        self._ensure_encoder()
        message_bits = np.asarray(message_bits, dtype=np.uint8).reshape(-1) % 2
        if message_bits.size != self.k:
            raise ValueError(f"expected {self.k} message bits, "
                             f"got {message_bits.size}")
        codeword = np.zeros(self.n, dtype=np.uint8)
        codeword[self._info_columns] = message_bits
        # Each pivot row fixes exactly one parity bit.
        info_part = self._rref[:, self._info_columns]
        parity = (info_part[: self._pivot_columns.size] @ message_bits) % 2
        codeword[self._pivot_columns] = parity
        return codeword

    def is_codeword(self, bits: np.ndarray) -> bool:
        """True if ``bits`` satisfies every parity check."""
        bits = np.asarray(bits, dtype=np.int8).reshape(-1)
        if bits.size != self.n:
            raise ValueError(f"expected {self.n} bits, got {bits.size}")
        return self._decoder.syndrome_ok(bits)

    def extract_message(self, codeword_bits: np.ndarray) -> np.ndarray:
        """Recover the message bits from a (decoded) codeword."""
        self._ensure_encoder()
        codeword_bits = np.asarray(codeword_bits).reshape(-1)
        if codeword_bits.size != self.n:
            raise ValueError(f"expected {self.n} bits, got {codeword_bits.size}")
        return codeword_bits[self._info_columns].astype(np.uint8)

    # -- decoding ------------------------------------------------------
    def decode(self, channel_llrs: np.ndarray) -> DecodeResult:
        """Full belief-propagation decoding of one received word."""
        return self._decoder.decode(channel_llrs)

    def decode_batch(self, channel_llrs: np.ndarray) -> BatchDecodeResult:
        """Batched BP decoding of a ``(B, n)`` matrix of received words."""
        return self._decoder.decode_batch(channel_llrs)

    def decode_bits_batch(self, channel_llrs: np.ndarray) -> np.ndarray:
        """Batched decoding returning only the ``(B, n)`` hard decisions."""
        return self._decoder.decode_batch(channel_llrs).hard_decisions


class LdpcBlockCode(_LiftedLdpcCode):
    """Protograph-based LDPC block code (the paper's LDPC-BC reference).

    Parameters
    ----------
    protograph:
        Base protograph, e.g. the paper's ``B = [4, 4]``.
    lifting_factor:
        Circulant size ``N``.
    rng:
        Seed for the lifting.
    """

    def __init__(self, protograph: Protograph, lifting_factor: int,
                 rng: RngLike = 0, max_iterations: int = 50,
                 dtype=None) -> None:
        self.protograph = protograph
        self.lifting_factor = int(lifting_factor)
        parity_check = lift_protograph(protograph, lifting_factor, rng=rng)
        super().__init__(parity_check, max_iterations=max_iterations,
                         dtype=dtype)

    @property
    def design_rate(self) -> float:
        """Design rate of the underlying protograph."""
        return self.protograph.design_rate


class LdpcConvolutionalCode(_LiftedLdpcCode):
    """Terminated protograph-based LDPC convolutional code (LDPC-CC).

    Parameters
    ----------
    spreading:
        Edge spreading ``B_0 ... B_mcc`` (Eq. 2), e.g.
        :func:`repro.coding.protograph.paper_edge_spreading`.
    lifting_factor:
        Circulant size ``N``.
    termination_length:
        Number of coupled blocks ``L``.
    rng:
        Seed for the lifting.
    """

    def __init__(self, spreading: EdgeSpreading, lifting_factor: int,
                 termination_length: int, rng: RngLike = 0,
                 max_iterations: int = 50, dtype=None) -> None:
        self.spreading = spreading
        self.lifting_factor = int(lifting_factor)
        self.termination_length = int(termination_length)
        self.coupled = coupled_protograph(spreading, termination_length)
        parity_check = lift_protograph(self.coupled, lifting_factor, rng=rng)
        super().__init__(parity_check, max_iterations=max_iterations,
                         dtype=dtype)

    @property
    def memory(self) -> int:
        """Coupling memory ``mcc``."""
        return self.spreading.memory

    @property
    def n_variable_blocks(self) -> int:
        """Number of coupled codeword blocks ``L``."""
        return self.termination_length

    @property
    def block_length(self) -> int:
        """Coded bits per coupled block (``N * nv``)."""
        return self.lifting_factor * self.spreading.components[0].shape[1]

    @property
    def check_block_length(self) -> int:
        """Check equations per block row (``N * nc``)."""
        return self.lifting_factor * self.spreading.components[0].shape[0]

    @property
    def design_rate(self) -> float:
        """Design rate of the *unterminated* ensemble (``1 - nc / nv``)."""
        return self.spreading.base.design_rate

    @property
    def terminated_rate(self) -> float:
        """Design rate including the termination loss."""
        return self.coupled.design_rate

    def variable_range_of_block(self, block: int) -> Tuple[int, int]:
        """Column index range ``[start, stop)`` of one coupled block."""
        if not 0 <= block < self.termination_length:
            raise ValueError("block index out of range")
        start = block * self.block_length
        return start, start + self.block_length

    def check_range_of_block_row(self, block_row: int) -> Tuple[int, int]:
        """Row index range ``[start, stop)`` of one block row of checks."""
        if not 0 <= block_row < self.termination_length + self.memory:
            raise ValueError("block row index out of range")
        start = block_row * self.check_block_length
        return start, start + self.check_block_length
