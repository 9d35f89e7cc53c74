"""Sum-product belief-propagation decoding: one tiled kernel for every batch.

The decoder works on any sparse parity-check matrix.  Messages live on the
edges of the Tanner graph in an *edge-major* layout — ``(n_edges, B)``
arrays with one column per codeword — so one numpy call advances every
codeword of a batch by one step of the update, and the per-check and
per-variable sums are matmuls with cached CSR scatter matrices.

The check-node update is the exact sum-product rule evaluated in the
sign/log-magnitude domain, which is numerically stable even for the
saturated (±infinity-like) messages injected by the window decoder for
already-decided symbols:

* ``|tanh(v/2)|`` is floored at ``max(1e-300, finfo(dtype).tiny)`` before
  its log is summed per check;
* an edge's exclusive magnitude ``exp(min(total - own, 0))`` is capped at
  ``1 - 1e-15`` (or the largest value below 1 of the dtype), and twice
  its ``arctanh`` is clipped to ``LLR_CLIP``;
* an edge's exclusive sign is the parity of its check's negative count
  times the edge's own sign.

Summation order and bit-exactness
---------------------------------
Per-variable sums add a variable's edges in ascending order starting from
zero, like ``np.bincount``.  Per-check sums add a check's first edge to
the in-order sum of its other edges, which is what ``np.add.reduceat``
returns for the check degrees of the repo's codes (below 8, where numpy's
pairwise summation runs sequentially).  At float64 the kernel therefore
reproduces the historical row-major reference decoder bit for bit; the
test suite pins this against that decoder, kept as an oracle.

Batching and dtype
------------------
:meth:`BeliefPropagationDecoder.decode_batch` splits a batch into
cache-sized tiles.  Within a tile, a codeword whose syndrome clears (or
that reaches the iteration limit) has its outputs recorded and is
dropped: the unfinished columns are copied into narrower work arrays,
so later iterations compute only codewords still decoding.  No
column's arithmetic depends on the width it runs at — the CSR matmuls
sum each column in the same order, and the elementwise steps are per
element — so codewords never interact and ``decode_batch(X)[i] ==
decode(X[i])``.  ``dtype="float32"`` runs the same kernel in single
precision: its transcendentals vectorise several times faster through
SIMD and the results are statistically equivalent, not bit-identical
(float32 saturates check messages near ``2*arctanh(1 - 2^-24) ≈ 17.3``
instead of ``LLR_CLIP``).  The scatter matrices are cached on the
decoder instance; the work arrays are allocated per call and freed with
it, so a decoder holds no per-batch arrays between calls and two
sequential decodes are byte-identical to a fresh instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.utils.validation import resolve_dtype

#: Magnitudes of log-likelihood ratios are clipped to this value; large
#: enough to behave like certainty, small enough to avoid overflow in tanh.
LLR_CLIP = 30.0

_TANH_FLOOR = 1e-300


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a belief-propagation decoding attempt.

    Attributes
    ----------
    hard_decisions:
        Decoded bits (0/1) for every variable node.
    posterior_llrs:
        A-posteriori LLRs (positive favours bit 0).
    converged:
        True if all parity checks were satisfied before the iteration limit.
    iterations:
        Number of iterations actually performed.
    """

    hard_decisions: np.ndarray
    posterior_llrs: np.ndarray
    converged: bool
    iterations: int


@dataclass(frozen=True)
class BatchDecodeResult:
    """Outcome of decoding a batch of codewords.

    Attributes
    ----------
    hard_decisions:
        ``(B, n)`` decoded bits (0/1), one row per codeword.
    posterior_llrs:
        ``(B, n)`` a-posteriori LLRs (positive favours bit 0).
    converged:
        ``(B,)`` flags: all parity checks satisfied before the limit.
    iterations:
        ``(B,)`` iterations performed per codeword (a codeword stops
        counting as soon as its syndrome clears).
    """

    hard_decisions: np.ndarray
    posterior_llrs: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray

    def __len__(self) -> int:
        return int(self.hard_decisions.shape[0])

    def __getitem__(self, index: int) -> DecodeResult:
        """Scalar view of one codeword's outcome."""
        return DecodeResult(hard_decisions=self.hard_decisions[index],
                            posterior_llrs=self.posterior_llrs[index],
                            converged=bool(self.converged[index]),
                            iterations=int(self.iterations[index]))


class BeliefPropagationDecoder:
    """Sum-product decoder for a fixed parity-check matrix.

    Parameters
    ----------
    parity_check:
        Sparse (or dense) binary parity-check matrix.
    max_iterations:
        Iteration limit; decoding stops early once the syndrome is zero.
    dtype:
        Message dtype: ``"float64"`` (bit-exact default) or ``"float32"``.
    """

    def __init__(self, parity_check, max_iterations: int = 50,
                 dtype=None) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        matrix = sparse.csr_matrix(parity_check).astype(np.int8)
        if matrix.nnz == 0:
            raise ValueError("parity-check matrix has no edges")
        self.parity_check = matrix
        self.max_iterations = int(max_iterations)
        self.n_checks, self.n_variables = matrix.shape
        self.dtype = resolve_dtype(dtype)

        coo = matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        edge_check = coo.row[order].astype(np.int64)
        self._edge_variable = coo.col[order].astype(np.int64)
        self.n_edges = edge_check.size
        # Edges are grouped by check; checks without edges are always
        # satisfied and take no part in the sums.
        check_ptr = np.searchsorted(edge_check, np.arange(self.n_checks + 1))
        degrees = np.diff(check_ptr)
        self._first_edges = check_ptr[:-1][degrees > 0]
        n_segments = self._first_edges.size
        self._edge_segment = np.repeat(np.arange(n_segments),
                                       degrees[degrees > 0])
        edges = np.arange(self.n_edges)
        ones = np.ones(self.n_edges, dtype=self.dtype)
        # CSR scatter matrices.  Within a row the edges ascend, so a matmul
        # adds them in edge order starting from zero.
        self._variable_sums = sparse.csr_matrix(
            (ones, (self._edge_variable, edges)),
            shape=(self.n_variables, self.n_edges))
        self._check_sums = sparse.csr_matrix(
            (ones, (self._edge_segment, edges)),
            shape=(n_segments, self.n_edges))
        tail = np.ones(self.n_edges, dtype=bool)
        tail[self._first_edges] = False
        self._check_tail_sums = sparse.csr_matrix(
            (ones[tail], (self._edge_segment[tail], edges[tail])),
            shape=(n_segments, self.n_edges))
        # Size tiles so the (n_edges, tile) work arrays stay within a few
        # MB of cache.
        self._tile_size = max(32, (6 << 20)
                              // (6 * self.n_edges * self.dtype.itemsize))

    # ------------------------------------------------------------------
    def syndrome_ok(self, hard_decisions: np.ndarray) -> bool:
        """True if the candidate word satisfies every parity check."""
        hard_decisions = np.asarray(hard_decisions, dtype=np.int8)
        syndrome = self.parity_check.dot(hard_decisions) % 2
        return not np.any(syndrome)

    def decode(self, channel_llrs: np.ndarray) -> DecodeResult:
        """Run sum-product decoding on a vector of channel LLRs.

        The result equals ``decode_batch(channel_llrs[None])[0]``.
        """
        channel_llrs = np.asarray(channel_llrs, dtype=float).reshape(1, -1)
        return self._decode(channel_llrs)[0]

    def decode_batch(self, channel_llrs: np.ndarray) -> BatchDecodeResult:
        """Decode a ``(B, n)`` matrix of channel LLR vectors in one pass.

        Row ``i`` of the result is bit-exact against ``decode(X[i])``.
        """
        channel_llrs = np.asarray(channel_llrs, dtype=float)
        if channel_llrs.ndim != 2:
            raise ValueError("decode_batch expects a (B, n) LLR matrix")
        if channel_llrs.shape[0] == 0:
            raise ValueError("decode_batch needs at least one codeword")
        return self._decode(channel_llrs)

    def _decode(self, channel_llrs: np.ndarray) -> BatchDecodeResult:
        if channel_llrs.shape[1] != self.n_variables:
            raise ValueError(
                f"expected {self.n_variables} channel LLRs per codeword, "
                f"got {channel_llrs.shape[1]}")
        channel_llrs = np.clip(channel_llrs, -LLR_CLIP, LLR_CLIP)
        batch_size = channel_llrs.shape[0]
        tile = self._tile_size
        if batch_size <= tile:
            return self._decode_tile(channel_llrs)
        parts = [self._decode_tile(channel_llrs[start:start + tile])
                 for start in range(0, batch_size, tile)]
        return BatchDecodeResult(
            hard_decisions=np.concatenate([p.hard_decisions for p in parts]),
            posterior_llrs=np.concatenate([p.posterior_llrs for p in parts]),
            converged=np.concatenate([p.converged for p in parts]),
            iterations=np.concatenate([p.iterations for p in parts]))

    def _decode_tile(self, channel_llrs: np.ndarray) -> BatchDecodeResult:
        """The kernel: decode one tile of (clipped) channel LLR rows.

        The work arrays hold one column per unfinished codeword;
        ``active`` maps each column back to its row of the tile.
        """
        dt = self.dtype
        rows = channel_llrs.shape[0]
        zero, one, two = dt.type(0.0), dt.type(1.0), dt.type(2.0)
        clip = dt.type(LLR_CLIP)
        floor = dt.type(max(_TANH_FLOOR, float(np.finfo(dt).tiny)))
        max_magnitude = dt.type(min(1.0 - 1e-15,
                                    float(np.nextafter(one, zero))))
        n_edges = self.n_edges
        # msg, llrs and post carry state from one iteration to the next;
        # v, work and negative are rewritten every iteration, so they are
        # views of flat buffers that shrink with the active columns.
        llrs = np.ascontiguousarray(channel_llrs.T, dtype=dt)
        msg = np.zeros((n_edges, rows), dtype=dt)
        post = llrs.copy()
        buffers = [np.empty(n_edges * rows, dtype=dt) for _ in range(3)]
        v, work, negative = (buffer.reshape(n_edges, rows)
                             for buffer in buffers)
        active = np.arange(rows)
        edge_variable = self._edge_variable
        edge_segment = self._edge_segment
        posterior_out = np.empty((rows, self.n_variables), dtype=dt)
        iterations_out = np.zeros(rows, dtype=int)
        converged_out = np.zeros(rows, dtype=bool)
        for iteration in range(1, self.max_iterations + 1):
            # ---- variable-node update ---------------------------------
            np.take(post, edge_variable, axis=0, out=v, mode="clip")
            np.subtract(v, msg, out=v)
            np.clip(v, -clip, clip, out=v)
            # ---- check-node update (sign / log-magnitude) -------------
            np.multiply(v, dt.type(0.5), out=v)
            np.tanh(v, out=v)
            np.less(v, zero, out=negative)
            np.abs(v, out=v)
            np.maximum(v, floor, out=v)
            np.log(v, out=work)
            log_sums = self._check_tail_sums.dot(work)   # (n_checks, B)
            log_sums += work[self._first_edges]
            # Exclusive magnitude: 2 * arctanh(exp(min(total - own, 0))).
            np.take(log_sums, edge_segment, axis=0, out=v, mode="clip")
            np.subtract(v, work, out=v)
            np.minimum(v, zero, out=v)
            np.exp(v, out=v)
            np.minimum(v, max_magnitude, out=v)
            np.arctanh(v, out=v)
            np.multiply(v, two, out=v)
            np.minimum(v, clip, out=v)
            # Exclusive sign: the check's sign 1 - 2 * parity(count), via
            # floor (float ``mod`` is far slower), times the edge's own.
            counts = self._check_sums.dot(negative)      # (n_checks, B)
            half = np.multiply(counts, dt.type(0.5))
            np.floor(half, out=half)
            np.multiply(half, -two, out=half)
            np.add(counts, half, out=counts)
            np.multiply(counts, -two, out=counts)
            np.add(counts, one, out=counts)
            np.take(counts, edge_segment, axis=0, out=work, mode="clip")
            np.multiply(negative, -two, out=negative)
            np.add(negative, one, out=negative)
            np.multiply(work, negative, out=work)
            np.multiply(v, work, out=msg)
            # ---- posterior and per-column stopping rule ----------------
            np.add(llrs, self._variable_sums.dot(msg), out=post)
            hard = (post < zero).view(np.int8)
            syndromes = self.parity_check.dot(hard) % 2
            satisfied = ~np.any(syndromes, axis=0)
            finished = satisfied | (iteration == self.max_iterations)
            if np.any(finished):
                cols = active[finished]
                posterior_out[cols] = post[:, finished].T
                converged_out[cols] = satisfied[finished]
                iterations_out[cols] = iteration
                if finished.all():
                    break
                # Go on with the unfinished columns only.
                keep = ~finished
                active = active[keep]
                msg, llrs, post = (np.compress(keep, array, axis=1)
                                   for array in (msg, llrs, post))
                v, work, negative = (
                    buffer[:n_edges * active.size].reshape(n_edges,
                                                           active.size)
                    for buffer in buffers)
        return BatchDecodeResult(
            hard_decisions=(posterior_out < 0.0).astype(np.int8),
            posterior_llrs=posterior_out.astype(float, copy=False),
            converged=converged_out,
            iterations=iterations_out)
