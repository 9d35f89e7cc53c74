"""The one BP kernel against the retired float64 kernel, byte for byte.

``oracles.bp.decode_batch_exact`` is the row-major reference decoder the
library ran at float64 before its BP paths were folded into one
edge-major kernel.  At float64 the kernel must reproduce it exactly —
posterior LLRs, hard decisions, convergence flags and iteration counts —
on every decoder the window decoder builds for the paper's LDPC-CC, on
the full convolutional and block codes, for every batch shape and with
degenerate LLRs (exact zeros, ±inf, 1e6) injected.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.coding.bp import BeliefPropagationDecoder
from repro.coding.codes import LdpcBlockCode, LdpcConvolutionalCode
from repro.coding.protograph import (
    PAPER_BLOCK_PROTOGRAPH,
    paper_edge_spreading,
)
from repro.coding.window_decoder import WindowDecoder

from oracles.bp import decode_batch_exact

ITERATIONS = 25
BATCH_SIZES = (1, 3, 4, 8, 16, 64)
SIGMAS = (0.7, 0.9, 1.2)


def _paper_cc():
    return LdpcConvolutionalCode(paper_edge_spreading(), lifting_factor=25,
                                 termination_length=10, rng=0)


def _parity_checks():
    """Every window sub-decoder's matrix, the full CC and the block code."""
    code = _paper_cc()
    window = WindowDecoder(code, window_size=4, max_iterations=ITERATIONS)
    matrices = {f"window-{target}": window._window_decoder(target)[0]
                .parity_check for target in range(code.termination_length)}
    matrices["full-cc"] = code.parity_check
    block = LdpcBlockCode(PAPER_BLOCK_PROTOGRAPH, 25, rng=0).parity_check
    matrices["block"] = block
    # A check without edges is always satisfied and joins no sum.
    matrices["block-empty-check"] = sparse.vstack(
        [block, sparse.csr_matrix((1, block.shape[1]), dtype=np.int8)])
    return matrices


_MATRICES = _parity_checks()


def _llrs(rng, sigma, shape):
    """Noisy all-zero-codeword LLRs with degenerate values injected."""
    llrs = 2.0 * (1.0 + rng.normal(0.0, sigma, size=shape)) / sigma ** 2
    flat = llrs.reshape(-1)
    picks = rng.choice(flat.size, size=max(4, flat.size // 50),
                       replace=False)
    quarter = picks.size // 4
    flat[picks[:quarter]] = 0.0
    flat[picks[quarter:2 * quarter]] = np.inf
    flat[picks[2 * quarter:3 * quarter]] = -np.inf
    flat[picks[3 * quarter:]] = 1e6 * rng.choice(
        [-1.0, 1.0], size=picks.size - 3 * quarter)
    return llrs


def _assert_identical(result, expected):
    for field in ("posterior_llrs", "hard_decisions", "converged",
                  "iterations"):
        got, want = getattr(result, field), getattr(expected, field)
        assert got.dtype == want.dtype, field
        assert got.tobytes() == want.tobytes(), field


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(_MATRICES))
def test_float64_kernel_is_byte_identical_to_the_oracle(name, batch_size):
    matrix = _MATRICES[name]
    decoder = BeliefPropagationDecoder(matrix, max_iterations=ITERATIONS)
    rng = np.random.default_rng(batch_size)
    for sigma in SIGMAS:
        llrs = _llrs(rng, sigma, (batch_size, decoder.n_variables))
        _assert_identical(decoder.decode_batch(llrs),
                          decode_batch_exact(matrix, llrs, ITERATIONS))


def test_oracle_workload_covers_both_stopping_paths():
    """The parametrized workloads exercise early termination as well as
    codewords that run out of iterations."""
    matrix = _MATRICES["window-3"]
    rng = np.random.default_rng(64)
    iterations = np.concatenate([
        decode_batch_exact(matrix, _llrs(rng, sigma, (64, matrix.shape[1])),
                           ITERATIONS).iterations for sigma in SIGMAS])
    assert iterations.min() < ITERATIONS
    assert iterations.max() == ITERATIONS


def test_scalar_decode_is_a_one_row_batch():
    matrix = _MATRICES["full-cc"]
    decoder = BeliefPropagationDecoder(matrix, max_iterations=ITERATIONS)
    llrs = _llrs(np.random.default_rng(5), 0.9, (1, matrix.shape[1]))
    single = decoder.decode(llrs[0])
    expected = decode_batch_exact(matrix, llrs, ITERATIONS)[0]
    assert single.posterior_llrs.tobytes() \
        == expected.posterior_llrs.tobytes()
    assert single.hard_decisions.tobytes() \
        == expected.hard_decisions.tobytes()
    assert (single.converged, single.iterations) \
        == (expected.converged, expected.iterations)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_results_do_not_depend_on_call_history(dtype):
    """Cached buffers sized by a large batch must not leak into a later,
    smaller one: B=64 then B=4 on one instance equals a fresh instance."""
    matrix = _MATRICES["window-3"]
    rng = np.random.default_rng(11)
    large = _llrs(rng, 0.9, (64, matrix.shape[1]))
    small = _llrs(rng, 0.9, (4, matrix.shape[1]))
    used = BeliefPropagationDecoder(matrix, max_iterations=ITERATIONS,
                                    dtype=dtype)
    used.decode_batch(large)
    fresh = BeliefPropagationDecoder(matrix, max_iterations=ITERATIONS,
                                     dtype=dtype)
    _assert_identical(used.decode_batch(small), fresh.decode_batch(small))
