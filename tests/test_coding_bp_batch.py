"""Batched belief-propagation decoding: equivalence with the scalar path.

The batched engine's cross-checks rely on ``decode_batch(X)[i]`` being
*bit-exact* against ``decode(X[i])`` — posterior LLRs included — so these
tests assert exact array equality, not approximate closeness.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.coding.ber import BerSimulator
from repro.coding.bp import BatchDecodeResult, BeliefPropagationDecoder
from repro.coding.codes import LdpcConvolutionalCode
from repro.coding.protograph import paper_edge_spreading
from repro.coding.window_decoder import WindowDecoder
from repro.phy.frontend import BpskAwgnFrontend

from oracles.ber import simulate_reference


@pytest.fixture(scope="module")
def small_cc():
    return LdpcConvolutionalCode(paper_edge_spreading(), lifting_factor=25,
                                 termination_length=10, rng=0)


def _noisy_llrs(rng, sigma, shape):
    return 2.0 * (1.0 + rng.normal(0.0, sigma, size=shape)) / sigma ** 2


class TestBatchedBp:
    @pytest.mark.parametrize("sigma", [0.6, 0.8, 1.1])
    def test_batch_matches_scalar_on_random_windows(self, small_cc, sigma):
        """Window sub-decoders: batched rows equal scalar decodes exactly.

        ``sigma=1.1`` keeps several codewords from converging, covering
        the iteration-limit path as well as early termination.
        """
        window_decoder = WindowDecoder(small_cc, window_size=4,
                                       max_iterations=25)
        rng = np.random.default_rng(17)
        for target_block in (0, 3, small_cc.termination_length - 1):
            decoder, columns, _ = window_decoder._window_decoder(target_block)
            llrs = _noisy_llrs(rng, sigma, (9, columns.size))
            batch = decoder.decode_batch(llrs)
            assert isinstance(batch, BatchDecodeResult)
            for row in range(llrs.shape[0]):
                scalar = decoder.decode(llrs[row])
                assert np.array_equal(scalar.hard_decisions,
                                      batch.hard_decisions[row])
                assert np.array_equal(scalar.posterior_llrs,
                                      batch.posterior_llrs[row])
                assert scalar.iterations == batch.iterations[row]
                assert scalar.converged == bool(batch.converged[row])

    def test_batch_matches_scalar_on_full_code(self, small_cc):
        decoder = BeliefPropagationDecoder(small_cc.parity_check,
                                           max_iterations=30)
        rng = np.random.default_rng(5)
        llrs = _noisy_llrs(rng, 0.9, (6, small_cc.n))
        batch = decoder.decode_batch(llrs)
        for row in range(6):
            scalar = decoder.decode(llrs[row])
            assert np.array_equal(scalar.hard_decisions,
                                  batch.hard_decisions[row])
            assert np.array_equal(scalar.posterior_llrs,
                                  batch.posterior_llrs[row])

    def test_per_codeword_early_termination(self, small_cc):
        # A clean codeword converges in one iteration even when a noisy
        # one in the same batch needs many more.
        decoder = BeliefPropagationDecoder(small_cc.parity_check,
                                           max_iterations=30)
        rng = np.random.default_rng(2)
        clean = np.full(small_cc.n, 8.0)
        noisy = _noisy_llrs(rng, 1.0, (1, small_cc.n))[0]
        batch = decoder.decode_batch(np.stack([clean, noisy]))
        assert batch.iterations[0] == 1
        assert batch.iterations[1] > batch.iterations[0]

    @pytest.mark.parametrize("wide", [False, True])
    def test_rows_equal_scalar_decodes_as_columns_finish(self, small_cc,
                                                          wide):
        """Columns that converge at once, later or never share a batch
        (wider than one tile when ``wide``): every row still equals its
        own decode while finished columns drop out of the work arrays."""
        window_decoder = WindowDecoder(small_cc, window_size=4,
                                       max_iterations=20)
        decoder, columns, _ = window_decoder._window_decoder(2)
        rng = np.random.default_rng(31)
        rows = decoder._tile_size + 5 if wide else 12
        sigmas = np.resize([0.0, 0.55, 2.0, 0.65], rows)
        llrs = np.stack([np.full(columns.size, 8.0) if sigma == 0.0
                         else _noisy_llrs(rng, sigma, columns.size)
                         for sigma in sigmas])
        batch = decoder.decode_batch(llrs)
        assert batch.iterations.min() == 1
        assert np.any((batch.iterations > 1)
                      & (batch.iterations < decoder.max_iterations))
        assert np.any(~batch.converged)
        for row in range(rows):
            scalar = decoder.decode(llrs[row])
            assert np.array_equal(scalar.posterior_llrs,
                                  batch.posterior_llrs[row])
            assert np.array_equal(scalar.hard_decisions,
                                  batch.hard_decisions[row])
            assert scalar.iterations == batch.iterations[row]
            assert scalar.converged == bool(batch.converged[row])

    def test_decoder_keeps_no_per_batch_arrays(self, small_cc):
        def held_bytes(decoder):
            def size(value):
                if isinstance(value, np.ndarray):
                    return value.nbytes
                if isinstance(value, (list, tuple)):
                    return sum(size(item) for item in value)
                if sparse.issparse(value):
                    return (value.data.nbytes + value.indices.nbytes
                            + value.indptr.nbytes)
                return 0
            return {name: size(value)
                    for name, value in vars(decoder).items()}

        decoder = BeliefPropagationDecoder(small_cc.parity_check,
                                           max_iterations=5)
        fresh = held_bytes(decoder)
        rng = np.random.default_rng(3)
        for rows in (40, 1):
            decoder.decode_batch(_noisy_llrs(rng, 1.0, (rows, small_cc.n)))
            assert held_bytes(decoder) == fresh

    def test_scalar_view(self, small_cc):
        decoder = BeliefPropagationDecoder(small_cc.parity_check)
        batch = decoder.decode_batch(np.full((3, small_cc.n), 8.0))
        assert len(batch) == 3
        view = batch[1]
        assert view.converged
        assert not np.any(view.hard_decisions)

    def test_batch_shape_validation(self, small_cc):
        decoder = BeliefPropagationDecoder(small_cc.parity_check)
        with pytest.raises(ValueError):
            decoder.decode_batch(np.zeros(small_cc.n))
        with pytest.raises(ValueError):
            decoder.decode_batch(np.zeros((2, small_cc.n - 1)))
        with pytest.raises(ValueError):
            decoder.decode_batch(np.zeros((0, small_cc.n)))


class TestBatchedWindowDecoder:
    def test_window_batch_matches_scalar_rows(self, small_cc):
        decoder = WindowDecoder(small_cc, window_size=5, max_iterations=30)
        rng = np.random.default_rng(23)
        llrs = _noisy_llrs(rng, 0.85, (7, small_cc.n))
        batch = decoder.decode_batch(llrs)
        assert batch.hard_decisions.shape == (7, small_cc.n)
        for row in range(7):
            scalar = decoder.decode(llrs[row])
            assert np.array_equal(scalar.hard_decisions,
                                  batch.hard_decisions[row])
            assert np.array_equal(scalar.block_converged,
                                  batch.block_converged[row])
            assert np.array_equal(scalar.iterations_per_block,
                                  batch.iterations_per_block[row])
            assert scalar.structural_latency_bits == \
                batch.structural_latency_bits

    def test_window_batch_scalar_view_and_bits(self, small_cc):
        decoder = WindowDecoder(small_cc, window_size=4)
        llrs = np.full((2, small_cc.n), 8.0)
        batch = decoder.decode_batch(llrs)
        assert len(batch) == 2
        assert np.all(batch[0].block_converged)
        assert np.array_equal(decoder.decode_bits_batch(llrs),
                              batch.hard_decisions)

    def test_window_batch_validation(self, small_cc):
        decoder = WindowDecoder(small_cc, window_size=4)
        with pytest.raises(ValueError):
            decoder.decode_batch(np.zeros(small_cc.n))
        with pytest.raises(ValueError):
            decoder.decode_batch(np.zeros((2, small_cc.n + 1)))


class TestBatchedBerSimulator:
    def test_batched_simulate_equals_reference(self, small_cc):
        decoder = WindowDecoder(small_cc, window_size=5, max_iterations=30)
        simulator = BerSimulator(small_cc.n, small_cc.design_rate,
                                 decoder.decode_bits,
                                 decode_batch=decoder.decode_bits_batch,
                                 batch_size=4)
        batched = simulator.simulate(2.0, n_codewords=10, rng=13)
        reference = simulate_reference(simulator, 2.0, n_codewords=10, rng=13)
        assert batched == reference

    def test_batched_simulate_equals_reference_with_error_stop(self, small_cc):
        decoder = WindowDecoder(small_cc, window_size=5, max_iterations=30)
        simulator = BerSimulator(small_cc.n, small_cc.design_rate,
                                 decoder.decode_bits,
                                 decode_batch=decoder.decode_bits_batch,
                                 batch_size=3)
        batched = simulator.simulate(1.0, n_codewords=12, rng=7,
                                     max_bit_errors=40)
        reference = simulate_reference(simulator, 1.0, n_codewords=12, rng=7,
                                       max_bit_errors=40)
        assert batched == reference
        assert batched.n_codewords < 12

    def test_sweep_equals_simulate_per_point(self, small_cc):
        decoder = WindowDecoder(small_cc, window_size=5, max_iterations=30)
        simulator = BerSimulator(small_cc.n, small_cc.design_rate,
                                 decoder.decode_bits,
                                 decode_batch=decoder.decode_bits_batch,
                                 batch_size=3)
        ebn0s, seeds = [1.0, 2.5, 1.5], [4, 5, 6]
        frontends = [BpskAwgnFrontend(rate=small_cc.design_rate)
                     for _ in ebn0s]
        # 7 codewords per point: two full batches of 3 and one of 1.
        swept = simulator.simulate_sweep(ebn0s, seeds, frontends,
                                         n_codewords=7)
        assert swept == [simulator.simulate(ebn0, n_codewords=7, rng=seed)
                         for ebn0, seed in zip(ebn0s, seeds)]
        with pytest.raises(ValueError, match="does not match"):
            simulator.simulate_sweep([1.0], [0], [BpskAwgnFrontend(rate=1.0)])
        with pytest.raises(ValueError, match="one entry per point"):
            simulator.simulate_sweep(ebn0s, seeds[:2], frontends)
        shared = np.random.default_rng(4)
        with pytest.raises(ValueError, match="its own generator"):
            simulator.simulate_sweep(ebn0s[:2], [shared, shared],
                                     frontends[:2])

    def test_sweep_decodes_one_round_of_batches_at_a_time(self, small_cc):
        # The rows held at once are bounded by points × batch_size,
        # whatever n_codewords: batch r of every point is one call.
        decoder = WindowDecoder(small_cc, window_size=5, max_iterations=30)
        widths = []

        def decode_batch(llrs):
            widths.append(llrs.shape[0])
            return decoder.decode_bits_batch(llrs)

        simulator = BerSimulator(small_cc.n, small_cc.design_rate,
                                 decoder.decode_bits,
                                 decode_batch=decode_batch, batch_size=3)
        frontends = [BpskAwgnFrontend(rate=small_cc.design_rate)
                     for _ in range(3)]
        simulator.simulate_sweep([1.0, 2.5, 1.5], [4, 5, 6], frontends,
                                 n_codewords=7)
        assert widths == [9, 9, 3]

    def test_row_fallback_equals_reference(self):
        # Without a batch decoder, simulate() still batches the noise
        # generation but decodes row by row — same numbers either way.
        simulator = BerSimulator(codeword_length=500, rate=1.0,
                                 decode=lambda llrs: (llrs < 0).astype(int),
                                 batch_size=7)
        batched = simulator.simulate(3.0, n_codewords=20, rng=1)
        reference = simulate_reference(simulator, 3.0, n_codewords=20, rng=1)
        assert batched == reference

    def test_batch_decoder_shape_checked(self):
        simulator = BerSimulator(codeword_length=10, rate=0.5,
                                 decode=lambda llrs: np.zeros(10, dtype=int),
                                 decode_batch=lambda m: np.zeros((1, 10)))
        with pytest.raises(ValueError):
            simulator.simulate(2.0, n_codewords=4, rng=0)
