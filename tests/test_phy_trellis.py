"""Tests for the vectorized trellis kernel (repro.phy.trellis)."""

import numpy as np
import pytest

from repro.phy.channel_model import OversampledOneBitChannel
from repro.phy.modulation import AskConstellation
from repro.phy.pulse import ramp_pulse, rectangular_pulse, \
    sequence_optimized_pulse
from repro.phy.receiver import SymbolBySymbolDetector, ViterbiSequenceDetector
from repro.phy.trellis import TrellisKernel

from oracles.trellis import detect_reference, viterbi_loop_reference


def _channel(pulse, snr_db, order=4):
    return OversampledOneBitChannel(pulse=pulse,
                                    constellation=AskConstellation(order),
                                    snr_db=snr_db)


CONFIGURATIONS = (
    # (pulse, order, snr_db) — memory 1 @ 4-ASK, memory 2 @ 4-ASK,
    # memory 2 @ 2-ASK, short oversampling.
    (sequence_optimized_pulse(), 4, 15.0),
    (ramp_pulse(5, 3), 4, 20.0),
    (ramp_pulse(5, 3), 2, 10.0),
    (ramp_pulse(3, 2), 4, 8.0),
)


class TestVectorizedViterbi:
    @pytest.mark.parametrize("pulse,order,snr_db", CONFIGURATIONS)
    def test_matches_loop_reference_on_random_sequences(self, pulse, order,
                                                        snr_db):
        channel = _channel(pulse, snr_db, order)
        kernel = TrellisKernel(channel)
        for seed in range(3):
            _, signs = channel.simulate(120, rng=seed)
            log_obs = channel.log_observation_probabilities(signs)
            vectorized = kernel.viterbi(log_obs)
            reference = viterbi_loop_reference(channel, log_obs)
            np.testing.assert_array_equal(vectorized, reference)

    def test_detector_uses_vectorized_kernel_and_matches_reference(self):
        channel = _channel(sequence_optimized_pulse(), 18.0)
        _, signs = channel.simulate(400, rng=7)
        detector = ViterbiSequenceDetector(channel)
        np.testing.assert_array_equal(detector.detect(signs),
                                      detect_reference(detector, signs))

    def test_batch_equals_scalar(self):
        channel = _channel(ramp_pulse(5, 3), 14.0)
        detector = ViterbiSequenceDetector(channel)
        signs = np.stack([channel.simulate(80, rng=seed)[1]
                          for seed in range(5)])
        batch = detector.detect(signs)
        assert batch.shape == (5, 80)
        for row in range(5):
            np.testing.assert_array_equal(batch[row],
                                          detector.detect(signs[row]))

    def test_batched_symbol_error_rate_skips_each_rows_transient(self):
        # Regression: with a (B, n) batch the skip must discard the first
        # `memory` symbols of EVERY row, not just of the flattened stream.
        channel = _channel(sequence_optimized_pulse(), 30.0)
        detector = ViterbiSequenceDetector(channel)
        pairs = [channel.simulate(200, rng=seed) for seed in range(4)]
        indices = np.stack([indices for indices, _ in pairs])
        signs = np.stack([signs for _, signs in pairs])
        batched = detector.symbol_error_rate(indices, signs)
        per_row = np.mean([detector.symbol_error_rate(*pair)
                           for pair in pairs])
        assert batched == pytest.approx(per_row)

    def test_memoryless_channel_reduces_to_argmax(self):
        channel = _channel(rectangular_pulse(1), 12.0, order=2)
        assert channel.memory == 0
        kernel = TrellisKernel(channel)
        _, signs = channel.simulate(50, rng=0)
        log_obs = channel.log_observation_probabilities(signs)
        np.testing.assert_array_equal(kernel.viterbi(log_obs),
                                      np.argmax(log_obs[:, 0, :], axis=-1))

    def test_non_canonical_trellis_rejected(self):
        class ReversedRegister(OversampledOneBitChannel):
            # Shifts the new symbol in at the other end of the register.
            def next_state(self, state, input_index):
                return (state * self.order + input_index) % self.n_states

        channel = ReversedRegister(pulse=ramp_pulse(5, 3),
                                   constellation=AskConstellation(4),
                                   snr_db=10.0)
        with pytest.raises(ValueError, match="canonical shift register"):
            TrellisKernel(channel)

    def test_invalid_shapes_and_initial_rejected(self):
        channel = _channel(sequence_optimized_pulse(), 15.0)
        kernel = TrellisKernel(channel)
        with pytest.raises(ValueError):
            kernel.viterbi(np.zeros((4, 4)))
        _, signs = channel.simulate(10, rng=0)
        log_obs = channel.log_observation_probabilities(signs)
        with pytest.raises(ValueError):
            kernel.viterbi(log_obs, initial="magic")


class TestMaxLogBcjr:
    def test_posterior_argmax_tracks_viterbi_at_high_snr(self):
        # At high SNR the max-log APP argmax and the ML sequence agree on
        # (essentially) every symbol.
        channel = _channel(sequence_optimized_pulse(), 30.0)
        kernel = TrellisKernel(channel)
        indices, signs = channel.simulate(600, rng=3)
        log_obs = channel.log_observation_probabilities(signs)
        app = kernel.symbol_log_posteriors(log_obs)
        soft = np.argmax(app, axis=-1)
        hard = kernel.viterbi(log_obs)
        assert np.mean(soft != hard) < 0.01
        assert np.mean(soft != indices) < 0.01

    def test_batch_equals_scalar(self):
        channel = _channel(ramp_pulse(5, 3), 12.0)
        kernel = TrellisKernel(channel)
        signs = np.stack([channel.simulate(60, rng=seed)[1]
                          for seed in range(4)])
        log_obs = channel.log_observation_probabilities(signs)
        batch = kernel.symbol_log_posteriors(log_obs)
        assert batch.shape == (4, 60, channel.order)
        for row in range(4):
            np.testing.assert_allclose(
                batch[row], kernel.symbol_log_posteriors(log_obs[row]),
                atol=1e-12)

    def test_rows_are_normalised_to_zero_max(self):
        channel = _channel(sequence_optimized_pulse(), 10.0)
        kernel = TrellisKernel(channel)
        _, signs = channel.simulate(40, rng=1)
        app = kernel.symbol_log_posteriors(
            channel.log_observation_probabilities(signs))
        np.testing.assert_allclose(app.max(axis=-1), 0.0, atol=1e-12)
        assert np.all(app <= 1e-12)


class TestSymbolwiseMarginals:
    def test_matches_naive_mean_when_no_underflow(self):
        channel = _channel(sequence_optimized_pulse(), 12.0)
        kernel = TrellisKernel(channel)
        _, signs = channel.simulate(100, rng=2)
        log_obs = channel.log_observation_probabilities(signs)
        naive = np.log(np.exp(log_obs).mean(axis=1))
        np.testing.assert_allclose(kernel.symbolwise_log_marginals(log_obs),
                                   naive, atol=1e-9)

    def test_underflow_regression_high_snr_long_blocks(self):
        # 30 samples/symbol at 40 dB SNR: wrong-candidate observation
        # log-probabilities reach ~30 * log(1e-12) ~ -830, so the
        # historical log(exp(.).mean()) underflowed to -inf (premise
        # asserted below).  The logsumexp path must stay finite and never
        # divide-by-zero inside np.log.
        channel = _channel(ramp_pulse(30, 2), 40.0)
        detector = SymbolBySymbolDetector(channel)
        indices, signs = channel.simulate(400, rng=0)
        log_obs = channel.log_observation_probabilities(signs)
        with np.errstate(divide="ignore"):
            naive = np.log(np.exp(log_obs).mean(axis=1))
        assert np.isinf(naive).any(), "premise: the naive path underflows"
        with np.errstate(divide="raise"):
            decisions = detector.detect(signs)
        marginal = TrellisKernel(channel).symbolwise_log_marginals(log_obs)
        assert np.all(np.isfinite(marginal))
        # The decisions are real detections, not argmax-of-ties zeros.
        assert len(np.unique(decisions)) > 1
        assert detector.symbol_error_rate(indices, signs) < 0.5
