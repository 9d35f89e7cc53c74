"""Unit tests for repro.phy.channel_model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.channel_model import OversampledOneBitChannel
from repro.phy.modulation import AskConstellation
from repro.phy.pulse import rectangular_pulse, sequence_optimized_pulse


@pytest.fixture
def memory_channel():
    return OversampledOneBitChannel(pulse=sequence_optimized_pulse(),
                                    snr_db=20.0)


@pytest.fixture
def memoryless_channel():
    return OversampledOneBitChannel(pulse=rectangular_pulse(5), snr_db=20.0)


class TestStateBookkeeping:
    def test_state_count(self, memory_channel, memoryless_channel):
        assert memory_channel.n_states == 4
        assert memoryless_channel.n_states == 1

    def test_state_round_trip(self, memory_channel):
        for state in range(memory_channel.n_states):
            symbols = memory_channel.state_to_symbols(state)
            assert memory_channel.symbols_to_state(symbols) == state

    def test_next_state_shifts_in_new_symbol(self, memory_channel):
        # Memory of one symbol: the next state is simply the new input.
        for state in range(4):
            for inp in range(4):
                assert memory_channel.next_state(state, inp) == inp

    def test_next_state_memoryless(self, memoryless_channel):
        assert memoryless_channel.next_state(0, 3) == 0

    def test_two_symbol_memory_state_transition(self):
        pulse = sequence_optimized_pulse()
        taps = np.concatenate([pulse.taps, 0.1 * np.ones(5)])
        from repro.phy.pulse import Pulse

        channel = OversampledOneBitChannel(
            pulse=Pulse(taps=taps, oversampling=5), snr_db=20.0)
        assert channel.n_states == 16
        state = channel.symbols_to_state([2, 3])  # (a_{k-1}=2, a_{k-2}=3)
        next_state = channel.next_state(state, 1)
        np.testing.assert_array_equal(channel.state_to_symbols(next_state),
                                      [1, 2])

    def test_invalid_indices_rejected(self, memory_channel):
        with pytest.raises(ValueError):
            memory_channel.state_to_symbols(99)
        with pytest.raises(ValueError):
            memory_channel.next_state(0, 7)
        with pytest.raises(ValueError):
            memory_channel.next_state(42, 0)
        with pytest.raises(ValueError):
            memory_channel.symbols_to_state([0, 1])


class TestTransitionProbabilities:
    def test_shape(self, memory_channel):
        assert memory_channel.transition_prob_plus.shape == (4, 4, 5)

    def test_probabilities_in_unit_interval(self, memory_channel):
        probs = memory_channel.transition_prob_plus
        assert np.all(probs > 0.0)
        assert np.all(probs < 1.0)

    def test_memoryless_channel_ignores_state(self, memoryless_channel):
        probs = memoryless_channel.transition_prob_plus
        assert probs.shape == (1, 4, 5)

    def test_larger_amplitude_more_likely_positive(self, memoryless_channel):
        probs = memoryless_channel.transition_prob_plus[0]
        # Rect pulse: all taps positive, so P(+1) increases with the level.
        assert np.all(np.diff(probs, axis=0) > 0)

    def test_symmetry_of_antipodal_inputs(self, memoryless_channel):
        probs = memoryless_channel.transition_prob_plus[0]
        # Levels are symmetric: P(+1 | a) = 1 - P(+1 | -a) for the rect pulse.
        np.testing.assert_allclose(probs[0], 1.0 - probs[3], atol=1e-12)
        np.testing.assert_allclose(probs[1], 1.0 - probs[2], atol=1e-12)

    def test_higher_snr_sharper_probabilities(self):
        low = OversampledOneBitChannel(pulse=rectangular_pulse(5), snr_db=0.0)
        high = OversampledOneBitChannel(pulse=rectangular_pulse(5), snr_db=30.0)
        # For the largest amplitude the high-SNR probability is closer to 1.
        assert high.transition_prob_plus[0, 3, 0] > low.transition_prob_plus[0, 3, 0]

    def test_noise_free_signs_match_probabilities(self, memory_channel):
        signs = memory_channel.noise_free_signs()
        probs = memory_channel.transition_prob_plus
        np.testing.assert_array_equal(signs == 1, probs > 0.5)


class TestNoiseConvention:
    def test_oversampling_widens_noise_bandwidth(self):
        no_oversampling = OversampledOneBitChannel(
            pulse=rectangular_pulse(1), snr_db=10.0)
        oversampled = OversampledOneBitChannel(
            pulse=rectangular_pulse(5), snr_db=10.0)
        ratio = oversampled.noise_std ** 2 / no_oversampling.noise_std ** 2
        assert ratio == pytest.approx(5.0)

    def test_snr_definition(self):
        channel = OversampledOneBitChannel(pulse=rectangular_pulse(1),
                                           snr_db=10.0)
        assert channel.noise_std ** 2 == pytest.approx(0.1)


class TestSimulation:
    def test_output_shapes(self, memory_channel):
        indices, signs = memory_channel.simulate(100, rng=0)
        assert indices.shape == (100,)
        assert signs.shape == (100, 5)
        assert set(np.unique(signs)).issubset({-1, 1})

    def test_reproducibility(self, memory_channel):
        a = memory_channel.simulate(64, rng=3)
        b = memory_channel.simulate(64, rng=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_high_snr_signs_match_noise_free_model(self):
        channel = OversampledOneBitChannel(pulse=sequence_optimized_pulse(),
                                           snr_db=60.0)
        indices, signs = channel.simulate(500, rng=1)
        noise_free = channel.noise_free_signs()
        states = channel.state_sequence(indices)
        # Skip the first symbol (different start-up convention).
        mismatches = 0
        for k in range(1, 500):
            expected = noise_free[states[k], indices[k]]
            mismatches += int(np.any(expected != signs[k]))
        assert mismatches <= 5

    def test_state_sequence_consistency(self, memory_channel):
        indices = np.array([0, 1, 2, 3, 1])
        states = memory_channel.state_sequence(indices)
        np.testing.assert_array_equal(states, [0, 0, 1, 2, 3])

    @pytest.mark.parametrize("span", [1, 2, 3, 4])
    def test_state_sequence_matches_the_next_state_loop(self, span):
        # The shift-register arithmetic against the symbol-by-symbol
        # next_state walk it replaced, byte for byte.
        from repro.phy.pulse import ramp_pulse

        channel = OversampledOneBitChannel(
            pulse=ramp_pulse(5, span_symbols=span), snr_db=20.0)
        assert channel.memory == span - 1
        rng = np.random.default_rng(span)
        for size in (0, 1, span, 6000):
            indices = rng.integers(0, channel.order, size)
            expected = np.zeros(size, dtype=int)
            state = 0
            for position, index in enumerate(indices):
                expected[position] = state
                state = channel.next_state(state, int(index))
            states = channel.state_sequence(indices)
            assert states.dtype == expected.dtype
            assert states.tobytes() == expected.tobytes()

    def test_state_sequence_rejects_out_of_range_indices(self,
                                                         memory_channel,
                                                         memoryless_channel):
        with pytest.raises(ValueError, match="out of range"):
            memory_channel.state_sequence([0, 1, 4])
        with pytest.raises(ValueError, match="out of range"):
            memory_channel.state_sequence([-1, 0])
        # Without memory there is no register, and the index is unused.
        np.testing.assert_array_equal(
            memoryless_channel.state_sequence([0, 9]), [0, 0])

    def test_invalid_simulation_length(self, memory_channel):
        with pytest.raises(ValueError):
            memory_channel.simulate(0)

    def test_log_observation_probabilities_shape(self, memory_channel):
        _, signs = memory_channel.simulate(32, rng=0)
        log_obs = memory_channel.log_observation_probabilities(signs)
        assert log_obs.shape == (32, 4, 4)
        assert np.all(log_obs < 0.0)

    def test_log_observation_probabilities_validation(self, memory_channel):
        with pytest.raises(ValueError):
            memory_channel.log_observation_probabilities(np.ones((3, 4)))

    @given(st.integers(min_value=2, max_value=3).map(lambda k: 2 ** k))
    @settings(max_examples=5, deadline=None)
    def test_other_constellation_orders(self, order):
        channel = OversampledOneBitChannel(
            pulse=sequence_optimized_pulse(),
            constellation=AskConstellation(order), snr_db=15.0)
        assert channel.n_states == order
        indices, signs = channel.simulate(50, rng=0)
        assert indices.max() < order
        assert signs.shape == (50, 5)
