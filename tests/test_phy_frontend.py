"""Tests for the channel frontends and their BerSimulator integration."""

import pickle

import numpy as np
import pytest

from repro.coding.ber import BerSimulator
from repro.phy.frontend import (
    BpskAwgnFrontend,
    ChannelFrontend,
    OneBitWaveformFrontend,
)
from repro.phy.pulse import ramp_pulse, sequence_optimized_pulse
from repro.scenarios.specs import CodingSpec, PhySpec

from oracles.ber import simulate_reference


@pytest.fixture(scope="module")
def small_coding():
    return CodingSpec(lifting_factor=25, termination_length=10)


class TestProtocol:
    def test_both_frontends_satisfy_the_protocol(self):
        assert isinstance(BpskAwgnFrontend(), ChannelFrontend)
        assert isinstance(OneBitWaveformFrontend(), ChannelFrontend)

    def test_metadata(self):
        bpsk = BpskAwgnFrontend(rate=0.5)
        assert bpsk.bits_per_channel_use == 1.0
        assert bpsk.samples_per_bit == 1.0
        waveform = OneBitWaveformFrontend(rate=0.5)
        assert waveform.bits_per_channel_use == 2.0  # 4-ASK
        assert waveform.samples_per_bit == pytest.approx(2.5)  # 5x / 2 bits

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            BpskAwgnFrontend(rate=0.0)
        with pytest.raises(ValueError):
            OneBitWaveformFrontend(rate=1.5)
        with pytest.raises(ValueError):
            OneBitWaveformFrontend(detector="magic")


class TestBpskAwgnFrontend:
    def test_bit_exact_with_legacy_noise_path(self):
        # The frontend must consume the generator stream exactly like the
        # pre-frontend BerSimulator: one (B, n) normal draw, received =
        # 1 + noise for the all-zero codeword, llr = 2 r / sigma^2.
        frontend = BpskAwgnFrontend(rate=0.5)
        bits = np.zeros((6, 64), dtype=np.int8)
        llrs = frontend.transmit_llrs(bits, 2.5, np.random.default_rng(11))
        sigma = frontend.noise_std(2.5)
        received = 1.0 + np.random.default_rng(11).normal(
            0.0, sigma, size=(6, 64))
        np.testing.assert_array_equal(llrs, 2.0 * received / sigma ** 2)

    def test_nonzero_bits_flip_the_sign(self):
        frontend = BpskAwgnFrontend(rate=1.0)
        ones = frontend.transmit_llrs(np.ones((2, 50), dtype=int), 10.0,
                                      rng=0)
        zeros = frontend.transmit_llrs(np.zeros((2, 50), dtype=int), 10.0,
                                       rng=0)
        # Same noise draw, opposite signal sign: bit-1 rows skew negative.
        assert ones.mean() < 0 < zeros.mean()

    def test_one_dimensional_input_round_trips(self):
        frontend = BpskAwgnFrontend()
        llrs = frontend.transmit_llrs(np.zeros(40, dtype=int), 3.0, rng=0)
        assert llrs.shape == (40,)


class TestBerSimulatorIntegration:
    def test_default_path_is_byte_identical_to_pre_frontend_results(
            self, small_coding):
        """Acceptance: the default BerSimulator path is unchanged.

        ``simulate_reference`` is the pre-batching (and pre-frontend)
        implementation, kept as an oracle; the batched default path must keep
        returning the identical BerPoint at a fixed seed now that it
        routes through BpskAwgnFrontend.
        """
        simulator = small_coding.make_ber_simulator(batch_size=4)
        batched = simulator.simulate(2.0, n_codewords=6, rng=42)
        reference = simulate_reference(simulator, 2.0, n_codewords=6, rng=42)
        assert batched == reference
        # And passing the frontend explicitly changes nothing either.
        explicit = small_coding.make_ber_simulator(
            batch_size=4, frontend=BpskAwgnFrontend(rate=0.5))
        assert explicit.simulate(2.0, n_codewords=6, rng=42) == batched

    def test_frontend_rate_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            BerSimulator(codeword_length=10, rate=0.5,
                         decode=lambda llrs: np.zeros(10, dtype=int),
                         frontend=BpskAwgnFrontend(rate=0.25))

    def test_waveform_frontend_costs_positive_finite_ebn0_offset(
            self, small_coding):
        """Acceptance: the waveform coded BER curve sits a positive,
        finite Eb/N0 offset right of the BPSK/AWGN baseline."""
        bpsk = small_coding.make_ber_simulator(batch_size=8)
        waveform = small_coding.make_ber_simulator(
            batch_size=8, frontend=OneBitWaveformFrontend(rate=0.5))
        mid_db = 3.5  # comfortably above the BPSK waterfall
        bpsk_mid = bpsk.simulate(mid_db, n_codewords=8, rng=0)
        wave_mid = waveform.simulate(mid_db, n_codewords=8, rng=0)
        # Positive offset: where the baseline is (quasi) error-free the
        # real PHY still fails badly...
        assert bpsk_mid.bit_error_rate < 1e-3
        assert wave_mid.bit_error_rate > 0.05
        # ...and finite offset: a bounded number of extra dB closes it.
        wave_high = waveform.simulate(16.0, n_codewords=8, rng=0)
        assert wave_high.bit_error_rate < 1e-3

    def test_bcjr_beats_symbolwise_soft_demod(self, small_coding):
        ebn0_db = 14.0
        results = {}
        for detector in ("bcjr", "symbolwise"):
            simulator = small_coding.make_ber_simulator(
                batch_size=8,
                frontend=OneBitWaveformFrontend(rate=0.5, detector=detector))
            results[detector] = simulator.simulate(
                ebn0_db, n_codewords=8, rng=0).bit_error_rate
        assert results["bcjr"] < results["symbolwise"]


class TestOneBitWaveformFrontend:
    def test_llr_shape_and_padding_of_odd_lengths(self):
        frontend = OneBitWaveformFrontend(rate=0.5)
        bits = np.random.default_rng(0).integers(0, 2, size=(3, 101))
        llrs = frontend.transmit_llrs(bits, 12.0, rng=1)
        assert llrs.shape == (3, 101)
        assert np.all(np.isfinite(llrs))

    def test_llrs_favour_the_transmitted_bits_at_high_ebn0(self):
        frontend = OneBitWaveformFrontend(rate=0.5)
        bits = np.random.default_rng(1).integers(0, 2, size=(4, 300))
        llrs = frontend.transmit_llrs(bits, 24.0, rng=2)
        agreement = np.mean((llrs < 0) == bits)
        assert agreement > 0.9

    def test_scrambler_decorrelates_the_all_zero_codeword(self):
        # Without scrambling the all-zero word rides a constant
        # lowest-amplitude line — an unrepresentative best case whose
        # LLRs are systematically stronger than a uniform payload's.
        scrambled = OneBitWaveformFrontend(rate=0.5, scramble=True)
        raw = OneBitWaveformFrontend(rate=0.5, scramble=False)
        zeros = np.zeros((6, 400), dtype=np.int8)
        llr_scrambled = scrambled.transmit_llrs(zeros, 10.0, rng=3)
        llr_raw = raw.transmit_llrs(zeros, 10.0, rng=3)
        err_scrambled = np.mean(llr_scrambled < 0)
        err_raw = np.mean(llr_raw < 0)
        assert err_scrambled > err_raw

    def test_reproducible_for_fixed_seed(self):
        frontend = OneBitWaveformFrontend(rate=0.5)
        bits = np.zeros((2, 100), dtype=np.int8)
        first = frontend.transmit_llrs(bits, 8.0, rng=5)
        second = frontend.transmit_llrs(bits, 8.0, rng=5)
        np.testing.assert_array_equal(first, second)

    def test_channel_cache_reused_and_dropped_on_pickle(self):
        frontend = OneBitWaveformFrontend(rate=0.5)
        bits = np.zeros((1, 50), dtype=np.int8)
        frontend.transmit_llrs(bits, 8.0, rng=0)
        channel = frontend.channel(8.0)
        assert frontend.channel(8.0) is channel
        clone = pickle.loads(pickle.dumps(frontend))
        assert clone._channels == {}
        np.testing.assert_array_equal(
            clone.transmit_llrs(bits, 8.0, rng=0),
            frontend.transmit_llrs(bits, 8.0, rng=0))

    def test_custom_pulse_memory_two(self):
        frontend = OneBitWaveformFrontend(pulse=ramp_pulse(5, 3), rate=0.5)
        bits = np.random.default_rng(2).integers(0, 2, size=(2, 60))
        llrs = frontend.transmit_llrs(bits, 15.0, rng=0)
        assert llrs.shape == (2, 60)
        assert np.all(np.isfinite(llrs))


class TestPhySpecFrontendBuilders:
    def test_make_frontend_kinds(self):
        spec = PhySpec()
        assert isinstance(spec.make_frontend(rate=0.5), BpskAwgnFrontend)
        waveform = spec.make_frontend(rate=0.5, kind="one-bit-waveform")
        assert isinstance(waveform, OneBitWaveformFrontend)
        assert waveform.detector == "bcjr"
        assert waveform.pulse.name == sequence_optimized_pulse().name

    def test_spec_fields_thread_through(self):
        spec = PhySpec(frontend="one-bit-waveform", detector="symbolwise",
                       modulation_order=2)
        frontend = spec.make_frontend(rate=0.5)
        assert isinstance(frontend, OneBitWaveformFrontend)
        assert frontend.detector == "symbolwise"
        assert frontend.constellation.order == 2

    def test_new_field_validation(self):
        with pytest.raises(ValueError):
            PhySpec(modulation_order=3)
        with pytest.raises(ValueError):
            PhySpec(detector="magic")
        with pytest.raises(ValueError):
            PhySpec(frontend="carrier-pigeon")
        with pytest.raises(ValueError):
            PhySpec().make_frontend(rate=0.5, kind="carrier-pigeon")
