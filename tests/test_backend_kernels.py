"""The hot kernels vs. historical captures: bit-exactness and tolerances.

``tests/data/preseam_digests.json`` holds SHA-256 digests (and, for the
NoC engine, stringified result fields) captured from the kernels before
they were tiled and given a dtype knob, at fixed seeds.  The tests here
recompute the same workloads through the current code at the default
float64 and require byte-identical output.

The float32 message path is held to a statistical tolerance instead
(bit-agreement fraction on hard decisions), matching the methodology
note in ``EXPERIMENTS.md``.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.coding.codes import LdpcConvolutionalCode
from repro.coding.protograph import paper_edge_spreading
from repro.coding.window_decoder import WindowDecoder
from repro.noc.simulator import NocSimulator
from repro.noc.topology import Mesh2D, Mesh3D
from repro.noc.traffic import HotspotTraffic, TransposeTraffic
from repro.phy.channel_model import OversampledOneBitChannel
from repro.phy.modulation import AskConstellation
from repro.phy.pulse import ramp_pulse, sequence_optimized_pulse
from repro.phy.trellis import TrellisKernel

_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "preseam_digests.json")
    .read_text())


def _digest(*arrays):
    """SHA-256 over dtype + shape + raw bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _paper_code():
    return LdpcConvolutionalCode(paper_edge_spreading(), lifting_factor=25,
                                 termination_length=10, rng=0)


def _window_workload(code):
    """The fixed-seed BP workload captured pre-seam: window sub-decoder 3."""
    wd = WindowDecoder(code, window_size=4, max_iterations=25)
    decoder, columns, _ = wd._window_decoder(3)
    rng = np.random.default_rng(2026)
    sigma = 0.85
    llrs = 2.0 * (1.0 + rng.normal(0.0, sigma, size=(12, columns.size))) \
        / sigma ** 2
    return wd, decoder, llrs


_TRELLIS_CONFIGS = {
    "seqopt4": (sequence_optimized_pulse, (), 4, 15.0),
    "ramp53_2": (ramp_pulse, (5, 3), 2, 10.0),
}


def _trellis_workload(name):
    pulse_fn, pulse_args, order, snr = _TRELLIS_CONFIGS[name]
    channel = OversampledOneBitChannel(pulse=pulse_fn(*pulse_args),
                                       constellation=AskConstellation(order),
                                       snr_db=snr)
    signs = np.stack([channel.simulate(160, rng=seed)[1]
                      for seed in range(4)])
    return channel, signs


_NOC_STAT_FIELDS = ("accepted_throughput", "delivered_packets",
                    "injection_rate", "mean_latency_cycles",
                    "offered_packets", "retransmitted_flits", "saturated")


def _noc_stats(result):
    return {k: str(getattr(result, k)) for k in _NOC_STAT_FIELDS}


class TestPreSeamBitExactness:
    """The default float64 kernels must reproduce the captures exactly."""

    def test_bp_decode_batch_matches_preseam_digest(self):
        _, decoder, llrs = _window_workload(_paper_code())
        res = decoder.decode_batch(llrs)
        assert _digest(res.posterior_llrs, res.hard_decisions,
                       res.iterations) == _DIGESTS["bp_decode_batch"]

    def test_window_decode_batch_matches_preseam_digest(self):
        code = _paper_code()
        wd = WindowDecoder(code, window_size=4, max_iterations=25)
        rng = np.random.default_rng(99)
        full = 2.0 * (1.0 + rng.normal(
            0.0, 0.8, size=(6, code.block_length * code.termination_length))) \
            / 0.8 ** 2
        wres = wd.decode_batch(full)
        assert _digest(wres.hard_decisions, wres.block_converged,
                       wres.iterations_per_block) \
            == _DIGESTS["window_decode_batch"]

    @pytest.mark.parametrize("name", sorted(_TRELLIS_CONFIGS))
    def test_trellis_matches_preseam_digests(self, name):
        channel, signs = _trellis_workload(name)
        kernel = TrellisKernel(channel)
        log_obs = channel.log_observation_probabilities(signs)
        assert _digest(log_obs) == _DIGESTS[f"trellis_{name}_log_obs"]
        assert _digest(kernel.viterbi(log_obs)) \
            == _DIGESTS[f"trellis_{name}_viterbi"]
        assert _digest(kernel.symbol_log_posteriors(log_obs)) \
            == _DIGESTS[f"trellis_{name}_bcjr"]

    def test_noc_lossless_matches_preseam_stats(self):
        sim = NocSimulator(Mesh3D(4, 4, 4))
        result = sim.run(0.06, n_cycles=3000, warmup_cycles=500, rng=7)
        assert _noc_stats(result) == _DIGESTS["noc_mesh3d_lossless"]

    def test_noc_lossy_matches_preseam_stats(self):
        sim = NocSimulator(Mesh2D(4, 4), traffic_class=TransposeTraffic,
                           link_error_rate=0.02)
        result = sim.run(0.08, n_cycles=3000, warmup_cycles=500, rng=11)
        assert _noc_stats(result) == _DIGESTS["noc_mesh2d_lossy"]


class TestRepeatCallRegression:
    """Cached per-instance state must not leak between decode calls."""

    def test_bp_second_call_identical_to_fresh_instance(self):
        code = _paper_code()
        _, decoder, llrs = _window_workload(code)
        decoder.decode_batch(llrs)          # populate / dirty any caches
        repeat = decoder.decode_batch(llrs)
        _, fresh, _ = _window_workload(code)
        once = fresh.decode_batch(llrs)
        assert _digest(repeat.posterior_llrs, repeat.hard_decisions,
                       repeat.iterations) \
            == _digest(once.posterior_llrs, once.hard_decisions,
                       once.iterations)

    def test_trellis_second_call_identical_to_fresh_instance(self):
        channel, signs = _trellis_workload("seqopt4")
        log_obs = channel.log_observation_probabilities(signs)
        kernel = TrellisKernel(channel)
        kernel.viterbi(log_obs)
        kernel.symbol_log_posteriors(log_obs)
        fresh = TrellisKernel(channel)
        assert _digest(kernel.viterbi(log_obs)) \
            == _digest(fresh.viterbi(log_obs))
        assert _digest(kernel.symbol_log_posteriors(log_obs)) \
            == _digest(fresh.symbol_log_posteriors(log_obs))


class TestFloat32Tolerance:
    """float32 message path: statistical agreement, not bit-identity."""

    def test_bp_float32_hard_decision_agreement(self):
        code = _paper_code()
        wd = WindowDecoder(code, window_size=4, max_iterations=25)
        decoder64, columns, _ = wd._window_decoder(3)
        wd32 = WindowDecoder(code, window_size=4, max_iterations=25,
                             dtype="float32")
        decoder32, _, _ = wd32._window_decoder(3)
        rng = np.random.default_rng(2026)
        sigma = 0.85
        llrs = 2.0 * (1.0 + rng.normal(0.0, sigma, size=(12, columns.size))) \
            / sigma ** 2
        bits64 = decoder64.decode_batch(llrs).hard_decisions
        bits32 = decoder32.decode_batch(llrs).hard_decisions
        assert bits32.shape == bits64.shape
        assert np.mean(bits32 == bits64) >= 0.99

    def test_trellis_float32_decision_agreement(self):
        channel, signs = _trellis_workload("seqopt4")
        log_obs = channel.log_observation_probabilities(signs)
        kernel64 = TrellisKernel(channel)
        kernel32 = TrellisKernel(channel, dtype="float32")
        vit64 = kernel64.viterbi(log_obs)
        vit32 = kernel32.viterbi(log_obs)
        assert np.mean(vit32 == vit64) >= 0.99
        app64 = kernel64.symbol_log_posteriors(log_obs)
        app32 = kernel32.symbol_log_posteriors(log_obs)
        assert np.mean(np.argmax(app32, axis=-1)
                       == np.argmax(app64, axis=-1)) >= 0.99


class TestNocBatchBitIdentity:
    """run_batch must be bit-identical to sequential solo runs."""

    @pytest.mark.parametrize("lossy", [False, True],
                             ids=["lossless", "lossy"])
    def test_run_batch_matches_sequential_solo(self, lossy):
        def make_sim():
            if lossy:
                return NocSimulator(Mesh2D(4, 4),
                                    traffic_class=TransposeTraffic,
                                    link_error_rate=0.02)
            return NocSimulator(Mesh3D(4, 4, 4))

        rate = 0.08 if lossy else 0.06
        seeds = [7, 19, 101]
        solo = [make_sim().run(rate, n_cycles=1500, warmup_cycles=300, rng=s)
                for s in seeds]
        batch = make_sim().run_batch(rate, n_cycles=1500, warmup_cycles=300,
                                     rngs=seeds)
        assert len(batch) == len(solo)
        for a, b in zip(solo, batch):
            assert _noc_stats(a) == _noc_stats(b)

    def test_mixed_batch_matches_each_solo_run(self):
        # One merged loop over replications that differ in everything a
        # simulator holds: two topologies, transpose and hotspot traffic,
        # a finite buffer depth, a lossy link, latencies and rates.
        replications = [
            (NocSimulator(Mesh2D(4, 4), traffic_class=TransposeTraffic),
             0.08, 7),
            (NocSimulator(Mesh3D(3, 3, 3), traffic_class=HotspotTraffic,
                          buffer_depth_flits=2), 0.05, 19),
            (NocSimulator(Mesh2D(4, 4), traffic_class=HotspotTraffic,
                          link_error_rate=0.05), 0.04, 101),
            (NocSimulator(Mesh3D(3, 3, 3), traffic_class=TransposeTraffic,
                          buffer_depth_flits=1, link_error_rate=0.1,
                          pipeline_latency_cycles=3,
                          link_latency_cycles=1), 0.2, 5),
        ]
        solo = [simulator.run(rate, n_cycles=1200, warmup_cycles=200,
                              rng=seed)
                for simulator, rate, seed in replications]
        simulators, rates, seeds = zip(*replications)
        batch = simulators[0].run_batch(rates, n_cycles=1200,
                                        warmup_cycles=200, rngs=seeds,
                                        simulators=simulators)
        assert [result.retransmitted_flits > 0 for result in solo] \
            == [False, False, True, True]
        assert batch == solo
        assert [_noc_stats(result) for result in batch] \
            == [_noc_stats(result) for result in solo]
