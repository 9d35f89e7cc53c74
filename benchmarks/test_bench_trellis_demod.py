"""Vectorized trellis demodulator vs the per-(state, input) Python loop.

The waveform-frontend refactor replaced the Viterbi detector's triple
Python loop with :class:`repro.phy.trellis.TrellisKernel` — NumPy array
operations over the batch and state dimensions, a Python loop only over
symbol periods.  This benchmark records the headline property on the
hardest shipped configuration (4-ASK over a memory-2 pulse, 16 trellis
states) and on the workload the coded-BER-over-waveform pipeline actually
runs — a :class:`repro.coding.ber.BerSimulator`-sized batch of sequences,
which the historical implementation could only detect one at a time:
**the vectorized kernel is at least 10x faster than the loop reference**,
bit-identical decisions included.  The max-log BCJR soft demodulator's
throughput on the same batch (the kernel behind
:class:`repro.phy.frontend.OneBitWaveformFrontend`) is reported alongside.
"""

import time

import numpy as np

from conftest import print_table, run_once
from repro.phy.channel_model import OversampledOneBitChannel
from repro.phy.modulation import AskConstellation
from repro.phy.pulse import ramp_pulse
from repro.phy.trellis import TrellisKernel
from oracles.trellis import viterbi_loop_reference

SEED = 0
N_SYMBOLS = 2_000
BATCH = 16  # the default BerSimulator batch size
SNR_DB = 25.0


def _measure():
    # 4-ASK over a memory-2 pulse: 16 states x 4 inputs = 64 transitions
    # per symbol for the reference loop.
    channel = OversampledOneBitChannel(pulse=ramp_pulse(5, 3),
                                       constellation=AskConstellation(4),
                                       snr_db=SNR_DB)
    assert channel.memory == 2 and channel.n_states == 16
    kernel = TrellisKernel(channel)
    signs = np.stack([channel.simulate(N_SYMBOLS, rng=SEED + row)[1]
                      for row in range(BATCH)])
    log_obs = channel.log_observation_probabilities(signs)

    def best_of(repeats, function):
        best = float("inf")
        value = None
        for _ in range(repeats):
            start = time.perf_counter()
            value = function()
            best = min(best, time.perf_counter() - start)
        return best, value

    reference_s, reference = best_of(
        2, lambda: np.stack([viterbi_loop_reference(channel, log_obs[row])
                             for row in range(BATCH)]))
    vectorized_s, vectorized = best_of(3, lambda: kernel.viterbi(log_obs))
    single_s, _ = best_of(3, lambda: kernel.viterbi(log_obs[0]))
    bcjr_s, _ = best_of(3, lambda: kernel.symbol_log_posteriors(log_obs))
    assert np.array_equal(vectorized, reference)
    return {
        "reference_s": reference_s,
        "vectorized_s": vectorized_s,
        "single_s": single_s,
        "bcjr_s": bcjr_s,
        "speedup": reference_s / vectorized_s,
    }


def test_vectorized_trellis_speedup_at_memory_two(benchmark):
    result = run_once(benchmark, _measure)
    print_table(
        "Trellis demod, 4-ASK / memory-2 / 16 states, "
        f"{BATCH} x {N_SYMBOLS} symbols (best-of-N)",
        "  kernel                        seconds",
        [f"  loop reference (x{BATCH})  {result['reference_s']:12.4f}",
         f"  vectorized batch        {result['vectorized_s']:12.4f}",
         f"  vectorized single seq   {result['single_s']:12.4f}",
         f"  max-log BCJR batch      {result['bcjr_s']:12.4f}",
         f"  speedup                 {result['speedup']:11.1f}x"])
    assert result["speedup"] >= 10.0, result
