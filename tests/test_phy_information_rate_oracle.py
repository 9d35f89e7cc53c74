"""The information-rate forward recursion keeps the retired loop's bytes.

:func:`repro.phy.information_rate._entropy_rate_of_observations` steps
on Python floats; ``oracles.information_rate`` is the per-symbol numpy
loop it replaced.  They must agree in ``float.hex`` on every channel,
SNR and length below, raise the same error on an all-zero step and both
return NaN on a NaN input.  The normaliser helper is pinned against
``np.sum`` for every length up to 300, which covers numpy's sequential,
eight-lane and halving branches.
"""

import numpy as np
import pytest

from oracles.information_rate import entropy_rate_of_observations
from repro.phy.channel_model import OversampledOneBitChannel
from repro.phy.information_rate import (
    _entropy_rate_of_observations,
    _ndarray_sum,
)
from repro.phy.modulation import AskConstellation
from repro.phy.pulse import (
    ramp_pulse,
    rectangular_pulse,
    sequence_optimized_pulse,
    suboptimal_unique_detection_pulse,
    symbolwise_optimized_pulse,
)

SNRS_DB = (-5.0, 0.0, 10.0, 25.0, 35.0)
#: (ASK order, channel memory): 1, 2, 4, 1, 4, 16, 1 and 8 states.
TRELLISES = ((2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (4, 2), (8, 0), (8, 1))


def _pulse(memory):
    return rectangular_pulse(5) if memory == 0 else ramp_pulse(5, memory + 1)


def _observations(pulse, order, snr_db, n_symbols, seed):
    """The channel and the ``log_obs`` ``sequence_information_rate``
    hands the recursion."""
    channel = OversampledOneBitChannel(
        pulse=pulse, constellation=AskConstellation(order), snr_db=snr_db)
    _, signs = channel.simulate(n_symbols, np.random.default_rng(seed))
    log_obs = channel.log_observation_probabilities(signs)
    return channel, log_obs[channel.memory:]


def _both(channel, log_obs):
    return (_entropy_rate_of_observations(channel, log_obs).hex(),
            entropy_rate_of_observations(channel, log_obs).hex())


@pytest.mark.parametrize("n_symbols", (100, 2000, 6000))
@pytest.mark.parametrize("snr_db", SNRS_DB)
@pytest.mark.parametrize("order,memory", TRELLISES)
def test_matches_the_numpy_loop(order, memory, snr_db, n_symbols):
    channel, log_obs = _observations(_pulse(memory), order, snr_db,
                                     n_symbols, seed=n_symbols + memory)
    assert channel.n_states == order ** memory
    new, old = _both(channel, log_obs)
    assert new == old


@pytest.mark.parametrize("make_pulse", (
    rectangular_pulse, ramp_pulse, suboptimal_unique_detection_pulse,
    symbolwise_optimized_pulse, sequence_optimized_pulse))
@pytest.mark.parametrize("snr_db", SNRS_DB)
def test_matches_the_numpy_loop_on_the_paper_pulses(make_pulse, snr_db):
    channel, log_obs = _observations(make_pulse(), 4, snr_db, 6000, seed=1)
    new, old = _both(channel, log_obs)
    assert new == old


def test_matches_the_numpy_loop_over_a_long_block():
    channel, log_obs = _observations(sequence_optimized_pulse(), 4, 15.0,
                                     20_000, seed=7)
    new, old = _both(channel, log_obs)
    assert new == old


@pytest.mark.parametrize("step", (0, 255, 256, 700))
def test_an_all_zero_step_raises_like_the_numpy_loop(step):
    channel, log_obs = _observations(sequence_optimized_pulse(), 4, 10.0,
                                     1000, seed=3)
    log_obs = log_obs.copy()
    log_obs[step] = -np.inf
    with pytest.raises(FloatingPointError):
        entropy_rate_of_observations(channel, log_obs)
    with pytest.raises(FloatingPointError):
        _entropy_rate_of_observations(channel, log_obs)


def test_a_nan_input_returns_nan_like_the_numpy_loop():
    channel, log_obs = _observations(sequence_optimized_pulse(), 4, 10.0,
                                     1000, seed=3)
    log_obs = log_obs.copy()
    log_obs[300, 1, 2] = np.nan
    assert np.isnan(entropy_rate_of_observations(channel, log_obs))
    assert np.isnan(_entropy_rate_of_observations(channel, log_obs))


def test_ndarray_sum_adds_in_numpys_order():
    rng = np.random.default_rng(0)
    for n in range(1, 301):
        for _ in range(4):
            values = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-8, 8, n)
            assert _ndarray_sum(values.tolist()).hex() == \
                float(values.sum()).hex(), n
