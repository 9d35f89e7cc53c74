"""Tests for the resumable BER tally core (repro.coding.ber.BerTally,
simulate_tally, simulate_adaptive) and its fixed-seed regression anchors."""

import numpy as np
import pytest

from repro.coding.ber import (
    BerPoint,
    BerSimulator,
    BerTally,
    batch_seed_sequence,
)
from repro.utils.statistics import StoppingRule

from oracles.ber import simulate_reference


def uncoded_simulator(codeword_length=200, batch_size=8):
    """Cheap hard-decision simulator — plentiful errors, no decoder cost."""
    return BerSimulator(codeword_length=codeword_length, rate=1.0,
                        decode=lambda llrs: (np.asarray(llrs) < 0).astype(int),
                        batch_size=batch_size)


@pytest.fixture(scope="module")
def ldpc_cc_simulator():
    from repro.scenarios.specs import CodingSpec

    spec = CodingSpec(lifting_factor=25, termination_length=10)
    return spec.make_ber_simulator(batch_size=8)


class TestBerTally:
    def test_roundtrip(self):
        tally = BerTally(n_codewords=5, n_bits=1000, n_bit_errors=17,
                         n_frame_errors=3, n_batches=2, truncated=True)
        assert BerTally.from_dict(tally.to_dict()) == tally

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown BerTally field"):
            BerTally.from_dict({"n_codewords": 1, "n_bits": 1,
                                "bogus": 2})

    @pytest.mark.parametrize("field", ["n_codewords", "n_bits",
                                       "n_bit_errors", "n_frame_errors",
                                       "n_batches"])
    def test_from_dict_rejects_bad_counts(self, field):
        with pytest.raises(ValueError, match=field):
            BerTally.from_dict({field: -1})
        with pytest.raises(ValueError, match=field):
            BerTally.from_dict({field: 1.5})

    def test_merge_adds_counts_and_is_sticky_on_truncation(self):
        a = BerTally(n_codewords=2, n_bits=400, n_bit_errors=10,
                     n_frame_errors=1, n_batches=1)
        b = BerTally(n_codewords=3, n_bits=600, n_bit_errors=5,
                     n_frame_errors=2, n_batches=2, truncated=True)
        merged = a.merge(b)
        assert merged is a
        assert a == BerTally(n_codewords=5, n_bits=1000, n_bit_errors=15,
                             n_frame_errors=3, n_batches=3, truncated=True)
        # Sticky: merging a clean tally does not clear the flag.
        a.merge(BerTally())
        assert a.truncated

    def test_copy_is_independent(self):
        a = BerTally(n_codewords=1, n_bits=100, n_bit_errors=2,
                     n_frame_errors=1, n_batches=1)
        b = a.copy()
        b.n_bit_errors += 5
        assert a.n_bit_errors == 2

    def test_rates_on_empty_tally(self):
        tally = BerTally()
        assert tally.bit_error_rate == 0.0
        assert tally.frame_error_rate == 0.0

    def test_to_point(self):
        tally = BerTally(n_codewords=4, n_bits=800, n_bit_errors=8,
                         n_frame_errors=2, n_batches=1, truncated=True)
        point = tally.to_point(2.5)
        assert point == BerPoint(ebn0_db=2.5, bit_error_rate=0.01,
                                 block_error_rate=0.5, n_bits=800,
                                 n_bit_errors=8, n_codewords=4,
                                 truncated=True)

    def test_to_point_rejects_empty_tally(self):
        with pytest.raises(ValueError, match="empty tally"):
            BerTally().to_point(1.0)


class TestSimulateTally:
    def test_two_resumed_calls_equal_one_fixed_count_call(self):
        # simulate() consumes one sequential stream, so appending 8+8
        # codewords on the same generator equals one 16-codeword run.
        sim = uncoded_simulator()
        one_shot = sim.simulate(3.0, n_codewords=16, rng=11)
        tally = BerTally()
        generator = np.random.default_rng(11)
        sim.simulate_tally(3.0, tally, rng=generator, n_codewords=8)
        sim.simulate_tally(3.0, tally, rng=generator, n_codewords=8)
        assert tally.to_point(3.0) == one_shot

    def test_saturated_max_bit_errors_appends_nothing(self):
        sim = uncoded_simulator()
        tally = sim.simulate_tally(0.0, BerTally(), rng=0, n_codewords=8,
                                   max_bit_errors=10)
        assert tally.truncated
        snapshot = tally.copy()
        sim.simulate_tally(0.0, tally, rng=1, n_codewords=8,
                           max_bit_errors=10)
        assert tally == snapshot


class TestFixedSeedRegression:
    """The refactor must be byte-identical to the pre-tally simulate()."""

    @pytest.mark.parametrize("ebn0_db, expected", [
        (1.0, (0.058, 0.8125, 8000, 464, 16)),
        (2.5, (0.004875, 0.125, 8000, 39, 16)),
        (3.5, (0.00275, 0.125, 8000, 22, 16)),
    ])
    def test_ldpc_cc_points_unchanged(self, ldpc_cc_simulator, ebn0_db,
                                      expected):
        # Captured from the pre-refactor implementation at these seeds.
        point = ldpc_cc_simulator.simulate(ebn0_db, n_codewords=16, rng=123)
        ber, bler, n_bits, n_bit_errors, n_codewords = expected
        assert point.bit_error_rate == ber
        assert point.block_error_rate == bler
        assert point.n_bits == n_bits
        assert point.n_bit_errors == n_bit_errors
        assert point.n_codewords == n_codewords
        assert point.truncated is False

    def test_truncated_run_unchanged(self, ldpc_cc_simulator):
        point = ldpc_cc_simulator.simulate(1.0, n_codewords=16, rng=7,
                                           max_bit_errors=50)
        assert point.bit_error_rate == 0.05733333333333333
        assert (point.n_bits, point.n_bit_errors, point.n_codewords) \
            == (1500, 86, 3)
        assert point.truncated is True

    def test_reference_path_agrees_and_reports_truncation(
            self, ldpc_cc_simulator):
        batched = ldpc_cc_simulator.simulate(1.0, n_codewords=16, rng=7,
                                             max_bit_errors=50)
        reference = simulate_reference(
            ldpc_cc_simulator, 1.0, n_codewords=16, rng=7, max_bit_errors=50)
        assert reference == batched


class TestSimulateAdaptive:
    LOOSE = StoppingRule(rel_ci_target=0.4, min_units=8, max_units=512,
                         min_errors=10)
    TIGHT = StoppingRule(rel_ci_target=0.08, min_units=8, max_units=512,
                         min_errors=10)

    def test_stops_once_rule_satisfied(self):
        sim = uncoded_simulator()
        tally = sim.simulate_adaptive(3.0, self.LOOSE,
                                      np.random.SeedSequence(0))
        assert self.LOOSE.satisfied(tally.n_bit_errors, tally.n_bits,
                                    tally.n_codewords)
        assert tally.n_codewords == tally.n_batches * sim.batch_size

    def test_resumed_tally_equals_one_shot(self):
        # The tentpole property: run to a loose target, store, resume to
        # a tight target — identical to running the tight target cold.
        sim = uncoded_simulator()
        root = np.random.SeedSequence(42, spawn_key=(3,))
        loose = sim.simulate_adaptive(3.0, self.LOOSE, root)
        stored = BerTally.from_dict(loose.to_dict())   # JSON round-trip
        resumed = sim.simulate_adaptive(3.0, self.TIGHT, root,
                                        tally=stored)
        one_shot = sim.simulate_adaptive(3.0, self.TIGHT, root)
        assert resumed == one_shot
        assert resumed.n_codewords > loose.n_codewords

    def test_ldpc_cc_resume_identity(self, ldpc_cc_simulator):
        root = np.random.SeedSequence(42, spawn_key=(3,))
        loose = ldpc_cc_simulator.simulate_adaptive(1.5, self.LOOSE, root)
        resumed = ldpc_cc_simulator.simulate_adaptive(
            1.5, self.TIGHT, root, tally=loose.copy())
        one_shot = ldpc_cc_simulator.simulate_adaptive(1.5, self.TIGHT,
                                                       root)
        assert resumed == one_shot
        assert resumed.n_codewords > loose.n_codewords

    def test_max_units_caps_the_run(self):
        sim = uncoded_simulator(codeword_length=50)
        rule = StoppingRule(rel_ci_target=1e-9, min_units=1, max_units=12,
                            min_errors=10**9)
        tally = sim.simulate_adaptive(3.0, rule, np.random.SeedSequence(1))
        # The cap is soft — checked at batch boundaries.
        assert tally.n_codewords == 16
        assert tally.n_batches == 2

    def test_accepts_plain_seed_material(self):
        sim = uncoded_simulator()
        a = sim.simulate_adaptive(3.0, self.LOOSE, 17)
        b = sim.simulate_adaptive(3.0, self.LOOSE,
                                  np.random.SeedSequence(17))
        assert a == b


class TestSimulateBatches:
    def test_merged_shards_equal_the_adaptive_tally(self):
        # The sharded-dispatch identity: per-index batch tallies merged
        # in index order reproduce simulate_adaptive byte for byte.
        sim = uncoded_simulator()
        root = np.random.SeedSequence(42, spawn_key=(3,))
        adaptive = sim.simulate_adaptive(3.0, TestSimulateAdaptive.LOOSE,
                                         root)
        shards = sim.simulate_batches(3.0, root,
                                      range(adaptive.n_batches))
        merged = BerTally()
        for shard in shards:
            merged = merged.merge(shard)
        assert merged == adaptive
        assert merged.to_dict() == adaptive.to_dict()

    def test_indices_are_independent_of_call_grouping(self):
        # Batch b depends only on (params, root, b): computing indices
        # one at a time equals computing them in one call.
        sim = uncoded_simulator()
        root = np.random.SeedSequence(7)
        together = sim.simulate_batches(3.0, root, [0, 1, 2, 3])
        separate = [sim.simulate_batches(3.0, root, [index])[0]
                    for index in (0, 1, 2, 3)]
        assert [tally.to_dict() for tally in together] \
            == [tally.to_dict() for tally in separate]
        assert all(tally.n_batches == 1 for tally in together)


class TestBatchSeedSequence:
    def test_matches_spawned_children_without_mutating_root(self):
        root = np.random.SeedSequence(99, spawn_key=(2,))
        derived = [batch_seed_sequence(root, b) for b in range(3)]
        spawned = np.random.SeedSequence(99, spawn_key=(2,)).spawn(3)
        for ours, theirs in zip(derived, spawned):
            assert ours.entropy == theirs.entropy
            assert tuple(ours.spawn_key) == tuple(theirs.spawn_key)
        assert root.n_children_spawned == 0
