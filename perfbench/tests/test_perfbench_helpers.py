"""Unit tests of the benchmark's pure helpers (fast; no scenario runs).

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

from perfbench.checks import check_result, load_reference  # noqa: E402
from perfbench.helpers import (  # noqa: E402
    fastest_total,
    min_samples_for_percentile,
    percentile,
    quietest_percentile,
    self_times,
    served_schedule,
    tail_percentile,
    wilson_interval,
)

SCENARIOS = ("a", "b", "c")


class TestTailPercentileRule:
    def test_ten_samples_must_lie_beyond_the_percentile(self):
        assert min_samples_for_percentile(90.0) == 100
        assert min_samples_for_percentile(95.0) == 200
        assert min_samples_for_percentile(99.0) == 1000
        assert min_samples_for_percentile(50.0) == 20

    def test_tail_percentile_refuses_short_samples(self):
        samples = [float(i) for i in range(99)]
        with pytest.raises(ValueError):
            tail_percentile(samples, 90.0)
        samples.append(99.0)
        assert tail_percentile(samples, 90.0) == pytest.approx(89.1)

    def test_percentile_interpolates_like_numpy(self):
        assert percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.5
        assert percentile([5.0], 90.0) == 5.0

    def test_quietest_block_sets_the_percentile(self):
        quiet = [1.0] * 100
        slowed = [1.0] * 40 + [2.0] * 60
        assert quietest_percentile([slowed, quiet], 50.0) == 1.0
        with pytest.raises(ValueError):
            quietest_percentile([quiet, quiet[:50]], 90.0)


class TestFastestTotal:
    def test_each_part_is_taken_at_its_quickest(self):
        passes = [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 1.5}]
        assert fastest_total(passes) == 1.0 + 1.5

    def test_one_pass_is_its_own_total(self):
        assert fastest_total([{"a": 1.0, "b": 4.0}]) == 5.0

    def test_passes_over_different_parts_are_refused(self):
        with pytest.raises(ValueError):
            fastest_total([{"a": 1.0, "b": 5.0}, {"a": 4.0}])


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            {"id": 1, "parent": None, "start": 0, "end": 100},
            {"id": 2, "parent": 1, "start": 10, "end": 40},
            {"id": 3, "parent": 1, "start": 50, "end": 70},
            {"id": 4, "parent": 2, "start": 15, "end": 25},
        ]
        assert self_times(spans) == {1: 50, 2: 20, 3: 20, 4: 10}

    def test_overlapping_children_count_once(self):
        spans = [
            {"id": 1, "parent": None, "start": 0, "end": 100},
            {"id": 2, "parent": 1, "start": 10, "end": 60},
            {"id": 3, "parent": 1, "start": 40, "end": 80},
        ]
        assert self_times(spans)[1] == 30

    def test_children_are_clipped_to_their_parent(self):
        spans = [
            {"id": 1, "parent": None, "start": 0, "end": 10},
            {"id": 2, "parent": 1, "start": 5, "end": 30},
        ]
        assert self_times(spans)[1] == 5


class TestSchedule:
    def test_same_seed_same_schedule(self):
        assert served_schedule(7, SCENARIOS, 2, 3) \
            == served_schedule(7, SCENARIOS, 2, 3)

    def test_different_seed_different_cold_seeds(self):
        def cold(seed):
            return {op[2] for op in served_schedule(seed, SCENARIOS, 2, 3)
                    if op[0] == "cold"}
        assert cold(1).isdisjoint(cold(2))

    def test_shape_does_not_depend_on_the_seed(self):
        shapes = {tuple(op[:2] for op in served_schedule(seed, SCENARIOS,
                                                          2, 3))
                  for seed in range(5)}
        assert len(shapes) == 1
        kinds = [kind for kind, _ in shapes.pop()]
        assert kinds == (["cold"] + ["warm"] * 3) * 6

    def test_cold_pairs_are_distinct_and_warm_repeats_follow_them(self):
        schedule = served_schedule(3, SCENARIOS, 2, 3)
        cold = [op[1:] for op in schedule if op[0] == "cold"]
        assert len(set(cold)) == len(cold)
        for position, (kind, name, seed) in enumerate(schedule):
            if kind == "warm":
                assert ("cold", name, seed) in schedule[:position]


def test_wilson_interval_contains_the_estimate():
    low, high = wilson_interval(5, 100, 3.0)
    assert 0.0 < low < 0.05 < high < 0.2
    assert wilson_interval(0, 4, 3.0)[0] == 0.0


class TestReferenceCheck:
    """The correctness check against the committed seed-0 reference."""

    @staticmethod
    def _result(name):
        reference = load_reference(name)
        return {"scenario": name, "repro_version": "0.0.0",
                "points": copy.deepcopy(reference["points"])}

    def test_reference_points_pass_whatever_the_version(self):
        for name in ("fig7", "noc-transpose-crosscheck",
                     "phy-detector-comparison"):
            assert check_result(json.dumps(self._result(name))) == []

    def test_an_analytic_field_must_match_to_1e9(self):
        result = self._result("fig7")
        result["points"][0]["value"]["zero_load_latency_cycles"] *= 1 + 1e-6
        assert check_result(json.dumps(result))

    def test_a_wrong_error_rate_fails_its_wilson_band(self):
        result = self._result("phy-detector-comparison")
        value = result["points"][2]["value"]          # bcjr at 16 dB
        assert value["bit_error_rate"] == 0.0
        value["bit_error_rate"] = 0.5
        assert check_result(json.dumps(result))

    def test_a_monte_carlo_latency_within_its_band_passes(self):
        result = self._result("noc-transpose-crosscheck")
        result["points"][0]["value"]["simulated_latency_cycles"] += 0.1
        assert check_result(json.dumps(result)) == []
        result["points"][0]["value"]["simulated_latency_cycles"] += 5.0
        assert check_result(json.dumps(result))

    @staticmethod
    def _shifted_latencies(shift):
        result = TestReferenceCheck._result("noc-transpose-crosscheck")
        for point in result["points"]:
            point["value"]["simulated_latency_cycles"] += shift
        return check_result(json.dumps(result))

    def test_a_curve_shifted_within_every_point_band_fails_on_its_mean(self):
        bands = load_reference("noc-transpose-crosscheck")["monte_carlo"]
        assert min(band[".simulated_latency_cycles"]["band"]
                   for band in bands) > 0.3
        problems = self._shifted_latencies(0.3)
        assert problems
        assert all("mean deviation" in problem for problem in problems)
        assert self._shifted_latencies(-1.0)
        assert self._shifted_latencies(0.02) == []
