"""Tests for the adaptive-precision scenario path: PrecisionSpec,
Scenario(precision=...), the registered adaptive sweep, campaigns and the
CLI surface."""

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping

import numpy as np
import pytest

from repro.cli import main
from repro.coding.ber import batch_seed_sequence
from repro.core.store import DiskStore, MemoryStore
from repro.scenarios import (
    Campaign,
    CampaignEntry,
    PrecisionSpec,
    Scenario,
    build_scenario,
)

# Overrides making the registered adaptive sweep cheap enough for tests:
# stop every point at its minimum codeword count.
CHEAP = {"precision.rel_ci_target": 5.0, "precision.min_errors": 1,
         "precision.min_codewords": 4, "precision.max_codewords": 8}


@dataclass(frozen=True)
class CoinWorker:
    """Minimal incremental worker (mirrors tests/test_core_engine_adaptive)."""

    batch: int = 16

    def decode(self, stored) -> Dict[str, int]:
        if stored is None:
            return {"n": 0, "k": 0, "units": 0, "batches": 0}
        return {key: int(stored[key]) for key in ("n", "k", "units",
                                                  "batches")}

    def encode(self, state) -> Dict[str, int]:
        return dict(state)

    def satisfied(self, state, rule) -> bool:
        return rule.satisfied(state["k"], state["n"], state["units"])

    def advance(self, params: Mapping[str, Any], state, seed_sequence,
                rule):
        state = dict(state)
        while not self.satisfied(state, rule):
            child = batch_seed_sequence(seed_sequence, state["batches"])
            draws = np.random.default_rng(child).random(self.batch)
            state["k"] += int(np.count_nonzero(draws < params["p"]))
            state["n"] += self.batch
            state["units"] += self.batch
            state["batches"] += 1
        return state

    def progress(self, state) -> int:
        return int(state["units"])

    def finalize(self, params: Mapping[str, Any], state) -> Dict[str, Any]:
        return {"estimate": state["k"] / state["n"] if state["n"] else 0.0}


def coin_scenario(precision) -> Scenario:
    return Scenario("coin", "off-paper", "toy adaptive scenario",
                    specs={}, points=[{"p": 0.4}, {"p": 0.1}],
                    worker=CoinWorker(), precision=precision)


class TestPrecisionSpec:
    def test_roundtrip(self):
        spec = PrecisionSpec(rel_ci_target=0.1, max_codewords=64)
        assert PrecisionSpec.from_dict(spec.to_dict()) == spec

    def test_stopping_rule_mapping(self):
        rule = PrecisionSpec(rel_ci_target=0.1, confidence=0.9,
                             min_codewords=2, max_codewords=32,
                             min_errors=5).stopping_rule()
        assert (rule.rel_ci_target, rule.confidence) == (0.1, 0.9)
        assert (rule.min_units, rule.max_units, rule.min_errors) \
            == (2, 32, 5)

    @pytest.mark.parametrize("kwargs", [
        {"rel_ci_target": 0.0},
        {"confidence": 1.0},
        {"min_codewords": 0},
        {"min_codewords": 16, "max_codewords": 8},
        {"min_errors": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PrecisionSpec(**kwargs)


class TestAdaptiveScenario:
    def test_precision_requires_incremental_worker(self):
        with pytest.raises(ValueError, match="incremental-evaluation"):
            Scenario("bad", "off-paper", "plain worker, precision set",
                     specs={}, points=[{"x": 1}],
                     worker=lambda params, rng: 0.0,
                     precision=PrecisionSpec())

    def test_cache_key_excludes_precision(self):
        loose = coin_scenario(PrecisionSpec(rel_ci_target=0.5,
                                            min_errors=1))
        tight = coin_scenario(PrecisionSpec(rel_ci_target=0.1,
                                            min_errors=1))
        assert loose.cache_key() == tight.cache_key()
        assert "precision" in loose.specs

    def test_run_reports_precision_provenance(self):
        result = coin_scenario(PrecisionSpec(rel_ci_target=0.5,
                                             min_errors=1)).run(rng=0)
        precision = result.execution["precision"]
        assert precision["resumed_codewords"] == 0
        assert precision["new_codewords"] == precision["total_codewords"]
        assert precision["all_satisfied"]
        assert len(precision["per_point"]) == len(result.points)
        # Provenance stays out of the deterministic payload.
        assert "execution" not in json.loads(result.to_json())

    def test_tightening_resumes_from_warm_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        loose = coin_scenario(PrecisionSpec(rel_ci_target=0.5,
                                            min_errors=1))
        first = loose.run(rng=0, store=DiskStore(store_dir))
        warm = loose.run(rng=0, store=DiskStore(store_dir))
        assert warm.execution["precision"]["new_codewords"] == 0
        assert warm.execution["from_cache"] == [True, True]
        assert warm.points == first.points
        tight = coin_scenario(PrecisionSpec(rel_ci_target=0.1,
                                            min_errors=1))
        upgraded = tight.run(rng=0, store=DiskStore(store_dir))
        precision = upgraded.execution["precision"]
        assert precision["resumed_codewords"] \
            == first.execution["precision"]["total_codewords"]
        assert precision["new_codewords"] > 0
        # Identical to a cold run at the tight target.
        cold = tight.run(rng=0, store=MemoryStore())
        assert upgraded.points == cold.points


class TestRegisteredAdaptiveSweep:
    def test_registered_and_described(self):
        scenario = build_scenario("coded-ber-adaptive-sweep", CHEAP)
        assert scenario.precision is not None
        description = scenario.describe()
        assert description["specs"]["precision"]["spec_type"] \
            == "PrecisionSpec"

    def test_runs_to_target_and_reports_ci(self):
        scenario = build_scenario("coded-ber-adaptive-sweep", CHEAP)
        result = scenario.run(rng=0)
        for point in result.points:
            value = point["value"]
            assert value["n_codewords"] >= 4
            assert value["ber_ci_low"] <= value["bit_error_rate"] \
                <= value["ber_ci_high"]


class TestAdaptiveCampaign:
    def test_campaign_resumes_adaptive_entries(self, tmp_path):
        store_dir = str(tmp_path / "store")
        campaign = Campaign([CampaignEntry(
            scenario="coded-ber-adaptive-sweep", overrides=CHEAP)])
        cold = campaign.run(store=DiskStore(store_dir))
        precision = cold.results[0].execution["precision"]
        assert precision["new_codewords"] > 0
        warm = campaign.run(store=DiskStore(store_dir))
        warm_precision = warm.results[0].execution["precision"]
        assert warm_precision["new_codewords"] == 0
        assert warm.results[0].execution["from_cache"] \
            == [True] * len(warm.results[0].points)
        assert warm.results[0].points == cold.results[0].points

    def test_campaign_pool_matches_serial(self, tmp_path):
        campaign = Campaign([CampaignEntry(
            scenario="coded-ber-adaptive-sweep", overrides=CHEAP)])
        serial = campaign.run(store=MemoryStore())
        pooled = campaign.run(store=MemoryStore(), n_workers=2)
        assert pooled.results[0].points == serial.results[0].points

    def test_pooled_campaign_shards_adaptive_points(self):
        # A pooled campaign splits each adaptive point's batches across
        # the pool (more tasks than points), byte-identical to serial.
        # The first round rides with the fixed points, so the pool
        # installs both workers in one generation.
        campaign = Campaign([
            CampaignEntry(scenario="coded-ber-adaptive-sweep",
                          overrides=CHEAP),
            CampaignEntry(scenario="fig7")])
        serial = campaign.run(store=MemoryStore())
        pooled = campaign.run(store=MemoryStore(), n_workers=2)
        assert pooled.execution["dispatch"]["tasks"] \
            > pooled.execution["n_points"]
        assert pooled.execution["dispatch"]["generation"] == 1
        assert pooled.to_json() == serial.to_json()

    def test_twin_entries_at_one_precision_compute_once(self):
        # Two entries of one adaptive scenario at one precision compute
        # the same tallies: the second shares the first's points.
        campaign = Campaign([
            CampaignEntry(scenario="coded-ber-adaptive-sweep",
                          overrides=CHEAP),
            CampaignEntry(scenario="coded-ber-adaptive-sweep",
                          label="again", overrides=CHEAP)])
        result = campaign.run(store=MemoryStore())
        assert result.execution["cache_misses"] == 5
        assert result.execution["shared_points"] == 5
        assert result.results[0].to_json() == result.results[1].to_json()
        assert result.results[1].execution["precision"]["total_codewords"] \
            == result.results[0].execution["precision"]["total_codewords"]


class TestAdaptiveCli:
    def test_warm_rerun_simulates_zero_new_codewords(self, tmp_path,
                                                     capsys):
        store_dir = str(tmp_path / "store")
        args = ["run", "coded-ber-adaptive-sweep", "--store", store_dir]
        for key, value in CHEAP.items():
            args += ["--set", f"{key}={value}"]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "precision:" in cold_out
        assert "simulated 0 new codewords" not in cold_out
        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "simulated 0 new codewords" in warm_out

    def test_precision_override_via_set(self, tmp_path, capsys):
        args = ["run", "coded-ber-adaptive-sweep",
                "--set", "precision.rel_ci_target=5.0",
                "--set", "precision.min_errors=1",
                "--set", "precision.max_codewords=8"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "rel CI target 5" in out

    def test_cache_gc_cli(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        DiskStore(store_dir).put("a" * 64, {"x": 1})
        assert main(["cache", "gc", "--store", store_dir,
                     "--max-size-mb", "0", "--dry-run"]) == 0
        assert "would remove 1" in capsys.readouterr().out
        assert main(["cache", "gc", "--store", store_dir,
                     "--max-size-mb", "0"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert len(DiskStore(store_dir)) == 0

    def test_cache_gc_requires_a_bound(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "gc", "--store", str(tmp_path / "store")])
