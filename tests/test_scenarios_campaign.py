"""Tests for the Campaign API (repro.scenarios.campaign)."""

import json

import pytest

from repro.core.store import DiskStore, MemoryStore
from repro.scenarios import (
    Campaign,
    CampaignEntry,
    CampaignResult,
    run_campaign,
    run_scenario,
    scenario_names,
)

#: Cheap, deterministic scenarios for fast campaign tests.
CHEAP = ["table1", "fig4", "fig7"]


def _boom(params, rng):
    raise RuntimeError("boom")


class TestConstruction:
    def test_from_registry_covers_every_scenario(self):
        campaign = Campaign.from_registry()
        assert [entry.scenario for entry in campaign] == scenario_names()
        assert all(entry.seed == 0 for entry in campaign)

    def test_from_registry_glob_filters(self):
        names = [entry.scenario
                 for entry in Campaign.from_registry(only="fig8*")]
        assert names == ["fig8", "fig8a", "fig8b"]
        multi = Campaign.from_registry(only=["table1", "fig7"])
        assert {entry.scenario for entry in multi} == {"table1", "fig7"}

    def test_from_registry_no_match_is_an_error(self):
        with pytest.raises(ValueError, match="no scenario matches"):
            Campaign.from_registry(only="fig99*")

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError):
            Campaign([])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate campaign label"):
            Campaign([CampaignEntry("fig4"), CampaignEntry("fig4")])
        # ... but distinct labels allow running one scenario twice.
        campaign = Campaign([CampaignEntry("fig4"),
                             CampaignEntry("fig4", label="fig4-alt",
                                           seed=1)])
        assert campaign.entries[1].label == "fig4-alt"

    def test_dict_roundtrip(self):
        campaign = Campaign([
            CampaignEntry("fig4"),
            CampaignEntry("fig4", label="quiet",
                          overrides={"channel.rx_noise_figure_db": 7.0},
                          seed=3),
        ])
        rebuilt = Campaign.from_dict(campaign.to_dict())
        assert rebuilt.entries == campaign.entries

    def test_from_dict_accepts_bare_names_and_default_seed(self):
        campaign = Campaign.from_dict(
            {"seed": 7, "entries": ["table1",
                                    {"scenario": "fig4", "seed": 1}]})
        assert campaign.entries[0] == CampaignEntry("table1", seed=7)
        assert campaign.entries[1].seed == 1

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown campaign key"):
            Campaign.from_dict({"entries": ["fig4"], "bogus": 1})
        with pytest.raises(ValueError, match="unknown campaign entry key"):
            Campaign.from_dict({"entries": [{"scenario": "fig4",
                                             "bogus": 1}]})
        with pytest.raises(ValueError, match="'scenario'"):
            Campaign.from_dict({"entries": [{"seed": 1}]})

    def test_from_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({"entries": CHEAP}), encoding="utf-8")
        campaign = Campaign.from_file(str(path))
        assert [entry.scenario for entry in campaign] == CHEAP


class TestRun:
    def test_matches_individual_scenario_runs(self):
        # One shared pool/store must not change any number: every
        # scenario's result equals its standalone run at the same seed.
        result = Campaign.from_registry(only=CHEAP).run(store=MemoryStore())
        assert isinstance(result, CampaignResult)
        for entry, campaign_result in zip(result.entries, result.results):
            standalone = run_scenario(entry.scenario, rng=entry.seed)
            assert campaign_result.to_json() == standalone.to_json()

    def test_shared_pool_matches_serial(self):
        serial = Campaign.from_registry(only=CHEAP).run(store=MemoryStore())
        pooled = Campaign.from_registry(only=CHEAP).run(store=MemoryStore(),
                                                        n_workers=2)
        assert pooled.to_json() == serial.to_json()

    def test_warm_rerun_is_all_hits_and_byte_identical(self):
        store = MemoryStore()
        campaign = Campaign.from_registry(only=CHEAP)
        cold = campaign.run(store=store)
        warm = campaign.run(store=store)
        assert cold.execution["cache_hits"] == 0
        assert warm.execution["cache_misses"] == 0
        assert warm.execution["cache_hits"] == \
            warm.execution["n_points"] == cold.execution["n_points"]
        assert cold.to_json() == warm.to_json()

    def test_disk_store_resumes_across_campaign_objects(self, tmp_path):
        root = str(tmp_path / "store")
        cold = Campaign.from_registry(only=CHEAP).run(store=DiskStore(root))
        # A brand-new campaign against a reopened store: zero recompute.
        warm = Campaign.from_registry(only=CHEAP).run(store=DiskStore(root))
        assert warm.execution["cache_misses"] == 0
        assert cold.to_json() == warm.to_json()

    def test_scenario_and_campaign_share_the_same_store_keys(self):
        # Content addressing is API-independent: points computed by a
        # standalone Scenario.run land exactly where the campaign looks.
        store = MemoryStore()
        run_scenario("fig4", rng=0, store=store)
        result = Campaign.from_registry(only=["fig4"]).run(store=store)
        assert result.execution["cache_misses"] == 0

    def test_overrides_change_keys_and_results(self):
        store = MemoryStore()
        campaign = Campaign([
            CampaignEntry("fig4"),
            CampaignEntry("fig4", label="quiet",
                          overrides={"channel.rx_noise_figure_db": 7.0}),
        ])
        result = campaign.run(store=store)
        assert result.execution["cache_hits"] == 0
        baseline = result.result("fig4").value_where(target_snr_db=20.0)
        quiet = result.result("quiet").value_where(target_snr_db=20.0)
        assert quiet["short_dbm"] == pytest.approx(
            baseline["short_dbm"] - 3.0)

    def test_same_scenario_twice_computes_each_point_once(self):
        # Two labels for the same (scenario, overrides, seed) share every
        # store key: the campaign computes each point once and fans the
        # value out, reporting the duplicates as cache hits.
        store = MemoryStore()
        campaign = Campaign([CampaignEntry("fig7"),
                             CampaignEntry("fig7", label="again")])
        result = campaign.run(store=store)
        assert result.execution["cache_misses"] == 4
        assert result.execution["cache_hits"] == 0  # the store was cold
        assert result.execution["shared_points"] == 4
        assert len(store) == 4
        assert result.result("fig7").to_json() == \
            result.result("again").to_json()

    def test_unseeded_entries_run_but_never_cache(self):
        store = MemoryStore()
        campaign = Campaign([CampaignEntry("fig7", seed=None)])
        result = campaign.run(store=store)
        assert result.results[0].seed is None
        assert result.execution["cache_misses"] == 4
        assert len(store) == 0

    def test_result_lookup_and_labels(self):
        result = Campaign.from_registry(only=CHEAP).run(store=MemoryStore())
        assert result.labels() == sorted(CHEAP,
                                         key=scenario_names().index)
        assert len(result) == 3
        assert result.result("fig7").name == "fig7"
        with pytest.raises(KeyError):
            result.result("fig99")

    def test_invalid_overrides_fail_at_build_time(self):
        campaign = Campaign([
            CampaignEntry("fig4", label="bad",
                          overrides={"channel.distance_m": -1.0}),
        ])
        with pytest.raises(ValueError):
            campaign.run()

    def test_failing_entry_names_scenario_and_params(self, monkeypatch):
        from repro.core.engine import SweepPointError

        broken = Campaign([CampaignEntry("mesh3d-scaling")])
        scenarios = broken.build_scenarios()
        scenarios[0].worker = _boom
        monkeypatch.setattr(broken, "build_scenarios", lambda: scenarios)
        with pytest.raises(SweepPointError) as excinfo:
            broken.run()
        assert "mesh3d-scaling" in str(excinfo.value)
        assert excinfo.value.params == {"dimensions": "2x2x2"}
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("n_workers", [None, 2])
    def test_failing_entry_names_its_label(self, monkeypatch, n_workers):
        # One scenario under two labels: the error says which entry failed.
        from repro.core.engine import SweepPointError

        broken = Campaign([
            CampaignEntry("fig4"),
            CampaignEntry("fig4", label="quiet",
                          overrides={"channel.rx_noise_figure_db": 7.0})])
        scenarios = broken.build_scenarios()
        scenarios[1].worker = _boom
        monkeypatch.setattr(broken, "build_scenarios", lambda: scenarios)
        with pytest.raises(SweepPointError) as excinfo:
            broken.run(n_workers=n_workers)
        assert "campaign entry 'quiet'" in str(excinfo.value)
        assert excinfo.value.scenario == "fig4"

    def test_run_all_convenience(self):
        result = run_campaign(only="table1", store=MemoryStore())
        assert result.labels() == ["table1"]

    def test_json_export_shape(self):
        result = Campaign.from_registry(only=["fig7"]).run(
            store=MemoryStore())
        payload = json.loads(result.to_json())
        assert set(payload) == {"campaign", "scenarios"}
        assert payload["scenarios"]["fig7"]["scenario"] == "fig7"
        diagnostic = result.to_dict(include_execution=True)
        assert diagnostic["execution"]["n_points"] == 4
        assert diagnostic["scenarios"]["fig7"]["execution"][
            "cache_misses"] == 4

    def test_save_json(self, tmp_path):
        path = tmp_path / "campaign.json"
        result = Campaign.from_registry(only=["table1"]).run(
            store=MemoryStore())
        result.save_json(str(path))
        assert json.loads(path.read_text())["scenarios"]["table1"][
            "n_points"] == 9


class TestScenarioErrorAttribution:
    def test_scenario_run_names_scenario_and_params(self):
        from repro.core.engine import SweepPointError
        from repro.scenarios import Scenario

        scenario = Scenario("broken", "off-paper", "always fails",
                            specs={}, points=[{"x": 1}], worker=_boom)
        with pytest.raises(SweepPointError) as excinfo:
            scenario.run(rng=0)
        assert excinfo.value.scenario == "broken"
        assert "'broken'" in str(excinfo.value)
        assert excinfo.value.params == {"x": 1}
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_attribution_is_applied_once(self):
        # A campaign wrapping a Scenario.run failure must not stack a
        # second "scenario ..." prefix onto an already-attributed error.
        from repro.core.engine import SweepPointError

        error = SweepPointError("point failed", params={"x": 1})
        attributed = error.with_scenario("fig7")
        assert attributed.scenario == "fig7"
        assert attributed.with_scenario("other") is attributed
        assert str(attributed).count("scenario") == 1
