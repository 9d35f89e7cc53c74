"""Tests for the scenario registry, Scenario execution and ScenarioResult."""

import glob
import json
import multiprocessing
import os
import re

import numpy as np
import pytest

import repro
from repro.core.engine import SweepEngine
from repro.scenarios import (
    ChannelSpec,
    build_scenario,
    describe_scenario,
    run_scenario,
    scenario_entries,
    scenario_names,
)

BENCHMARK_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                             "benchmarks")


#: The cross-layer NoC engine scenarios added with the unified NocModel
#: refactor — all four must stay registered.
NOC_ENGINE_SCENARIOS = {
    "noc-hotspot-sweep",
    "noc-transpose-crosscheck",
    "noc-buffer-depth-sweep",
    "noc-lossy-link-sweep",
}

#: The waveform-level transceiver pipeline scenarios added with the
#: ChannelFrontend refactor — all three must stay registered.
PHY_FRONTEND_SCENARIOS = {
    "coded-ber-waveform-sweep",
    "phy-detector-comparison",
    "phy-oversampling-coding-ablation",
}


class TestRegistryCompleteness:
    def test_at_least_25_scenarios(self):
        assert len(scenario_names()) >= 25

    def test_cross_layer_noc_scenarios_registered(self):
        names = set(scenario_names())
        missing = NOC_ENGINE_SCENARIOS - names
        assert not missing, f"missing cross-layer NoC scenarios: {missing}"

    def test_cross_layer_noc_scenarios_build_and_describe(self):
        for name in sorted(NOC_ENGINE_SCENARIOS):
            description = describe_scenario(name)
            assert description["scenario"] == name
            assert description["n_points"] > 0
            assert "noc" in "".join(description["specs"])

    def test_lossy_link_sweep_accepts_loss_knob_overrides(self):
        # Regression: a --set noc.ebn0_db / noc.link_error_rate override
        # used to trip NocSpec's mutual-exclusion check inside the worker
        # (the swept ebn0_db replace kept the user's other knob).
        for overrides in ({"noc.ebn0_db": 3.0},
                          {"noc.link_error_rate": 0.05}):
            scenario = build_scenario("noc-lossy-link-sweep", overrides)
            value = scenario.worker({"ebn0_db": 4.0},
                                    np.random.default_rng(0))
            assert value["link_flit_error_rate"] < 1e-6

    def test_phy_frontend_scenarios_registered_and_describable(self):
        names = set(scenario_names())
        missing = PHY_FRONTEND_SCENARIOS - names
        assert not missing, f"missing waveform-pipeline scenarios: {missing}"
        for name in sorted(PHY_FRONTEND_SCENARIOS):
            description = describe_scenario(name)
            assert description["n_points"] > 0
            assert "phy" in description["specs"]
            assert "coding" in description["specs"]

    def test_coded_ber_waveform_sweep_shows_the_frontend_offset(self):
        # One cheap worker call per frontend at an Eb/N0 where the BPSK
        # baseline is already clean: the waveform PHY must not be (the
        # positive-offset half of the acceptance criterion; the finite
        # half is covered at 16 dB in tests/test_phy_frontend.py).
        scenario = build_scenario("coded-ber-waveform-sweep",
                                  {"mc.n_codewords": 4})
        bpsk = scenario.worker({"frontend": "bpsk-awgn", "ebn0_db": 3.5},
                               np.random.default_rng(0))
        wave = scenario.worker({"frontend": "one-bit-waveform",
                                "ebn0_db": 3.5}, np.random.default_rng(0))
        assert bpsk["bit_error_rate"] < 1e-3
        assert wave["bit_error_rate"] > 0.05
        assert wave["bits_per_channel_use"] == 2.0
        assert wave["samples_per_bit"] == pytest.approx(2.5)

    def test_detector_comparison_worker_orders_the_demods(self):
        scenario = build_scenario("phy-detector-comparison",
                                  {"mc.n_codewords": 4})
        bcjr = scenario.worker({"detector": "bcjr", "ebn0_db": 14.0},
                               np.random.default_rng(1))
        symbolwise = scenario.worker({"detector": "symbolwise",
                                      "ebn0_db": 14.0},
                                     np.random.default_rng(1))
        assert bcjr["bit_error_rate"] < symbolwise["bit_error_rate"]

    def test_oversampling_ablation_reports_threshold_and_ber(self):
        scenario = build_scenario("phy-oversampling-coding-ablation",
                                  {"mc.n_codewords": 2})
        value = scenario.worker({"oversampling": 3, "window_size": 3,
                                 "ebn0_db": 14.0}, np.random.default_rng(2))
        assert 0.0 <= value["bit_error_rate"] <= 0.5
        assert value["samples_per_bit"] == pytest.approx(1.5)
        assert value["de_threshold_ebn0_db"] > 0.0

    def test_every_benchmark_figure_has_a_scenario(self):
        # Benchmark files are named test_bench_<artifact>_*.py; every
        # figure/table artifact must be runnable by name.
        names = set(scenario_names())
        artifacts = set()
        pattern = re.compile(r"test_bench_(fig\d+[ab]?|table\d+)_")
        for path in glob.glob(os.path.join(BENCHMARK_DIR, "test_bench_*.py")):
            match = pattern.search(os.path.basename(path))
            if match:
                artifacts.add(match.group(1))
        assert artifacts, "no figure benchmarks found"
        missing = artifacts - names
        assert not missing, f"benchmark artifacts without a scenario: {missing}"

    def test_all_paper_figures_present(self):
        names = set(scenario_names())
        expected = {f"fig{i}" for i in range(1, 11)} | {"fig8a", "fig8b",
                                                        "table1"}
        assert expected <= names

    def test_at_least_four_off_paper_scenarios(self):
        off_paper = [entry for entry in scenario_entries()
                     if entry.artifact == "off-paper"]
        assert len(off_paper) >= 4

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            build_scenario("fig99")


class TestBuildAndOverrides:
    def test_build_returns_scenario_with_points_and_specs(self):
        scenario = build_scenario("fig4")
        assert scenario.points
        assert "channel" in scenario.specs
        description = scenario.describe()
        assert description["n_points"] == len(scenario.points)
        assert "target_snr_db" in description["axes"]

    def test_spec_override_is_applied(self):
        scenario = build_scenario("fig4",
                                  {"channel.rx_noise_figure_db": 7.0})
        assert scenario.specs["channel"].rx_noise_figure_db == 7.0
        # 3 dB less noise figure -> 3 dB less required transmit power.
        base = run_scenario("fig4").value_where(target_snr_db=20.0)
        quiet = scenario.run().value_where(target_snr_db=20.0)
        assert quiet["short_dbm"] == pytest.approx(base["short_dbm"] - 3.0)

    def test_unconsumed_override_raises(self):
        with pytest.raises(ValueError, match="does not accept override"):
            build_scenario("fig4", {"noc.service_time_cycles": 1.0})

    def test_invalid_override_value_raises(self):
        with pytest.raises(ValueError):
            build_scenario("fig4", {"channel.distance_m": -1.0})

    def test_describe_scenario_helper(self):
        assert describe_scenario("table1")["scenario"] == "table1"


class TestScenarioResult:
    def test_provenance_fields(self):
        result = run_scenario("table1", rng=7)
        assert result.name == "table1"
        assert result.artifact == "Table I"
        assert result.seed == 7
        assert result.version == repro.__version__
        assert len(result) == len(result.points)
        assert [point["spawn_key"] for point in result.points] == \
            [[index] for index in range(len(result))]
        payload = result.to_dict()
        assert payload["specs"]["channel"]["spec_type"] == "ChannelSpec"
        restored = ChannelSpec.from_dict(
            {key: value
             for key, value in payload["specs"]["channel"].items()
             if key != "spec_type"})
        assert restored == result.specs["channel"]

    def test_unseeded_run_records_no_seed(self):
        assert run_scenario("table1").seed is None

    def test_json_is_parseable_and_deterministic(self):
        first = run_scenario("fig7", rng=0)
        second = run_scenario("fig7", rng=0)
        assert first.to_json() == second.to_json()
        payload = json.loads(first.to_json())
        assert payload["scenario"] == "fig7"
        assert payload["n_points"] == len(first)

    def test_infinite_latencies_export_as_strict_json(self):
        # fig8a's analytic curves contain inf past saturation; the JSON
        # export must stay strictly valid (no bare Infinity tokens) and
        # represent them as the "Infinity" string sentinel.
        text = run_scenario("fig8a").to_json()

        def reject(token):  # pragma: no cover - called only on regression
            raise AssertionError(f"bare non-finite token {token!r} in JSON")

        payload = json.loads(text, parse_constant=reject)
        latencies = payload["points"][0]["value"]["mean_latency_cycles"]
        assert "Infinity" in latencies

    def test_fixed_seed_reproducibility_of_stochastic_scenario(self):
        # fig1 fits pathloss exponents from VNA noise drawn through the
        # engine-spawned generators: same seed, same fits — bit for bit.
        first = run_scenario("fig1", rng=5)
        second = run_scenario("fig1", rng=5)
        assert first.to_json() == second.to_json()
        different = run_scenario("fig1", rng=6)
        assert different.values() != first.values()

    def test_value_where_and_series(self):
        result = run_scenario("fig4")
        row = result.value_where(target_snr_db=20.0)
        assert row["long_butler_dbm"] == pytest.approx(
            row["long_dbm"] + 5.0)
        series = result.series("target_snr_db")
        assert series[20.0] == row
        with pytest.raises(KeyError):
            result.value_where(target_snr_db=123.0)
        with pytest.raises(ValueError):
            result.value_where()

    def test_shared_engine_serves_cache_across_runs(self):
        engine = SweepEngine()
        scenario = build_scenario("table1")
        scenario.run(rng=3, engine=engine)
        assert engine.cache_info()["hits"] == 0
        scenario.run(rng=3, engine=engine)
        assert engine.cache_info()["hits"] == len(scenario.points)

    def test_run_closes_the_engine_it_creates(self):
        before = set(multiprocessing.active_children())
        build_scenario("fig1").run(rng=0, n_workers=2)
        leftover = set(multiprocessing.active_children()) - before
        for child in leftover:
            child.join(timeout=10)
        assert not leftover

    def test_run_leaves_a_passed_engine_open(self):
        before = set(multiprocessing.active_children())
        engine = SweepEngine(n_workers=2)
        try:
            build_scenario("fig1").run(rng=0, engine=engine)
            assert set(multiprocessing.active_children()) - before
        finally:
            engine.close()
        for child in set(multiprocessing.active_children()) - before:
            child.join(timeout=10)
        assert not set(multiprocessing.active_children()) - before

    def test_equivalent_scenarios_share_cached_points(self):
        # Content-addressed keys: a *rebuilt* scenario (new Scenario, new
        # worker object) against a shared store hits every point — the
        # historical object-identity cache could never do this.
        from repro.core.store import MemoryStore

        store = MemoryStore()
        cold = run_scenario("fig1", rng=5, store=store)
        warm = run_scenario("fig1", rng=5, store=store)
        assert warm.execution["cache_hits"] == len(warm)
        assert warm.execution["cache_misses"] == 0
        assert cold.values() == warm.values()

    def test_cold_and_warm_runs_export_byte_identical_json(self, tmp_path):
        # Regression: cache provenance must never leak into the
        # deterministic payload — a warm re-run from a DiskStore (fresh
        # store object, as a new process would build) serializes byte-for-
        # byte identically to the cold run at the same seed.
        from repro.core.store import DiskStore

        root = str(tmp_path / "store")
        cold_path = tmp_path / "cold.json"
        warm_path = tmp_path / "warm.json"
        cold = run_scenario("fig1", rng=5, store=DiskStore(root))
        warm = run_scenario("fig1", rng=5, store=DiskStore(root))
        cold.save_json(str(cold_path))
        warm.save_json(str(warm_path))
        assert cold_path.read_bytes() == warm_path.read_bytes()
        # The provenance lives in the separate execution block instead.
        assert cold.execution["from_cache"] == [False, False]
        assert warm.execution["from_cache"] == [True, True]
        assert warm.to_dict(include_execution=True)["execution"][
            "cache_hits"] == 2
        assert "execution" not in json.loads(warm.to_json())

    def test_sanity_of_off_paper_link_sweep(self):
        result = run_scenario("tx-power-sweep")
        reports = result.series("tx_power_dbm")
        # More transmit power never hurts SNR or data rate.
        powers = sorted(reports)
        snrs = [reports[power]["snr_db"] for power in powers]
        assert snrs == sorted(snrs)
        assert reports[powers[-1]]["closes"]
