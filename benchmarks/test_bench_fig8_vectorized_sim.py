"""Fig. 8 (simulator variant) — the vectorized cycle engine on the
64-module topologies, plus its speedup over the deque reference.

The analytic benchmarks (``test_bench_fig8a_noc_64`` /
``test_bench_fig8b_noc_512``) reproduce the paper's curves from the
queueing model; this file regenerates the Fig. 8(a) operating points with
the vectorized :class:`repro.noc.NocSimulator` — an independent
cycle-accurate check of the same claims (latency ordering star < 3D < 2D
at low load, saturation ordering star < 2D < 3D) — and records the
engine's headline performance property: **at 64 modules the vectorized
simulator is at least 5x faster than the deque reference** it was
validated against.
"""

import time

import numpy as np

from conftest import print_table, run_once
from repro.core import SweepEngine
from repro.noc import (
    AnalyticNocModel,
    Mesh2D,
    Mesh3D,
    NocSimulator,
    StarMesh,
)
from oracles.noc import ReferenceNocSimulator

RATES = (0.05, 0.1, 0.15, 0.3)
SEED = 0
N_CYCLES = 3_000
WARMUP = 750

TOPOLOGIES = (
    ("8x8 2D mesh", lambda: Mesh2D(8, 8)),
    ("4x4x4 star-mesh", lambda: StarMesh(4, 4, concentration=4)),
    ("4x4x4 3D mesh", lambda: Mesh3D(4, 4, 4)),
)


def _reproduce_curves():
    engine = SweepEngine()
    curves = {}
    for name, factory in TOPOLOGIES:
        topology = factory()
        simulator = NocSimulator(topology)
        simulated = simulator.latency_sweep(RATES, n_cycles=N_CYCLES,
                                            warmup_cycles=WARMUP, rng=SEED,
                                            engine=engine)
        analytic = AnalyticNocModel(topology)
        curves[name] = {
            "simulated": [point.mean_latency_cycles for point in simulated],
            "saturated": [point.saturated for point in simulated],
            "analytic": [analytic.mean_latency(rate) for rate in RATES],
        }
    return curves


def test_fig8a_vectorized_simulator_curves(benchmark):
    curves = run_once(benchmark, _reproduce_curves)
    rows = []
    for index, rate in enumerate(RATES):
        cells = []
        for name, _ in TOPOLOGIES:
            latency = curves[name]["simulated"][index]
            cells.append(f"{latency:12.1f}" if np.isfinite(latency)
                         else f"{'sat':>12s}")
        rows.append(f"  {rate:5.2f}" + "".join(cells))
    print_table("Fig. 8(a) variant — vectorized-simulator latency [cycles]",
                "  rate      2D mesh    star-mesh      3D mesh", rows)
    # Low-load latencies agree with the calibrated analytic model.
    for name, _ in TOPOLOGIES:
        simulated = curves[name]["simulated"][0]
        analytic = curves[name]["analytic"][0]
        assert abs(simulated - analytic) < max(0.25 * analytic, 3.0), name
    # Fig. 8(a) latency ordering at low load: star < 3D < 2D.
    low = {name: curves[name]["simulated"][0] for name, _ in TOPOLOGIES}
    assert low["4x4x4 star-mesh"] < low["4x4x4 3D mesh"] < low["8x8 2D mesh"]
    # At 0.3 flits/cycle/module the star-mesh is past its ~0.19 saturation
    # point while the 3D mesh (~0.75) still runs freely.
    assert curves["4x4x4 star-mesh"]["saturated"][-1]
    assert not curves["4x4x4 3D mesh"]["saturated"][-1]


def _time_simulator(simulator, rate, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        simulator.run(rate, n_cycles=1_500, warmup_cycles=300, rng=SEED)
        best = min(best, time.perf_counter() - start)
    return best


def _measure_speedup():
    topology = Mesh2D(8, 8)  # the paper's 64-module reference
    rate = 0.3
    reference_s = _time_simulator(ReferenceNocSimulator(topology), rate)
    vectorized_s = _time_simulator(NocSimulator(topology), rate)
    return {"reference_s": reference_s, "vectorized_s": vectorized_s,
            "speedup": reference_s / vectorized_s}


def test_vectorized_simulator_speedup_at_64_modules(benchmark):
    result = run_once(benchmark, _measure_speedup)
    print_table(
        "Vectorized simulator vs deque reference (8x8 mesh, 0.3 flits/cycle)",
        "  engine        best-of-2 [s]",
        [f"  reference     {result['reference_s']:12.3f}",
         f"  vectorized    {result['vectorized_s']:12.3f}",
         f"  speedup       {result['speedup']:11.1f}x"])
    assert result["speedup"] >= 5.0, result
