"""Warm dispatch — the gate for the persistent worker pool.

Two measured claims (EXPERIMENTS.md, "Warm dispatch"):

* **Warm-pool repeat sweeps** — a large-state worker (an LDPC-style
  lookup table of several MB) swept repeatedly through one
  :class:`~repro.core.engine.SweepEngine` must beat the frozen
  pre-warm-dispatch baseline (a fresh ``ProcessPoolExecutor`` per sweep
  call, the full worker pickled with every point) by **at least 3x**.
  The workload is overhead-dominated by construction, so the floor holds
  even on a single-core runner.
* **Deterministic intra-point sharding** — one deep adaptive point
  (fixed batch budget via the ``max_units`` cap) split across 4 workers
  must be **byte-identical** to the serial run (asserted always) and at
  least **2.5x** faster (asserted only where 4 physical cores exist;
  on fewer cores sharding one point cannot beat serial).

``REPRO_DISPATCH_BENCH=reduced`` shrinks the workload for CI smoke runs;
the warm-pool floor still applies there.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

import numpy as np

from conftest import print_table, run_once
from repro.core.engine import SweepEngine, plan_sweep
from repro.core.store import MemoryStore
from repro.utils.hashing import canonical_json
from repro.utils.statistics import StoppingRule

REDUCED = os.environ.get("REPRO_DISPATCH_BENCH", "").lower() == "reduced"

#: Warm-pool workload: repeat sweeps of a cheap function over big state.
TABLE_MB = 4 if REDUCED else 8
N_POINTS = 8 if REDUCED else 16
#: Three sweeps in both modes: with two, the reduced warm side lasted
#: 0.06-0.15 s and host jitter alone pushed it under the 3x floor.
N_SWEEPS = 3
N_WORKERS = 2
MIN_WARM_SPEEDUP = 3.0

#: Sharded workload: one deep point, a fixed budget of heavy batches.
N_BATCHES = 16 if REDUCED else 64
DRAWS_PER_BATCH = 200_000 if REDUCED else 1_000_000
SHARD_WORKERS = 4
MIN_SHARD_SPEEDUP = 2.5


# ----------------------------------------------------------------------
# warm-pool repeat sweeps vs the frozen per-call-pool baseline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _LargeStateWorker:
    """Trivial per-point compute carrying a multi-MB lookup table —
    the dispatch-tax regime (LDPC tables, measured-channel datasets)."""

    table: np.ndarray = field(
        default_factory=lambda: np.arange(TABLE_MB * 131_072,
                                          dtype=np.float64))

    def __call__(self, params: Mapping[str, Any],
                 rng: np.random.Generator) -> float:
        index = int(params["i"]) % self.table.size
        return float(self.table[index] + rng.random())


def _call_point(worker, params, seed_sequence):
    return worker(params, np.random.default_rng(seed_sequence))


def _baseline_sweeps(worker, points):
    """The pre-warm-dispatch executor lifecycle, frozen in-file: every
    sweep call builds (and tears down) its own process pool, and every
    point's submission pickles the entire worker."""
    results = []
    for _ in range(N_SWEEPS):
        planned = plan_sweep(worker, points, rng=8,
                             key={"bench": "dispatch"})
        with ProcessPoolExecutor(max_workers=N_WORKERS) as executor:
            futures = [executor.submit(_call_point, worker, plan.params,
                                       plan.seed_sequence)
                       for plan in planned]
            results.append([future.result() for future in futures])
    return results


def _warm_sweeps(worker, points):
    with SweepEngine(n_workers=N_WORKERS, cache=False) as engine:
        results = [engine.sweep_values(worker, points, rng=8,
                                       key={"bench": "dispatch"})
                   for _ in range(N_SWEEPS)]
        stats = engine.dispatch_stats()
    return results, stats


def test_warm_pool_beats_per_call_pool(benchmark):
    worker = _LargeStateWorker()
    points = [{"i": index} for index in range(N_POINTS)]

    def _measure():
        start = time.perf_counter()
        baseline = _baseline_sweeps(worker, points)
        baseline_s = time.perf_counter() - start
        start = time.perf_counter()
        warm, stats = _warm_sweeps(worker, points)
        warm_s = time.perf_counter() - start
        return baseline, baseline_s, warm, warm_s, stats

    baseline, baseline_s, warm, warm_s, stats = run_once(benchmark,
                                                         _measure)
    speedup = baseline_s / warm_s
    print_table(
        f"Warm dispatch: {N_SWEEPS} sweeps x {N_POINTS} points, "
        f"{TABLE_MB} MB worker state, {N_WORKERS} workers",
        "variant          total_s", [
            f"per-call pool  {baseline_s:9.3f}",
            f"warm pool      {warm_s:9.3f}  ({speedup:.1f}x)",
        ])
    print(f"dispatch stats: {stats}")

    # Correctness before speed: identical values sweep-to-sweep and
    # against the frozen baseline.
    assert all(result == baseline[0] for result in baseline + warm)
    # One broadcast of the table, one executor generation, every point
    # after the first sweep a broadcast hit.
    assert stats["generation"] == 1
    assert stats["broadcasts"] == 1
    assert stats["broadcast_hits"] >= (N_SWEEPS - 1) * N_POINTS
    assert speedup >= MIN_WARM_SPEEDUP


# ----------------------------------------------------------------------
# deterministic intra-point sharding of one deep adaptive point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _DeepPointWorker:
    """Incremental + shard protocol over a heavy tail-count estimate.

    Batch ``b`` draws ``DRAWS_PER_BATCH`` normals from
    ``batch_seed_sequence(root, b)`` — content depends only on the batch
    index, so shard deltas merged in index order replay the serial run
    byte for byte.
    """

    draws: int = DRAWS_PER_BATCH

    def decode(self, stored) -> Dict[str, int]:
        if stored is None:
            return {"k": 0, "n": 0, "units": 0, "batches": 0}
        return {key: int(stored[key]) for key in ("k", "n", "units",
                                                  "batches")}

    def encode(self, state) -> Dict[str, int]:
        return dict(state)

    def satisfied(self, state, rule) -> bool:
        return rule.satisfied(state["k"], state["n"], state["units"])

    def _batch(self, params: Mapping[str, Any], seed_sequence,
               batch_index: int) -> Dict[str, int]:
        from repro.coding.ber import batch_seed_sequence

        child = batch_seed_sequence(seed_sequence, int(batch_index))
        draws = np.random.default_rng(child).standard_normal(self.draws)
        return {"k": int(np.count_nonzero(draws > params["threshold"])),
                "n": self.draws, "units": 1, "batches": 1}

    def advance(self, params, state, seed_sequence, rule):
        state = dict(state)
        while not self.satisfied(state, rule):
            state = self.absorb(state,
                                self._batch(params, seed_sequence,
                                            state["batches"]))
        return state

    def progress(self, state) -> int:
        return int(state["units"])

    def finalize(self, params, state) -> Dict[str, Any]:
        return {"tail_fraction": state["k"] / state["n"],
                "batches": state["batches"]}

    # -- shard protocol ------------------------------------------------
    def cursor(self, state) -> int:
        return int(state["batches"])

    def advance_shard(self, params, seed_sequence, batch_indices):
        return [self._batch(params, seed_sequence, index)
                for index in batch_indices]

    def absorb(self, state, delta):
        return {key: state[key] + delta[key] for key in state}


#: Unreachable CI target + hard cap: exactly N_BATCHES batches, always.
DEEP_RULE = StoppingRule(rel_ci_target=1e-12, min_units=1,
                         max_units=N_BATCHES, min_errors=10**15)
DEEP_POINT = [{"threshold": 2.0}]


def test_sharded_deep_point_matches_serial(benchmark):
    worker = _DeepPointWorker()

    def _measure():
        start = time.perf_counter()
        serial = SweepEngine(store=MemoryStore()).sweep_adaptive(
            worker, DEEP_POINT, DEEP_RULE, rng=5)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        with SweepEngine(n_workers=SHARD_WORKERS,
                         store=MemoryStore()) as engine:
            sharded = engine.sweep_adaptive(worker, DEEP_POINT, DEEP_RULE,
                                            rng=5)
        sharded_s = time.perf_counter() - start
        return serial, serial_s, sharded, sharded_s

    serial, serial_s, sharded, sharded_s = run_once(benchmark, _measure)
    speedup = serial_s / sharded_s
    print_table(
        f"Sharded deep point: {N_BATCHES} batches x {DRAWS_PER_BATCH} "
        f"draws, {SHARD_WORKERS} workers",
        "variant   total_s", [
            f"serial  {serial_s:9.3f}",
            f"sharded {sharded_s:9.3f}  ({speedup:.1f}x)",
        ])

    # Byte-identity is unconditional: sharding must be invisible.
    assert canonical_json([outcome.to_dict() for outcome in sharded]) \
        == canonical_json([outcome.to_dict() for outcome in serial])
    assert serial[0].adaptive["total_units"] == N_BATCHES
    # The speedup floor needs the physical cores to shard across.
    if (os.cpu_count() or 1) >= SHARD_WORKERS:
        assert speedup >= MIN_SHARD_SPEEDUP
    else:
        print(f"cpu_count={os.cpu_count()}: speedup floor "
              f"({MIN_SHARD_SPEEDUP}x) not asserted on this machine")
