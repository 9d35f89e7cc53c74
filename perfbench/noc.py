"""The ``noc`` workload: cold, serial runs of the analytic NoC scenarios.

A *cold pass* runs every scenario once on a fresh
:class:`~repro.core.engine.SweepEngine` with its default in-memory store.
The scenarios hold no process-level caches, so one interpreter
(``child.py``) makes every cold pass of a run, one after another.

The reference machine is a few cores of a shared host whose speed drops
by up to 2x for stretches of seconds to minutes, and a slow stretch only
ever lengthens what runs in it.  A pass takes about half a second, so a
run makes dozens, spread over ``--seconds``; ``wall_s`` is one pass with
each scenario taken at its quickest over the run.  A submission here is
the whole workload, so ``cold_p50_ms`` is ``wall_s`` in ms.

Each cold pass is followed by a block of warm passes, which re-run every
scenario on the engines of the first cold pass, whose stores hold its
points.  Each block has enough samples for its own p90; ``warm_p50_ms``
and ``warm_p90_ms`` are the lowest block p50 and p90 of the run, for the
same reason as above.  Set-up probes (fresh interpreters that only
import and build) are spread over the first half of the run.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from perfbench import checks
from perfbench.helpers import (fastest_total, min_samples_for_percentile,
                               quietest_percentile)
from perfbench.layers import Outcome, layer_metrics

SCENARIOS = ("fig7", "fig8a")
#: Cold passes a run makes at least, however short ``--seconds``.
MIN_PASSES = 20
#: Set-up samples per run: the pass child's own and a probe after every
#: ``PROBE_EVERY``-th cold pass until there are this many.
N_SETUPS = 6
PROBE_EVERY = 4
#: Warm passes per block: enough that ten lie beyond the block's p90.
WARM_BLOCK = min_samples_for_percentile(90.0)
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")


def measure_setup(root: str, names) -> float:
    """Seconds from starting an interpreter to ``import repro`` plus
    ``build_scenario`` for ``names``."""
    start = time.perf_counter()
    process = subprocess.Popen([sys.executable, CHILD, "probe", *names],
                               cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        process.stdout.read()
        if process.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    return elapsed


class PassChild:
    """One ``child.py pass`` interpreter: its set-up time, then cold and
    warm passes on request."""

    def __init__(self, root: str, names, seed: int) -> None:
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, CHILD, "pass", str(seed), *names], cwd=root,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            line = self.process.stdout.readline()
            self.setup_s = time.perf_counter() - start
            if line.strip() != "ready":
                raise RuntimeError(f"pass child did not start: {line!r}")
        except BaseException:
            self.kill()
            raise

    def __enter__(self) -> "PassChild":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()

    def _send(self, command: str) -> Dict[str, Any]:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"pass child exited early "
                               f"(code {self.process.wait(timeout=60)})")
        return json.loads(line)

    def cold(self) -> Dict[str, Any]:
        return self._send("cold")

    def warm(self, count: int) -> Dict[str, Any]:
        return self._send(f"warm {count}")

    def close(self) -> float:
        """Stop the child; returns its peak RSS in MB."""
        peak_rss_mb = self._send("exit")["peak_rss_mb"]
        if self.process.wait(timeout=60) != 0:
            raise RuntimeError(f"pass child exited {self.process.returncode}")
        return peak_rss_mb

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def cold_pass(names, seed: int, tracer=None) -> Dict[str, Any]:
    """Run every scenario once, cold; returns walls, results and engines.

    With a ``tracer``, each run is a ``scenarios.run`` span, so the layer
    spans recorded inside it have it as their ancestor.
    """
    from repro.core.engine import SweepEngine
    from repro.scenarios import registry

    run: Dict[str, Any] = {"walls": {}, "results": {}, "engines": {},
                           "failures": {}, "points": {}}
    for name in names:
        scenario = registry.build_scenario(name)
        run["points"][name] = len(scenario.points)
        engine = SweepEngine()
        span = tracer.begin("scenarios.run") if tracer else None
        start = time.perf_counter()
        try:
            result = scenario.run(rng=seed, engine=engine)
        except Exception as error:  # counted as failed points, reported
            run["failures"][name] = f"{type(error).__name__}: {error}"
            result = None
        end = time.perf_counter()
        if span is not None:
            tracer.end(span)
        run["walls"][name] = end - start
        if result is not None:
            run["results"][name] = result
            run["engines"][name] = engine
    return run


def pass_report(run: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-ready part of a cold pass."""
    return {"walls": run["walls"], "failures": run["failures"],
            "points": run["points"],
            "hits": sum(result.execution["cache_hits"]
                        for result in run["results"].values()),
            "json": {name: result.to_json()
                     for name, result in run["results"].items()}}


def warm_passes(seed: int, cold: Dict[str, Any],
                count: int) -> Tuple[List[float], List[str]]:
    """``count`` warm passes; each re-runs every scenario on the engine
    whose store holds its cold run's points, and must be all store hits
    and byte-identical to the cold run."""
    from repro.scenarios import registry

    expected = {name: result.to_json()
                for name, result in cold["results"].items()}
    samples: List[float] = []
    for _ in range(count):
        start = time.perf_counter()
        results = {name: registry.build_scenario(name).run(
            rng=seed, engine=cold["engines"][name]) for name in expected}
        samples.append(time.perf_counter() - start)
        for name, result in results.items():
            if result.execution["cache_misses"] \
                    or result.to_json() != expected[name]:
                return samples, [f"{name}: warm re-run differs from its "
                                 f"cold run"]
    return samples, []


def _failed_points(report: Dict[str, Any]) -> int:
    return sum(report["points"][name] for name in report["failures"])


def _check_pass(report: Dict[str, Any], first: Dict[str, Any],
                outcome: Outcome) -> None:
    """A cold pass ran without errors or store hits, and gave the same
    bytes as the run's first pass, which matches the reference."""
    for name, message in report["failures"].items():
        outcome.problems.append(f"{name}: {message}")
    if report["hits"]:
        outcome.problems.append("a cold pass was served from the store")
    if report is first:
        for text in report["json"].values():
            outcome.problems.extend(checks.check_result(text))
    elif report["json"] != first["json"]:
        outcome.problems.append("cold passes of one seed differ")


def run(seed: int, seconds: float, trace: bool, root: str) -> Outcome:
    if trace:
        return _traced(seed, root)
    outcome = Outcome()
    deadline = time.perf_counter() + seconds
    setups: List[float] = []
    passes: List[Dict[str, Any]] = []
    blocks: List[List[float]] = []
    with PassChild(root, SCENARIOS, seed) as child:
        setups.append(child.setup_s)
        while not outcome.problems and (len(passes) < MIN_PASSES
                                        or time.perf_counter() < deadline):
            passes.append(child.cold())
            outcome.attempted += sum(passes[-1]["points"].values())
            outcome.failed += _failed_points(passes[-1])
            _check_pass(passes[-1], passes[0], outcome)
            if outcome.problems:
                break
            reply = child.warm(WARM_BLOCK)
            blocks.append(reply["samples"])
            outcome.problems.extend(reply["problems"])
            if len(passes) % PROBE_EVERY == 1 and len(setups) < N_SETUPS:
                setups.append(measure_setup(root, SCENARIOS))
        peak_rss_mb = child.close()
    if outcome.problems:
        return outcome
    wall_s = fastest_total([report["walls"] for report in passes])
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "points_per_s": sum(passes[0]["points"].values()) / wall_s,
        "warm_p50_ms": quietest_percentile(blocks, 50.0) * 1e3,
        "warm_p90_ms": quietest_percentile(blocks, 90.0) * 1e3,
        "cold_p50_ms": wall_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return outcome


def _traced(seed: int, root: str) -> Outcome:
    """Untraced cold pass in a fresh interpreter, then the traced pass
    here, both cold: process-level caches (memoised DE thresholds,
    lookup tables) must not make the second pass look cheaper."""
    from perfbench.spans import Tracer, chrome_trace, install

    outcome = Outcome()
    with PassChild(root, SCENARIOS, seed) as child:
        untraced = child.cold()
        child.close()

    tracer = Tracer()
    install(tracer)
    from repro.scenarios import registry

    for name in SCENARIOS:                  # the set-up, traced
        registry.build_scenario(name)
    traced = cold_pass(SCENARIOS, seed, tracer)

    outcome.attempted = sum(traced["points"].values())
    outcome.failed = _failed_points(traced)
    for name, message in traced["failures"].items():
        outcome.problems.append(f"{name}: {message}")
    for name, message in untraced["failures"].items():
        outcome.problems.append(f"{name} (untraced): {message}")
    for name, result in traced["results"].items():
        outcome.problems.extend(checks.check_result(result.to_json()))
        if result.to_json() != untraced["json"].get(name):
            outcome.problems.append(
                f"{name}: traced output differs from the untraced run")
    wall_s = sum(traced["walls"].values())
    executions = [result.execution for result in traced["results"].values()]
    hits = sum(execution["cache_hits"] for execution in executions)
    lookups = hits + sum(execution["cache_misses"] for execution in executions)
    outcome.metrics = layer_metrics(
        tracer.spans, wall_s=wall_s,
        untraced_wall_s=sum(untraced["walls"].values()),
        scenario_walls=traced["walls"],
        failure_rate=outcome.failed / max(outcome.attempted, 1),
        hit_frac=hits / max(lookups, 1))
    if outcome.metrics["trace.coverage"] < 0.9:
        outcome.problems.append(
            f"layer spans cover only {outcome.metrics['trace.coverage']:.3f}"
            f" of wall_s")
    chrome_trace(tracer.spans, os.path.join(
        _out_dir(root), f"trace-noc-seed{seed}.json"))
    return outcome


def _out_dir(root: str) -> str:
    path = os.path.join(root, ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path
