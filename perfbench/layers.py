"""Run outcome and the per-layer metrics derived from recorded spans."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from perfbench.helpers import self_times
from perfbench.spans import ORCHESTRATION

#: Every scenario any workload runs; each gets a ``scenarios.<name>.wall_s``
#: per-layer metric (0 on workloads that do not run it).
ALL_SCENARIOS = ("fig7", "fig8a", "fig5", "noc-transpose-crosscheck",
                 "phy-detector-comparison")


@dataclass
class Outcome:
    """What one benchmark run measured and what its checks found."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def _seconds(nanoseconds: float) -> float:
    return nanoseconds / 1e9


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Mapping[str, Any]], wall_s: float,
                  untraced_wall_s: float,
                  scenario_walls: Mapping[str, float],
                  failure_rate: float,
                  hit_frac: float,
                  service: Optional[Mapping[str, float]] = None,
                  dispatch: Optional[Mapping[str, Any]] = None
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    Times are self times (a span's duration minus what its child spans
    cover), summed per layer; counts are summed from the spans.
    ``hit_frac`` is the program's own count of point lookups served
    from the store, over all lookups.  ``service`` holds the client-side
    service figures and ``dispatch`` the daemon's ``/v1/stats`` dispatch
    block, both only on ``served``.
    """
    own = self_times(spans)
    self_ns: Dict[str, float] = defaultdict(float)
    total_ns: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in spans:
        name = span["name"]
        self_ns[name] += own[span["id"]]
        total_ns[name] += span["end"] - span["start"]
        calls[name] += 1
        for key, value in span["counts"].items():
            counts[name][key] += value

    def self_s(name: str) -> float:
        return _seconds(self_ns[name])

    analytic = counts["noc.analytic.build"]
    simulator = counts["noc.simulator"]
    bp = counts["coding.bp"]
    get = counts["core.store.get"]
    put = counts["core.store.put"]
    roots = [span for span in spans if span["parent"] is None
             and span["name"] in ("scenarios.run", "core.pool.task")]
    root_ns = sum(span["end"] - span["start"] for span in roots)
    orchestration_ns = sum(self_ns[name] for name in ORCHESTRATION)
    metrics = {
        "noc.analytic.build_s": self_s("noc.analytic.build"),
        "noc.analytic.builds": analytic["builds"],
        "noc.analytic.router_pairs_per_s": _ratio(
            analytic["router_pairs"], self_s("noc.analytic.build")),
        "noc.analytic.curve_s": self_s("noc.analytic.curve"),
        "noc.topology.build_s": self_s("noc.topology.build"),
        "noc.simulator.run_s": self_s("noc.simulator"),
        "noc.simulator.cycles": simulator["cycles"],
        "noc.simulator.cycles_per_s": _ratio(simulator["cycles"],
                                             self_s("noc.simulator")),
        "coding.bp.decode_s": self_s("coding.bp"),
        "coding.bp.codewords": bp["codewords"],
        "coding.bp.codewords_per_s": _ratio(bp["codewords"],
                                            self_s("coding.bp")),
        "coding.bp.mean_iterations": _ratio(bp["iterations"],
                                            bp["codewords"]),
        "coding.bp.useful_column_frac": _ratio(bp["iterations"],
                                               bp["column_slots"]),
        "coding.window_decoder.self_s": self_s("coding.window_decoder"),
        "coding.ber.self_s": self_s("coding.ber"),
        "coding.ber.codewords": counts["coding.ber"]["codewords"],
        "phy.frontend.self_s": self_s("phy.frontend"),
        "phy.trellis.s": self_s("phy.trellis"),
        "phy.trellis.symbols": counts["phy.trellis"]["symbols"],
        "phy.information_rate.s": self_s("phy.information_rate"),
        "core.engine.self_s": self_s("core.engine"),
        "core.store.gets": get["gets"],
        "core.store.get_s": self_s("core.store.get"),
        "core.store.puts": put["puts"],
        "core.store.put_s": self_s("core.store.put"),
        "core.store.put_bytes": put["bytes"],
        "core.store.hit_frac": hit_frac,
        "core.pool.tasks": calls["core.pool.run"],
        "core.pool.run_s": _seconds(total_ns["core.pool.run"]),
        "core.pool.overhead_s": _seconds(total_ns["core.pool.run"]
                                         - total_ns["core.pool.task"]),
        "core.pool.generations": (dispatch or {}).get("generation", 0),
        "core.pool.broadcasts": (dispatch or {}).get("broadcasts", 0),
        "scenarios.build_s": self_s("scenarios.build"),
        "trace.coverage": _ratio(root_ns - orchestration_ns, root_ns),
        "trace.overhead_frac": _ratio(wall_s, untraced_wall_s) - 1.0,
        "failure_rate": failure_rate,
    }
    for name in ALL_SCENARIOS:
        metrics[f"scenarios.{name}.wall_s"] = scenario_walls.get(name, 0.0)
    for name in ("submit_ms", "result_ms", "polls", "store_hits",
                 "computed"):
        metrics[f"service.{name}"] = (service or {}).get(name, 0)
    return {name: float(value) for name, value in metrics.items()}
