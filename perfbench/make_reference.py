"""Regenerate the reference values the benchmark checks outputs against.

    python3 perfbench/make_reference.py [scenario ...]

Runs every benchmark scenario (or only those named) at seeds ``0 .. N_SEEDS-1`` (about 10
minutes on a 2-core machine) and writes ``perfbench/reference/<name>.json``:
the seed-0 points plus, for each point, the centre and band of every
value field that changed between seeds, and a band for each such
field's mean deviation (see :mod:`perfbench.checks`).  Re-run it
after a deliberate re-baseline of the program's numerics.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.checks import (  # noqa: E402
    OWN_RULE, REFERENCE_DIR, field_of, leaves)
from perfbench.layers import ALL_SCENARIOS  # noqa: E402

#: Seeds each scenario runs at; seed 0 is the reference.
N_SEEDS = 16
#: A Monte-Carlo band is this many times the largest deviation from the
#: reference seeds' median that those seeds showed; it catches a gross
#: error at one point.
BAND_FACTOR = 5.0
#: The band of a field's mean deviation over its points is this many
#: times the largest such mean over the reference seeds; it catches a
#: shift of the whole curve.
MEAN_BAND_FACTOR = 4.0


def _numbers(values) -> bool:
    return all(isinstance(value, (int, float)) and not isinstance(value, bool)
               for value in values)


def _band(path: str, values) -> Optional[dict]:
    """Centre (median over the seeds) and band of a Monte-Carlo leaf;
    ``None`` for flags, non-numbers and the fields with a rule of their
    own (error rates, counts, sample sizes)."""
    if path.rsplit(".", 1)[-1] in OWN_RULE or not _numbers(values):
        return None
    centre = statistics.median(values)
    return {"centre": centre,
            "band": BAND_FACTOR * max(abs(value - centre) for value in values)}


def _mean_bands(per_point, bands) -> Dict[str, float]:
    """Band of each banded field's mean deviation from its centres."""
    deviations: Dict[str, List[List[float]]] = {}
    for index, point_bands in enumerate(bands):
        for path, band in point_bands.items():
            if band is None:
                continue
            deviations.setdefault(field_of(path), []).append(
                [points[index][path] - band["centre"]
                 for points in per_point])
    return {field: MEAN_BAND_FACTOR * max(
        abs(statistics.mean(column)) for column in zip(*rows))
        for field, rows in sorted(deviations.items())}


def reference(name: str, runs) -> dict:
    """Reference of one scenario from its results (parsed
    ``to_json()``) at seeds ``0 .. len(runs)-1``."""
    per_point = [[dict(leaves(point["value"])) for point in run["points"]]
                 for run in runs]
    varying = {field_of(path)
               for points in per_point[1:]
               for index, values in enumerate(points)
               for path, value in values.items()
               if per_point[0][index].get(path) != value}
    bands = [{path: _band(path, [points[index].get(path) for points in per_point])
              for path in sorted(values) if field_of(path) in varying}
             for index, values in enumerate(per_point[0])]
    return {"scenario": name, "seed": 0, "reference_seeds": len(runs),
            "points": runs[0]["points"], "monte_carlo": bands,
            "mean_bands": _mean_bands(per_point, bands)}


def main() -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    from repro import build_scenario

    for name in sys.argv[1:] or ALL_SCENARIOS:
        payload = reference(name, [
            json.loads(build_scenario(name).run(rng=seed).to_json())
            for seed in range(N_SEEDS)])
        with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w",
                  encoding="utf-8") as stream:
            json.dump(payload, stream, indent=1, sort_keys=True)
            stream.write("\n")
        print(f"{name}: {len(payload['points'])} points", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
