"""Scenario benchmark of the wireless-interconnect reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload noc --seed 0 --seconds 45 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``noc``    cold, serial passes of the NoC scenarios;
* ``served`` a closed loop of clients against ``python -m repro serve``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` repeats the timed phase with span wrappers installed and
reports the per-layer metrics instead, writing a Chrome trace-event file
under ``.perfbench_out/``.  Either way the outputs are checked against
the reference values in ``perfbench/reference``; the last line of
standard output is one JSON object, and the exit status is non-zero
when an output is wrong or an operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _require_source_tree() -> None:
    """Refuse to run without the program's source next to the benchmark
    (an installed ``repro`` elsewhere must not stand in for it)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"error: no repro source tree under "
                         f"{os.path.join(ROOT, 'src')}\n")
        raise SystemExit(2)
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _metric_specs(trace: bool):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("noc", "served"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_source_tree()
    # A terminated run unwinds like an error, so every child process and
    # daemon it started is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    units = _metric_specs(bool(args.trace))
    if args.workload == "served":
        from perfbench import served

        outcome = served.run(args.seed, args.seconds, bool(args.trace), ROOT)
    else:
        from perfbench import noc

        outcome = noc.run(args.seed, args.seconds, bool(args.trace), ROOT)

    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    for problem in outcome.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    correct = not outcome.problems and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in outcome.metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
