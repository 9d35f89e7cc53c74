"""Pure helpers of the benchmark: percentiles, span arithmetic, schedules.

Nothing here imports :mod:`repro` or touches the clock, so the unit tests
in ``perfbench/tests`` exercise these functions in milliseconds.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: A reported tail percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def min_samples_for_percentile(percentile: float) -> int:
    """Smallest sample count that leaves ``MIN_TAIL_SAMPLES`` beyond
    ``percentile`` (in percent): 100 samples for p90, 200 for p95."""
    if not 0.0 < percentile < 100.0:
        raise ValueError("percentile must lie strictly between 0 and 100")
    return math.ceil(MIN_TAIL_SAMPLES * 100.0 / (100.0 - percentile) - 1e-9)


def percentile(samples: Sequence[float], percent: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * percent / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: Sequence[float], percent: float) -> float:
    """``percentile`` that refuses to report a tail with fewer than ten
    samples beyond it."""
    needed = min_samples_for_percentile(percent)
    if len(samples) < needed:
        raise ValueError(f"p{percent:g} needs at least {needed} samples, "
                         f"got {len(samples)}")
    return percentile(samples, percent)


def quietest_percentile(blocks: Sequence[Sequence[float]],
                        percent: float) -> float:
    """Lowest ``tail_percentile`` over blocks of samples taken at
    different moments: the block that a slowdown of the host touched
    least."""
    return min(tail_percentile(block, percent) for block in blocks)


def fastest_total(passes: Sequence[Mapping[str, float]]) -> float:
    """Wall of one pass, each part taken at its quickest.

    Each pass maps the same parts (scenarios) to the time it took for
    each; returns the sum, over the parts, of the shortest time any pass
    took for it.
    """
    names = set(passes[0])
    if any(set(walls) != names for walls in passes):
        raise ValueError("passes ran different parts")
    return sum(min(walls[name] for walls in passes) for name in names)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _covered(intervals: Iterable[Tuple[int, int]], start: int,
             end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total = 0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[Mapping]) -> Dict[int, int]:
    """Self time of every span: its duration minus the part of it that
    its child spans cover.

    Each span is a mapping with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end`` (integers, one clock).  Children that overlap
    each other are counted once.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"]
                         - _covered(children.get(span["id"], ()),
                                    span["start"], span["end"]))
            for span in spans}


# ----------------------------------------------------------------------
# the served workload's schedule
# ----------------------------------------------------------------------
def served_schedule(seed: int, scenarios: Sequence[str], rounds: int,
                    warm_per_cold: int) -> List[Tuple[str, str, int]]:
    """Operations of the ``served`` workload's closed-loop client, in order.

    Each operation is ``(kind, scenario, seed)``.  The client cycles
    ``rounds`` times through ``scenarios`` and submits each under a fresh
    seed (``"cold"``); cold seeds are distinct, so no two cold
    submissions share a (scenario, seed) pair.  After each cold
    submission it repeats ``warm_per_cold`` finished pairs of the same
    scenario (``"warm"``), each drawn from that scenario's cold pairs so
    far.

    ``seed`` picks the cold seeds and which pair each warm submission
    repeats; the order of scenarios and kinds does not depend on it.
    """
    rng = random.Random(seed)
    names = list(scenarios) * rounds
    finished: Dict[str, List[int]] = {}
    operations: List[Tuple[str, str, int]] = []
    for name, cold_seed in zip(names, rng.sample(range(1, 2 ** 31),
                                                 len(names))):
        operations.append(("cold", name, cold_seed))
        finished.setdefault(name, []).append(cold_seed)
        operations.extend(("warm", name, rng.choice(finished[name]))
                          for _ in range(warm_per_cold))
    return operations


# ----------------------------------------------------------------------
# statistical bands of the correctness check
# ----------------------------------------------------------------------
def wilson_interval(successes: float, trials: float,
                    z: float) -> Tuple[float, float]:
    """Wilson score interval of a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    p = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (p + z * z / (2.0 * trials)) / denominator
    half = (z / denominator) * math.sqrt(
        p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, centre - half), min(1.0, centre + half)
