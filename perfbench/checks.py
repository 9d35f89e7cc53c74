"""Output correctness: compare a result's points with the committed reference.

``perfbench/reference/<scenario>.json`` holds, for seed 0, every point's
params, spawn key and value, plus a ``monte_carlo`` map naming the value
fields that depend on the seed.  A field without a rule of its own
carries a centre, the median over the reference seeds, and a band, five
times the largest deviation from that centre seen over them;
``mean_bands`` bounds each such field's mean deviation over its points,
four times the largest mean seen (``make_reference.py`` derives all of
it).  A benchmark run checks hundreds of results at seeds the reference
never saw, so the bands are wide enough that chance alone does not fail
one.  Only ``points`` are compared, never the result's ``version``, so a
version bump alone never fails.

* A field that is not Monte-Carlo (analytic NoC curves, saturation rates,
  zero-load latencies, DE thresholds, link-budget fields) must match the
  reference to :data:`REL_TOL` relative.
* A Monte-Carlo error rate, or a confidence bound on one, must be
  statistically consistent with the reference: the two Wilson score
  intervals (z = :data:`WILSON_Z`) must overlap.  Bit errors cluster
  inside failed codewords, so a bit error rate is scored over
  ``n_bits / BIT_DESIGN_EFFECT`` effective trials; a frame error rate
  over its codewords.
* An error count must agree with its rate: ``n_bit_errors`` equals
  ``bit_error_rate * n_bits``.
* The sample size an adaptive point stopped at (``n_bits``,
  ``n_codewords``) must be a positive whole number.
* Any other Monte-Carlo number must lie within its band around its
  centre, and the field's mean deviation over the points within its mean
  band: one point may be far off by chance, a whole curve may not (fig10's
  required Eb/N0 moved by up to 1.1 dB from the median at a point between
  the reference seeds, its mean over the points by at most 0.15 dB).
* A Monte-Carlo flag (a NoC point near saturation) is not compared.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Any, Dict, List, Mapping

from perfbench.helpers import wilson_interval

REL_TOL = 1e-9
WILSON_Z = 3.0
#: Variance inflation of a bit error rate over the binomial, bounded from
#: the seed-to-seed spread of the reference runs (measured 17 to 36).
BIT_DESIGN_EFFECT = 50.0
#: Bits per codeword of the scenarios whose values carry no codeword
#: count (their 2000-bit points are four 500-bit codewords).
FRAME_BITS = 500
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def leaves(value: Any, path: str = ""):
    """``(path, leaf)`` pairs of a nested JSON value, in order."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def field_of(path: str) -> str:
    """A leaf path with its list indices dropped: the field it belongs to."""
    return re.sub(r"\[\d+\]", "[]", path)


def _finite_pair(value: Any, reference: Any):
    """Both leaves as floats, or ``None`` when either is not a finite
    number (flags, nulls, the ``"Infinity"``/``"NaN"`` sentinels)."""
    if any(isinstance(leaf, bool) or not isinstance(leaf, (int, float))
           or not math.isfinite(leaf) for leaf in (value, reference)):
        return None
    return float(value), float(reference)


def _close(value: Any, reference: Any) -> bool:
    pair = _finite_pair(value, reference)
    if pair is None:
        return value == reference
    a, b = pair
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


BIT_RATES = ("bit_error_rate", "ber_ci_low", "ber_ci_high")
FRAME_RATES = ("block_error_rate", "frame_error_rate")
SAMPLE_SIZES = ("n_bits", "n_codewords")
#: Monte-Carlo fields checked by a rule of their own rather than a band.
OWN_RULE = BIT_RATES + FRAME_RATES + SAMPLE_SIZES + ("n_bit_errors",)


def _trials(field: str, value: Mapping[str, Any]) -> float:
    if field in BIT_RATES:
        return value["n_bits"] / BIT_DESIGN_EFFECT
    if "n_codewords" in value:
        return value["n_codewords"]
    return value["n_bits"] / FRAME_BITS


def _monte_carlo_ok(path: str, band: Any, value: Mapping[str, Any],
                    reference_value: Mapping[str, Any], leaf: Any,
                    reference_leaf: Any) -> bool:
    """Whether one Monte-Carlo leaf is consistent with the reference."""
    field = path.rsplit(".", 1)[-1]
    if isinstance(reference_leaf, bool):
        return isinstance(leaf, bool)
    if field == "n_bit_errors":
        return leaf == round(value["bit_error_rate"] * value["n_bits"])
    if field in SAMPLE_SIZES:
        return isinstance(leaf, int) and leaf >= 1
    if _finite_pair(leaf, reference_leaf) is None:
        return leaf == reference_leaf
    if field in BIT_RATES or field in FRAME_RATES:
        n = _trials(field, value)
        n_ref = _trials(field, reference_value)
        low, high = wilson_interval(leaf * n, n, WILSON_Z)
        ref_low, ref_high = wilson_interval(reference_leaf * n_ref, n_ref,
                                            WILSON_Z)
        return low <= ref_high and ref_low <= high
    if band is None:
        return leaf == reference_leaf
    return abs(leaf - band["centre"]) <= band["band"]


def load_reference(name: str) -> Dict[str, Any]:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"),
              encoding="utf-8") as stream:
        return json.load(stream)


def check_result(text: str) -> List[str]:
    """Problems found in one result's deterministic JSON
    (``ScenarioResult.to_json()``, as served); empty when it matches."""
    payload = json.loads(text)
    name = payload["scenario"]
    reference = load_reference(name)
    points = payload["points"]
    if len(points) != len(reference["points"]):
        return [f"{name}: {len(points)} points, reference has "
                f"{len(reference['points'])}"]
    problems = []
    bands = reference["monte_carlo"]
    deviations: Dict[str, List[float]] = {}
    for index, (point, expected) in enumerate(zip(points,
                                                  reference["points"])):
        if point["params"] != expected["params"]:
            problems.append(f"{name} point {index}: params "
                            f"{point['params']} != {expected['params']}")
            continue
        got = dict(leaves(point["value"]))
        want = dict(leaves(expected["value"]))
        if set(got) != set(want):
            problems.append(f"{name} point {index}: fields differ: "
                            f"{sorted(set(got) ^ set(want))}")
            continue
        for path, reference_leaf in want.items():
            if path in bands[index]:
                band = bands[index][path]
                ok = _monte_carlo_ok(path, band, point["value"],
                                     expected["value"], got[path],
                                     reference_leaf)
                if ok and band is not None:
                    deviations.setdefault(field_of(path), []).append(
                        got[path] - band["centre"])
            else:
                ok = _close(got[path], reference_leaf)
            if not ok:
                problems.append(f"{name} point {index} {path}: "
                                f"{got[path]!r} vs reference "
                                f"{reference_leaf!r}")
    if not problems:
        for field, band in reference["mean_bands"].items():
            mean = sum(deviations[field]) / len(deviations[field])
            if abs(mean) > band:
                problems.append(f"{name} {field}: mean deviation {mean:.4g} "
                                f"from the reference exceeds {band:.4g}")
    return problems
