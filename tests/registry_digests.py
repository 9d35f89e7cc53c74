"""Pinned bytes of the scenario registry, and the script that pins them.

``tests/data/registry_digests.json`` holds, for every registered
scenario, the SHA-256 of the canonical JSON of its seed-0 ``points`` and
the SHA-256 of the canonical JSON of its sorted planned store keys.  It
also records the ``repro.__version__`` and the numpy/scipy versions it
was made with.  A change to a point digest changes what the registry
reproduces; a change to a key digest turns every warm store cold.  A
change that moves either on purpose regenerates the file and names each
changed scenario and the reason in CHANGES.md (and bumps the version
when store keys change).

``tests/test_registry_digests.py`` checks every scenario's keys and the
points of the quick scenarios; ``python tests/test_frontends.py``
(``make frontends``) checks the points of all of them.  Regenerate the
file (every scenario cold and serial, about half a minute on two
cores)::

    PYTHONPATH=src python tests/registry_digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time
from typing import Any, Dict

import numpy as np
import scipy

import repro
from repro.core.engine import plan_sweep
from repro.scenarios import build_scenario, scenario_names
from repro.utils.hashing import canonical_json

PATH = pathlib.Path(__file__).parent / "data" / "registry_digests.json"
#: The root seed every digest is taken at.
SEED = 0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def points_digest(result_json: str) -> str:
    """Digest of the ``points`` of a result's deterministic JSON."""
    return _sha256(canonical_json(json.loads(result_json)["points"]))


def keys_digest(name: str) -> str:
    """Digest of the sorted store keys of scenario ``name`` at ``SEED``."""
    scenario = build_scenario(name)
    keys = sorted(point.store_key for point in plan_sweep(
        scenario.worker, scenario.points, rng=SEED,
        key=scenario.cache_key()))
    return _sha256(canonical_json(keys))


def load() -> Dict[str, Any]:
    """The pinned digests."""
    return json.loads(PATH.read_text(encoding="utf-8"))


def environment() -> Dict[str, str]:
    """The versions a digest file is made with."""
    return {"repro": repro.__version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def main() -> None:
    scenarios = {}
    for name in scenario_names():
        started = time.perf_counter()
        result = build_scenario(name).run(rng=SEED)
        elapsed_s = time.perf_counter() - started
        scenarios[name] = {"points": points_digest(result.to_json()),
                           "keys": keys_digest(name)}
        print(f"{name:40s} cold {elapsed_s:6.2f} s")
    payload = {**environment(), "seed": SEED, "scenarios": scenarios}
    PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"{len(scenarios)} scenarios pinned in {PATH}")


if __name__ == "__main__":
    main()
