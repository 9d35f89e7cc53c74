"""Every registry scenario keeps its bytes from one commit to the next.

The front-end tests show that ``repro run``, ``run-all`` and ``submit``
agree with each other; this file shows that they agree with the pinned
``tests/data/registry_digests.json`` (see ``tests/registry_digests.py``
for what it holds and how to regenerate it).  The planned store keys of
every scenario are checked, which needs no compute; the seed-0 points
are checked for the scenarios whose cold run takes about half a second
or less.  ``python tests/test_frontends.py`` checks the points of all of
them.
"""

import pytest

from registry_digests import keys_digest, load, points_digest
from repro.scenarios import build_scenario, scenario_names

DIGESTS = load()
PINNED = DIGESTS["scenarios"]
#: Scenarios whose cold run in a fresh interpreter took 0.5 s or less
#: (2-core container), about 4.5 s together.  ``fig5``,
#: ``oversampling-sweep``, ``tx-power-sweep`` and ``link-distance-sweep``
#: pin the information-rate recursion, the last two through
#: ``WirelessBoardLink``.
QUICK = ("table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig7", "fig8",
         "fig8a", "fig8b", "fig9", "beamforming-sweep", "mesh3d-scaling",
         "measured-freespace-vs-copper", "oversampling-sweep",
         "phy-detector-comparison", "phy-oversampling-coding-ablation",
         "tx-power-sweep", "link-distance-sweep")


def _made_with():
    return {name: DIGESTS[name] for name in ("repro", "numpy", "scipy")}


def test_every_registered_scenario_is_pinned():
    assert sorted(PINNED) == sorted(scenario_names())
    assert set(QUICK) <= set(PINNED)


@pytest.mark.parametrize("name", scenario_names())
def test_planned_store_keys(name):
    assert keys_digest(name) == PINNED[name]["keys"], _made_with()


@pytest.mark.parametrize("name", QUICK)
def test_seed0_points(name):
    result = build_scenario(name).run(rng=DIGESTS["seed"])
    assert points_digest(result.to_json()) == PINNED[name]["points"], \
        _made_with()
