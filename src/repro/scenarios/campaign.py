"""Campaigns: many scenarios, one shared pool, one durable store.

A :class:`Campaign` composes ``(scenario, overrides, seed)`` entries —
built programmatically, from the whole registry
(:meth:`Campaign.from_registry`), or from a plain-dict/JSON campaign file
(:meth:`Campaign.from_dict` / :meth:`Campaign.from_file`) — and executes
*all* points from *all* scenarios through **one** shared
:class:`~repro.core.pool.WorkerPool`.  Every point follows the engine's
one lifecycle (:class:`repro.core.engine.Point`): resolved against the
store, coalesced with any twin entry that computes the same thing, run
by :func:`repro.core.engine.run_points` — which shards deep adaptive
points across a multi-process pool exactly as
:class:`~repro.core.engine.SweepEngine` does — and recorded.  Points are
interleaved round-robin across scenarios, so a short sweep never
serializes behind a long one, and every completed point is written to
the campaign's :class:`repro.core.store.RunStore` immediately — an
interrupted campaign re-run against the same
:class:`~repro.core.store.DiskStore` resumes from whatever already
finished.

The outcome is a :class:`CampaignResult`: one
:class:`~repro.scenarios.result.ScenarioResult` per entry plus aggregate
cache/timing statistics, with the same deterministic-JSON discipline as
single scenario runs (cache provenance and wall time live in the
``execution`` block, outside the deterministic payload).

The zero-code surface is ``python -m repro run-all [--store DIR]
[--only GLOB] [--resume]``.
"""

from __future__ import annotations

import fnmatch
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.core.engine import Point, plan_sweep, run_points
from repro.core.pool import WorkerPool, broadcast_key_for
from repro.core.store import MemoryStore, RunStore
from repro.scenarios.registry import build_scenario, scenario_names
from repro.scenarios.result import ScenarioResult
from repro.scenarios.scenario import Scenario
from repro.utils.serialization import jsonify, to_plain


@dataclass(frozen=True)
class CampaignEntry:
    """One campaign row: a named scenario with overrides and a seed.

    ``label`` identifies the entry inside the campaign (defaults to the
    scenario name; must be unique — run the same scenario twice by giving
    the entries distinct labels).  ``seed=None`` draws fresh entropy,
    making the entry non-reproducible and never cached.
    """

    scenario: str
    label: str = ""
    overrides: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", self.scenario)
        object.__setattr__(self, "overrides", dict(self.overrides))

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"scenario": self.scenario,
                                 "seed": self.seed}
        if self.label != self.scenario:
            entry["label"] = self.label
        if self.overrides:
            entry["set"] = to_plain(dict(self.overrides))
        return entry

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, Any]],
                  default_seed: Optional[int] = 0) -> "CampaignEntry":
        """Build an entry from its dict form (or a bare scenario name)."""
        if isinstance(data, str):
            return cls(scenario=data, seed=default_seed)
        unknown = set(data) - {"scenario", "label", "set", "seed"}
        if unknown:
            raise ValueError(
                f"unknown campaign entry key(s): {sorted(unknown)}")
        if "scenario" not in data:
            raise ValueError("campaign entry needs a 'scenario' name")
        return cls(scenario=str(data["scenario"]),
                   label=str(data.get("label", "")),
                   overrides=dict(data.get("set", {})),
                   seed=data.get("seed", default_seed))

    def build(self) -> Scenario:
        """Instantiate this entry's scenario with its overrides applied.

        The one spec-from-JSON entry path: a plain dict (an HTTP request
        body, a campaign-file row) goes ``from_dict`` → ``build`` to a
        runnable :class:`~repro.scenarios.scenario.Scenario` — used by
        the campaign runner and the campaign service alike.
        """
        return build_scenario(self.scenario, self.overrides)


class Campaign:
    """An executable collection of scenario runs sharing pool and store."""

    def __init__(self, entries: Sequence[CampaignEntry]) -> None:
        entries = tuple(entries)
        if not entries:
            raise ValueError("a campaign needs at least one entry")
        labels = [entry.label for entry in entries]
        duplicates = sorted({label for label in labels
                             if labels.count(label) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate campaign label(s) {duplicates}; give entries "
                "running the same scenario twice distinct labels")
        self.entries: Tuple[CampaignEntry, ...] = entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[CampaignEntry]:
        return iter(self.entries)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_registry(cls, only: Union[None, str, Sequence[str]] = None,
                      seed: Optional[int] = 0) -> "Campaign":
        """A campaign over every registered scenario.

        ``only`` filters by glob pattern(s) against scenario names
        (``"fig8*"``, ``["fig*", "table1"]``); no match is an error, not
        an empty campaign.
        """
        names = scenario_names()
        if only is not None:
            patterns = [only] if isinstance(only, str) else list(only)
            selected = [name for name in names
                        if any(fnmatch.fnmatchcase(name, pattern)
                               for pattern in patterns)]
            if not selected:
                raise ValueError(
                    f"no scenario matches {patterns!r}; known scenarios: "
                    f"{', '.join(names)}")
            names = selected
        return cls([CampaignEntry(scenario=name, seed=seed)
                    for name in names])

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Campaign":
        """Build a campaign from its plain-dict form.

        Format: ``{"seed": <default seed>, "entries": [<entry>, ...]}``
        where each entry is a scenario name or a dict with ``scenario``
        and optional ``label`` / ``set`` / ``seed`` keys.
        """
        unknown = set(data) - {"seed", "entries"}
        if unknown:
            raise ValueError(f"unknown campaign key(s): {sorted(unknown)}")
        if "entries" not in data:
            raise ValueError("campaign dict needs an 'entries' list")
        default_seed = data.get("seed", 0)
        return cls([CampaignEntry.from_dict(entry, default_seed=default_seed)
                    for entry in data["entries"]])

    @classmethod
    def from_file(cls, path: str) -> "Campaign":
        """Load a JSON campaign file (see :meth:`from_dict` for the format)."""
        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_dict(json.load(stream))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, round-trippable through :meth:`from_dict`."""
        return {"entries": [entry.to_dict() for entry in self.entries]}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def build_scenarios(self) -> List[Scenario]:
        """Instantiate every entry's scenario (overrides applied)."""
        return [entry.build() for entry in self.entries]

    def run(self, store: Optional[RunStore] = None,
            n_workers: Optional[int] = None,
            pool: Optional[WorkerPool] = None) -> "CampaignResult":
        """Execute every point of every entry through one shared pool.

        Points already present in ``store`` are served from it; every
        computed point is written to the store the moment it completes,
        so interrupting and re-running against the same
        :class:`~repro.core.store.DiskStore` resumes instead of starting
        over.  Pending points are interleaved round-robin across
        scenarios before submission, so short sweeps finish early instead
        of queueing behind long ones; entries that compute the same thing
        (the same scenario under two labels — for an adaptive scenario,
        at an equal precision target) are computed once and fanned out,
        reported as ``shared_points`` — distinct from ``cache_hits``,
        which only counts pre-existing store content.

        Parallel runs (``n_workers > 1``) dispatch through one
        :class:`~repro.core.pool.WorkerPool`: each scenario's worker is
        broadcast to the pool once (per-point messages carry only the
        broadcast key, params and seed state) and cheap points are
        submitted in chunks; on more than one process, deep adaptive
        points are sharded across the pool, byte-identical to serial.
        Pass a caller-owned warm ``pool`` to reuse its processes and
        broadcasts across campaign runs; otherwise an ephemeral pool
        lives for this call.  The pool's dispatch counters land in the
        result's ``execution["dispatch"]`` block.
        """
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        store = store if store is not None else MemoryStore()
        scenarios = self.build_scenarios()
        started = time.perf_counter()
        owned_pool = pool is None and n_workers is not None and n_workers > 1
        if owned_pool:
            pool = WorkerPool(n_workers)
        rows: List[List[Point]] = []
        for entry, scenario in zip(self.entries, scenarios):
            key = scenario.cache_key()
            broadcast = (broadcast_key_for(scenario.worker, key=key)
                         if pool is not None else None)
            # A non-None rule marks the entry adaptive: its points resume
            # stored tallies instead of being fixed computations.
            rule = (scenario.precision.stopping_rule()
                    if scenario.precision is not None else None)
            rows.append([
                Point(planned, scenario.worker, rule=rule,
                      broadcast=broadcast, scenario=scenario.name,
                      label=entry.label)
                for planned in plan_sweep(scenario.worker, scenario.points,
                                          rng=entry.seed, key=key)])

        # Round-robin interleave: the k-th point of every scenario before
        # the (k+1)-th of any — short sweeps drain early from the shared
        # pool instead of waiting out the longest scenario.  Pending
        # points that compute the same thing (one scenario under two
        # labels) group under their coalesce key: the first computes,
        # the rest share its result.
        groups: Dict[Any, List[Point]] = {}
        for point in itertools.chain.from_iterable(
                itertools.zip_longest(*rows)):
            if point is not None and not point.resolve(store):
                key = point.coalesce_key()
                groups.setdefault(point if key is None else key,
                                  []).append(point)
        try:
            run_points([group[0] for group in groups.values()], store, pool)
            dispatch = pool.stats() if pool is not None else None
        finally:
            if owned_pool:
                pool.close()
        for primary, *twins in groups.values():
            for twin in twins:
                twin.share(primary)
        elapsed_s = time.perf_counter() - started
        store_description = store.describe()

        results = []
        for entry, scenario, row in zip(self.entries, scenarios, rows):
            seed = entry.seed if isinstance(entry.seed,
                                            (int, np.integer)) else None
            # Per-entry provenance: "this entry did not compute the
            # point itself" — store hits and points shared from a twin.
            results.append(scenario.assemble_result(
                seed=seed, points=tuple(point.to_dict() for point in row),
                from_cache=[point.from_cache or point.coalesced
                            for point in row],
                store_info=store_description,
                adaptive=[point.adaptive() for point in row]))
        n_points = sum(len(row) for row in rows)
        hits = sum(point.from_cache for row in rows for point in row)
        # Served without computing, but NOT from pre-existing store
        # content — counted apart from cache hits so the campaign stats
        # never claim a cold store was warm.
        n_shared = sum(point.coalesced for row in rows for point in row)
        execution = {
            "n_scenarios": len(self.entries),
            "n_points": n_points,
            "cache_hits": hits,
            "shared_points": n_shared,
            "cache_misses": n_points - hits - n_shared,
            "elapsed_s": elapsed_s,
            "n_workers": n_workers,
            # The one full store walk of the run (entries, bytes).
            "store": store.info(),
        }
        if dispatch is not None:
            execution["dispatch"] = dispatch
        return CampaignResult(entries=self.entries, results=tuple(results),
                              execution=execution)


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one :meth:`Campaign.run`.

    ``results`` parallels the campaign's ``entries``; ``execution`` holds
    the aggregate cache/timing statistics and is excluded from the
    deterministic JSON payload (same discipline as
    :class:`~repro.scenarios.result.ScenarioResult`).
    """

    entries: Tuple[CampaignEntry, ...]
    results: Tuple[ScenarioResult, ...]
    execution: Dict[str, Any] = field(compare=False)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ScenarioResult]:
        return iter(self.results)

    def labels(self) -> List[str]:
        """Entry labels, in campaign order."""
        return [entry.label for entry in self.entries]

    def result(self, label: str) -> ScenarioResult:
        """The :class:`ScenarioResult` of the entry labelled ``label``."""
        for entry, result in zip(self.entries, self.results):
            if entry.label == label:
                return result
        raise KeyError(f"no campaign entry labelled {label!r}; labels: "
                       f"{', '.join(self.labels())}")

    # ------------------------------------------------------------------
    def to_dict(self, include_execution: bool = False) -> Dict[str, Any]:
        """Plain-dict form: campaign spec plus per-entry scenario results.

        Deterministic by default; ``include_execution=True`` adds the
        aggregate and per-scenario ``execution`` blocks.
        """
        payload: Dict[str, Any] = {
            "campaign": {"entries": [entry.to_dict()
                                     for entry in self.entries]},
            "scenarios": {
                entry.label: result.to_dict(
                    include_execution=include_execution)
                for entry, result in zip(self.entries, self.results)},
        }
        if include_execution:
            payload["execution"] = to_plain(self.execution)
        return payload

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON — byte-identical cold vs warm, strictly
        valid (non-finite floats become the string sentinels of
        :func:`repro.utils.serialization.jsonify`)."""
        return json.dumps(jsonify(self.to_dict()), indent=indent,
                          sort_keys=True, allow_nan=False)

    def save_json(self, path: str, indent: int = 2) -> None:
        """Write :meth:`to_json` to ``path`` (trailing newline included)."""
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(self.to_json(indent=indent))
            stream.write("\n")


def run_campaign(only: Union[None, str, Sequence[str]] = None,
                 seed: Optional[int] = 0,
                 store: Optional[RunStore] = None,
                 n_workers: Optional[int] = None) -> CampaignResult:
    """Run (a glob-filtered slice of) the whole registry in one campaign."""
    return Campaign.from_registry(only=only, seed=seed).run(
        store=store, n_workers=n_workers)
