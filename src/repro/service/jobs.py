"""Jobs of the campaign service: requests, per-point slots, lifecycle.

A *job* is one submitted scenario run, decomposed into points at
admission: every point is a :class:`PointSlot` — the engine's one point
lifecycle (:class:`repro.core.engine.Point`: seed sequence, store key,
resolve / record) plus its scheduling status.  The
daemon (:mod:`repro.service.daemon`) mutates jobs only under its own
lock; this module holds the passive data model plus the request-payload
validation, so the HTTP layer and tests can reason about job state
without touching scheduler internals.

Lifecycle: ``queued`` → ``running`` → one of ``done`` / ``failed`` /
``cancelled``.  A job whose every point is served from the store at
admission is born ``done`` without ever entering the queue.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, Mapping, Optional

from repro.core.engine import Point
from repro.scenarios.campaign import CampaignEntry
from repro.scenarios.result import ScenarioResult
from repro.scenarios.scenario import Scenario
from repro.utils.serialization import to_plain

#: Admission priorities, lower rank dispatched first: interactive
#: single-scenario requests preempt (jump the queue of) bulk campaign
#: sweeps.  Preemption is at the granularity of a dispatch group: a
#: group — one point, or a job's points batched through their worker's
#: ``call_batch`` — is one unit that cannot be preempted, and running
#: groups are never interrupted.
PRIORITY_RANKS: Dict[str, int] = {"interactive": 0, "bulk": 10}

#: Payload keys accepted by ``POST /v1/scenarios``.
_REQUEST_KEYS = {"scenario", "set", "seed", "label", "priority"}


def parse_request(payload: Mapping[str, Any]) -> "tuple[CampaignEntry, str]":
    """Validate a submission payload into ``(entry, priority)``.

    The payload is a :class:`~repro.scenarios.campaign.CampaignEntry`
    dict (``scenario`` / ``set`` / ``seed`` / ``label``) plus an optional
    ``priority`` (``"interactive"``, the default, or ``"bulk"``).
    Raises ``ValueError`` on unknown keys or priorities — a typo must
    never silently run the default experiment at the default priority.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"submission payload must be a JSON object, "
                         f"got {type(payload).__name__}")
    unknown = set(payload) - _REQUEST_KEYS
    if unknown:
        raise ValueError(f"unknown submission key(s): {sorted(unknown)}; "
                         f"valid keys: {sorted(_REQUEST_KEYS)}")
    priority = str(payload.get("priority", "interactive"))
    if priority not in PRIORITY_RANKS:
        raise ValueError(f"priority must be one of "
                         f"{sorted(PRIORITY_RANKS)}, got {priority!r}")
    entry = CampaignEntry.from_dict(
        {key: value for key, value in payload.items() if key != "priority"})
    return entry, priority


class PointSlot(Point):
    """One point of one job: the point lifecycle plus its status."""

    __slots__ = ("status",)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.status = "pending"          # pending | done | failed | skipped


class Job:
    """One submitted scenario run, point-granular.

    All fields are mutated exclusively under the owning service's lock;
    reads for status reports go through :meth:`descriptor` (also under
    that lock).
    """

    def __init__(self, job_id: str, scenario: Scenario, label: str,
                 priority: str, seed: Optional[int],
                 slots: Iterable[PointSlot]) -> None:
        self.id = job_id
        self.scenario = scenario
        self.label = label
        self.priority = priority
        self.seed = seed
        self.slots = list(slots)
        self.error: Optional[str] = None
        self.cancelled = False
        self.created_at = time.time()
        self.started_monotonic: Optional[float] = None
        self.finished_monotonic: Optional[float] = None
        self._created_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.slots)

    @property
    def completed(self) -> int:
        return sum(1 for slot in self.slots if slot.status == "done")

    @property
    def status(self) -> str:
        if self.error is not None:
            return "failed"
        if self.cancelled:
            return "cancelled"
        if self.completed == len(self.slots):
            return "done"
        if self.started_monotonic is not None:
            return "running"
        return "queued"

    def mark_started(self) -> None:
        if self.started_monotonic is None:
            self.started_monotonic = time.monotonic()

    def mark_finished_if_complete(self) -> None:
        if self.finished_monotonic is None \
                and self.completed == len(self.slots):
            self.finished_monotonic = time.monotonic()

    def elapsed_s(self) -> Optional[float]:
        if self.finished_monotonic is None:
            return None
        return self.finished_monotonic - self._created_monotonic

    # ------------------------------------------------------------------
    def descriptor(self, include_points: bool = True) -> Dict[str, Any]:
        """Machine-readable job state for ``GET /v1/jobs/<id>``.

        ``points`` carries only *completed* points (results stream as
        they finish); ``pending_params`` names what is still owed so a
        client can render progress without diffing.
        """
        done = [slot for slot in self.slots if slot.status == "done"]
        descriptor: Dict[str, Any] = {
            "job_id": self.id,
            "label": self.label,
            "scenario": self.scenario.name,
            "priority": self.priority,
            "status": self.status,
            "seed": self.seed,
            "n_points": len(self.slots),
            "completed": len(done),
            "hits": sum(1 for slot in done if slot.from_cache),
            "coalesced": sum(1 for slot in done if slot.coalesced),
            "computed": sum(1 for slot in done
                            if not slot.from_cache and not slot.coalesced),
            "error": self.error,
            "created_at": self.created_at,
            "elapsed_s": self.elapsed_s(),
        }
        if include_points:
            descriptor["points"] = [
                {**slot.to_dict(), "store_key": slot.planned.store_key,
                 "from_cache": bool(slot.from_cache),
                 "coalesced": bool(slot.coalesced)} for slot in done]
            descriptor["pending_params"] = [
                to_plain(slot.planned.params) for slot in self.slots
                if slot.status != "done"]
        return descriptor

    # ------------------------------------------------------------------
    def result(self,
               store_info: Optional[Dict[str, Any]] = None) -> ScenarioResult:
        """The finished job as a :class:`ScenarioResult`.

        Same assembly path as ``repro run`` / ``run-all``
        (:meth:`Scenario.assemble_result`), so the deterministic JSON a
        client fetches from the service is byte-identical to what a
        local run of the same spec and seed would have written.
        """
        if self.status != "done":
            raise RuntimeError(f"job {self.id} is {self.status}, "
                               "not done — no result to assemble")
        return self.scenario.assemble_result(
            seed=self.seed,
            points=tuple(slot.to_dict() for slot in self.slots),
            from_cache=[slot.from_cache or slot.coalesced
                        for slot in self.slots],
            elapsed_s=self.elapsed_s(), store_info=store_info,
            adaptive=[slot.adaptive() for slot in self.slots])
