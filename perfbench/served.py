"""The ``served`` workload: a closed-loop client against the daemon.

``python -m repro serve --workers 1`` runs as a subprocess over a fresh
temporary :class:`~repro.core.store.DiskStore`.  One closed-loop client
replays a seeded schedule (:func:`perfbench.helpers.served_schedule`):
each new (scenario, seed) pair computes in the pool and writes the store
("cold"), and is followed by repeats of finished pairs of its scenario,
which the daemon serves from the store ("warm").  The client submits,
polls the job every :data:`POLL_S` seconds until it is done, and fetches
the result bytes; a latency runs from submit to received bytes.  One
submission is in flight at a time, so on the reference machine's two
cores a latency is the submission's own work, not a share of the
scheduler.

The host of the reference machine slows down by up to 2x for stretches
of seconds to minutes, and a slow stretch only ever lengthens what runs
in it.  Every timed round of the schedule fills the same submission
slots (each scenario's cold submission, and the k-th warm repeat after
it) with the same work, so the round-level figures are those of one
round with each slot at its quickest over the timed rounds: ``wall_s``
(the sum of the round's latencies, since the client is serial),
``points_per_s``, ``cold_p50_ms`` and ``warm_p50_ms``.  ``warm_p90_ms``
needs 100 samples, more than a round has, so it is the lowest p90 over
the runs of :data:`P90_ROUNDS` consecutive timed rounds.
"""

from __future__ import annotations

import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench import checks
from perfbench.helpers import (min_samples_for_percentile,
                               quietest_percentile, served_schedule,
                               tail_percentile)
from perfbench.layers import Outcome, layer_metrics

#: At most eight scenarios, the pool's broadcast cache size, so every
#: scenario's worker stays resident in the pool.  Each does the same work
#: whatever its seed, and each takes well under a second, so a run holds
#: enough rounds for a quickest round to be steady.
SCENARIOS = ("fig5", "fig8a", "noc-transpose-crosscheck",
             "phy-detector-comparison")
#: Untimed rounds first: a scenario's first submissions pay one-time
#: costs (a new pool generation for its worker, first-use imports in the
#: daemon; its first warm repeat took 13-22 ms against 3-5 ms later) that
#: a long-running daemon pays once.
WARMUP_ROUNDS = 1
#: Warm repeats per cold submission: the fewest that give 100 warm
#: samples in five rounds (20 x 5), so that ten lie beyond a p90.
WARM_PER_COLD = 5
#: Consecutive timed rounds that hold enough warm samples for a p90.
P90_ROUNDS = -(-min_samples_for_percentile(90.0)
               // (len(SCENARIOS) * WARM_PER_COLD))
#: A round submits every scenario once cold.  Timed rounds run until
#: ``--seconds`` have passed since the session began, at least
#: ``P90_ROUNDS`` and at most ``MAX_ROUNDS`` of them; the traced run's
#: two sessions, which report shares and counts rather than steady
#: figures, make ``P90_ROUNDS`` each.
MAX_ROUNDS = 100
#: Job-status poll interval; the client's 0.2 s default would round the
#: cold latency to 200 ms steps.
POLL_S = 0.02
#: Daemons started to measure set-up; the median is reported.
N_SETUPS = 4
OPERATION_TIMEOUT_S = 120.0
ROUND_LENGTH = len(SCENARIOS) * (1 + WARM_PER_COLD)
HERE = os.path.dirname(os.path.abspath(__file__))


class Daemon:
    """One daemon subprocess over its own store directory."""

    def __init__(self, root: str, store: str,
                 trace_dir: Optional[str] = None) -> None:
        from repro.service.client import ServiceClient

        if trace_dir is None:
            command = [sys.executable, "-m", "repro", "serve", "--store",
                       store, "--port", "0", "--workers", "1"]
        else:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       "--store", store, "--trace-dir", trace_dir]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.store = store
        start = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=root, env=env,
                                        stdout=subprocess.PIPE, text=True)
        try:
            line = self.process.stdout.readline()
            match = re.search(r"serving on (http://\S+)", line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.client = ServiceClient(match.group(1), timeout=60.0)
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                if self.client.health()["status"] == "ok":
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise TimeoutError("daemon never became healthy")
            time.sleep(0.005)

    def pool_pids(self) -> List[int]:
        pids: List[int] = []
        task_dir = f"/proc/{self.process.pid}/task"
        for task in os.listdir(task_dir):
            try:
                with open(os.path.join(task_dir, task, "children")) as f:
                    pids.extend(int(pid) for pid in f.read().split())
            except OSError:
                continue
        return pids

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon plus that of each live pool worker."""
        total_kb = 0
        for pid in [self.process.pid, *self.pool_pids()]:
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> List[str]:
        """Drain and stop the daemon; returns the hygiene problems."""
        problems = []
        pool = self.pool_pids()
        self.client.shutdown()
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return ["daemon did not exit within 60 s of shutdown"]
        if self.process.returncode != 0:
            problems.append(f"daemon exited {self.process.returncode}")
        alive = [pid for pid in pool if os.path.exists(f"/proc/{pid}")]
        if alive:
            problems.append(f"pool processes {alive} outlived the daemon")
        debris = [os.path.join(directory, name)
                  for directory, _, names in os.walk(self.store)
                  for name in names if name.endswith(".tmp")]
        if debris:
            problems.append(f"store holds .tmp debris: {debris}")
        return problems

    def kill(self) -> None:
        """Stop the daemon the hard way if it is still running."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.communicate()


def _submit(client, kind: str, name: str, seed: int) -> Dict[str, Any]:
    """One submission, from submit to received result bytes."""
    from repro.service.client import ServiceError

    record: Dict[str, Any] = {"kind": kind, "scenario": name, "seed": seed,
                              "error": None, "polls": [],
                              "start": time.perf_counter_ns()}
    try:
        descriptor = client.submit(name, seed=seed)
        record["submitted"] = time.perf_counter_ns()
        record["job"] = descriptor["job_id"]
        record["n_points"] = descriptor["n_points"]
        record["born_done"] = (descriptor["status"] == "done"
                               and descriptor["hits"] == descriptor["n_points"])
        status = descriptor["status"]
        deadline = time.monotonic() + OPERATION_TIMEOUT_S
        while status != "done":
            if status in ("failed", "cancelled"):
                raise ServiceError(f"job {record['job']} {status}")
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {record['job']} timed out")
            time.sleep(POLL_S)
            poll_start = time.perf_counter_ns()
            status = client.status(record["job"])["status"]
            record["polls"].append((poll_start, time.perf_counter_ns()))
        record["fetching"] = time.perf_counter_ns()
        record["bytes"] = client.result_bytes(record["job"])
    except (ServiceError, TimeoutError, OSError, KeyError) as error:
        record["error"] = f"{type(error).__name__}: {error}"
    record["end"] = time.perf_counter_ns()
    return record


def session(url: str, schedule, seconds: float = math.inf
            ) -> List[Dict[str, Any]]:
    """Replay ``schedule`` one submission at a time; returns one record
    per submission, each with its ``position`` in the schedule.

    Stops at the first round boundary ``seconds`` after the start, once
    the warm-up and ``P90_ROUNDS`` timed rounds are done.
    """
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=60.0)
    deadline = time.perf_counter() + seconds
    minimum = (WARMUP_ROUNDS + P90_ROUNDS) * ROUND_LENGTH
    records: List[Dict[str, Any]] = []
    for position, operation in enumerate(schedule):
        if position >= minimum and position % ROUND_LENGTH == 0 \
                and time.perf_counter() > deadline:
            break
        records.append(dict(_submit(client, *operation), position=position))
    return records


def _check_session(records, outcome: Outcome) -> None:
    """Warm repeats are born-done and byte-identical to their cold
    originals; every cold result passes the reference check."""
    originals: Dict[Tuple[str, int], bytes] = {}
    for record in sorted(records, key=lambda r: r["start"]):
        if record["error"] is not None:
            outcome.problems.append(f"{record['scenario']} seed "
                                    f"{record['seed']}: {record['error']}")
            continue
        pair = (record["scenario"], record["seed"])
        if record["kind"] == "cold":
            originals[pair] = record["bytes"]
            outcome.problems.extend(
                checks.check_result(record["bytes"].decode("utf-8")))
        else:
            if not record["born_done"]:
                outcome.problems.append(f"warm {pair} was not born-done")
            if record["bytes"] != originals.get(pair):
                outcome.problems.append(
                    f"warm {pair} differs from its cold original")


def _check_local(records, outcome: Outcome) -> None:
    """One cold result per scenario equals a local ``Scenario.run``."""
    from repro import build_scenario

    checked = set()
    for record in sorted(records, key=lambda r: r["start"]):
        if record["kind"] != "cold" or record["error"] is not None \
                or record["scenario"] in checked:
            continue
        checked.add(record["scenario"])
        local = build_scenario(record["scenario"]).run(rng=record["seed"])
        if local.to_json().encode("utf-8") != record["bytes"]:
            outcome.problems.append(
                f"served {record['scenario']} seed {record['seed']} "
                f"differs from a local run")


def _latencies(records, kind: str) -> List[float]:
    return [(record["end"] - record["start"]) / 1e9 for record in records
            if record["kind"] == kind and record["error"] is None]


def _round(record: Dict[str, Any]) -> int:
    """Round of the schedule a submission belongs to."""
    return record["position"] // ROUND_LENGTH


def _timed(records) -> List[Dict[str, Any]]:
    return [record for record in records if _round(record) >= WARMUP_ROUNDS]


def _quickest_round(records) -> Dict[str, List[float]]:
    """Cold and warm latencies of one round, each submission slot at its
    quickest over the timed rounds.

    A slot is a scenario's cold submission, or the k-th warm repeat
    after it; every timed round fills each slot once with the same work.
    """
    best: Dict[Tuple[str, int], float] = {}
    kinds: Dict[Tuple[str, int], str] = {}
    for record in _timed(records):
        if record["error"] is not None:
            continue
        slot = (record["scenario"], record["position"] % (1 + WARM_PER_COLD))
        latency = (record["end"] - record["start"]) / 1e9
        best[slot] = min(best.get(slot, latency), latency)
        kinds[slot] = record["kind"]
    return {kind: [latency for slot, latency in best.items()
                   if kinds[slot] == kind] for kind in ("cold", "warm")}


def _warm_windows(timed) -> List[List[float]]:
    """Warm latencies of every run of ``P90_ROUNDS`` consecutive timed
    rounds."""
    rounds = range(WARMUP_ROUNDS, max(_round(record) for record in timed) + 1)
    return [_latencies([record for record in timed
                        if first <= _round(record) < first + P90_ROUNDS],
                       "warm")
            for first in rounds[:len(rounds) - P90_ROUNDS + 1]]


def _wall_s(records) -> float:
    return (max(record["end"] for record in records)
            - min(record["start"] for record in records)) / 1e9


def _schedule(seed: int, timed_rounds: int = MAX_ROUNDS):
    return served_schedule(seed, SCENARIOS, WARMUP_ROUNDS + timed_rounds,
                           WARM_PER_COLD)


def run(seed: int, seconds: float, trace: bool, root: str) -> Outcome:
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        if trace:
            return _traced(seed, root, scratch)
        return _untraced(seed, seconds, root, scratch)


def _untraced(seed: int, seconds: float, root: str,
              scratch: str) -> Outcome:
    outcome = Outcome()
    setups = []
    for index in range(N_SETUPS - 1):
        daemon = Daemon(root, os.path.join(scratch, f"setup-{index}"))
        try:
            setups.append(daemon.setup_s)
            outcome.problems.extend(daemon.stop())
        finally:
            daemon.kill()
    daemon = Daemon(root, os.path.join(scratch, "store"))
    setups.append(daemon.setup_s)
    try:
        records = session(daemon.client.url, _schedule(seed), seconds)
        peak_rss_mb = daemon.peak_rss_mb()
        outcome.problems.extend(daemon.stop())
    finally:
        daemon.kill()
    _score(records, outcome)
    _check_session(records, outcome)
    _check_local(records, outcome)
    if outcome.problems:
        return outcome
    timed = _timed(records)
    quickest = _quickest_round(records)
    # The client is serial, so a round lasts the sum of its latencies
    # (plus client gaps of microseconds).
    wall_s = sum(quickest["cold"]) + sum(quickest["warm"])
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "points_per_s": sum(record["n_points"] for record in timed)
        / (len(timed) / ROUND_LENGTH) / wall_s,
        "warm_p50_ms": tail_percentile(quickest["warm"], 50.0) * 1e3,
        "warm_p90_ms": quietest_percentile(_warm_windows(timed), 90.0) * 1e3,
        "cold_p50_ms": statistics.median(quickest["cold"]) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return outcome


def _score(records, outcome: Outcome) -> None:
    outcome.attempted = len(records)
    outcome.failed = sum(1 for record in records
                         if record["error"] is not None)


def _traced(seed: int, root: str, scratch: str) -> Outcome:
    """An untraced session, then the same schedule against a daemon
    launched with span wrappers (``serve_traced.py``)."""
    from perfbench.spans import (Tracer, attribute_worker_requests,
                                 chrome_trace, read_span_files)

    outcome = Outcome()
    schedule = _schedule(seed, P90_ROUNDS)
    daemon = Daemon(root, os.path.join(scratch, "untraced"))
    try:
        untraced = session(daemon.client.url, schedule)
        outcome.problems.extend(daemon.stop())
    finally:
        daemon.kill()

    trace_dir = os.path.join(scratch, "spans")
    os.makedirs(trace_dir)
    daemon = Daemon(root, os.path.join(scratch, "traced"), trace_dir)
    try:
        records = session(daemon.client.url, schedule)
        stats = daemon.client.stats()
        outcome.problems.extend(daemon.stop())
    finally:
        daemon.kill()
    _score(records, outcome)
    _check_session(records, outcome)
    expected = {(record["scenario"], record["seed"]): record.get("bytes")
                for record in untraced}
    for record in records:
        if record.get("bytes") != expected.get((record["scenario"],
                                                record["seed"])):
            outcome.problems.append(
                f"traced {record['scenario']} seed {record['seed']} "
                f"differs from the untraced session")

    spans = read_span_files(trace_dir)
    tracer = Tracer()
    for record in records:
        _client_spans(tracer, record)
    spans.extend(tracer.spans)
    attribute_worker_requests(spans)
    chrome_trace(spans, os.path.join(root, ".perfbench_out",
                                     f"trace-served-seed{seed}.json"))
    walls = {name: statistics.median(
        [(record["end"] - record["start"]) / 1e9 for record in records
         if record["scenario"] == name and record["kind"] == "cold"
         and record["error"] is None] or [0.0]) for name in SCENARIOS}
    points = stats["points"]
    service = {
        "submit_ms": statistics.median(
            (record["submitted"] - record["start"]) / 1e6
            for record in records if "submitted" in record),
        "result_ms": statistics.median(
            (record["end"] - record["fetching"]) / 1e6
            for record in records if "fetching" in record),
        "polls": sum(len(record["polls"]) for record in records),
        "store_hits": points["store_hits"],
        "computed": points["computed"],
    }
    lookups = points["store_hits"] + points["computed"] + points["coalesced"]
    outcome.metrics = layer_metrics(
        spans, wall_s=_wall_s(records), untraced_wall_s=_wall_s(untraced),
        scenario_walls=walls,
        failure_rate=outcome.failed / max(outcome.attempted, 1),
        hit_frac=points["store_hits"] / max(lookups, 1),
        service=service, dispatch=stats["dispatch"])
    return outcome


def _client_spans(tracer, record: Dict[str, Any]) -> None:
    """Client-side spans of one submission, tagged with its job id."""
    job = record.get("job")
    request = tracer.record("service.request", record["start"],
                            record["end"], request=job)
    if "submitted" in record:
        tracer.record("service.submit", record["start"],
                      record["submitted"], request, job)
    for start, end in record["polls"]:
        tracer.record("service.poll", start, end, request, job)
    if "fetching" in record:
        tracer.record("service.result", record["fetching"], record["end"],
                      request, job)
