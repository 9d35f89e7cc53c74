"""Command-line entry point: ``python -m repro
{list,describe,run,run-all,cache,acquire,datasets,bench,serve,submit,status,fetch}``.

The zero-code path to every experiment in the scenario registry:

.. code-block:: console

    python -m repro list
    python -m repro list --only 'noc-*' --json
    python -m repro describe fig10
    python -m repro run fig10 --seed 0 --json fig10.json
    python -m repro run fig4 --set channel.rx_noise_figure_db=7
    python -m repro run-all --store .repro-store
    python -m repro run-all --only 'fig8*' --store .repro-store --resume
    python -m repro cache info --store .repro-store
    python -m repro cache gc --store .repro-store --max-age-days 30
    python -m repro cache clear --store .repro-store

the hot-kernel microbenchmarks (see :mod:`repro.bench`):

.. code-block:: console

    python -m repro bench
    python -m repro bench --json BENCH_kernels.json --batch-sizes 256

the instrument-acquisition verbs (see :mod:`repro.instrument`):

.. code-block:: console

    python -m repro acquire --environment parallel-copper-boards \
        --distances 0.05,0.1,0.15 --seed 7
    python -m repro datasets list
    python -m repro datasets describe <content-key-or-path> --json
    python -m repro run measured-channel-coded-ber-sweep \
        --set channel.dataset=<content-key>

and the campaign-service verbs (see :mod:`repro.service`):

.. code-block:: console

    python -m repro serve --store .repro-store --port 8765 --workers 4
    python -m repro submit fig7 --wait --json fig7.json
    python -m repro submit fig10 --priority bulk
    python -m repro status job-000001
    python -m repro fetch <store-key>

``run`` defaults to ``--seed 0`` so that the command line is reproducible
out of the box (the Python API keeps the library-wide opt-in default of
fresh entropy); pass ``--seed -1`` explicitly for a non-deterministic run.

``run-all`` executes every registered scenario (optionally glob-filtered
by ``--only``) as one campaign through a single shared process pool
(``--workers``).  With ``--store DIR`` every computed point is persisted
into a content-addressed :class:`repro.core.store.DiskStore` under DIR the
moment it completes, so an interrupted campaign re-run resumes from what
already finished and a warm re-run serves every point from disk
(``--resume`` additionally reports how many stored points the run starts
from, and fails early when the store is missing).  ``cache info`` /
``cache clear`` inspect and empty such a store.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.core.store import DiskStore, MemoryStore, StoreError
from repro.scenarios import (
    Campaign,
    build_scenario,
    scenario_entries,
)


_SET_KEYWORDS = {"true": True, "false": False, "none": None}


def _parse_set(assignments: Sequence[str]) -> Dict[str, Any]:
    """Parse ``--set layer.field=value`` pairs (Python literals or strings).

    ``true``/``false``/``none`` are accepted case-insensitively — the raw
    string ``"false"`` would be truthy and silently flip boolean spec
    fields the wrong way.  Repeating a key is an error: the later value
    would silently win, and a long command line with two conflicting
    ``--set`` flags almost certainly does not mean what it ran.
    """
    overrides: Dict[str, Any] = {}
    for assignment in assignments:
        key, separator, raw = assignment.partition("=")
        if not separator or not key:
            raise SystemExit(
                f"--set expects key=value, got {assignment!r}")
        key = key.strip()
        if key in overrides:
            raise SystemExit(
                f"--set key {key!r} given more than once "
                f"(second value: {assignment!r}); pass each key once")
        if raw.strip().lower() in _SET_KEYWORDS:
            value = _SET_KEYWORDS[raw.strip().lower()]
        else:
            try:
                value = ast.literal_eval(raw)
            except (ValueError, SyntaxError):
                value = raw
        overrides[key] = value
    return overrides


def _workers_argument(raw: str) -> int:
    """``--workers`` value: a positive integer or ``auto``.

    ``auto`` resolves to ``os.cpu_count()`` immediately, so every
    consumer (engine, campaign, service) sees a plain worker count.
    """
    if raw.strip().lower() == "auto":
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {raw!r}")
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be at least 1, got {workers}")
    return workers


def _format_value(value: Any) -> str:
    """One-line rendering of a point value for the run summary table."""
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        cells = []
        for key, item in value.items():
            if isinstance(item, float):
                cells.append(f"{key}={item:.6g}")
            elif isinstance(item, (str, int, bool, type(None))):
                cells.append(f"{key}={item}")
            else:
                cells.append(f"{key}=<{len(item)} values>"
                             if hasattr(item, "__len__") else f"{key}=...")
        return "  ".join(cells)
    return str(value)


def _cmd_list(args: argparse.Namespace) -> int:
    entries = scenario_entries()
    if args.only:
        entries = [entry for entry in entries
                   if fnmatch.fnmatch(entry.name, args.only)]
        if not entries:
            raise SystemExit(f"no scenario matches {args.only!r}")
    if args.json:
        # Machine-readable: service clients and scripts consume this
        # instead of scraping the aligned human table below.
        print(json.dumps([{"name": entry.name, "artifact": entry.artifact,
                           "summary": entry.summary} for entry in entries],
                         indent=2, sort_keys=True))
        return 0
    width = max(len(entry.name) for entry in entries)
    artifact_width = max(len(entry.artifact) for entry in entries)
    for entry in entries:
        print(f"{entry.name:<{width}}  {entry.artifact:<{artifact_width}}  "
              f"{entry.summary}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    scenario = build_scenario(args.name, _parse_set(args.set))
    if args.json:
        # Compact canonical form (one line, sorted keys) for scripts.
        print(json.dumps(scenario.describe(), sort_keys=True,
                         separators=(",", ":")))
    else:
        print(json.dumps(scenario.describe(), indent=2, sort_keys=True))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = build_scenario(args.name, _parse_set(args.set))
    seed = None if args.seed is not None and args.seed < 0 else args.seed
    store = DiskStore(args.store) if args.store else None
    result = scenario.run(rng=seed, n_workers=args.workers, store=store)
    if not args.quiet:
        print(f"scenario {result.name} ({result.artifact}): "
              f"{result.summary}")
        seed_label = result.seed if result.seed is not None else "fresh entropy"
        print(f"seed {seed_label} · {len(result)} points · "
              f"repro {result.version}")
        for point in result.points:
            params = "  ".join(f"{key}={value}"
                               for key, value in point["params"].items())
            print(f"  {params:<48s} {_format_value(point['value'])}")
    precision = result.execution.get("precision")
    if precision is not None:
        # Machine-parsable (the CI precision-smoke job greps it): a warm
        # second run against the same store must simulate 0 new codewords.
        spec = precision["spec"]
        print(f"precision: rel CI target {spec['rel_ci_target']:g} at "
              f"{spec['confidence']:g} confidence · "
              f"resumed {precision['resumed_codewords']} · "
              f"simulated {precision['new_codewords']} new codewords · "
              f"total {precision['total_codewords']}")
    if args.json:
        result.save_json(args.json)
        if not args.quiet:
            print(f"wrote {args.json}")
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    if args.resume and not args.store:
        raise SystemExit("--resume requires --store DIR (there is nothing "
                         "to resume from without a persistent store)")
    if args.resume and not os.path.isdir(args.store):
        # Fail early: silently "resuming" from a mistyped path would
        # recompute the whole campaign — the one thing --resume exists
        # to prevent.
        raise SystemExit(f"--resume: store directory {args.store!r} does "
                         "not exist")
    seed = None if args.seed is not None and args.seed < 0 else args.seed
    campaign = Campaign.from_registry(only=args.only, seed=seed)
    store = DiskStore(args.store) if args.store else MemoryStore()
    if args.resume:
        # Explicitly requested — always report what the run starts from.
        print(f"resuming from {args.store}: "
              f"{store.info()['entries']} stored point(s)")
    result = campaign.run(store=store, n_workers=args.workers)
    if not args.quiet:
        # Per-entry "served" folds store hits and points shared from a
        # same-key twin entry ("this entry computed nothing itself") —
        # the summary line below splits hits/shared/misses precisely.
        width = max(len(label) for label in result.labels())
        for entry, scenario_result in zip(result.entries, result.results):
            execution = scenario_result.execution
            print(f"  {entry.label:<{width}}  "
                  f"{len(scenario_result):3d} points · "
                  f"served {execution['cache_hits']:3d} · "
                  f"computed {execution['cache_misses']:3d}")
    execution = result.execution
    # One machine-parsable summary line (the CI smoke job greps it).
    # "hits" are points served from pre-existing store content, "shared"
    # are points deduplicated against a same-key entry computed this
    # run, "misses" are points actually computed.
    print(f"campaign: {execution['n_scenarios']} scenarios · "
          f"{execution['n_points']} points · "
          f"hits {execution['cache_hits']} · "
          f"shared {execution['shared_points']} · "
          f"misses {execution['cache_misses']} · "
          f"elapsed {execution['elapsed_s']:.3f}s")
    if args.json:
        result.save_json(args.json)
        if not args.quiet:
            print(f"wrote {args.json}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = DiskStore(args.store)
    if args.action == "info":
        info = store.info()
        for key in ("backend", "path", "entries", "total_bytes"):
            print(f"{key} {info[key]}")
    elif args.action == "gc":
        if args.max_age_days is None and args.max_size_mb is None:
            raise SystemExit(
                "cache gc needs at least one bound: --max-age-days "
                "and/or --max-size-mb")
        max_total_bytes = (None if args.max_size_mb is None
                           else int(args.max_size_mb * 1024 * 1024))
        report = store.gc(max_age_days=args.max_age_days,
                          max_total_bytes=max_total_bytes,
                          dry_run=args.dry_run)
        verb = "would remove" if report["dry_run"] else "removed"
        print(f"{verb} {report['removed']} of {report['examined']} "
              f"entries · freed {report['freed_bytes']} bytes · "
              f"{report['kept']} kept "
              f"({report['remaining_bytes']} bytes)")
    else:  # clear
        removed = store.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {store.info()['path']}")
    return 0


#: CLI environment names (hyphenated, shell-friendly) to the scenario
#: labels recorded in sweeps/datasets.
_ENVIRONMENTS = {"freespace": "freespace",
                 "parallel-copper-boards": "parallel copper boards"}


def _cmd_acquire(args: argparse.Namespace) -> int:
    from repro.instrument import (AcquisitionPlan, SimulatedVna,
                                  acquire_dataset, datasets_dir)

    try:
        distances = tuple(float(value)
                          for value in args.distances.split(","))
    except ValueError:
        raise SystemExit(f"--distances expects a comma-separated list of "
                         f"metres, got {args.distances!r}")
    plan = AcquisitionPlan(distances_m=distances, seed=args.seed,
                           environment=_ENVIRONMENTS[args.environment],
                           n_points=args.n_points, name=args.name or "")
    with SimulatedVna(seed=plan.seed) as vna:
        dataset = acquire_dataset(vna, plan)
    key = dataset.content_key
    path = args.out or os.path.join(datasets_dir(args.datasets),
                                    key + ".json")
    dataset.save(path)
    if args.store:
        dataset.store(DiskStore(args.store))
    if not args.quiet:
        print(f"acquired {len(dataset.sweeps)} sweep(s) · "
              f"environment {plan.environment!r} · seed {plan.seed} · "
              f"{plan.n_points} points/sweep")
        print(f"wrote {path}")
    # Machine-parsable (the CI instrument-smoke job greps this line to
    # feed the key into `run --set channel.dataset=...`).
    print(f"content key {key}")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.instrument import (ChannelDataset, datasets_dir,
                                  resolve_dataset)

    if args.action == "list":
        directory = datasets_dir(args.datasets)
        rows = []
        if os.path.isdir(directory):
            for name in sorted(os.listdir(directory)):
                if not name.endswith(".json"):
                    continue
                try:
                    dataset = ChannelDataset.load(
                        os.path.join(directory, name))
                except (OSError, ValueError, json.JSONDecodeError):
                    continue  # not a dataset file; ignore, don't crash
                rows.append(dataset.describe())
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
            return 0
        if not rows:
            print(f"no datasets under {directory}")
            return 0
        for row in rows:
            distances = ", ".join(f"{d:g}" for d in row["distances_m"])
            print(f"{row['content_key'][:16]}…  "
                  f"{'/'.join(row['scenarios']):<24s}  "
                  f"{row['n_sweeps']:2d} sweep(s) · "
                  f"{row['n_points']} pts · d = {distances} m")
        return 0
    # describe
    if not args.ref:
        raise SystemExit("datasets describe needs a dataset reference "
                         "(file path or content key)")
    store = DiskStore(args.store) if args.store else None
    dataset = resolve_dataset(args.ref, store=store,
                              directory=args.datasets)
    payload = dataset.describe()
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import format_report, run_kernel_benchmarks

    report = run_kernel_benchmarks(
        kernels=args.kernels.split(",") if args.kernels else None,
        dtypes=tuple(args.dtypes.split(",")),
        batch_sizes=tuple(int(value)
                          for value in args.batch_sizes.split(",")),
        repeats=args.repeats)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_path}")
    else:
        print(format_report(report))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service.http import serve

    server = serve(store_dir=args.store, host=args.host, port=args.port,
                   n_workers=args.workers, quiet=args.quiet)

    def _terminate(signum, frame):  # SIGTERM drains exactly like Ctrl-C
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    # Machine-parsable startup line (tests and the CI smoke job wait on
    # it before submitting).
    print(f"serving on {server.url} · store {os.path.abspath(args.store)} "
          f"· {args.workers} worker(s)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print("draining: waiting for running points, cancelling the queue",
              flush=True)
        report = server.stop()
        server.server_close()
        print(f"stopped · {report['cancelled_jobs']} job(s) cancelled",
              flush=True)
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(url=args.url, timeout=args.timeout)


def _run_service_command(args: argparse.Namespace, action) -> int:
    """Shared error discipline of the client verbs: connection problems
    and service-side errors exit 2 with a one-line message, not a
    traceback."""
    import urllib.error

    from repro.service.client import ServiceError

    try:
        return action()
    except urllib.error.URLError as error:
        print(f"error: cannot reach service at {args.url}: {error.reason}",
              file=sys.stderr)
        return 2
    except (ServiceError, TimeoutError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _service_client(args)
    seed = None if args.seed is not None and args.seed < 0 else args.seed

    def action() -> int:
        descriptor = client.submit(
            args.name, overrides=_parse_set(args.set), seed=seed,
            priority=args.priority, label=args.label)
        job_id = descriptor["job_id"]
        print(f"job {job_id} · scenario {descriptor['scenario']} · "
              f"priority {descriptor['priority']} · "
              f"{descriptor['n_points']} points · {descriptor['status']}")
        if not args.wait:
            return 0
        descriptor = client.wait(job_id, timeout=args.timeout)
        # Machine-parsable (the CI serve-smoke job greps it): a warm
        # resubmission must report `computed 0`.
        print(f"job {job_id} {descriptor['status']} · "
              f"points {descriptor['n_points']} · "
              f"hits {descriptor['hits']} · "
              f"coalesced {descriptor['coalesced']} · "
              f"computed {descriptor['computed']}")
        if args.json:
            # The daemon's deterministic ScenarioResult JSON, verbatim
            # (plus the same trailing newline save_json writes), so the
            # file is byte-identical to a local `repro run --json` of
            # the same spec and seed.
            with open(args.json, "wb") as stream:
                stream.write(client.result_bytes(job_id))
                stream.write(b"\n")
            if not args.quiet:
                print(f"wrote {args.json}")
        return 0

    return _run_service_command(args, action)


def _cmd_status(args: argparse.Namespace) -> int:
    client = _service_client(args)

    def action() -> int:
        descriptor = client.status(args.job)
        print(json.dumps(descriptor, indent=2, sort_keys=True))
        return 0

    return _run_service_command(args, action)


def _cmd_fetch(args: argparse.Namespace) -> int:
    client = _service_client(args)

    def action() -> int:
        print(json.dumps(client.fetch(args.key), indent=2, sort_keys=True))
        return 0

    return _run_service_command(args, action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's experiments (and off-paper scenarios) "
                    "by name through the declarative scenario API.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list every registered scenario")
    list_parser.add_argument(
        "--only", metavar="GLOB", default=None,
        help="glob filter on scenario names, e.g. 'noc-*'")
    list_parser.add_argument(
        "--json", action="store_true",
        help="emit a JSON array of {name, artifact, summary} instead of "
             "the human table")
    list_parser.set_defaults(handler=_cmd_list)

    describe_parser = subparsers.add_parser(
        "describe", help="show a scenario's specs, axes and point count")
    describe_parser.add_argument("name", help="scenario name (see `list`)")
    describe_parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a spec field, e.g. channel.distance_m=0.2")
    describe_parser.add_argument(
        "--json", action="store_true",
        help="emit compact single-line canonical JSON for scripts")
    describe_parser.set_defaults(handler=_cmd_describe)

    run_parser = subparsers.add_parser(
        "run", help="run a scenario and optionally export JSON")
    run_parser.add_argument("name", help="scenario name (see `list`)")
    run_parser.add_argument(
        "--json", metavar="PATH",
        help="write the structured ScenarioResult to PATH")
    run_parser.add_argument(
        "--seed", type=int, default=0,
        help="root seed (default 0, reproducible; negative for fresh "
             "entropy)")
    run_parser.add_argument(
        "--workers", type=_workers_argument, default=None,
        help="worker processes for the sweep engine, or 'auto' for "
             "os.cpu_count() (default: serial)")
    run_parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a spec field, e.g. channel.distance_m=0.2")
    run_parser.add_argument(
        "--store", metavar="DIR",
        help="persist/serve results through a content-addressed DiskStore "
             "under DIR (warm re-runs are served from disk)")
    run_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-point summary table")
    run_parser.set_defaults(handler=_cmd_run)

    run_all_parser = subparsers.add_parser(
        "run-all",
        help="run every registered scenario as one campaign through a "
             "shared process pool")
    run_all_parser.add_argument(
        "--only", metavar="GLOB", default=None,
        help="glob filter on scenario names, e.g. 'fig8*'")
    run_all_parser.add_argument(
        "--store", metavar="DIR",
        help="persist/serve results through a content-addressed DiskStore "
             "under DIR; completed points are stored immediately, so "
             "re-running resumes an interrupted campaign")
    run_all_parser.add_argument(
        "--resume", action="store_true",
        help="report how many points the store already holds before "
             "running (requires --store; resumption itself is automatic "
             "with any --store)")
    run_all_parser.add_argument(
        "--seed", type=int, default=0,
        help="root seed for every scenario (default 0, reproducible; "
             "negative for fresh entropy — disables the store)")
    run_all_parser.add_argument(
        "--workers", type=_workers_argument, default=None,
        help="size of the one shared process pool, or 'auto' for "
             "os.cpu_count() (default: serial)")
    run_all_parser.add_argument(
        "--json", metavar="PATH",
        help="write the structured CampaignResult to PATH")
    run_all_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-scenario summary table (the final "
             "campaign summary line is always printed)")
    run_all_parser.set_defaults(handler=_cmd_run_all)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect, garbage-collect or clear a DiskStore "
                      "result cache")
    cache_parser.add_argument(
        "action", choices=("info", "gc", "clear"),
        help="'info' prints backend/path/entries/total_bytes; 'gc' evicts "
             "entries by age and/or total size; 'clear' removes every "
             "stored result")
    cache_parser.add_argument(
        "--store", metavar="DIR", required=True,
        help="DiskStore directory (as passed to run/run-all)")
    cache_parser.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="gc: evict entries not written within the last DAYS days")
    cache_parser.add_argument(
        "--max-size-mb", type=float, default=None, metavar="MB",
        help="gc: evict oldest entries until the store fits in MB "
             "megabytes")
    cache_parser.add_argument(
        "--dry-run", action="store_true",
        help="gc: report what would be evicted without removing anything")
    cache_parser.set_defaults(handler=_cmd_cache)

    acquire_parser = subparsers.add_parser(
        "acquire",
        help="drive the (simulated) VNA across a distance grid and record "
             "a content-addressed channel dataset")
    acquire_parser.add_argument(
        "--environment", choices=sorted(_ENVIRONMENTS),
        default="parallel-copper-boards",
        help="measurement setup (default parallel-copper-boards)")
    acquire_parser.add_argument(
        "--distances", default="0.05,0.1,0.15", metavar="M,M,...",
        help="comma-separated LoS distances in metres "
             "(default 0.05,0.1,0.15)")
    acquire_parser.add_argument(
        "--n-points", type=int, default=256, metavar="N",
        help="frequency points per sweep (default 256)")
    acquire_parser.add_argument(
        "--seed", type=int, default=0,
        help="measurement-noise seed — explicit and recorded in the "
             "dataset metadata (default 0)")
    acquire_parser.add_argument(
        "--name", default=None, help="free-form dataset label")
    acquire_parser.add_argument(
        "--datasets", metavar="DIR", default=None,
        help="directory for the dataset file (default: $REPRO_DATASETS "
             "or .repro-datasets); the file is named <content-key>.json")
    acquire_parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the dataset to PATH instead of the datasets "
             "directory")
    acquire_parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="additionally put the dataset into a DiskStore under DIR "
             "(so `run --store DIR` resolves the key without the file)")
    acquire_parser.add_argument(
        "--quiet", action="store_true",
        help="print only the machine-parsable content-key line")
    acquire_parser.set_defaults(handler=_cmd_acquire)

    datasets_parser = subparsers.add_parser(
        "datasets", help="list or describe recorded channel datasets")
    datasets_parser.add_argument(
        "action", choices=("list", "describe"),
        help="'list' scans the datasets directory; 'describe' resolves "
             "one dataset by file path or content key")
    datasets_parser.add_argument(
        "ref", nargs="?", default=None,
        help="describe: dataset file path or 64-hex content key")
    datasets_parser.add_argument(
        "--datasets", metavar="DIR", default=None,
        help="datasets directory (default: $REPRO_DATASETS or "
             ".repro-datasets)")
    datasets_parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="describe: also try resolving content keys in a DiskStore "
             "under DIR")
    datasets_parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON (compact for describe)")
    datasets_parser.set_defaults(handler=_cmd_datasets)

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the hot-kernel microbenchmarks (BP decode, trellis "
             "BCJR, NoC cycle engine) across dtypes and batch sizes")
    bench_parser.add_argument(
        "--json", dest="json_path", metavar="FILE", nargs="?",
        const="BENCH_kernels.json", default=None,
        help="write the machine-readable report to FILE "
             "(default with bare --json: BENCH_kernels.json); without "
             "this flag a table is printed instead")
    bench_parser.add_argument(
        "--kernels", default=None, metavar="K1,K2",
        help="comma-separated kernel subset (default: all of "
             "bp_decode,trellis_bcjr,noc_cycle)")
    bench_parser.add_argument(
        "--dtypes", default="float64,float32", metavar="D1,D2",
        help="comma-separated dtypes (default: float64,float32)")
    bench_parser.add_argument(
        "--batch-sizes", dest="batch_sizes", default="64,256",
        metavar="N1,N2", help="comma-separated batch sizes "
                              "(default: 64,256)")
    bench_parser.add_argument(
        "--repeats", type=int, default=2,
        help="timing repeats per cell, best-of (default 2)")
    bench_parser.set_defaults(handler=_cmd_bench)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the campaign service daemon: an HTTP/JSON API over one "
             "shared process pool and DiskStore")
    serve_parser.add_argument(
        "--store", metavar="DIR", required=True,
        help="DiskStore directory the daemon serves from and persists "
             "every computed point into")
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=8765,
        help="TCP port (default 8765; 0 binds an ephemeral port, printed "
             "on startup)")
    serve_parser.add_argument(
        "--workers", type=_workers_argument, default=2,
        help="points evaluated concurrently — dispatcher threads and "
             "process-pool size, or 'auto' for os.cpu_count() (default 2)")
    serve_parser.add_argument(
        "--quiet", action="store_true", default=True,
        help=argparse.SUPPRESS)
    serve_parser.add_argument(
        "--log-requests", dest="quiet", action="store_false",
        help="log every HTTP request to stderr")
    serve_parser.set_defaults(handler=_cmd_serve)

    def _add_client_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--url", default="http://127.0.0.1:8765",
            help="service base URL (default http://127.0.0.1:8765)")
        sub.add_argument(
            "--timeout", type=float, default=60.0,
            help="per-request timeout in seconds (default 60)")

    submit_parser = subparsers.add_parser(
        "submit", help="submit a scenario to a running campaign service")
    submit_parser.add_argument("name", help="scenario name (see `list`)")
    submit_parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a spec field, e.g. channel.distance_m=0.2")
    submit_parser.add_argument(
        "--seed", type=int, default=0,
        help="root seed (default 0, reproducible; negative for fresh "
             "entropy — such jobs are never cached or coalesced)")
    submit_parser.add_argument(
        "--priority", choices=("interactive", "bulk"), default="interactive",
        help="queue priority: interactive requests preempt bulk sweeps "
             "(default interactive)")
    submit_parser.add_argument(
        "--label", default=None, help="job label (default: scenario name)")
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="poll until the job settles and print the hit/computed "
             "summary")
    submit_parser.add_argument(
        "--json", metavar="PATH",
        help="with --wait: write the job's deterministic ScenarioResult "
             "JSON to PATH")
    submit_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the 'wrote PATH' confirmation")
    _add_client_args(submit_parser)
    submit_parser.set_defaults(handler=_cmd_submit)

    status_parser = subparsers.add_parser(
        "status", help="print a service job's status descriptor as JSON")
    status_parser.add_argument("job", help="job id returned by `submit`")
    _add_client_args(status_parser)
    status_parser.set_defaults(handler=_cmd_status)

    fetch_parser = subparsers.add_parser(
        "fetch", help="fetch one cached point from a running service by "
                      "store key")
    fetch_parser.add_argument("key", help="content-addressed store key")
    _add_client_args(fetch_parser)
    fetch_parser.set_defaults(handler=_cmd_fetch)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (KeyError, ValueError, StoreError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly (and keep
        # the interpreter from complaining while flushing stdout).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
