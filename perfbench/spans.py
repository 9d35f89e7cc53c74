"""Span recording around the public entry points of each ``repro`` layer.

The benchmark does not change the program: :func:`install` replaces
public methods and functions of the already-imported ``repro`` modules
with thin wrappers that record one span per call — name, start, end,
parent span, thread, process and (on the served workload) a request id —
plus counts taken from the call's arguments and return value.  A call
into a layer that is already active on the same thread (``simulate``
calling ``simulate_tally``, ``make_model`` constructing the model) is
folded into the outer span: it adds its counts there and records no span
of its own.

Spans stay in memory.  The in-process workloads read them directly; the
daemon writes its spans when it stops, and each pool worker (a fork of
the daemon, which inherits the wrappers) appends its spans after every
task, because pool processes exit without running ``atexit``.
"""

from __future__ import annotations

import functools
import glob
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Spans that orchestrate other layers' work rather than doing their own;
#: their self time is the part of the wall that no layer span covers.
ORCHESTRATION = ("scenarios.run", "core.engine", "core.pool.task")


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self, flush_dir: Optional[str] = None):
        self.flush_dir = flush_dir
        self.in_pool_worker = False
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def after_fork_in_child(self) -> None:
        """A forked pool worker starts with no spans of its own."""
        self._reset()
        self.in_pool_worker = True

    # ------------------------------------------------------------------
    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = {"stack": [], "active": {},
                                         "request": None}
        return state

    def active(self, name: str) -> Optional[Dict[str, Any]]:
        return self._thread_state()["active"].get(name)

    def set_request(self, request: Optional[str]) -> None:
        """Tag this thread's following spans with a request id."""
        self._thread_state()["request"] = request

    def begin(self, name: str) -> Dict[str, Any]:
        state = self._thread_state()
        stack = state["stack"]
        span = {"id": (self.pid << 32) | next(self._ids), "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "pid": self.pid, "tid": threading.get_ident(),
                "request": state["request"], "counts": {},
                "start": time.perf_counter_ns(), "end": None}
        stack.append(span)
        state["active"][name] = span
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter_ns()
        state = self._thread_state()
        state["stack"].pop()
        del state["active"][span["name"]]
        self.spans.append(span)

    def record(self, name: str, start_ns: int, end_ns: int,
               parent: Optional[int] = None,
               request: Optional[str] = None) -> int:
        """Add a finished span measured by the caller; returns its id."""
        span_id = (self.pid << 32) | next(self._ids)
        self.spans.append({"id": span_id, "name": name, "parent": parent,
                           "pid": self.pid, "tid": threading.get_ident(),
                           "request": request, "counts": {},
                           "start": start_ns, "end": end_ns})
        return span_id

    def flush(self) -> None:
        """Append this process's spans to its file in ``flush_dir``."""
        if not self.flush_dir or not self.spans:
            return
        spans, self.spans = self.spans, []
        path = os.path.join(self.flush_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as stream:
            for span in spans:
                stream.write(json.dumps(span) + "\n")


def read_span_files(directory: str) -> List[Dict[str, Any]]:
    """Every span the daemon and its pool workers wrote to ``directory``."""
    spans = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as stream:
            spans.extend(json.loads(line) for line in stream if line.strip())
    return spans


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
Counter = Callable[[tuple, dict, Any, Optional[BaseException], Any],
                   Dict[str, float]]


def _add_counts(span: Dict[str, Any], counts: Dict[str, float]) -> None:
    for key, value in counts.items():
        span["counts"][key] = span["counts"].get(key, 0) + value


def _wrap(tracer: Tracer, name: str, fn: Callable, counter: Optional[Counter],
          before: Optional[Callable[[tuple, dict], Any]],
          part_of: Optional[str] = None) -> Callable:
    """Wrapper recording a ``name`` span per call; a call made while a
    ``part_of`` span is active on the thread is part of that span's work
    and records nothing."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if part_of is not None and tracer.active(part_of) is not None:
            return fn(*args, **kwargs)
        outer = tracer.active(name)
        token = before(args, kwargs) if before is not None else None
        span = tracer.begin(name) if outer is None else None
        error = None
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            if span is not None:
                tracer.end(span)
            if counter is not None:
                _add_counts(span if span is not None else outer,
                            counter(args, kwargs, result, error, token))
    return traced


def _patch_method(tracer: Tracer, cls: type, attribute: str, name: str,
                  counter: Optional[Counter] = None,
                  before: Optional[Callable] = None,
                  part_of: Optional[str] = None) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, staticmethod):
        setattr(cls, attribute, staticmethod(
            _wrap(tracer, name, raw.__func__, counter, before, part_of)))
    else:
        setattr(cls, attribute,
                _wrap(tracer, name, raw, counter, before, part_of))


def _patch_function(tracer: Tracer, module_name: str, attribute: str,
                    name: str, counter: Optional[Counter] = None) -> None:
    """Replace a function in its module and in every ``repro`` module
    that imported it by name."""
    original = getattr(sys.modules[module_name], attribute)
    wrapped = _wrap(tracer, name, original, counter, None)
    for module_name_, module in list(sys.modules.items()):
        if module is None or not module_name_.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _argument(fn: Callable, name: str) -> Callable[[tuple, dict], Any]:
    """Reader of one (possibly defaulted) argument of calls to ``fn``."""
    signature = inspect.signature(fn)

    def read(args: tuple, kwargs: dict) -> Any:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return read


# ----------------------------------------------------------------------
# counts taken at the layer boundaries
# ----------------------------------------------------------------------
def _router_pairs(args, kwargs, result, error, token):
    model = args[0]
    if error is not None:
        return {}
    return {"builds": 1, "router_pairs": model.topology.n_routers ** 2}


def _simulator_cycles(fn):
    n_cycles_of = _argument(fn, "n_cycles")

    def counter(args, kwargs, result, error, token):
        if error is not None:
            return {}
        n_cycles = n_cycles_of(args, kwargs)
        replications = len(result) if isinstance(result, list) else 1
        return {"cycles": int(n_cycles) * replications}
    return counter


def _bp_iterations(args, kwargs, result, error, token):
    if error is not None:
        return {}
    import numpy as np

    iterations = np.atleast_1d(np.asarray(result.iterations))
    rows = int(iterations.size)
    return {"codewords": rows, "iterations": int(iterations.sum()),
            "column_slots": rows * int(iterations.max(initial=0))}


def _tally_before(fn):
    tally_of = _argument(fn, "tally")

    def before(args, kwargs):
        tally = tally_of(args, kwargs)
        return tally.n_codewords if tally is not None else 0
    return before


def _ber_codewords(args, kwargs, result, error, token):
    if error is not None or result is None:
        return {}
    if isinstance(result, list):            # simulate_batches
        return {"codewords": sum(tally.n_codewords for tally in result)}
    return {"codewords": int(result.n_codewords) - int(token or 0)}


def _trellis_symbols(args, kwargs, result, error, token):
    """Symbols observed: every axis of the ``(..., n, oversampling)``
    sign blocks but the last."""
    signs = args[1] if len(args) > 1 else kwargs["signs"]
    symbols = 1
    for size in getattr(signs, "shape", ())[:-1]:
        symbols *= int(size)
    return {"symbols": symbols}


def _store_get(args, kwargs, result, error, token):
    return {"gets": 1}


def _store_put(args, kwargs, result, error, token):
    """Counts of one ``store_and_canonicalize(store, key, value)``."""
    from repro.utils.serialization import to_plain

    value = args[2] if len(args) > 2 else kwargs["value"]
    payload = json.dumps(to_plain(value), sort_keys=True,
                         separators=(",", ":"))
    return {"puts": 1, "bytes": len(payload.encode("utf-8"))}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Call once per process, after ``import repro`` and before the work to
    trace; a forked child inherits the wrappers.
    """
    import repro  # noqa: F401  (imports every layer package)
    import repro.service.daemon
    import repro.service.http
    import repro.service.jobs
    from repro.coding import ber, bp, window_decoder
    from repro.core import engine, pool, store
    from repro.noc import analytic, simulator, topology
    from repro.phy import channel_model, frontend, measured, trellis
    from repro.scenarios import specs

    _patch_method(tracer, specs.NocSpec, "make_model", "noc.analytic.build")
    _patch_method(tracer, analytic.AnalyticNocModel, "__init__",
                  "noc.analytic.build", _router_pairs)
    for method in ("latency_curve", "evaluate"):
        _patch_method(tracer, analytic.AnalyticNocModel, method,
                      "noc.analytic.curve")
    _patch_method(tracer, specs.NocSpec, "make_topology",
                  "noc.topology.build")
    _patch_method(tracer, topology.GridTopology, "__init__",
                  "noc.topology.build")
    for method in ("run", "run_batch"):
        fn = simulator.NocSimulator.__dict__[method]
        _patch_method(tracer, simulator.NocSimulator, method,
                      "noc.simulator", _simulator_cycles(fn))

    for method in ("decode", "decode_batch"):
        _patch_method(tracer, bp.BeliefPropagationDecoder, method,
                      "coding.bp", _bp_iterations)
    for method in ("decode", "decode_batch", "decode_bits",
                   "decode_bits_batch"):
        _patch_method(tracer, window_decoder.WindowDecoder, method,
                      "coding.window_decoder")
    for method in ("simulate", "simulate_tally", "simulate_adaptive",
                   "simulate_batches"):
        fn = ber.BerSimulator.__dict__[method]
        before = (_tally_before(fn) if method in ("simulate_tally",
                                                  "simulate_adaptive")
                  else None)
        _patch_method(tracer, ber.BerSimulator, method, "coding.ber",
                      _ber_codewords, before)
    _patch_function(tracer, "repro.coding.ber", "required_ebn0_db",
                    "coding.ber")

    for cls in (frontend.BpskAwgnFrontend, frontend.OneBitWaveformFrontend,
                measured.MeasuredChannelFrontend):
        _patch_method(tracer, cls, "transmit_llrs", "phy.frontend")
    # The observation model feeding the trellis: TrellisKernel's own
    # log_observations and the frontend both call into it.
    _patch_method(tracer, channel_model.OversampledOneBitChannel,
                  "log_observation_probabilities", "phy.trellis",
                  _trellis_symbols)
    _patch_method(tracer, trellis.TrellisKernel, "log_observations",
                  "phy.trellis")
    for method in ("viterbi", "symbol_log_posteriors",
                   "symbolwise_log_marginals"):
        _patch_method(tracer, trellis.TrellisKernel, method, "phy.trellis")
    for function in ("sequence_information_rate",
                     "symbolwise_information_rate",
                     "one_bit_no_oversampling_rate",
                     "ask_awgn_information_rate"):
        _patch_function(tracer, "repro.phy.information_rate", function,
                        "phy.information_rate")

    for method in ("sweep", "sweep_adaptive"):
        _patch_method(tracer, engine.SweepEngine, method, "core.engine")
    # A lookup (``in`` or ``get``) is a get.  Every write goes through
    # ``store_and_canonicalize``: a put plus the read-back that hands the
    # canonical value on, all of it counted as the put.
    for cls in (store.MemoryStore, store.DiskStore):
        for method in ("get", "__contains__"):
            _patch_method(tracer, cls, method, "core.store.get", _store_get,
                          part_of="core.store.put")
    _patch_function(tracer, "repro.core.store", "store_and_canonicalize",
                    "core.store.put", _store_put)
    _patch_function(tracer, "repro.scenarios.registry", "build_scenario",
                    "scenarios.build")

    _patch_method(tracer, pool.WorkerPool, "run_one", "core.pool.run")
    _install_pool_task(tracer, pool)
    _install_request_ids(tracer, repro.service.daemon, repro.service.jobs)


def _install_pool_task(tracer: Tracer, pool_module) -> None:
    """Worker-side span around each pool task, flushed after the task.

    ``_run_chunk`` looks ``_execute_call`` up in its module on every
    call, so a forked worker runs the wrapper.
    """
    original = pool_module._execute_call

    @functools.wraps(original)
    def traced_call(*args, **kwargs):
        span = tracer.begin("core.pool.task")
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(span)
            if tracer.in_pool_worker:
                tracer.flush()

    pool_module._execute_call = traced_call


def _install_request_ids(tracer: Tracer, daemon_module, jobs_module) -> None:
    """Tag daemon spans with the job id of the request they serve.

    Admission runs inside ``CampaignService.submit``, which returns the
    job id; a dispatcher thread calls ``Job.mark_started`` right before
    it dispatches the job's point, so the thread's next spans belong to
    that job.
    """
    service_cls = daemon_module.CampaignService
    submit = service_cls.submit

    @functools.wraps(submit)
    def traced_submit(self, payload):
        first = len(tracer.spans)
        span = tracer.begin("service.admit")
        descriptor = None
        try:
            descriptor = submit(self, payload)
            return descriptor
        finally:
            tracer.end(span)
            if descriptor is not None:
                thread = threading.get_ident()
                for recorded in tracer.spans[first:]:
                    if recorded["tid"] == thread:
                        recorded["request"] = descriptor["job_id"]

    service_cls.submit = traced_submit
    mark_started = jobs_module.Job.mark_started

    @functools.wraps(mark_started)
    def traced_mark_started(self):
        tracer.set_request(self.id)
        return mark_started(self)

    jobs_module.Job.mark_started = traced_mark_started


def attribute_worker_requests(spans: List[Dict[str, Any]]) -> None:
    """Give pool-worker spans the request id of the daemon-side
    ``core.pool.run`` span whose interval contains them (one clock:
    ``perf_counter`` is system-wide monotonic on Linux)."""
    runs = sorted((span for span in spans if span["name"] == "core.pool.run"
                   and span["request"] is not None),
                  key=lambda span: span["start"])
    starts = [span["start"] for span in runs]
    import bisect

    for span in spans:
        if span["request"] is not None or span["name"] == "core.pool.run":
            continue
        index = bisect.bisect_right(starts, span["start"]) - 1
        if index >= 0 and runs[index]["end"] >= span["end"] \
                and runs[index]["pid"] != span["pid"]:
            span["request"] = runs[index]["request"]


def chrome_trace(spans: List[Dict[str, Any]], path: str) -> None:
    """Write spans as Chrome trace-event JSON (viewable in Perfetto)."""
    origin = min((span["start"] for span in spans), default=0)
    events = []
    for span in spans:
        args = {"id": span["id"], "parent": span["parent"]}
        if span["request"] is not None:
            args["request"] = span["request"]
        args.update(span["counts"])
        events.append({"name": span["name"], "ph": "X", "cat": "repro",
                       "ts": (span["start"] - origin) / 1000.0,
                       "dur": (span["end"] - span["start"]) / 1000.0,
                       "pid": span["pid"], "tid": span["tid"], "args": args})
    with open(path, "w", encoding="utf-8") as stream:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, stream)
