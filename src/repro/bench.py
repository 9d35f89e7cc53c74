"""Kernel microbenchmarks behind ``python -m repro bench``.

Measures the throughput of the three hot kernels (batched BP decode,
batched trellis BCJR demod, vectorized NoC cycle engine) for a grid of
dtype/batch-size combinations and returns machine-readable records — the
payload of ``BENCH_kernels.json``.  The workloads are deliberately small
enough for CI smoke runs; the gating *comparison* against the frozen
historical kernels lives in ``benchmarks/test_bench_backend_kernels.py``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.utils.validation import resolve_dtype

#: Kernel registry keys, in report order.
KERNELS = ("bp_decode", "trellis_bcjr", "noc_cycle")

#: Per-kernel throughput units (what "throughput" counts per second).
KERNEL_UNITS = {
    "bp_decode": "codewords/s",
    "trellis_bcjr": "symbols/s",
    "noc_cycle": "rep-cycles/s",
}


def _timed(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` (after one warmup call)."""
    fn()  # warmup: JIT-free here, but fills caches / lazy tables
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_bp(dtype: str, batch_size: int, repeats: int) -> Dict[str, Any]:
    from repro.coding.bp import BeliefPropagationDecoder
    from repro.coding.codes import LdpcConvolutionalCode
    from repro.coding.protograph import paper_edge_spreading

    iterations = 10
    code = LdpcConvolutionalCode(paper_edge_spreading(), lifting_factor=30,
                                 termination_length=12, rng=0)
    decoder = BeliefPropagationDecoder(code.parity_check,
                                       max_iterations=iterations,
                                       dtype=dtype)
    rng = np.random.default_rng(5)
    sigma = 1.6  # noisy enough that decoding runs the full iteration budget
    llrs = 2.0 * (1.0 + rng.normal(0.0, sigma, size=(batch_size, code.n))) \
        / sigma ** 2
    seconds = _timed(lambda: decoder.decode_batch(llrs), repeats)
    return {"seconds": seconds, "throughput": batch_size / seconds,
            "workload": {"n": code.n, "iterations": iterations}}


def _bench_trellis(dtype: str, batch_size: int, repeats: int) -> Dict[str, Any]:
    from repro.phy.channel_model import OversampledOneBitChannel
    from repro.phy.modulation import AskConstellation
    from repro.phy.pulse import sequence_optimized_pulse
    from repro.phy.trellis import TrellisKernel

    n_symbols = 96
    channel = OversampledOneBitChannel(sequence_optimized_pulse(),
                                       AskConstellation(4), snr_db=15.0)
    kernel = TrellisKernel(channel, dtype=dtype)
    signs = np.stack([channel.simulate(n_symbols, rng=seed)[1]
                      for seed in range(batch_size)])
    log_obs = channel.log_observation_probabilities(signs)
    seconds = _timed(
        lambda: kernel.symbol_log_posteriors(log_obs, initial="zero-state"),
        repeats)
    return {"seconds": seconds,
            "throughput": batch_size * n_symbols / seconds,
            "workload": {"n_symbols": n_symbols,
                         "n_states": channel.n_states}}


def _bench_noc(dtype: str, batch_size: int, repeats: int) -> Dict[str, Any]:
    from repro.noc.simulator import NocSimulator
    from repro.noc.topology import Mesh3D

    # The cycle engine is integer-exact: dtype does not apply, so the
    # same measurement is reported under either label.  ``batch_size``
    # maps onto merged Monte-Carlo replications.
    n_cycles, warmup = 1200, 300
    simulator = NocSimulator(Mesh3D(4, 4, 4))
    seconds = _timed(
        lambda: simulator.run_batch(0.05, n_cycles=n_cycles,
                                    warmup_cycles=warmup,
                                    n_replications=batch_size, rng=7),
        repeats)
    return {"seconds": seconds,
            "throughput": batch_size * n_cycles / seconds,
            "workload": {"topology": "mesh3d-4x4x4", "n_cycles": n_cycles}}


_RUNNERS = {
    "bp_decode": _bench_bp,
    "trellis_bcjr": _bench_trellis,
    "noc_cycle": _bench_noc,
}


def run_kernel_benchmarks(
    kernels: Optional[Iterable[str]] = None,
    dtypes: Sequence[str] = ("float64", "float32"),
    batch_sizes: Sequence[int] = (64, 256),
    repeats: int = 2,
) -> Dict[str, Any]:
    """Run the kernel microbenchmark grid and return the report dict.

    Returns ``{"units": {...}, "records": [...]}`` where each record
    carries ``kernel``/``dtype``/``batch_size``/``seconds``/``throughput``
    plus a small ``workload`` descriptor.  Kernel and dtype names are
    validated before anything runs.
    """
    selected = list(kernels) if kernels is not None else list(KERNELS)
    for kernel in selected:
        if kernel not in _RUNNERS:
            raise ValueError(f"unknown kernel {kernel!r}; valid kernels: "
                             f"{', '.join(KERNELS)}")
    resolved_dtypes = [resolve_dtype(dtype).name for dtype in dtypes]
    records: List[Dict[str, Any]] = []
    for dtype in resolved_dtypes:
        for batch_size in batch_sizes:
            for kernel in selected:
                result = _RUNNERS[kernel](dtype, int(batch_size), repeats)
                records.append({
                    "kernel": kernel,
                    "dtype": dtype,
                    "batch_size": int(batch_size),
                    "units": KERNEL_UNITS[kernel],
                    **result,
                })
    return {"units": dict(KERNEL_UNITS), "records": records}


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_kernel_benchmarks` report."""
    header = (f"{'kernel':<14} {'dtype':<8} "
              f"{'batch':>6} {'seconds':>10} {'throughput':>14}  units")
    lines = [header, "-" * len(header)]
    for record in report["records"]:
        lines.append(
            f"{record['kernel']:<14} {record['dtype']:<8} "
            f"{record['batch_size']:>6} "
            f"{record['seconds']:>10.4f} {record['throughput']:>14.1f}  "
            f"{record['units']}")
    return "\n".join(lines)
