"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
reproduced rows/series so the output can be compared against the original
(see EXPERIMENTS.md for the side-by-side record).  Heavy computations run
exactly once per benchmark (``rounds=1``) — the interesting output is the
reproduced data, not a timing distribution.

The retired reference implementations some benchmarks time against live
in ``tests/oracles``; this conftest puts ``tests/`` on the import path so
they import as ``oracles`` here too.

The ``run_store`` fixture gives every benchmark a shared, content-addressed
result store.  By default it is an in-process ``MemoryStore``; export
``REPRO_BENCH_STORE=DIR`` to back it with a ``DiskStore`` so warm re-runs
of the heavy figures (Fig. 8, Fig. 10, Table I) are served from disk and
finish near-instantly.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.core.store import DiskStore, MemoryStore

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))


@pytest.fixture(scope="session")
def run_store():
    """Session-shared RunStore (DiskStore when REPRO_BENCH_STORE is set)."""
    path = os.environ.get("REPRO_BENCH_STORE")
    return DiskStore(path) if path else MemoryStore()


def run_once(benchmark, function):
    """Run ``function`` exactly once under pytest-benchmark and return it."""
    return benchmark.pedantic(function, rounds=1, iterations=1)


def print_table(title: str, header: str, rows) -> None:
    """Print a small aligned table (captured by pytest unless -s is used)."""
    print(f"\n{title}")
    print(header)
    for row in rows:
        print(row)
