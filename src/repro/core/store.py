"""Durable, content-addressed result stores for the execution layer.

A *run store* maps content-hash keys (:mod:`repro.utils.hashing`) to the
JSON-serializable values sweep workers return.  The sweep engine and the
campaign runner write every computed point into their store as soon as it
completes, and consult the store before computing anything — so results
survive the process, transfer between equivalent workers, and interrupted
campaigns resume from whatever already finished.

Two implementations: :class:`MemoryStore`, an in-process dict (the
engine's default), and :class:`DiskStore`, one SQLite file under a root
directory, so a warm re-run in a *new process* serves every point from
disk (values must round-trip JSON, as all the catalog's results do).

Anything implementing the small :class:`RunStore` protocol — ``get`` /
``put`` / ``__contains__`` / ``__len__`` / ``clear`` / ``info`` — can be
passed wherever a store is accepted (``SweepEngine(store=...)``,
``Scenario.run(store=...)``, ``Campaign.run(store=...)``).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import shutil
import threading
import time
from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

from repro.utils.serialization import to_plain


@runtime_checkable
class RunStore(Protocol):
    """Protocol of a content-addressed result store."""

    def get(self, key: str) -> Any:
        """Value stored under ``key``; raises ``KeyError`` when absent."""

    def put(self, key: str, value: Any) -> None:
        """Durably associate ``value`` (JSON-serializable) with ``key``."""

    def __contains__(self, key: str) -> bool: ...

    def __len__(self) -> int: ...

    def clear(self) -> int:
        """Drop every entry, returning how many were removed."""

    def info(self) -> Dict[str, Any]:
        """Store statistics (backend, entry count, ...) — may cost a
        full store walk; see :meth:`describe` for the cheap form."""

    def describe(self) -> Dict[str, Any]:
        """Cheap identification (backend, location) — never walks
        entries, safe to record per run."""


def store_and_canonicalize(store: "RunStore", key: str, value: Any) -> Any:
    """Write ``value`` under ``key`` and serve it back through the store.

    The write step of every computed point
    (:meth:`repro.core.engine.Point.record`): returning
    ``store.get(key)`` after a successful put means cold and warm runs
    see the identical value representation (a DiskStore JSON
    round-trip turns tuples into lists and non-string dict keys into
    strings — that must not depend on which run computed the point).
    A value the store cannot represent (``TypeError``) is returned
    unchanged and the point simply stays uncached — a storage limitation
    must not read as a worker failure.
    """
    try:
        store.put(key, value)
    except TypeError:
        return value
    return store.get(key)


class MemoryStore:
    """In-process dict-backed store — the engine's default backend."""

    def __init__(self) -> None:
        self._entries: Dict[str, Any] = {}

    def get(self, key: str) -> Any:
        return self._entries[key]

    def put(self, key: str, value: Any) -> None:
        self._entries[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries.clear()
        return removed

    def info(self) -> Dict[str, Any]:
        return {"backend": "memory", "entries": len(self._entries)}

    def describe(self) -> Dict[str, Any]:
        return {"backend": "memory"}


class StoreError(OSError):
    """A failure of the store's database (a server fault), naming its file."""


class DiskStore:
    """One SQLite database of canonical JSON, ``<root>/store.sqlite3``.  A
    ``put`` is one committed ``INSERT OR REPLACE``, so an entry never
    tears.  WAL mode with ``synchronous=NORMAL``: a commit survives a crash
    of the process; a power loss may lose the last ones, as a cache may.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.path = os.path.join(self.root, "store.sqlite3")
        os.makedirs(self.root, exist_ok=True)
        # pid -> [lock, connection]: a forked child never touches its
        # parent's, which a parent thread may have held locked at the fork.
        self._per_pid: Dict[int, List[Any]] = {}

    @staticmethod
    def _key(key: str) -> str:
        key = str(key)  # clients name keys too: /v1/results/<key>
        if not key or os.sep in key or key.startswith("."):
            raise ValueError(f"invalid store key {key!r}")
        return key

    @contextlib.contextmanager
    def _connection(self) -> Any:
        import sqlite3  # here, not at module top: most runs open no store
        slot = self._per_pid.setdefault(os.getpid(), [threading.Lock(), None])
        with slot[0]:
            try:
                if slot[1] is None:
                    slot[1] = self._open(sqlite3)
                yield slot[1]
            except sqlite3.Error as error:
                raise StoreError(f"{self.path}: {error}") from error

    def _open(self, sqlite3: Any) -> Any:
        # A store that cannot be written opens read-only, or immutable where
        # the -shm file WAL readers need cannot be created.  The busy timeout
        # is finite: a wedged process's lock ends as a StoreError, not a hang.
        uri = pathlib.Path(os.path.abspath(self.path)).as_uri()
        probe = "SELECT 1 FROM entries LIMIT 1"
        modes = [("mode=rwc", "PRAGMA synchronous=NORMAL; PRAGMA journal_mode="
                  "WAL; CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY"
                  " KEY, value TEXT NOT NULL, written REAL NOT NULL)"),
                 ("mode=ro", probe), ("immutable=1", probe)]
        deadline = time.monotonic() + 30.0
        while True:
            connection = sqlite3.connect(
                f"{uri}?{modes[0][0]}", uri=True, timeout=30.0,
                isolation_level=None, check_same_thread=False)
            try:
                connection.executescript(modes[0][1])
                return connection
            except sqlite3.Error as error:
                connection.close()
                name = getattr(error, "sqlite_errorname", "")
                if name.startswith(("SQLITE_READONLY", "SQLITE_CANTOPEN")) \
                        and len(modes) > 1:
                    del modes[0]
                # Converting a new file to WAL fails at once, not after the
                # busy timeout, while another process opens it too: retry.
                elif name != "SQLITE_BUSY" or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def _query(self, sql: str, parameters: tuple = ()) -> List[tuple]:
        with self._connection() as connection:
            return connection.execute(sql, parameters).fetchall()

    def get(self, key: str) -> Any:
        # An entry that does not decode (emptied or overwritten outside the
        # store) is a miss: its point is recomputed and ``put`` replaces it.
        for (value,) in self._query("SELECT value FROM entries WHERE key = ?",
                                    (self._key(key),)):
            with contextlib.suppress(ValueError):
                return json.loads(value)
        raise KeyError(key)

    def put(self, key: str, value: Any) -> None:
        payload = json.dumps(to_plain(value), sort_keys=True,
                             separators=(",", ":"))
        self._query("INSERT OR REPLACE INTO entries VALUES (?, ?, ?)",
                    (self._key(key), payload, time.time()))

    def __contains__(self, key: str) -> bool:
        return bool(self._query("SELECT 1 FROM entries WHERE key = ?",
                                (self._key(key),)))

    def __len__(self) -> int:
        return self._query("SELECT COUNT(*) FROM entries")[0][0]

    def clear(self) -> int:
        # Nothing reads the tree of JSON files earlier versions kept.
        for legacy in ("objects", "manifest"):
            shutil.rmtree(os.path.join(self.root, legacy), ignore_errors=True)
        with self._connection() as connection:
            removed = connection.execute("DELETE FROM entries").rowcount
            if removed:
                connection.execute("VACUUM")   # as gc does
        return removed

    def info(self) -> Dict[str, Any]:
        [(entries, total_bytes)] = self._query(
            "SELECT COUNT(*), TOTAL(length(CAST(value AS BLOB))) "
            "FROM entries")
        return {"backend": "disk", "path": os.path.abspath(self.root),
                "entries": entries, "total_bytes": int(total_bytes)}

    def describe(self) -> Dict[str, Any]:
        return {"backend": "disk", "path": os.path.abspath(self.root)}

    def gc(self, max_age_days: Optional[float] = None,
           max_total_bytes: Optional[int] = None, dry_run: bool = False,
           now: Optional[float] = None) -> Dict[str, Any]:
        """Age- and size-bounded eviction (``python -m repro cache gc``):
        entries written over ``max_age_days`` ago, then the oldest while
        the rest's JSON exceeds ``max_total_bytes``; ``dry_run`` only
        reports, ``now`` (seconds since the epoch) is for tests.  Returns
        ``{"examined", "removed", "kept", "freed_bytes", ...}``."""
        if any(bound is not None and bound < 0
               for bound in (max_age_days, max_total_bytes)):
            raise ValueError("gc bounds must be non-negative")
        now = time.time() if now is None else float(now)
        age = float("inf") if max_age_days is None else max_age_days * 86400.0
        budget = float("inf") if max_total_bytes is None else max_total_bytes
        with self._connection() as connection:
            with connection:   # commits, or rolls back on an error
                connection.execute("BEGIN" if dry_run else "BEGIN IMMEDIATE")
                entries = connection.execute(
                    "SELECT key, written, length(CAST(value AS BLOB)) "
                    "FROM entries ORDER BY written").fetchall()
                remaining = sum(size for _, _, size in entries)
                doomed = []
                for key, written, size in entries:   # oldest first
                    if now - written <= age and remaining <= budget:
                        break
                    doomed.append((key,))
                    remaining -= size
                if not dry_run:
                    connection.executemany(
                        "DELETE FROM entries WHERE key = ?", doomed)
            if doomed and not dry_run:
                # Deleted rows do not shrink the file; rewriting it does.
                connection.execute("VACUUM")
        freed = sum(size for _, _, size in entries) - remaining
        return {"examined": len(entries), "removed": len(doomed),
                "kept": len(entries) - len(doomed), "freed_bytes": freed,
                "remaining_bytes": remaining, "dry_run": bool(dry_run)}

