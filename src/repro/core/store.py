"""Durable, content-addressed result stores for the execution layer.

A *run store* maps content-hash keys (:mod:`repro.utils.hashing`) to the
JSON-serializable values sweep workers return.  The sweep engine and the
campaign runner write every computed point into their store as soon as it
completes, and consult the store before computing anything — so results
survive the process, transfer between equivalent workers, and interrupted
campaigns resume from whatever already finished.

Two implementations:

* :class:`MemoryStore` — a plain in-process dict; the engine's default,
  preserving the historical in-memory cache behaviour.
* :class:`DiskStore` — one canonical-JSON file per key under a root
  directory (sharded by key prefix, written atomically via rename), so a
  warm re-run in a *new process* serves every point from disk.  Values
  must round-trip JSON; everything the scenario catalog returns does.

Anything implementing the small :class:`RunStore` protocol — ``get`` /
``put`` / ``__contains__`` / ``__len__`` / ``clear`` / ``info`` — can be
passed wherever a store is accepted (``SweepEngine(store=...)``,
``Scenario.run(store=...)``, ``Campaign.run(store=...)``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import (Any, Dict, Iterable, Iterator, Optional, Protocol,
                    runtime_checkable)

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


class DiskStore:
    """One JSON file per key under ``root`` — results that survive days.

    Layout: ``<root>/objects/<key[:2]>/<key>.json`` (two-level sharding
    keeps directories small for large campaigns).  Writes go through a
    temporary file in the final directory followed by ``os.replace``, so
    a crash mid-write never leaves a truncated entry and concurrent
    writers of the same key are safe (last complete write wins — both
    wrote the same content-addressed value anyway).

    Readers never need coordination either: an object file only ever
    appears complete (rename is atomic) and is never written in place,
    so ``get`` in one process while another process writes is always a
    complete value or ``KeyError`` — never a torn read.

    :meth:`info` and ``len()`` are served from **per-shard manifests**
    (``<root>/manifest/<shard>.json``) caching each shard's entry count
    and byte size together with the shard directory's ``st_mtime_ns``;
    a manifest is trusted only while the directory is unchanged and is
    lazily rebuilt otherwise, so any writer — this process, another
    process, ``gc`` — invalidates it for free by merely touching the
    shard.  ``cache info`` on a million-entry store therefore costs one
    ``stat`` per shard, not a full directory walk.
    """

    _SUFFIX = ".json"

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self._objects = os.path.join(self.root, "objects")
        self._manifests = os.path.join(self.root, "manifest")
        os.makedirs(self._objects, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        key = str(key)
        if not key or os.sep in key or key.startswith("."):
            raise ValueError(f"invalid store key {key!r}")
        return os.path.join(self._objects, key[:2], key + self._SUFFIX)

    def _shards(self) -> list:
        return sorted(shard for shard in os.listdir(self._objects)
                      if os.path.isdir(os.path.join(self._objects, shard)))

    def _iter_paths(self) -> Iterator[str]:
        for shard in self._shards():
            shard_dir = os.path.join(self._objects, shard)
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(self._SUFFIX):
                    yield os.path.join(shard_dir, name)

    # ------------------------------------------------------------------
    # per-shard manifests
    # ------------------------------------------------------------------
    def _manifest_path(self, shard: str) -> str:
        return os.path.join(self._manifests, shard + ".json")

    def _scan_shard(self, shard: str) -> Dict[str, int]:
        """Walk one shard directory (the expensive path the manifest
        exists to avoid)."""
        shard_dir = os.path.join(self._objects, shard)
        entries = 0
        total_bytes = 0
        try:
            with os.scandir(shard_dir) as it:
                for item in it:
                    if not item.name.endswith(self._SUFFIX):
                        continue
                    try:
                        total_bytes += item.stat().st_size
                    except FileNotFoundError:
                        continue  # removed mid-scan by a concurrent gc
                    entries += 1
        except FileNotFoundError:
            pass
        return {"entries": entries, "total_bytes": total_bytes}

    def _shard_stats(self, shard: str) -> Dict[str, int]:
        """Entry count and byte size of one shard, manifest-cached.

        The manifest is valid only while its recorded ``st_mtime_ns``
        matches the shard directory's current one: every object write
        (tempfile create + rename) and every unlink touches the
        directory, so stale manifests self-invalidate without any
        cross-process coordination.  The token is taken *before* the
        scan — a write racing the scan leaves a mismatched token behind
        and the next reader simply rescans.
        """
        shard_dir = os.path.join(self._objects, shard)
        try:
            token = os.stat(shard_dir).st_mtime_ns
        except FileNotFoundError:
            return {"entries": 0, "total_bytes": 0}
        manifest_path = self._manifest_path(shard)
        try:
            with open(manifest_path, "r", encoding="utf-8") as stream:
                manifest = json.load(stream)
            if manifest.get("token") == token:
                return {"entries": int(manifest["entries"]),
                        "total_bytes": int(manifest["total_bytes"])}
        except (OSError, ValueError, KeyError, TypeError):
            pass  # missing or corrupt manifest: rebuild below
        stats = self._scan_shard(shard)
        try:
            self._write_manifest(shard, token, stats)
        except OSError:
            pass  # a read-only or full store: the counts are still right
        return stats

    def _write_manifest(self, shard: str, token: int,
                        stats: Dict[str, int]) -> None:
        os.makedirs(self._manifests, exist_ok=True)
        payload = json.dumps({"token": token, **stats}, sort_keys=True)
        handle, temp_path = tempfile.mkstemp(dir=self._manifests,
                                             suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(payload)
            os.replace(temp_path, self._manifest_path(shard))
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise

    def _drop_manifests(self, shards: Iterable[str]) -> None:
        """Invalidate manifests eagerly (gc/clear) — lazy revalidation
        would catch them anyway, this just keeps the directory tidy."""
        for shard in shards:
            try:
                os.unlink(self._manifest_path(shard))
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        try:
            with open(self._path(key), "r", encoding="utf-8") as stream:
                return json.load(stream)
        except FileNotFoundError:
            raise KeyError(key) from None

    def put(self, key: str, value: Any) -> None:
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        payload = json.dumps(to_plain(value), sort_keys=True,
                             separators=(",", ":"))
        handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(payload)
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        return sum(self._shard_stats(shard)["entries"]
                   for shard in self._shards())

    def clear(self) -> int:
        removed = 0
        for path in list(self._iter_paths()):
            os.unlink(path)
            removed += 1
        self._drop_manifests(self._shards())
        return removed

    def info(self) -> Dict[str, Any]:
        entries = 0
        total_bytes = 0
        shards = self._shards()
        for shard in shards:
            stats = self._shard_stats(shard)
            entries += stats["entries"]
            total_bytes += stats["total_bytes"]
        return {"backend": "disk", "path": os.path.abspath(self.root),
                "entries": entries, "total_bytes": total_bytes,
                "shards": len(shards)}

    def describe(self) -> Dict[str, Any]:
        return {"backend": "disk", "path": os.path.abspath(self.root)}

    def gc(self, max_age_days: Optional[float] = None,
           max_total_bytes: Optional[int] = None,
           dry_run: bool = False,
           now: Optional[float] = None) -> Dict[str, Any]:
        """Age- and size-bounded eviction (``python -m repro cache gc``).

        Two independent bounds, applied in order:

        * ``max_age_days`` — entries whose file modification time is
          older than this many days are evicted;
        * ``max_total_bytes`` — if the surviving entries still exceed
          this budget, the oldest are evicted first until the store fits.

        ``dry_run=True`` reports what *would* be removed without
        touching any file.  Entries that vanish mid-walk (a concurrent
        ``clear`` or gc) are skipped, not errors.  ``now`` overrides the
        reference time (seconds since the epoch) — for tests.

        Returns ``{"examined", "removed", "kept", "freed_bytes",
        "remaining_bytes", "dry_run"}``.
        """
        if max_age_days is not None and max_age_days < 0:
            raise ValueError("max_age_days must be non-negative")
        if max_total_bytes is not None and max_total_bytes < 0:
            raise ValueError("max_total_bytes must be non-negative")
        now = time.time() if now is None else float(now)
        entries = []
        for path in self._iter_paths():
            try:
                stat = os.stat(path)
            except FileNotFoundError:
                continue
            entries.append((path, stat.st_mtime, stat.st_size))
        doomed = []
        survivors = []
        for entry in entries:
            _, mtime, _ = entry
            if max_age_days is not None \
                    and now - mtime > max_age_days * 86400.0:
                doomed.append(entry)
            else:
                survivors.append(entry)
        if max_total_bytes is not None:
            survivors.sort(key=lambda entry: entry[1])  # oldest first
            remaining = sum(size for _, _, size in survivors)
            while survivors and remaining > max_total_bytes:
                entry = survivors.pop(0)
                doomed.append(entry)
                remaining -= entry[2]
        freed = 0
        removed = 0
        for path, _, size in doomed:
            if not dry_run:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    continue
            removed += 1
            freed += size
        if not dry_run and doomed:
            self._drop_manifests({os.path.basename(os.path.dirname(path))
                                  for path, _, _ in doomed})
        return {
            "examined": len(entries),
            "removed": removed,
            "kept": len(entries) - removed,
            "freed_bytes": freed,
            "remaining_bytes": sum(size for _, _, size in entries) - freed,
            "dry_run": bool(dry_run),
        }
