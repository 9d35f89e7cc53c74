"""Tests for the content-addressed result stores (repro.core.store)."""

import contextlib
import json
import multiprocessing
import os
import sqlite3
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.store import DiskStore, MemoryStore, RunStore, StoreError

KEY_A = "a" * 64
KEY_B = "b" * 64


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return DiskStore(str(tmp_path / "store"))


class TestRunStoreContract:
    def test_both_backends_satisfy_the_protocol(self, store):
        assert isinstance(store, RunStore)

    def test_put_get_roundtrip(self, store):
        value = {"ber": 1.5e-3, "curve": [1.0, 2.5], "label": "x",
                 "flag": True, "missing": None}
        store.put(KEY_A, value)
        assert KEY_A in store
        assert store.get(KEY_A) == value
        assert len(store) == 1

    def test_missing_key_raises_keyerror(self, store):
        assert KEY_A not in store
        with pytest.raises(KeyError):
            store.get(KEY_A)

    def test_overwrite_wins(self, store):
        store.put(KEY_A, 1.0)
        store.put(KEY_A, 2.0)
        assert store.get(KEY_A) == 2.0
        assert len(store) == 1

    def test_clear_reports_removed_count(self, store):
        store.put(KEY_A, 1)
        store.put(KEY_B, 2)
        assert store.clear() == 2
        assert len(store) == 0
        assert store.clear() == 0

    def test_info_reports_entries(self, store):
        store.put(KEY_A, [1, 2, 3])
        info = store.info()
        assert info["entries"] == 1
        assert info["backend"] in ("memory", "disk")

    def test_describe_is_cheap_identification(self, store):
        description = store.describe()
        assert description["backend"] in ("memory", "disk")
        assert "entries" not in description  # never walks the store


class TestDiskStore:
    def test_survives_a_new_store_instance(self, tmp_path):
        # The whole point: a second process opening the same directory
        # sees every stored value.
        root = str(tmp_path / "store")
        DiskStore(root).put(KEY_A, {"x": [1.5, float("inf")]})
        reopened = DiskStore(root)
        assert KEY_A in reopened
        assert reopened.get(KEY_A) == {"x": [1.5, float("inf")]}

    def test_values_are_canonical_json_files(self, tmp_path):
        # Canonical JSON text, one row per key in the one database file.
        store = DiskStore(str(tmp_path / "store"))
        store.put(KEY_A, {"b": 1, "a": (1, 2)})
        with _database(str(tmp_path / "store")) as database:
            assert database.execute(
                "SELECT value FROM entries WHERE key = ?",
                (KEY_A,)).fetchone()[0] == '{"a":[1,2],"b":1}'
        assert store.info()["total_bytes"] > 0

    def test_numpy_values_are_coerced_on_put(self, tmp_path):
        import numpy as np

        store = DiskStore(str(tmp_path / "store"))
        store.put(KEY_A, {"x": np.float64(1.5), "n": np.arange(2)})
        assert store.get(KEY_A) == {"x": 1.5, "n": [0, 1]}

    def test_invalid_keys_rejected(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        for bad in ("", "..", ".hidden", f"a{os.sep}b"):
            with pytest.raises(ValueError):
                store.put(bad, 1)

    def test_no_temp_file_debris_after_put(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        store.put(KEY_A, {"x": 1})
        assert _debris(str(tmp_path / "store")) == []

    def test_unserializable_value_fails_without_corrupting(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        with pytest.raises(TypeError):
            store.put(KEY_A, object())
        assert KEY_A not in store
        assert len(store) == 0


class TestDiskStoreGc:
    @staticmethod
    def _aged_store(tmp_path, now):
        """Three entries written 0 / 10 / 20 'days' before ``now``."""
        return _aged_store(str(tmp_path / "store"), now)

    def test_age_bound_evicts_old_entries(self, tmp_path):
        now = 1_700_000_000.0
        store = self._aged_store(tmp_path, now)
        report = store.gc(max_age_days=15, now=now)
        assert report["removed"] == 1
        assert report["kept"] == 2
        assert "a" * 64 not in store
        assert "b" * 64 in store and "c" * 64 in store

    def test_size_bound_evicts_oldest_first(self, tmp_path):
        now = 1_700_000_000.0
        store = self._aged_store(tmp_path, now)
        entry_bytes = len(_row(store.root, "a" * 64))
        report = store.gc(max_total_bytes=entry_bytes, now=now)
        assert report["removed"] == 2
        assert report["remaining_bytes"] <= entry_bytes
        # The newest entry survives.
        assert "c" * 64 in store
        assert "a" * 64 not in store and "b" * 64 not in store

    def test_bounds_compose(self, tmp_path):
        now = 1_700_000_000.0
        store = self._aged_store(tmp_path, now)
        report = store.gc(max_age_days=15, max_total_bytes=0, now=now)
        assert report["removed"] == 3
        assert len(store) == 0

    def test_dry_run_removes_nothing(self, tmp_path):
        now = 1_700_000_000.0
        store = self._aged_store(tmp_path, now)
        report = store.gc(max_age_days=5, max_total_bytes=0, now=now,
                          dry_run=True)
        assert report["dry_run"] is True
        assert report["removed"] == 3
        assert len(store) == 3

    def test_no_bounds_keeps_everything(self, tmp_path):
        now = 1_700_000_000.0
        store = self._aged_store(tmp_path, now)
        report = store.gc(now=now)
        assert report["removed"] == 0
        assert report["kept"] == 3

    def test_rejects_negative_bounds(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        with pytest.raises(ValueError):
            store.gc(max_age_days=-1)
        with pytest.raises(ValueError):
            store.gc(max_total_bytes=-1)


class TestDiskStoreConcurrentWriters:
    def test_same_key_racing_writers_leave_a_complete_entry(self, tmp_path):
        # Regression: two processes computing the same content-addressed
        # point write the same key concurrently.  Whatever the
        # interleaving, the surviving entry must be complete and readable
        # (one committed row), never truncated or interleaved.
        root = str(tmp_path / "store")
        value = {"curve": list(range(500)), "label": "same-for-both"}
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        workers = [
            context.Process(target=_hammer_put,
                            args=(root, KEY_A, value, barrier))
            for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        store = DiskStore(root)
        assert store.get(KEY_A) == value
        assert _debris(root) == []


def _hammer_put(root, key, value, barrier):
    """Worker for the concurrent-writer test (module-level: spawn picks
    it up by import)."""
    store = DiskStore(root)
    barrier.wait(timeout=30)
    for _ in range(50):
        store.put(key, value)


class TestDiskStoreConcurrentReaders:
    def test_readers_race_an_active_writer_without_torn_reads(self,
                                                              tmp_path):
        # Readers in other processes while a writer fills the store:
        # every successful get must be a complete, self-consistent value
        # (committed rows), and a not-yet-written key is a clean
        # KeyError — never a truncated or interleaved read.
        root = str(tmp_path / "store")
        DiskStore(root)  # create the root before the readers start
        keys = [f"{index:064x}" for index in range(24)]
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(3)
        readers = [
            context.Process(target=_hammer_get, args=(root, keys, barrier))
            for _ in range(2)]
        writer = context.Process(target=_fill_store,
                                 args=(root, keys, barrier))
        for process in readers + [writer]:
            process.start()
        for process in readers + [writer]:
            process.join(timeout=120)
            assert process.exitcode == 0
        # Afterwards the store is complete and consistent.
        store = DiskStore(root)
        assert len(store) == len(keys)
        for key in keys:
            value = store.get(key)
            assert value["key"] == key
            assert value["curve"] == list(range(200))

    def test_len_and_info_stay_correct_under_external_writes(self,
                                                             tmp_path):
        # A second handle (stand-in for another process) writes after this
        # handle has counted: its counts follow the other's writes.
        root = str(tmp_path / "store")
        reader = DiskStore(root)
        writer = DiskStore(root)
        writer.put(KEY_A, {"x": 1})
        assert reader.info()["entries"] == 1   # manifests now warm
        writer.put(KEY_B, {"x": 2})
        writer.put("a" * 63 + "c", {"x": 3})   # same shard as KEY_A
        assert len(reader) == 3
        assert reader.info()["entries"] == 3


def _fill_store(root, keys, barrier):
    """Writer for the reader-race test (module-level: spawn imports it)."""
    store = DiskStore(root)
    barrier.wait(timeout=30)
    for key in keys:
        store.put(key, {"key": key, "curve": list(range(200))})


def _hammer_get(root, keys, barrier):
    """Reader for the reader-race test: a get may miss (KeyError) but a
    hit must be complete and self-consistent."""
    store = DiskStore(root)
    barrier.wait(timeout=30)
    seen = set()
    while len(seen) < len(keys):
        for key in keys:
            try:
                value = store.get(key)
            except KeyError:
                continue
            assert value["key"] == key
            assert value["curve"] == list(range(200))
            seen.add(key)


class TestDiskStoreManifests:
    """What the per-shard manifests of the file-tree store used to serve,
    ``info()`` and ``len()``, now comes from the database: it must match
    the rows, across gc, clear and a read-only open."""

    @staticmethod
    def _walk_rows(root):
        with _database(root) as database:
            sizes = [len(value) for (value,) in database.execute(
                "SELECT CAST(value AS BLOB) FROM entries")]
        return len(sizes), sum(sizes)

    def test_info_matches_an_exhaustive_walk(self, tmp_path):
        root = str(tmp_path / "store")
        store = DiskStore(root)
        for index in range(12):
            store.put(f"{index:064x}", {"payload": index * 100})
        info = store.info()
        entries, total_bytes = self._walk_rows(root)
        assert info["entries"] == entries == 12
        assert info["total_bytes"] == total_bytes
        assert set(info) == {"backend", "path", "entries", "total_bytes"}

    def test_read_only_store_still_reports_counts(self, tmp_path,
                                                  monkeypatch):
        # A store that cannot be written (injected: the read-write open
        # fails as SQLite fails on a read-only file) opens read-only:
        # info(), len() and get() keep working, and nothing is written.
        root = str(tmp_path / "store")
        store = DiskStore(root)
        store.put(KEY_A, {"x": 1})
        store.put(KEY_B, {"x": 2})
        del store
        before = _row(root, KEY_A)
        _refuse_opens(monkeypatch, "mode=rwc")
        store = DiskStore(root)
        assert store.info()["entries"] == 2
        assert len(store) == 2
        assert store.get(KEY_A) == {"x": 1}
        with pytest.raises(StoreError, match="readonly"):
            store.put(KEY_A, {"x": 3})
        assert _row(root, KEY_A) == before

    def test_gc_keeps_manifests_consistent(self, tmp_path):
        now = 1_700_000_000.0
        store = _aged_store(str(tmp_path / "store"), now)
        assert store.info()["entries"] == 3
        report = store.gc(max_age_days=15, now=now)
        assert report["removed"] == 1
        info = store.info()
        entries, total_bytes = self._walk_rows(str(tmp_path / "store"))
        assert info["entries"] == entries == 2
        assert info["total_bytes"] == total_bytes

    def test_clear_resets_manifests(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        for index in range(4):
            store.put(f"{index:064x}", {"payload": index})
        assert store.info()["entries"] == 4
        assert store.clear() == 4
        assert store.info()["entries"] == 0
        assert len(store) == 0


def _database(root):
    """A connection of the test's own to the store's database, closed
    (not committed) on leaving a ``with`` block."""
    return contextlib.closing(sqlite3.connect(
        os.path.join(root, "store.sqlite3"), isolation_level=None))


def _row(root, key):
    """The bytes stored under ``key``."""
    with _database(root) as database:
        return database.execute(
            "SELECT CAST(value AS BLOB) FROM entries WHERE key = ?",
            (key,)).fetchone()[0]


def _aged_store(root, now):
    """Three entries written 0 / 10 / 20 'days' before ``now``."""
    store = DiskStore(root)
    ages_days = {"a" * 64: 20, "b" * 64: 10, "c" * 64: 0}
    for key, age in ages_days.items():
        store.put(key, {"payload": key[:8]})
    with _database(root) as database:
        for key, age in ages_days.items():
            database.execute("UPDATE entries SET written = ? WHERE key = ?",
                             (now - age * 86400.0, key))
    return store


def _debris(root):
    return [os.path.join(parent, name)
            for parent, _, names in os.walk(root)
            for name in names if name.endswith(".tmp")]


def _refuse_opens(monkeypatch, *queries):
    """Make SQLite refuse the store's opens with these URI queries the way
    it refuses a store it cannot write (the tests run as a user for whom
    file permissions do not make a store read-only)."""
    connect = sqlite3.connect

    class Refused(sqlite3.Connection):
        def executescript(self, script):
            error = sqlite3.OperationalError(
                "attempt to write a readonly database")
            error.sqlite_errorname = "SQLITE_READONLY"
            raise error

    def refusing(target, *args, **kwargs):
        if str(target).rpartition("?")[2] in queries:
            kwargs["factory"] = Refused
        return connect(target, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", refusing)


def _checkpointed_size(root):
    """The database file's size once the WAL is folded into it."""
    with _database(root) as database:
        database.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    return os.path.getsize(os.path.join(root, "store.sqlite3"))


def _filled_store(root, count=200):
    store = DiskStore(root)
    for index in range(count):
        store.put(f"{index:064x}", {"index": index, "pad": "x" * 1000})
    return store


def _truncate_to_half(root):
    """Cut the checkpointed database file to half its size."""
    path = os.path.join(root, "store.sqlite3")
    size = _checkpointed_size(root)
    with open(path, "r+b") as stream:
        stream.truncate(size // 2)


def _garbage(root):
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "store.sqlite3"), "wb") as stream:
        stream.write(b"not a database, " * 512)


class TestStoreFaults:
    """A broken database is a typed error naming the file; a full one
    fails the write and keeps what it holds."""

    def test_a_garbage_database_is_a_store_error_naming_the_file(
            self, tmp_path):
        root = str(tmp_path / "store")
        _garbage(root)
        store = DiskStore(root)
        for operation in (lambda: len(store), lambda: KEY_A in store,
                          lambda: store.get(KEY_A),
                          lambda: store.put(KEY_A, 1), store.info):
            with pytest.raises(StoreError, match="not a database") as caught:
                operation()
            assert os.path.join(root, "store.sqlite3") in str(caught.value)
            assert isinstance(caught.value, OSError)

    def test_a_truncated_database_is_a_store_error_naming_the_file(
            self, tmp_path):
        root = str(tmp_path / "store")
        _filled_store(root)
        _truncate_to_half(root)
        with pytest.raises(StoreError, match="malformed") as caught:
            DiskStore(root).info()
        assert os.path.join(root, "store.sqlite3") in str(caught.value)

    def test_a_full_database_fails_the_put_and_keeps_its_entries(
            self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        store.put(KEY_A, {"x": 1})
        with store._connection() as connection:
            pages = connection.execute("PRAGMA page_count").fetchone()[0]
            connection.execute(f"PRAGMA max_page_count = {pages}")
        with pytest.raises(StoreError, match="full"):
            store.put(KEY_B, {"pad": "x" * 20000})
        assert KEY_B not in store
        assert store.get(KEY_A) == {"x": 1}
        assert len(store) == 1

    def test_gc_and_clear_shrink_the_file(self, tmp_path):
        root = str(tmp_path / "store")
        store = _filled_store(root)
        full = _checkpointed_size(root)
        assert store.gc(max_total_bytes=10_000)["removed"] > 190
        after_gc = _checkpointed_size(root)
        assert after_gc < full / 4
        assert store.clear() > 0
        assert _checkpointed_size(root) < after_gc
        assert len(store) == 0

    def test_clear_removes_the_file_tree_of_earlier_versions(self,
                                                             tmp_path):
        root = tmp_path / "store"
        for legacy in ("objects/aa", "manifest"):
            (root / legacy).mkdir(parents=True)
        (root / "objects" / "aa" / ("a" * 64 + ".json")).write_text("1")
        (root / "manifest" / "aa.json").write_text("{}")
        store = DiskStore(str(root))
        assert KEY_A not in store      # the tree is never read
        store.put(KEY_B, 2)
        assert store.clear() == 1
        assert not {"objects", "manifest"} & set(os.listdir(root))

    @pytest.mark.parametrize("refused", [("mode=rwc",),
                                         ("mode=rwc", "mode=ro")],
                             ids=["read-only", "immutable"])
    def test_a_store_that_cannot_be_written_still_reads(
            self, tmp_path, monkeypatch, refused):
        # Where even the read-only open fails (no -shm file can be
        # created), the file is read as immutable.
        root = str(tmp_path / "store")
        DiskStore(root).put(KEY_A, {"x": 1})
        _checkpointed_size(root)  # an immutable file is read without WAL
        _refuse_opens(monkeypatch, *refused)
        store = DiskStore(root)
        assert KEY_A in store and KEY_B not in store
        assert store.get(KEY_A) == {"x": 1}
        assert store.info()["entries"] == len(store) == 1
        with pytest.raises(StoreError):
            store.put(KEY_B, {"x": 2})

    def test_a_forked_child_and_threads_share_one_store(self, tmp_path):
        # The child opens a connection of its own (forked before any
        # thread starts); the parent's eight threads, more than the
        # cores, share the parent's under a short switch interval; every
        # write of each lands and reads back whole.
        store = DiskStore(str(tmp_path / "store"))
        store.put(KEY_A, {"from": "parent"})
        child = multiprocessing.get_context("fork").Process(
            target=_write_and_read, args=(store, "c", 50))
        child.start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(_write_and_read, store, str(index), 50)
                           for index in range(8)]
                _write_and_read(store, "p", 50)
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        child.join(timeout=120)
        assert child.exitcode == 0
        assert len(store) == 1 + 50 * 10
        assert store.get(KEY_A) == {"from": "parent"}
        assert store.get(_key("c", 49)) == {"writer": "c", "index": 49}


def _key(writer, index):
    return f"{writer}-{index:06d}".ljust(64, "0")


def _write_and_read(store, writer, count):
    """Write ``count`` entries through ``store``, reading each back."""
    for index in range(count):
        store.put(_key(writer, index), {"writer": writer, "index": index})
        assert store.get(_key(writer, index)) == {"writer": writer,
                                                  "index": index}
    assert store.get(KEY_A) == {"from": "parent"}


class TestCliOnABrokenStore:
    """``run`` and ``serve`` on a broken database exit 2 with one line
    naming the file, without a traceback."""

    @pytest.mark.parametrize("verb", ["run", "serve"])
    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, verb, damage):
        from repro.cli import main

        root = str(tmp_path / "store")
        if damage == "garbage":
            _garbage(root)
        else:
            assert main(["run", "table1", "--quiet", "--store", root]) == 0
            _truncate_to_half(root)
        capsys.readouterr()
        argv = (["run", "table1", "--quiet", "--store", root]
                if verb == "run" else
                ["serve", "--store", root, "--port", "0", "--quiet"])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert os.path.join(root, "store.sqlite3") in lines[0]


#: Entries that do not decode: emptied to zero bytes, and overwritten
#: with bytes that are neither UTF-8 nor JSON.
TORN = {"empty": b"", "garbage": b"\xff\x00{not json"}


def _tear(root, content):
    """Overwrite the first entry of the store at ``root`` with ``content``;
    returns its key and its bytes before."""
    with _database(root) as database:
        key = database.execute(
            "SELECT key FROM entries ORDER BY key LIMIT 1").fetchone()[0]
    before = _row(root, key)
    with _database(root) as database:
        database.execute("UPDATE entries SET value = ? WHERE key = ?",
                         (content, key))
    return key, before


class TestAnEntryThatDoesNotDecodeIsAMiss:
    """A torn entry is recomputed and replaced, never an error: the result
    is byte-identical to a clean cold run, and the entry decodes again."""

    @pytest.mark.parametrize("content", TORN.values(), ids=TORN.keys())
    def test_get_raises_keyerror(self, tmp_path, content):
        root = str(tmp_path / "store")
        DiskStore(root).put(KEY_A, {"x": 1})
        _tear(root, content)
        store = DiskStore(root)
        assert KEY_A in store
        with pytest.raises(KeyError):
            store.get(KEY_A)

    @pytest.mark.parametrize("content", TORN.values(), ids=TORN.keys())
    def test_repro_run_recomputes_it(self, tmp_path, content):
        from repro.cli import main

        root = str(tmp_path / "store")
        clean, torn = tmp_path / "clean.json", tmp_path / "torn.json"
        assert main(["run", "table1", "--quiet", "--store", root,
                     "--json", str(clean)]) == 0
        key, before = _tear(root, content)
        assert main(["run", "table1", "--quiet", "--store", root,
                     "--json", str(torn)]) == 0
        assert torn.read_bytes() == clean.read_bytes()
        assert _row(root, key) == before
        assert DiskStore(root).get(key) == json.loads(before)

    @pytest.mark.parametrize("content", TORN.values(), ids=TORN.keys())
    def test_daemon_submit_recomputes_it(self, tmp_path, content):
        from repro.service import ServiceClient, serve

        root = str(tmp_path / "store")
        server = serve(store=DiskStore(root), port=0, n_workers=1,
                       processes=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url, timeout=30.0)

            def submit():
                job_id = client.submit("table1", seed=0)["job_id"]
                assert client.wait(job_id, timeout=120)["status"] == "done"
                return client.result_bytes(job_id)

            clean = submit()
            key, before = _tear(root, content)
            assert submit() == clean
        finally:
            server.stop()
            server.server_close()
        assert _row(root, key) == before
