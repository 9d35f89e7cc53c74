"""Tests for the content-addressed result stores (repro.core.store)."""

import errno
import json
import os
import pathlib
import tempfile
import threading

import pytest

from repro.core.store import DiskStore, MemoryStore, RunStore

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
        store = DiskStore(str(tmp_path / "store"))
        store.put(KEY_A, {"b": 1, "a": (1, 2)})
        path = os.path.join(str(tmp_path / "store"), "objects", KEY_A[:2],
                            KEY_A + ".json")
        with open(path, "r", encoding="utf-8") as stream:
            assert stream.read() == '{"a":[1,2],"b":1}'
        assert store.info()["total_bytes"] > 0

    def test_sharded_layout_keeps_directories_small(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        store.put(KEY_A, 1)
        store.put(KEY_B, 2)
        objects = os.path.join(str(tmp_path / "store"), "objects")
        assert sorted(os.listdir(objects)) == [KEY_A[:2], KEY_B[:2]]
        assert len(store) == 2

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
        shard = os.path.join(str(tmp_path / "store"), "objects", KEY_A[:2])
        assert [name for name in os.listdir(shard)
                if name.endswith(".tmp")] == []

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
        store = DiskStore(str(tmp_path / "store"))
        ages_days = {"a" * 64: 20, "b" * 64: 10, "c" * 64: 0}
        for key, age in ages_days.items():
            store.put(key, {"payload": key[:8]})
            mtime = now - age * 86400.0
            os.utime(store._path(key), (mtime, mtime))
        return store

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
        entry_bytes = os.path.getsize(store._path("a" * 64))
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
        # interleaving, the surviving file must be complete and readable
        # (atomic tempfile + os.replace), never truncated or interleaved.
        import multiprocessing

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
        shard = os.path.join(root, "objects", KEY_A[:2])
        assert [name for name in os.listdir(shard)
                if name.endswith(".tmp")] == []


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
        # (atomic rename), and a not-yet-written key is a clean
        # KeyError — never a truncated or interleaved read.
        import multiprocessing

        root = str(tmp_path / "store")
        DiskStore(root)  # create the layout before the readers start
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
        # A second handle (stand-in for another process) writes while
        # this handle's manifests are warm: the mtime token must
        # invalidate them.
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
    @staticmethod
    def _walk_objects(root):
        entries = 0
        total_bytes = 0
        for parent, _, names in os.walk(os.path.join(root, "objects")):
            for name in names:
                if name.endswith(".json"):
                    entries += 1
                    total_bytes += os.path.getsize(
                        os.path.join(parent, name))
        return entries, total_bytes

    def test_info_matches_an_exhaustive_walk(self, tmp_path):
        root = str(tmp_path / "store")
        store = DiskStore(root)
        for index in range(12):
            store.put(f"{index:064x}", {"payload": index * 100})
        info = store.info()
        entries, total_bytes = self._walk_objects(root)
        assert info["entries"] == entries == 12
        assert info["total_bytes"] == total_bytes
        assert info["shards"] == len(os.listdir(
            os.path.join(root, "objects")))

    def test_manifest_files_are_written_and_reused(self, tmp_path):
        root = str(tmp_path / "store")
        store = DiskStore(root)
        store.put(KEY_A, {"x": 1})
        store.info()
        manifest_dir = os.path.join(root, "manifest")
        manifest_path = os.path.join(manifest_dir, KEY_A[:2] + ".json")
        assert os.path.exists(manifest_path)
        with open(manifest_path, encoding="utf-8") as stream:
            manifest = json.load(stream)
        assert manifest["entries"] == 1
        assert manifest["total_bytes"] > 0
        assert "token" in manifest
        # A second info() trusts the manifest: the file is untouched.
        before = os.stat(manifest_path).st_mtime_ns
        assert store.info()["entries"] == 1
        assert os.stat(manifest_path).st_mtime_ns == before

    def test_corrupt_manifest_is_rebuilt(self, tmp_path):
        root = str(tmp_path / "store")
        store = DiskStore(root)
        store.put(KEY_A, {"x": 1})
        store.info()
        manifest_path = os.path.join(root, "manifest",
                                     KEY_A[:2] + ".json")
        with open(manifest_path, "w", encoding="utf-8") as stream:
            stream.write("{not json")
        assert store.info()["entries"] == 1
        with open(manifest_path, encoding="utf-8") as stream:
            assert json.load(stream)["entries"] == 1

    def test_read_only_store_still_reports_counts(self, tmp_path,
                                                  monkeypatch):
        # The manifest only caches counts: when it cannot be written (a
        # read-only store), info() and len() walk the shard instead of
        # failing, as get() keeps working.
        store = DiskStore(str(tmp_path / "store"))
        store.put(KEY_A, {"x": 1})
        store.put(KEY_B, {"x": 2})

        def read_only(*args, **kwargs):
            raise OSError(errno.EROFS, "Read-only file system")

        monkeypatch.setattr(tempfile, "mkstemp", read_only)
        assert store.info()["entries"] == 2
        assert len(store) == 2
        assert store.get(KEY_A) == {"x": 1}
        assert not os.path.exists(os.path.join(str(tmp_path / "store"),
                                               "manifest", "aa.json"))

    def test_gc_keeps_manifests_consistent(self, tmp_path):
        now = 1_700_000_000.0
        store = DiskStore(str(tmp_path / "store"))
        for key, age in {"a" * 64: 20, "b" * 64: 10, "c" * 64: 0}.items():
            store.put(key, {"payload": key[:8]})
            mtime = now - age * 86400.0
            os.utime(store._path(key), (mtime, mtime))
        assert store.info()["entries"] == 3    # manifests warm
        report = store.gc(max_age_days=15, now=now)
        assert report["removed"] == 1
        info = store.info()
        entries, total_bytes = self._walk_objects(str(tmp_path / "store"))
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


#: Entries that do not decode: emptied to zero bytes, and overwritten
#: with bytes that are neither UTF-8 nor JSON.
TORN = {"empty": b"", "garbage": b"\xff\x00{not json"}


def _tear(root, content):
    """Overwrite the first entry of the store at ``root`` with ``content``;
    returns its path and its bytes before."""
    path = sorted(pathlib.Path(root).glob("objects/*/*.json"))[0]
    before = path.read_bytes()
    path.write_bytes(content)
    return path, before


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
        path, before = _tear(root, content)
        assert main(["run", "table1", "--quiet", "--store", root,
                     "--json", str(torn)]) == 0
        assert torn.read_bytes() == clean.read_bytes()
        assert path.read_bytes() == before
        assert DiskStore(root).get(path.stem) == json.loads(before)

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
            path, before = _tear(root, content)
            assert submit() == clean
        finally:
            server.stop()
            server.server_close()
        assert path.read_bytes() == before
