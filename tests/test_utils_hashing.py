"""Tests for the content-addressed key derivation (repro.utils.hashing)."""

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import pytest

import repro
from repro.core.engine import SweepEngine, plan_sweep
from repro.utils.hashing import (
    canonical_json,
    content_hash,
    sweep_point_key,
    worker_cache_key,
)
from repro.utils.serialization import to_plain


@dataclass(frozen=True)
class _Worker:
    scale: float
    label: str = "x"

    def __call__(self, params, rng):
        return self.scale


def _free_function(params, rng):
    return 0.0


class TestCanonicalJson:
    def test_dict_order_does_not_matter(self):
        assert canonical_json({"a": 1, "b": 2}) == \
            canonical_json({"b": 2, "a": 1})

    def test_tuples_and_lists_coincide(self):
        assert canonical_json((1, 2, 3)) == canonical_json([1, 2, 3])

    def test_numpy_scalars_are_coerced(self):
        assert canonical_json({"x": np.float64(1.5), "n": np.int64(3)}) == \
            canonical_json({"x": 1.5, "n": 3})
        assert canonical_json(np.arange(3)) == canonical_json([0, 1, 2])

    def test_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestContentHash:
    def test_stable_and_hex(self):
        digest = content_hash({"a": 1})
        assert digest == content_hash({"a": 1})
        assert len(digest) == 64
        assert all(c in "0123456789abcdef" for c in digest)

    def test_different_values_differ(self):
        assert content_hash({"a": 1}) != content_hash({"a": 2})


class TestWorkerCacheKey:
    def test_equal_dataclass_state_shares_key(self):
        # Two separately constructed but equal workers — including one
        # built in a hypothetical other process — address the same
        # results.
        assert worker_cache_key(_Worker(2.0)) == worker_cache_key(
            _Worker(2.0))

    def test_different_dataclass_state_separates(self):
        assert worker_cache_key(_Worker(2.0)) != worker_cache_key(
            _Worker(3.0))

    def test_module_level_function_keyed_by_qualname_and_code(self):
        key = worker_cache_key(_free_function)
        assert key == worker_cache_key(_free_function)
        assert "test_utils_hashing._free_function" in key["function"]
        assert "code" in key

    def test_function_key_is_stable_across_processes(self):
        # A comprehension puts a nested code object into co_consts whose
        # repr embeds a memory address — the digest must recurse instead
        # of repr-ing it, or DiskStore sharing across processes silently
        # breaks for such workers.
        import os
        import subprocess
        import sys

        script = (
            "from repro.utils.hashing import worker_cache_key\n"
            "def worker(params, rng):\n"
            "    return [x * 2 for x in range(3)]\n"
            "print(worker_cache_key(worker)['code'])\n")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        runs = [subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, env=env,
                               check=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_distinct_lambdas_do_not_collide(self):
        # Both have qualname "<lambda>" — the code digest must separate
        # them, or one would silently serve the other's cached results.
        first = lambda params, rng: 1.0  # noqa: E731
        second = lambda params, rng: 2.0  # noqa: E731
        assert worker_cache_key(first) != worker_cache_key(second)
        # Same-body lambdas legitimately coincide (same computation).
        third = lambda params, rng: 1.0  # noqa: E731
        assert worker_cache_key(first) == worker_cache_key(third)

    def test_closure_falls_back_to_identity(self):
        def make(scale):
            def worker(params, rng):
                return scale
            return worker

        first, second = make(1.0), make(2.0)
        # Closures carry hidden state — they must NOT share by qualname.
        assert worker_cache_key(first) != worker_cache_key(second)
        assert "identity" in worker_cache_key(first)

    def test_opaque_object_keyed_by_identity(self):
        class Opaque:
            def __call__(self, params, rng):
                return 0.0

        key = worker_cache_key(Opaque())
        assert "identity" in key and "process" in key

    def test_dataclass_wrapping_opaque_object_shares_by_that_identity(self):
        # The NocSimulator/BerSimulator pattern: a frozen dataclass worker
        # around one opaque simulator instance.  Two wrappers of the SAME
        # instance share a key (the historical equality-cache behaviour);
        # wrappers of different instances do not.
        @dataclass(frozen=True)
        class Wrapper:
            simulator: object
            n_cycles: int

        class Simulator:  # opaque: not a dataclass, no to_dict
            pass

        shared = Simulator()
        assert worker_cache_key(Wrapper(shared, 800)) == \
            worker_cache_key(Wrapper(shared, 800))
        assert worker_cache_key(Wrapper(shared, 800)) != \
            worker_cache_key(Wrapper(shared, 900))
        assert worker_cache_key(Wrapper(Simulator(), 800)) != \
            worker_cache_key(Wrapper(shared, 800))

    def test_equal_state_different_worker_types_do_not_collide(self):
        @dataclass(frozen=True)
        class Other:
            scale: float
            label: str = "x"

        assert worker_cache_key(_Worker(2.0)) != worker_cache_key(
            Other(2.0))

    def test_dataclass_call_body_is_part_of_the_key(self):
        # Editing a worker's __call__ must invalidate stored results
        # even when type name and field state are unchanged.
        def make(body):
            namespace = {}
            exec("from dataclasses import dataclass\n"          # noqa: S102
                 "@dataclass(frozen=True)\n"
                 "class W:\n"
                 "    s: float\n"
                 "    def __call__(self, params, rng):\n"
                 f"        return {body}\n", namespace)
            return namespace["W"]

        first, second, third = make("1.0"), make("2.0"), make("1.0")
        assert worker_cache_key(first(0.5)) != worker_cache_key(second(0.5))
        assert worker_cache_key(first(0.5)) == worker_cache_key(third(0.5))
        assert "call" in worker_cache_key(first(0.5))

    def test_nested_dataclasses_keep_their_type_tags(self):
        # A dataclass nested inside a container field must keep its type
        # in the description — two configurations differing only in a
        # nested type must not serve each other's cached results.
        @dataclass(frozen=True)
        class A:
            x: int

        @dataclass(frozen=True)
        class B:
            x: int

        @dataclass(frozen=True)
        class Wrapper:
            config: dict

        assert worker_cache_key(Wrapper({"inner": A(1)})) != \
            worker_cache_key(Wrapper({"inner": B(1)}))
        assert worker_cache_key(Wrapper({"inner": A(1)})) == \
            worker_cache_key(Wrapper({"inner": A(1)}))

    def test_scalar_fields_describe_themselves(self):
        # Exact str/int/float/bool/None field values enter the
        # description unchanged, value and type.
        @dataclass(frozen=True)
        class Scalars:
            s: str
            i: int
            f: float
            b: bool
            n: object

        state = worker_cache_key(Scalars("a", 3, 0.5, True, None))["state"]
        assert state == {"s": "a", "i": 3, "f": 0.5, "b": True, "n": None}
        assert [type(value) for value in state.values()] == \
            [str, int, float, bool, type(None)]

    def test_set_literals_do_not_leak_hash_randomisation(self):
        # frozenset constants in a worker's code repr in PYTHONHASHSEED
        # order; the digest must be order-independent or cross-process
        # DiskStore sharing silently breaks.
        import os
        import subprocess
        import sys

        script = (
            "from repro.utils.hashing import worker_cache_key\n"
            "def worker(params, rng):\n"
            "    return params['mode'] in {'alpha', 'beta', 'gamma'}\n"
            "print(worker_cache_key(worker)['code'])\n")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        digests = set()
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            digests.add(subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, env=env, check=True).stdout)
        assert len(digests) == 1


class TestSweepPointKey:
    def test_full_tuple_is_covered(self):
        base = sweep_point_key({"w": 1}, {"a": 1}, 0, (0,))
        assert base == sweep_point_key({"w": 1}, {"a": 1}, 0, (0,))
        assert base != sweep_point_key({"w": 2}, {"a": 1}, 0, (0,))
        assert base != sweep_point_key({"w": 1}, {"a": 2}, 0, (0,))
        assert base != sweep_point_key({"w": 1}, {"a": 1}, 1, (0,))
        assert base != sweep_point_key({"w": 1}, {"a": 1}, 0, (1,))

    def test_version_is_folded_in(self, monkeypatch):
        before = sweep_point_key({"w": 1}, {"a": 1}, 0, (0,))
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert sweep_point_key({"w": 1}, {"a": 1}, 0, (0,)) != before

    def test_numpy_seed_and_params_normalise(self):
        assert sweep_point_key({"w": 1}, {"a": np.float64(1.0)},
                               np.int64(3), (np.int64(0),)) == \
            sweep_point_key({"w": 1}, {"a": 1.0}, 3, (0,))

    def test_unserializable_params_fail_loudly(self):
        with pytest.raises(TypeError):
            sweep_point_key({"w": 1}, {"a": object()}, 0, (0,))


def _reference_json(value):
    """The canonical JSON as it was defined: coerce, then serialize."""
    return json.dumps(to_plain(value), sort_keys=True, separators=(",", ":"))


def _reference_point_key(worker_key, params, seed, spawn_key):
    """A point's store key as it was defined: the hash of one dict."""
    text = _reference_json({
        "worker": to_plain(worker_key),
        "params": dict(params),
        "seed": int(seed),
        "spawn_key": [int(k) for k in spawn_key],
        "version": repro.__version__,
    })
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class _Pair:
    left: float
    right: tuple


class TestCanonicalJsonPins:
    @pytest.mark.parametrize("value", [
        np.float64(0.1), np.float32(0.1), np.int64(-7), np.bool_(True),
        (1, (2.5, "a"), [np.int64(3)]),
        {"pair": _Pair(np.float64(1.5), (np.int32(2),)), "n": 3},
        [float("nan"), float("inf"), -float("inf"), np.float64("nan")],
        {"b": np.arange(3), "a": {"z": None, "y": np.float64(-0.0)}},
        "text", 17, None,
    ])
    def test_matches_coerce_then_serialize(self, value):
        assert canonical_json(value) == _reference_json(value)

    def test_matches_on_a_channel_dataset(self):
        from repro.instrument import (AcquisitionPlan, SimulatedVna,
                                      acquire_dataset)

        plan = AcquisitionPlan(distances_m=(0.05, 0.1), seed=3, n_points=16)
        with SimulatedVna(seed=plan.seed) as vna:
            payload = acquire_dataset(vna, plan).to_dict()
        assert canonical_json(payload) == _reference_json(payload)

    def test_unrepresentable_values_still_raise(self):
        with pytest.raises(TypeError):
            canonical_json({"a": object()})
        with pytest.raises(TypeError):
            canonical_json({1: "int key", "b": "str key"})


class TestSweepKeyPins:
    def test_one_point_form_matches_the_reference_dict(self):
        for params, seed, spawn in (({"a": 1}, 0, (0,)),
                                    ({"x": np.float64(0.25), "t": (1, 2)},
                                     np.int64(9), (np.int64(4), 2))):
            assert sweep_point_key({"w": [1, 2.5]}, params, seed, spawn) == \
                _reference_point_key({"w": [1, 2.5]}, params, seed, spawn)

    def test_every_registry_scenario_keeps_its_store_keys(self):
        from repro.scenarios import build_scenario, scenario_names
        from repro.scenarios.specs import PrecisionSpec

        names = scenario_names()
        assert len(names) >= 31
        for name in names:
            scenario = build_scenario(name)
            # Scenario.cache_key as it was defined: spec dicts coerced.
            reference = {
                "specs": {layer: {"spec_type": type(spec).__name__,
                                  **to_plain(spec.cache_dict())}
                          for layer, spec in scenario.specs.items()
                          if not isinstance(spec, PrecisionSpec)},
                "worker": worker_cache_key(scenario.worker),
            }
            for point in plan_sweep(scenario.worker, scenario.points,
                                    rng=0, key=scenario.cache_key()):
                assert point.store_key == _reference_point_key(
                    reference, point.params, 0, point.spawn_key), name

    def test_unserializable_worker_runs_every_point_uncached(self):
        calls = []

        @dataclass(frozen=True)
        class Mixed:
            # Mixed-type dict keys have no canonical (sorted) JSON.
            table: dict

            def __call__(self, params, rng):
                calls.append(params["i"])
                return params["i"]

        worker = Mixed({1: "one", "two": 2})
        with pytest.raises(TypeError):
            canonical_json(worker_cache_key(worker))
        engine = SweepEngine()
        points = [{"i": i} for i in range(3)]
        for _ in range(2):
            outcomes = engine.sweep(worker, points, rng=0)
            assert [o.value for o in outcomes] == [0, 1, 2]
            assert not any(o.from_cache for o in outcomes)
        assert calls == [0, 1, 2, 0, 1, 2]
        assert len(engine.store) == 0
