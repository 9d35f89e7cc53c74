"""Content-addressed cache keys for the execution layer.

The sweep engine and the campaign runner persist results in a
:class:`repro.core.store.RunStore` keyed by *what was computed*, not by
which Python objects happened to compute it.  A key is the SHA-256 of the
canonical JSON of ``(worker key, sorted params, seed, spawn key, repro
version)``:

* **canonical JSON** — :func:`canonical_json` coerces values through
  :func:`repro.utils.serialization.to_plain` (when ``json`` cannot take
  them as they are) and serializes with sorted keys and fixed
  separators, so dict ordering, tuples-vs-lists and NumPy scalar types
  never change the key;
* **worker key** — :func:`worker_cache_key` derives a stable description
  of a worker: frozen dataclass workers (the scenario catalog) are
  addressed by type name plus field state, module-level functions by
  qualified name, and anything opaque falls back to process-local object
  identity (matching the engine's historical behaviour — such entries are
  valid inside one process but can never be confused across processes);
* **version** — ``repro.__version__`` is folded into every key so results
  computed by one release are never served to another.

:func:`sweep_point_keys` renders the worker description and version once
per sweep; :func:`sweep_point_key` is its one-point form.

Two sweeps that describe the same computation therefore share cached
points across processes and days; anything that differs — a spec field, a
parameter, the seed, the library version — changes the key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import types
from typing import Any, Callable, Dict, Mapping, Sequence

from repro.utils.serialization import to_plain

#: Process-local token mixed into identity-derived worker keys so that an
#: ``id()`` reused by a different process can never produce a false store
#: hit (object ids are only unique within one interpreter).
_PROCESS_TOKEN = f"{os.getpid()}-{os.urandom(8).hex()}"


#: ``json.dumps(to_plain(value), sort_keys=True, separators=(",", ":"))``,
#: built once.  ``json`` hands ``to_plain`` only the values it rejects.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              default=to_plain)


def canonical_json(value: Any) -> str:
    """Deterministic JSON rendering of ``value``.

    Values are coerced to plain Python types (NumPy scalars/arrays,
    tuples, nested dataclasses), then serialized with sorted keys and
    compact separators — the same logical value always yields the same
    string, regardless of construction order or container flavour.
    The coercion happens as ``json`` meets a value it cannot take as it
    is; ``np.float64`` is a ``float`` and encodes as one.
    """
    return _CANONICAL.encode(value)


def content_hash(value: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def _identity_token(value: Any) -> Dict[str, Any]:
    return {"identity": f"{type(value).__module__}."
                        f"{type(value).__qualname__}",
            "id": id(value), "process": _PROCESS_TOKEN}


#: Exact types that describe themselves (``to_plain`` passes them through).
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _describe(value: Any) -> Any:
    """Recursive worker description: content where possible, identity
    where not.

    Plain values, NumPy values and ``to_dict``-able objects describe
    themselves by content.  Dataclasses recurse field by field, so a
    frozen worker wrapping one opaque object (say, a simulator instance)
    still shares keys across calls through that object's identity.
    Functions without closures describe themselves by qualified name.
    Anything opaque falls back to a process-local identity token —
    matching the engine's historical object-identity cache, and never
    colliding across processes.
    """
    if type(value) in _SCALARS:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Handled before to_plain so the type name is always part of the
        # description: two classes with identical field values — at any
        # nesting depth — must not collide.
        cls = type(value)
        return {"type": f"{cls.__module__}.{cls.__qualname__}",
                "state": {field.name: _describe(getattr(value, field.name))
                          for field in dataclasses.fields(value)}}
    if isinstance(value, dict):
        # Containers recurse BEFORE to_plain, which would strip the type
        # tags off any dataclasses nested inside them.
        return {key: _describe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_describe(item) for item in value]
    try:
        return to_plain(value)
    except TypeError:
        pass
    if isinstance(value, types.FunctionType) and value.__closure__ is None:
        # The qualified name alone is not enough: two module-level
        # lambdas share the qualname "<lambda>", and a function edited
        # between runs keeps its name while changing behaviour.  Folding
        # in a digest of the code object separates both cases (at the
        # price of conservative misses across Python versions, whose
        # bytecode differs).
        return {"function": f"{value.__module__}.{value.__qualname__}",
                "code": _code_digest(value.__code__)}
    return _identity_token(value)


def _const_repr(const: Any) -> str:
    """Process-stable rendering of one code-object constant.

    Nested code objects (comprehensions, inner lambdas) are replaced by
    their own digests — their ``repr`` embeds a memory address and the
    source file path.  Set/frozenset literals are rendered in sorted
    element order — their ``repr`` order follows randomized string
    hashing and would change with PYTHONHASHSEED.
    """
    if isinstance(const, types.CodeType):
        return _code_digest(const)
    if isinstance(const, (set, frozenset)):
        return "{" + ",".join(sorted(_const_repr(item)
                                     for item in const)) + "}"
    if isinstance(const, tuple):
        return "(" + ",".join(_const_repr(item) for item in const) + ")"
    return repr(const)


def _code_digest(code: types.CodeType) -> str:
    """Process-stable digest of a code object (see :func:`_const_repr`)."""
    digest = hashlib.sha256(code.co_code)
    for const in code.co_consts:
        digest.update(_const_repr(const).encode("utf-8"))
    digest.update(repr(code.co_names).encode("utf-8"))
    return digest.hexdigest()[:16]


def worker_cache_key(worker: Any) -> Dict[str, Any]:
    """A JSON-serializable, content-stable description of a worker.

    * Dataclass instances (the scenario catalog's frozen workers) map to
      their qualified type name plus per-field state — equal
      configuration in any process yields an equal key.  Fields that are
      themselves opaque objects contribute a process-local identity
      token, so such workers still share keys within one process.
    * Module-level functions (no closure) map to their qualified name;
      they carry no state beyond their code.
    * Everything else — closures, bound methods, arbitrary objects — maps
      to a process-local identity token.  Such keys behave exactly like
      the engine's historical object-identity cache and never collide
      across processes.
    """
    description = _describe(worker)
    if not isinstance(description, dict):
        description = {"plain": description}
    call = getattr(type(worker), "__call__", None)
    if dataclasses.is_dataclass(worker) and hasattr(call, "__code__"):
        # Fold in the worker body itself, so editing __call__ invalidates
        # stored results without a version bump.  (Edits to helpers the
        # body calls are NOT captured — those still need a version bump
        # or `cache clear`.)
        description = dict(description)
        description["call"] = _code_digest(call.__code__)
    return description


def sweep_point_keys(worker_key: Any
                     ) -> Callable[[Mapping[str, Any], int, Sequence[int]],
                                   str]:
    """Store-key function for the points of one sweep of one worker.

    A point's key hashes the canonical JSON of its worker description,
    (canonically sorted) parameter mapping, root integer seed, spawn key
    in the seed tree and the library version — everything that determines
    the point's value, nothing that does not.  Sorted, those fields run
    ``params, seed, spawn_key, version, worker``, so the text from
    ``version`` on is the same for every point: it is rendered once here,
    and each point renders only its own fields.  Raises ``TypeError`` when
    the worker description has no canonical JSON, and the returned
    function does when a point's params have none.
    """
    import repro  # runtime import: repro.__init__ imports the engine

    suffix = (f',"version":{canonical_json(repro.__version__)}'
              f',"worker":{canonical_json(worker_key)}}}').encode("utf-8")

    def point_key(params: Mapping[str, Any], seed: int,
                  spawn_key: Sequence[int]) -> str:
        spawn = ",".join([str(int(k)) for k in spawn_key])
        digest = hashlib.sha256(
            f'{{"params":{canonical_json(dict(params))},"seed":{int(seed)}'
            f',"spawn_key":[{spawn}]'.encode("utf-8"))
        digest.update(suffix)
        return digest.hexdigest()

    return point_key


def sweep_point_key(worker_key: Any, params: Mapping[str, Any], seed: int,
                    spawn_key: Sequence[int]) -> str:
    """Store key of one sweep point (see :func:`sweep_point_keys`)."""
    return sweep_point_keys(worker_key)(params, seed, spawn_key)
