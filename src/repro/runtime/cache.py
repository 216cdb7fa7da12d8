"""Content-addressed result cache for the experiment runtime.

Every grid-point evaluation is pure: the result is fully determined by
(configuration, model, sequence length, batch, architecture spec, code
version).  The cache therefore keys results by a stable SHA-256 over a
canonical JSON rendering of those inputs and stores the result twice —
in an in-memory LRU for intra-process reuse (e.g. Figs. 6, 8, and 9 all
share one attention sweep) and, optionally, as JSON files on disk so a
rerun of the full sweep is nearly free.

One codec serves every result type: :func:`encode_result` tags each
dataclass of the closed set :data:`RESULT_TYPES` with its qualname and
encodes its fields recursively, and :func:`decode_result` inverts it.
A disk entry is ``{"key": ..., "result": {"__type__": ..., <fields>}}``.
No payload written by other code can reach the decoder, because every
cache key includes :func:`code_version`.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional

#: Environment variable that switches the default cache to a disk store.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of every ``repro`` source file; computed once per process.

    Any edit to the package invalidates previously cached results, so a
    stale disk cache can never leak results across code changes.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        digest = hashlib.sha256()
        root = Path(__file__).resolve().parent.parent
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def canonical(obj: Any) -> Any:
    """A deterministic JSON-ready rendering of an evaluation input.

    Handles the objects that appear in grid points: frozen dataclasses
    (``ModelConfig``, ``Architecture``, ``EnergyTable``), plain model
    objects (``UnfusedModel`` et al., via their ``__dict__``), and the
    usual scalars/containers.  Dictionaries are key-sorted so the
    rendering is independent of insertion order.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__qualname__,
            **{f.name: canonical(getattr(obj, f.name)) for f in fields(obj)},
        }
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return {str(k): canonical(v) for k, v in items}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "__dict__"):
        items = sorted(vars(obj).items())
        return {
            "__class__": type(obj).__qualname__,
            **{k: canonical(v) for k, v in items},
        }
    return repr(obj)


def canonical_json(obj: Any) -> str:
    """:func:`canonical` ``obj`` as the compact, key-sorted JSON text
    that cache keys hash."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def cache_key(task_fields: Dict[str, Any], version: Optional[str] = None) -> str:
    """Stable content address of one evaluation task."""
    payload = {
        "__version__": code_version() if version is None else version,
        **task_fields,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


#: A string's JSON text; keys repeat the same few field names.
_json_string = lru_cache(maxsize=256)(json.dumps)


def cache_key_of_json(encoded: Dict[str, str]) -> str:
    """:func:`cache_key` of fields already rendered by
    :func:`canonical_json` (``encoded`` maps each field name to its
    text): the same key, without walking the fields again."""
    encoded = {"__version__": _json_string(code_version()), **encoded}
    blob = ",".join(f"{_json_string(name)}:{encoded[name]}" for name in sorted(encoded))
    return hashlib.sha256(f"{{{blob}}}".encode()).hexdigest()


# --------------------------------------------------------------------------
# Result codec: the nine grid-point result types <-> JSON-ready dicts.
# Floats survive the round trip exactly (json uses repr, which is
# round-trip safe for Python floats), and mappings keep their insertion
# order (unlike canonical(), which sorts keys for cache addressing), so
# cached results compare equal to freshly computed ones and iterate the
# same way.
# --------------------------------------------------------------------------

#: The codec's closed set, by tag: the nine grid-point result types
#: (``TaskFailure`` fills a skipped slot) and the dataclasses nested in
#: their fields, each with the module that defines it.  Encoding checks
#: a value's class against this table and imports nothing; decoding
#: imports only the tag's module, so a serving run never loads the
#: analytical models behind ``DesignPoint``.
_TAG_MODULES: Dict[str, str] = {
    "AttentionResult": "repro.model.metrics",
    "InferenceResult": "repro.model.metrics",
    "DesignPoint": "repro.model.pareto",
    "BindingResult": "repro.simulator.sweep",
    "ScenarioResult": "repro.simulator.sweep",
    "ScenarioGridResult": "repro.simulator.sweep",
    "ServingResult": "repro.serving.metrics",
    "ClusterResult": "repro.cluster.sweep",
    "TaskFailure": "repro.runtime.faults",
    "EnergyBreakdown": "repro.arch.energy",
    "RequestMetrics": "repro.serving.metrics",
}


def _tagged(cls: type) -> bool:
    """Whether ``cls`` is the codec type its qualname tags."""
    return _TAG_MODULES.get(cls.__qualname__) == cls.__module__


def _tag_type(tag: Any) -> Optional[type]:
    """The codec type ``tag`` names, or None for an unknown tag."""
    module = _TAG_MODULES.get(tag)
    return None if module is None else getattr(importlib.import_module(module), tag)


def __getattr__(name: str) -> Any:
    # ``RESULT_TYPES`` imports every codec type's module, so it is built
    # only when read (the codec itself never reads it).
    if name == "RESULT_TYPES":
        return {tag: _tag_type(tag) for tag in _TAG_MODULES}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _encode(value: Any) -> Any:
    cls = type(value)
    if _tagged(cls):
        encoded = {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
        return {"__type__": cls.__qualname__, **encoded}
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"cannot encode a {cls.__name__} in a result")


def encode_result(result: Any) -> Dict[str, Any]:
    """Encode a result of :data:`RESULT_TYPES` as a JSON-ready dict
    tagged ``__type__``: fields encode recursively in order, nested
    dataclasses are tagged too, tuples become arrays."""
    if not _tagged(type(result)):
        raise TypeError(f"cannot encode result of type {type(result).__name__}")
    return _encode(result)


def _decode(data: Any) -> Any:
    if isinstance(data, list):
        return tuple(_decode(item) for item in data)
    if isinstance(data, dict) and "__type__" not in data:
        return {key: _decode(item) for key, item in data.items()}
    return decode_result(data) if isinstance(data, dict) else data


def decode_result(payload: Any) -> Any:
    """Inverse of :func:`encode_result` (arrays decode to tuples).  The
    payload must carry a known tag and exactly its type's fields."""
    tag = payload.get("__type__") if isinstance(payload, dict) else None
    cls = _tag_type(tag)
    names = [f.name for f in fields(cls)] if cls is not None else []
    if cls is None or len(payload) != len(names) + 1:
        raise ValueError(f"cannot decode result payload tagged {tag!r}")
    return cls(**{name: _decode(payload[name]) for name in names})


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`ResultCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
        }


class ResultCache:
    """Two-level result store: in-memory LRU over an optional JSON tree.

    Memory entries hold the decoded result objects themselves (no codec
    round trip); the disk layer shards files by the first two hex digits
    of the key and writes atomically so concurrent sweeps sharing a
    directory never observe torn files.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        max_memory_entries: int = 4096,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.max_memory_entries = max_memory_entries
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()

    def entry_path(self, key: str) -> Optional[Path]:
        """Where ``key``'s disk entry lives (None for memory-only)."""
        if self.directory is None:
            return None
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Any:
        """The cached result for ``key``, or None on a miss.

        A disk entry that fails to parse or decode — truncated by a
        killed writer, hand-edited, or from an incompatible schema — is
        quarantined (renamed ``*.corrupt``) and counted as a miss, so
        one torn file costs a recompute instead of the whole sweep.
        """
        if key in self._memory:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            return self._memory[key]
        path = self.entry_path(key)
        if path is not None and path.is_file():
            try:
                with open(path) as handle:
                    payload = json.load(handle)
                value = decode_result(payload["result"])
            except (
                json.JSONDecodeError,
                KeyError,
                ValueError,
                TypeError,
                OSError,
            ):
                self._quarantine(path)
            else:
                self._remember(key, value)
                self.stats.disk_hits += 1
                return value
        self.stats.misses += 1
        return None

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable entry aside so it stops shadowing the
        slot; a later put atomically writes a fresh entry in its place."""
        self.stats.corrupt += 1
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            pass  # racing quarantine/recompute — either way it's gone

    def put(self, key: str, value: Any) -> None:
        """Store a freshly computed result under ``key``."""
        self._remember(key, value)
        self.stats.puts += 1
        if self.directory is not None:
            path = self.entry_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = {"key": key, "result": encode_result(value)}
            handle = tempfile.NamedTemporaryFile(
                "w", dir=path.parent, suffix=".tmp", delete=False
            )
            try:
                with handle:
                    json.dump(payload, handle)
                os.replace(handle.name, path)
            except BaseException:
                os.unlink(handle.name)
                raise

    def _remember(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    def __len__(self) -> int:
        return len(self._memory)


_DEFAULT_CACHE: Optional[ResultCache] = None


def default_cache() -> ResultCache:
    """The process-wide shared cache.

    Memory-only unless :data:`CACHE_DIR_ENV` names a directory, in which
    case results also persist across processes.
    """
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = ResultCache(
            directory=os.environ.get(CACHE_DIR_ENV) or None
        )
    return _DEFAULT_CACHE


def resolve_cache(cache: Any = True) -> Optional[ResultCache]:
    """Normalize the ``cache`` argument accepted throughout the runtime.

    ``True`` selects the shared :func:`default_cache`, ``False``/``None``
    disables caching, and a :class:`ResultCache` instance is used as-is.
    """
    if cache is True:
        return default_cache()
    if cache is False or cache is None:
        return None
    if isinstance(cache, ResultCache):
        return cache
    raise TypeError(f"cache must be bool, None, or ResultCache, not {cache!r}")
