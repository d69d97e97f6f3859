"""Content-addressed on-disk result cache.

Pipeline stages whose output is a pure function of the world configuration
(CTI score maps, routing-tree statistics) are cached under
``REPRO_CACHE_DIR`` (default ``~/.cache/repro``) keyed by a SHA-256 digest
of the inputs that produced them.  A warm cache lets a repeated ``run`` /
``report`` / benchmark invocation skip CTI recomputation entirely.

Entries are JSON files written through :func:`repro.io.atomic.atomic_replace`
so a crash mid-write never leaves a truncated entry.  A corrupt or
truncated entry that appears anyway (external tampering, filesystem
damage, injected faults) is treated as a miss, **evicted**, and counted as
``cache.corrupt`` — a bad entry can poison at most one lookup.  Floats
survive the round-trip exactly: ``json`` serializes them with ``repr``
(shortest round-trip form), so cached CTI scores are bit-identical to
freshly computed ones.

Nothing is retried: a read that fails (``OSError``, bytes that are not
UTF-8, an injected ``fatal`` fault) is a miss, and the entry, if one
exists, is evicted like a corrupt one; a failed write is counted
(``cache.write_errors``) and never sinks the run.  The fault-injection
sites are ``cache.get`` (fatal/corrupt) and ``cache.put`` (fatal).

Hits and misses are counted in the process-global metrics registry as
``cache.hits`` / ``cache.misses`` / ``cache.writes``, and traffic volume
as ``cache.bytes_read`` / ``cache.bytes_written``.

Besides JSON entries the cache stores opaque **blobs**
(``get_blob``/``put_blob``, ``<root>/<section>/<key>.bin``) for payloads
that are not JSON-friendly — notably the pickled generated world, keyed by
:func:`repro.world.worldcache.world_cache_key`, which lets a warm
``run``/``report``/``validate`` skip world generation entirely.  Blobs
carry a magic header plus a SHA-256 digest of the payload; any mismatch
(truncation, bit rot) is treated as a miss and the entry evicted, exactly
like a corrupt JSON entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.errors import SourceError
from repro.io.atomic import atomic_replace
from repro.obs import get_metrics
from repro.resilience.faults import fault_point, mangle_text

__all__ = [
    "ResultCache",
    "resolve_cache_dir",
    "stable_digest",
    "world_fingerprint",
]

_SECTION_SAFE = set("abcdefghijklmnopqrstuvwxyz0123456789_-")

#: Blob entry layout: magic + SHA-256(payload) + payload.
_BLOB_MAGIC = b"RPB1"
_BLOB_HEADER = len(_BLOB_MAGIC) + hashlib.sha256().digest_size


def _canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable)


def _jsonable(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, Mapping):
        return dict(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not cache-keyable: {type(obj).__name__}")


def stable_digest(obj: Any) -> str:
    """SHA-256 digest of an object's canonical JSON form."""
    return hashlib.sha256(_canonical_json(obj).encode("utf-8")).hexdigest()


def world_fingerprint(world_config, noise_config=None) -> str:
    """Digest identifying a synthetic world and its derived sources.

    Everything the pipeline consumes is a deterministic function of the
    world config (seed, scale, probabilities...) and the source-noise
    config, so their digest addresses any world-derived cached artifact.
    """
    payload: Dict[str, Any] = {"world": dataclasses.asdict(world_config)}
    if noise_config is not None:
        payload["noise"] = dataclasses.asdict(noise_config)
    return stable_digest(payload)


def resolve_cache_dir(env: Optional[Mapping[str, str]] = None) -> Optional[Path]:
    """The cache directory the CLI should use.

    ``REPRO_CACHE_DIR`` wins when set; setting it to an empty string
    disables caching; unset falls back to ``~/.cache/repro``.
    """
    env = os.environ if env is None else env
    if "REPRO_CACHE_DIR" in env:
        raw = env["REPRO_CACHE_DIR"].strip()
        return Path(raw).expanduser() if raw else None
    return Path.home() / ".cache" / "repro"


#: What a failed cache read or write raises: a filesystem error, bytes that
#: are not UTF-8, or an injected ``fatal`` fault.
_IO_ERRORS = (OSError, UnicodeDecodeError, SourceError)


class ResultCache:
    """A tiny content-addressed JSON store: ``<root>/<section>/<key>.json``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root).expanduser()

    @property
    def root(self) -> Path:
        return self._root

    def _path(self, section: str, key: str) -> Path:
        if not section or not set(section) <= _SECTION_SAFE:
            raise ValueError(f"invalid cache section {section!r}")
        return self._root / section / f"{key}.json"

    def _blob_path(self, section: str, key: str) -> Path:
        if not section or not set(section) <= _SECTION_SAFE:
            raise ValueError(f"invalid cache section {section!r}")
        return self._root / section / f"{key}.bin"

    @staticmethod
    def _read_text(path: Path) -> Optional[str]:
        """File contents, or None when the entry simply does not exist."""
        fault_point("cache.get")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def _evict_corrupt(self, path: Path) -> None:
        """Remove an unreadable entry so it cannot poison later lookups."""
        get_metrics().incr("cache.corrupt")
        try:
            path.unlink()
        except OSError:  # pragma: no cover - best-effort eviction
            pass

    def _unreadable(self, path: Path) -> None:
        """A read that failed: a miss, and an existing entry is evicted."""
        get_metrics().incr("cache.misses")
        if path.exists():
            self._evict_corrupt(path)

    def get(self, section: str, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload, or None (counted as a miss) if absent/corrupt.

        An entry that exists but cannot be read or parsed is evicted and
        counted as ``cache.corrupt`` on top of the miss.
        """
        metrics = get_metrics()
        path = self._path(section, key)
        try:
            text = self._read_text(path)
        except _IO_ERRORS:
            return self._unreadable(path)
        if text is None:
            metrics.incr("cache.misses")
            return None
        text = mangle_text("cache.get", text)
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        if not isinstance(payload, dict):
            self._evict_corrupt(path)
            metrics.incr("cache.misses")
            return None
        metrics.incr("cache.hits")
        metrics.incr("cache.bytes_read", len(text.encode("utf-8")))
        return payload

    def put(self, section: str, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` atomically; never corrupts an existing entry.

        A cache write is an optimization, not an obligation: a failed
        write is counted (``cache.write_errors``) and swallowed.
        """
        text = json.dumps(payload, sort_keys=True)
        path = self._path(section, key)
        try:
            fault_point("cache.put")
            path.parent.mkdir(parents=True, exist_ok=True)
            with atomic_replace(path) as tmp_path:
                with open(tmp_path, "w", encoding="utf-8") as handle:
                    handle.write(text)
        except _IO_ERRORS:
            get_metrics().incr("cache.write_errors")
            return
        metrics = get_metrics()
        metrics.incr("cache.writes")
        metrics.incr("cache.bytes_written", len(text.encode("utf-8")))

    # -- opaque blobs ------------------------------------------------------
    @staticmethod
    def _read_bytes(path: Path) -> Optional[bytes]:
        """Raw blob contents, or None when the entry does not exist."""
        fault_point("cache.get")
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def get_blob(self, section: str, key: str) -> Optional[bytes]:
        """The cached blob payload, or None (a miss) if absent or corrupt.

        The stored SHA-256 digest is verified before anything is returned;
        a mismatched, truncated or otherwise unreadable entry is evicted
        and counted as ``cache.corrupt`` on top of the miss.
        """
        metrics = get_metrics()
        path = self._blob_path(section, key)
        try:
            raw = self._read_bytes(path)
        except _IO_ERRORS:
            return self._unreadable(path)
        if raw is None:
            metrics.incr("cache.misses")
            return None
        payload = raw[_BLOB_HEADER:]
        if (
            len(raw) < _BLOB_HEADER
            or raw[: len(_BLOB_MAGIC)] != _BLOB_MAGIC
            or raw[len(_BLOB_MAGIC) : _BLOB_HEADER]
            != hashlib.sha256(payload).digest()
        ):
            self._evict_corrupt(path)
            metrics.incr("cache.misses")
            return None
        metrics.incr("cache.hits")
        metrics.incr("cache.bytes_read", len(raw))
        return payload

    def put_blob(self, section: str, key: str, payload: bytes) -> None:
        """Store an opaque blob atomically with an integrity digest."""
        data = _BLOB_MAGIC + hashlib.sha256(payload).digest() + payload
        path = self._blob_path(section, key)
        try:
            fault_point("cache.put")
            path.parent.mkdir(parents=True, exist_ok=True)
            with atomic_replace(path) as tmp_path:
                with open(tmp_path, "wb") as handle:
                    handle.write(data)
        except _IO_ERRORS:
            get_metrics().incr("cache.write_errors")
            return
        metrics = get_metrics()
        metrics.incr("cache.writes")
        metrics.incr("cache.bytes_written", len(data))

    def evict(self, section: str, key: str) -> None:
        """Drop an entry (JSON and blob forms) that proved unusable."""
        for path in (self._path(section, key), self._blob_path(section, key)):
            if path.exists():
                self._evict_corrupt(path)

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-section entry counts and byte totals, for cache hygiene.

        The fine-grained incremental tiers (``cti-terms``, ``cti-scores``)
        write one small file per origin/country, so this is how operators
        see what a maintain loop actually accumulated on disk.  Sections
        are reported even when empty-but-present; a missing root yields
        ``{}``.
        """
        stats: Dict[str, Dict[str, int]] = {}
        if not self._root.is_dir():
            return stats
        for section_dir in sorted(self._root.iterdir()):
            if not section_dir.is_dir():
                continue
            entries = 0
            blobs = 0
            total = 0
            for entry in section_dir.iterdir():
                if entry.suffix == ".json":
                    entries += 1
                elif entry.suffix == ".bin":
                    blobs += 1
                else:
                    continue
                try:
                    total += entry.stat().st_size
                except OSError:  # pragma: no cover - raced unlink
                    continue
            stats[section_dir.name] = {
                "entries": entries,
                "blobs": blobs,
                "bytes": total,
            }
        return stats
