"""Parallel execution layer: pluggable fan-out plus a persistent cache.

Two pieces, each usable alone:

* :class:`~repro.parallel.context.ExecutionContext` — one abstraction over
  serial and process-pool execution with order-preserving
  ``map_ordered``; the worker count (``--jobs/-j`` on the CLI, or the
  ``REPRO_JOBS`` environment variable) picks between them;
* :class:`~repro.parallel.cache.ResultCache` — a content-addressed on-disk
  store (``~/.cache/repro`` or ``REPRO_CACHE_DIR``) that lets repeated
  pipeline runs over the same world skip CTI recomputation entirely.

Every parallel path is required to produce **bit-identical** results to the
serial one: work is partitioned per item, partial results are returned in
input order, and all floating-point reductions replay in the same order the
serial loop uses.
"""

from repro.parallel.cache import (
    ResultCache,
    resolve_cache_dir,
    stable_digest,
    world_fingerprint,
)
from repro.parallel.context import BACKENDS, ExecutionContext
from repro.parallel.runtime import StateHandle, WorkerRuntime
from repro.parallel.shm import ShmRef, SharedStatePlane, is_shareable

__all__ = [
    "BACKENDS",
    "ExecutionContext",
    "ResultCache",
    "SharedStatePlane",
    "ShmRef",
    "StateHandle",
    "WorkerRuntime",
    "is_shareable",
    "resolve_cache_dir",
    "stable_digest",
    "world_fingerprint",
]
