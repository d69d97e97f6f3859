"""Run-scoped worker runtime: one pool per run, states shipped once.

:class:`WorkerRuntime` owns a single long-lived executor for an entire
pipeline run.  Every ``map_ordered`` call on the process backend used to
spawn (and tear down) a fresh ``ProcessPoolExecutor`` and re-pickle its
full ``state`` object through the pool initializer — so a run paid pool
startup plus state serialization once per fan-out site.  The runtime
amortizes both:

* **Persistent pool** — the first parallel map spawns the pool
  (``parallel.pool_spawns``); every later map reuses it
  (``parallel.pool_reuse``).  The pool survives across fan-out sites,
  so a full ``run`` creates exactly one.
* **Handle-based shared-state plane** — heavy read-only objects are
  registered once (``runtime.register(state) -> StateHandle``) and shipped
  to the workers a single time (``parallel.state_ships``).  Subsequent
  maps reference the object by its handle token — a short string — instead
  of re-pickling the object per call.  States registered *after* the pool
  exists are broadcast with a barrier fence: exactly ``jobs`` installer
  tasks are submitted, each installs the pickled-once blob and then waits
  on a shared :class:`multiprocessing.Barrier`, which guarantees every
  worker runs exactly one installer before any real task can observe a
  missing handle.
* **Zero-copy shared-memory plane** — states that implement the
  ``__shm_export__`` / ``__shm_rebuild__`` protocol (see
  :mod:`repro.parallel.shm`) are flattened once into a POSIX shared
  segment and shipped as a tiny :class:`~repro.parallel.shm.ShmRef`
  instead of a pickle: workers attach by name and rebuild zero-copy
  views, so per-worker memory stays flat as ``jobs`` grows
  (``runtime.shm_bytes`` / ``runtime.attach``).  Non-shareable states
  keep the pickle path.  ``close()`` unlinks every segment
  deterministically; double-close is a no-op.
* **Streaming completion** — chunk results merge as they land
  (``as_completed``) instead of blocking on a ``wait()``-all barrier.
  Output stays byte-identical to serial because the final merge orders by
  chunk index, exactly like the barrier version did.

The crash-requeue protocol from the per-call pools carries over: a broken
pool is discarded, completed chunks keep their results, unfinished chunks
are requeued with an incremented delivery attempt on a freshly spawned
pool (whose initializer re-ships the complete state registry), bounded by
``_MAX_POOL_RESTARTS`` (``parallel.pool_restarts`` / ``requeued_tasks``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError, WorkerCrashError
from repro.obs import get_metrics
from repro.parallel.shm import SharedStatePlane, ShmRef, attach_ref, is_shareable
from repro.resilience.faults import worker_fault_point

__all__ = ["StateHandle", "WorkerRuntime"]

#: Fresh-pool respawns allowed per map call before giving up.
_MAX_POOL_RESTARTS = 3

#: Seconds each worker waits at the state-broadcast barrier.  Generous —
#: the barrier only trips when a worker died mid-broadcast, and a broken
#: barrier is recovered by respawning the pool with a full registry.
_SYNC_TIMEOUT = 30.0


@dataclass(frozen=True)
class StateHandle:
    """Opaque token naming a state object registered with a runtime."""

    token: str


# -- worker-process side ----------------------------------------------------
# Installed once per worker by the pool initializer; extended in place by
# barrier-fenced ``_install_states`` broadcasts for late registrations.
# Each entry is ``("obj", state)`` for pickled states or ``("shm", ref)``
# for shared-memory refs, which are attached lazily on first resolve and
# then memoized as ``("obj", view)``.
_WORKER_STATES: Dict[str, Any] = {}
_WORKER_BARRIER = None


def _init_runtime_worker(blob: Optional[bytes], barrier) -> None:
    global _WORKER_STATES, _WORKER_BARRIER
    _WORKER_STATES = pickle.loads(blob) if blob else {}
    _WORKER_BARRIER = barrier


def _install_states(blob: bytes) -> bool:
    """Install late-registered states; barrier-fenced so each worker runs
    exactly one installer per broadcast (no worker can steal a second one
    while its siblings are still parked at the barrier)."""
    _WORKER_STATES.update(pickle.loads(blob))
    try:
        _WORKER_BARRIER.wait(timeout=_SYNC_TIMEOUT)
    except threading.BrokenBarrierError:
        return False
    return True


def _resolve_worker_state(state_ref):
    if state_ref is None:
        return None
    kind, value = state_ref
    if kind == "handle":
        try:
            entry_kind, payload = _WORKER_STATES[value]
        except KeyError:
            raise WorkerCrashError(
                f"state handle {value!r} was never shipped to this worker"
            ) from None
        if entry_kind == "shm":
            payload = attach_ref(payload)
            _WORKER_STATES[value] = ("obj", payload)
        return payload
    return value


def _run_chunk(payload: Tuple[int, int, Callable, Any, str, list]):
    """Run one indexed chunk inside a worker; returns (index, results).

    ``attempt`` is the chunk's delivery attempt: injected crash faults only
    fire on first delivery, so requeued chunks always make progress.
    """
    index, attempt, fn, state_ref, site, items = payload
    state = _resolve_worker_state(state_ref)
    results = []
    for item in items:
        worker_fault_point(site, attempt)
        results.append(fn(state, item))
    return index, results


# -- coordinator side -------------------------------------------------------
class WorkerRuntime:
    """One long-lived worker pool plus the registry of shipped states."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self._registry: Dict[str, Any] = {}
        self._auto_handles: Dict[int, StateHandle] = {}
        self._tokens = itertools.count(1)
        self._pool = None
        self._barrier = None
        self._shipped: set = set()
        self._closed = False
        self._plane: Optional[SharedStatePlane] = None
        self._shm_refs: Dict[str, ShmRef] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerRuntime(jobs={self.jobs}, "
            f"states={len(self._registry)}, live={self._pool is not None})"
        )

    # -- shared-state plane ------------------------------------------------
    def register(self, state: Any, name: str = "state") -> StateHandle:
        """Register a read-only object; workers receive it exactly once."""
        handle = StateHandle(f"{name}#{next(self._tokens)}")
        self._registry[handle.token] = state
        return handle

    def handle_for(self, state: Any) -> StateHandle:
        """The handle for ``state``, registering it on first sight.

        Memoized by object identity, so call sites can keep passing the raw
        object to ``map_ordered`` and still get pickle-once semantics.  The
        registry holds a strong reference, which also pins the id().
        """
        handle = self._auto_handles.get(id(state))
        if handle is None:
            handle = self.register(state)
            self._auto_handles[id(state)] = handle
        return handle

    def resolve(self, handle: StateHandle) -> Any:
        """Coordinator-side lookup (serial backend)."""
        try:
            return self._registry[handle.token]
        except KeyError:
            raise ConfigError(
                f"unknown state handle {handle.token!r}: "
                "not registered with this runtime"
            ) from None

    # -- zero-copy plane ---------------------------------------------------
    def _shm_ref(self, token: str, state: Any) -> Optional[ShmRef]:
        """The shared-segment ref for ``token``, flattening on first ship.

        Memoized per token so pool restarts and late broadcasts reuse the
        already-written segment instead of copying the state again.
        """
        ref = self._shm_refs.get(token)
        if ref is not None:
            return ref
        if not is_shareable(state):
            return None
        if self._plane is None:
            self._plane = SharedStatePlane()
        ref = self._plane.share(state)
        self._shm_refs[token] = ref
        return ref

    def _ship_blob(self, tokens) -> Tuple[Optional[bytes], int]:
        """Pickle the ship entries for ``tokens``: shareable states travel
        as ``("shm", ref)`` name cards, the rest as ``("obj", state)``
        pickles.  Returns ``(blob, shm_entries)``."""
        entries: Dict[str, Any] = {}
        shm_entries = 0
        for token in tokens:
            state = self._registry[token]
            ref = self._shm_ref(token, state)
            if ref is not None:
                entries[token] = ("shm", ref)
                shm_entries += 1
            else:
                entries[token] = ("obj", state)
        if not entries:
            return None, 0
        blob = pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
        metrics = get_metrics()
        metrics.incr("runtime.state_bytes", len(blob))
        if shm_entries:
            # Attachments provisioned: every worker attaches each shipped
            # segment (lazily, on first resolve) instead of copying it.
            metrics.incr("runtime.attach", shm_entries * self.jobs)
        return blob, shm_entries

    # -- pool lifecycle ----------------------------------------------------
    def _spawn_pool(self) -> None:
        ctx = multiprocessing.get_context()
        self._barrier = ctx.Barrier(self.jobs)
        blob, _ = self._ship_blob(self._registry)
        self._pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=ctx,
            initializer=_init_runtime_worker,
            initargs=(blob, self._barrier),
        )
        self._shipped = set(self._registry)
        metrics = get_metrics()
        metrics.incr("parallel.pool_spawns")
        if self._shipped:
            metrics.incr("parallel.state_ships", len(self._shipped))

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None
        self._barrier = None
        self._shipped = set()

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ConfigError("worker runtime is closed")
        if self._pool is None:
            self._spawn_pool()
        else:
            get_metrics().incr("parallel.pool_reuse")
            self._sync_states()
        return self._pool

    def _sync_states(self) -> None:
        """Broadcast states registered after the pool was spawned.

        The blob is pickled once; ``jobs`` installer tasks are submitted and
        barrier-fenced so each worker installs it exactly once.  Any failure
        (dead worker, broken barrier, timeout) falls back to respawning the
        pool, whose initializer ships the complete registry snapshot.
        """
        pending = {
            token: state
            for token, state in self._registry.items()
            if token not in self._shipped
        }
        if not pending:
            return
        blob, _ = self._ship_blob(pending)
        try:
            futures = [
                self._pool.submit(_install_states, blob) for _ in range(self.jobs)
            ]
            ok = all(future.result(timeout=_SYNC_TIMEOUT * 2) for future in futures)
        except (BrokenProcessPool, FuturesTimeoutError, OSError):
            ok = False
        if not ok:
            get_metrics().incr("parallel.pool_restarts")
            self._discard_pool()
            self._spawn_pool()
            return
        self._shipped |= set(pending)
        get_metrics().incr("parallel.state_ships", len(pending))

    def close(self) -> None:
        """Shut the pool down and release every shared segment.

        Deterministic and idempotent: the pool drains first (workers exit
        and drop their attachments), then the plane closes **and unlinks**
        each segment, so repeated runtimes in one process cannot leak
        ``/dev/shm`` entries.  Double-close is a no-op.
        """
        if self._closed:
            return
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._barrier = None
        self._shipped = set()
        self._release_plane()
        self._closed = True

    def _release_plane(self) -> None:
        if self._plane is not None:
            self._plane.close()
            self._plane = None
        self._shm_refs = {}

    def __enter__(self) -> "WorkerRuntime":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __del__(self):  # pragma: no cover - GC backstop only
        try:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
        except Exception:
            pass
        try:
            self._release_plane()
        except Exception:
            pass

    # -- execution ---------------------------------------------------------
    def process_map(self, fn, chunks, state_ref, site, sp) -> List[Any]:
        """Crash-tolerant ordered map on the persistent process pool.

        Chunks carry their index and delivery attempt; completions stream
        in (``as_completed``) and merge into an index-keyed dict, so slow
        chunks never block the collection of finished ones.  A broken pool
        is discarded, its unfinished chunks requeued on a fresh pool, and
        the final merge orders strictly by chunk index — byte-identical to
        the serial backend regardless of completion or restart order.
        """
        metrics = get_metrics()
        results_by_chunk: Dict[int, list] = {}
        pending: List[Tuple[int, int]] = [(i, 0) for i in range(len(chunks))]
        restarts = 0
        while pending:
            pool = self._ensure_process_pool()
            futures = {}
            requeue: List[Tuple[int, int]] = []
            for index, attempt in pending:
                try:
                    future = pool.submit(
                        _run_chunk,
                        (index, attempt, fn, state_ref, site, chunks[index]),
                    )
                except BrokenProcessPool:
                    # A worker died while chunks were still being queued.
                    requeue.append((index, attempt + 1))
                else:
                    futures[future] = (index, attempt)
            for future in as_completed(futures):
                index, attempt = futures[future]
                try:
                    chunk_index, chunk_results = future.result()
                except BrokenProcessPool:
                    requeue.append((index, attempt + 1))
                else:
                    results_by_chunk[chunk_index] = chunk_results
            if requeue:
                metrics.incr(
                    "parallel.requeued_tasks",
                    sum(len(chunks[index]) for index, _ in requeue),
                )
                restarts += 1
                metrics.incr("parallel.pool_restarts")
                sp.incr("pool_restarts")
                self._discard_pool()
                if restarts > _MAX_POOL_RESTARTS:
                    raise WorkerCrashError(
                        f"process pool for {site!r} broke {restarts} times; "
                        f"{len(requeue)} chunk(s) still unfinished"
                    )
            requeue.sort()
            pending = requeue
        return [
            result for index in range(len(chunks)) for result in results_by_chunk[index]
        ]
