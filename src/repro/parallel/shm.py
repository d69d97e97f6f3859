"""Zero-copy shared-memory state plane for the worker runtime.

The PR 5 runtime shipped every registered state as a pickle blob: each
worker unpickled (and therefore *copied*) the full object graph, so
resident memory grew linearly with ``--jobs``.  This module replaces the
copy with POSIX shared memory: the coordinator flattens a state object
into contiguous struct-of-arrays buffers, writes them once into a
:class:`multiprocessing.shared_memory.SharedMemory` segment, and ships
only a tiny :class:`ShmRef` (segment name + buffer layout + small meta
dict).  Workers attach to the segment **by name** and rebuild a read-only
view over zero-copy ``memoryview`` casts — per-worker memory stays flat
no matter how many workers attach.

An object opts in by implementing the shareable protocol:

``__shm_export__(self) -> (meta, buffers)``
    ``meta`` is a small picklable dict; ``buffers`` is an ordered list of
    ``(format, buffer)`` pairs where ``format`` is a single struct format
    character (``"q"``, ``"i"``, ``"B"``, ...) and ``buffer`` is any
    C-contiguous buffer of that item type (``array.array``,
    ``memoryview``, ``bytes``).

``__shm_rebuild__(cls, meta, views) -> object``  (classmethod)
    Inverse: receives ``meta`` plus one cast ``memoryview`` per exported
    buffer, in export order, and returns the worker-side view object.
    The views are backed by the shared segment — the rebuilt object must
    treat them as read-only and must not outlive the worker process.

Segment layout: buffers are packed back to back at 16-byte-aligned
offsets; the layout table ``(format, offset, nbytes)`` travels in the
``ShmRef`` so attach never has to parse the segment itself.

Lifecycle: the coordinator's :class:`SharedStatePlane` owns every segment
it creates and is the *only* unlinker.  ``close()`` is idempotent —
close + unlink each segment, tolerating double-close and already-removed
files — so repeated runtimes in one process cannot leak ``/dev/shm``
entries.  Workers never unlink: their attachments are opened with tracker
registration suppressed (Python 3.11 registers attachments
unconditionally, bpo-38119) and their views released via an ``atexit``
hook.
"""

from __future__ import annotations

import atexit
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Iterator, List, Tuple

from repro.obs import get_metrics

__all__ = [
    "ShmRef",
    "SharedStatePlane",
    "attach_ref",
    "is_shareable",
    "release_worker_attachments",
]

#: Buffer offsets inside a segment are rounded up to this alignment so
#: ``memoryview.cast`` never sees a misaligned start for any item size.
_ALIGN = 16


@dataclass(frozen=True)
class ShmRef:
    """Picklable name card for one shared segment: everything a worker
    needs to attach and rebuild the object without touching the registry
    pickle path.  ``cls`` pickles by reference (module + qualname)."""

    name: str
    cls: type
    meta: Dict[str, Any]
    layout: Tuple[Tuple[str, int, int], ...]  # (format, offset, nbytes)
    total_bytes: int


def is_shareable(state: Any) -> bool:
    """True when ``state`` implements the shm export/rebuild protocol."""
    return hasattr(state, "__shm_export__") and hasattr(type(state), "__shm_rebuild__")


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


class SharedStatePlane:
    """Coordinator-side owner of the shared segments for one runtime."""

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._closed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedStatePlane(segments={len(self._segments)}, "
            f"closed={self._closed})"
        )

    def share(self, state: Any) -> ShmRef:
        """Flatten ``state`` into a fresh shared segment; returns the ref.

        The export buffers are copied into the segment exactly once, all
        transient write views are dropped before returning, and the
        segment stays alive (and attachable by name) until ``close``.
        """
        if self._closed:
            raise ValueError("shared state plane is closed")
        meta, buffers = state.__shm_export__()
        layout: List[Tuple[str, int, int]] = []
        offset = 0
        flat: List[memoryview] = []
        for fmt, buf in buffers:
            view = memoryview(buf)
            if view.format != "B" or view.ndim != 1:
                view = view.cast("B")
            offset = _aligned(offset)
            layout.append((fmt, offset, view.nbytes))
            flat.append(view)
            offset += view.nbytes
        total = offset
        segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
        try:
            for (_, start, nbytes), view in zip(layout, flat):
                if nbytes:
                    segment.buf[start : start + nbytes] = view
        finally:
            for view in flat:
                view.release()
        self._segments[segment.name] = segment
        metrics = get_metrics()
        metrics.incr("runtime.shm_segments")
        metrics.incr("runtime.shm_bytes", total)
        metrics.gauge("runtime.shm_bytes_live", self.live_bytes())
        return ShmRef(
            name=segment.name,
            cls=type(state),
            meta=meta,
            layout=tuple(layout),
            total_bytes=total,
        )

    def live_bytes(self) -> int:
        return sum(seg.size for seg in self._segments.values())

    def close(self) -> None:
        """Close + unlink every owned segment; safe to call repeatedly."""
        self._closed = True
        while self._segments:
            _, segment = self._segments.popitem()
            try:
                segment.close()
            except BufferError:  # pragma: no cover - exported views linger
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        get_metrics().gauge("runtime.shm_bytes_live", 0)

    def __del__(self):  # pragma: no cover - GC backstop only
        try:
            self.close()
        except Exception:
            pass


# -- worker-process side ----------------------------------------------------
# One attachment per segment name per worker process, reused across chunks;
# released in bulk by a single atexit hook so the mmap never closes while
# cast views are still exported.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, List[memoryview], Any]]
_ATTACHED = {}
_RELEASE_HOOKED = False


def attach_ref(ref: ShmRef) -> Any:
    """Attach to ``ref``'s segment and rebuild the object (memoized).

    The first attach per segment maps it, deregisters the attachment from
    the resource tracker (the coordinator owns unlink), casts one view per
    layout entry, and calls ``cls.__shm_rebuild__``.  Later calls return
    the cached object — attaching is idempotent within a process.
    """
    cached = _ATTACHED.get(ref.name)
    if cached is not None:
        return cached[2]
    with _registration_suppressed():
        segment = shared_memory.SharedMemory(name=ref.name)
    views: List[memoryview] = []
    for fmt, start, nbytes in ref.layout:
        view = segment.buf[start : start + nbytes]
        if fmt != "B":
            view = view.cast(fmt)
        views.append(view)
    obj = ref.cls.__shm_rebuild__(ref.meta, views)
    _ATTACHED[ref.name] = (segment, views, obj)
    _ensure_release_hook()
    get_metrics().incr("runtime.attach")
    return obj


def release_worker_attachments() -> None:
    """Drop every cached attachment in this process (views then mmap)."""
    while _ATTACHED:
        _, (segment, views, _) = _ATTACHED.popitem()
        for view in views:
            try:
                view.release()
            except Exception:  # pragma: no cover - view already exported
                pass
        try:
            segment.close()
        except Exception:  # pragma: no cover - BufferError on live views
            pass


def _ensure_release_hook() -> None:
    global _RELEASE_HOOKED
    if not _RELEASE_HOOKED:
        atexit.register(release_worker_attachments)
        _RELEASE_HOOKED = True


@contextmanager
def _registration_suppressed() -> Iterator[None]:
    """Open a ``SharedMemory`` without registering it with the tracker.

    Python 3.11 registers *every* ``SharedMemory`` open — attach included —
    with the resource tracker (bpo-38119; fixed by ``track=`` only in
    3.13).  An attaching worker must not be tracked at all: the coordinator
    owns unlink.  Unregistering *after* the attach is not enough — under
    the fork start method workers share the coordinator's tracker process,
    so a worker's late-arriving register message can race the
    coordinator's unlink-time unregister and resurrect the entry (a bogus
    "leaked shared_memory objects" warning at shutdown), while an eager
    worker unregister strips the create-time entry unlink relies on.
    Suppressing the registration up front sidesteps the race for every
    start method: no message is ever sent for attachments.
    """
    original = resource_tracker.register

    def _register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - not hit today
            original(name, rtype)

    resource_tracker.register = _register
    try:
        yield
    finally:
        resource_tracker.register = original
