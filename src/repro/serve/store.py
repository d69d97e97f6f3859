"""The hot-swap snapshot store: one immutable index, atomically flipped.

The swap protocol has three invariants:

1. **One reference, flipped atomically.**  ``current`` is a single
   attribute read (atomic under the GIL); request handlers grab it once
   and answer the whole request from that index.  A swap can therefore
   never produce a mixed-snapshot response or drop an in-flight query.
2. **Build off the serving path.**  :meth:`poll` does the expensive work
   (read, digest, parse, index) on whatever thread calls it — the server
   runs it in an executor — and only then flips the reference.
3. **Degrade, never crash.**  A reload that fails for any reason (the
   file vanished, a corrupt snapshot, an injected fault at site
   ``serve.reload``) keeps serving the previous index, records the
   failure (``serve.reload.failures`` plus ``last_error``), and tries
   again only when the file changes.  Nothing is retried in between:
   the writer renames complete files into place, so a reload never
   reads a torn one.

The swap point is :func:`repro.io.atomic.atomic_replace`: because every
exporter promotes finished files with fsync + rename, a *new* mtime/size
always refers to a complete document, and the previous snapshot is kept
for the /diff endpoint.
"""

from __future__ import annotations

import os
import threading
from typing import Optional, Tuple, Union
from pathlib import Path

from repro.errors import ReproError
from repro.obs import get_metrics, get_sink
from repro.resilience import fault_point
from repro.serve.index import SnapshotIndex, build_index

__all__ = ["SnapshotStore"]


class SnapshotStore:
    """Owns the current (and previous) :class:`SnapshotIndex`."""

    def __init__(
        self,
        path: Union[str, Path],
        cti_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self._path = Path(path)
        # An explicit sidecar path is honored verbatim; otherwise the
        # default convention (<dataset>.cti.json next to the export) is
        # re-resolved on every build, so a sidecar that a maintain/publish
        # cycle drops in *after* startup is picked up by the next swap.
        self._explicit_cti = cti_path is not None
        self._cti_path = Path(cti_path) if cti_path is not None else None
        self._lock = threading.Lock()
        self._current: Optional[SnapshotIndex] = None
        self._previous: Optional[SnapshotIndex] = None
        #: (mtime_ns, size) of the last file state that failed to load, so a
        #: bad snapshot is not re-parsed on every poll tick.
        self._failed_stat: Optional[Tuple[int, int]] = None
        self.swaps = 0
        self.reload_failures = 0
        self.last_error: Optional[str] = None

    # -- read side ---------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def current(self) -> Optional[SnapshotIndex]:
        """The serving index (a single atomic attribute read)."""
        return self._current

    @property
    def previous(self) -> Optional[SnapshotIndex]:
        """The index replaced by the last swap (for /diff)."""
        return self._previous

    def status(self) -> dict:
        """The reload-health block of the /health payload."""
        return {
            "swaps": self.swaps,
            "reload_failures": self.reload_failures,
            "last_error": self.last_error,
        }

    # -- load / reload -----------------------------------------------------
    def load_initial(self) -> SnapshotIndex:
        """Build the first index; startup failures propagate to the caller."""
        index = self._build()
        with self._lock:
            self._current = index
        get_metrics().gauge("serve.dataset_asns", len(index.dataset.all_asns()))
        return index

    def _build(self) -> SnapshotIndex:
        cti_path = self._cti_path
        if not self._explicit_cti:
            candidate = self._path.with_suffix(self._path.suffix + ".cti.json")
            cti_path = candidate if candidate.exists() else None
        fault_point("serve.reload")
        return build_index(self._path, cti_path)

    def poll(self) -> bool:
        """Reload if the snapshot file changed; True when a swap happened.

        Safe to call from any thread; the server calls it from an executor
        on a fixed interval.  Never raises once :meth:`load_initial`
        succeeded — every failure degrades to the previous snapshot.
        """
        try:
            stat = os.stat(self._path)
        except OSError as exc:
            if self._failed_stat != (-1, -1):
                self._record_failure(exc, (-1, -1))
            return False
        file_state = (stat.st_mtime_ns, stat.st_size)
        current = self._current
        if current is not None and file_state == (
            current.stamp.mtime_ns,
            current.stamp.size,
        ):
            return False
        if file_state == self._failed_stat:
            return False  # already diagnosed this exact file state
        try:
            index = self._build()
        except ReproError as exc:
            self._record_failure(exc, file_state)
            return False
        if current is not None and index.stamp.digest == current.stamp.digest:
            # Touched but byte-identical: adopt the new stamp silently so
            # the next poll is an mtime no-op, without announcing a swap.
            with self._lock:
                self._current = index
                self._failed_stat = None
            return False
        self._swap(index)
        return True

    def _swap(self, index: SnapshotIndex) -> None:
        with self._lock:
            previous = self._current
            self._previous = previous
            self._current = index
            self._failed_stat = None
            self.swaps += 1
            self.last_error = None
        metrics = get_metrics()
        metrics.incr("serve.swaps")
        metrics.gauge("serve.dataset_asns", len(index.dataset.all_asns()))
        sink = get_sink()
        if sink.enabled:
            sink.emit(
                {
                    "event": "serve.swap",
                    "name": "serve.swap",
                    "depth": 0,
                    "digest": index.stamp.digest,
                    "previous": (
                        previous.stamp.digest if previous is not None else None
                    ),
                }
            )

    def _record_failure(self, exc: Exception, file_state: Tuple[int, int]) -> None:
        with self._lock:
            self.reload_failures += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            self._failed_stat = file_state
        get_metrics().incr("serve.reload.failures")
        sink = get_sink()
        if sink.enabled:
            sink.emit(
                {
                    "event": "serve.reload_failure",
                    "name": "serve.reload",
                    "depth": 0,
                    "error": self.last_error,
                }
            )
