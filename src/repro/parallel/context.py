"""Serial or process-pool execution behind one interface.

:class:`ExecutionContext` is the one abstraction the pipeline fans work out
through.  Its contract is deliberately narrow so that both backends can
honor it exactly:

* ``map_ordered(fn, items, state=...)`` applies ``fn(state, item)`` to every
  item and returns the results **in input order** — the caller performs the
  reduction itself, in a deterministic order, so parallel runs are
  bit-identical to serial ones;
* ``state`` is shared by reference on the serial backend and shipped to
  each worker process exactly once **per run** on the process backend:
  the context lazily creates one run-scoped
  :class:`~repro.parallel.runtime.WorkerRuntime` that owns a persistent
  pool and a handle-based state registry, so a heavy read-only object (a
  route collector, an ownership analyst) is pickled once and referenced by
  handle in every later ``map_ordered`` call.  Call sites may register
  explicitly (``context.register(obj) -> StateHandle``) or keep passing the
  raw object — unregistered states are auto-registered by identity.

The worker count decides the backend: one job runs serially, more run on
the process pool.  Contexts are context managers; ``close()`` shuts the
runtime's pool down.  The pipeline closes the contexts it creates itself
and leaves injected ones (CLI-owned, shared by every pipeline stage of
one invocation) alone.

Worker counts and task counts flow into the process-global metrics registry
as ``parallel.jobs`` (gauge) and ``parallel.tasks`` (counter); pool
lifecycle shows up as ``parallel.pool_spawns`` / ``pool_reuse`` /
``state_ships``.  Each ``map_ordered`` call is wrapped in a
``parallel.<label>`` span.

The process backend is crash-tolerant: work is partitioned into indexed
chunks, completions stream back (``as_completed``), and when a worker dies
(OOM kill, segfault, injected ``crash`` fault) the broken pool is
discarded, already-completed chunks keep their results, and the unfinished
chunks are **requeued** on a fresh pool with an incremented delivery
attempt.  Results are reassembled by chunk index, so the ordered-merge
guarantee — bit-identical output to the serial backend — survives any
number of restarts (bounded by ``_MAX_POOL_RESTARTS``).
"""

from __future__ import annotations

import os
from typing import Callable, List, Mapping, Optional, Sequence, TypeVar

from repro.errors import ConfigError, invalid_jobs
from repro.obs import get_metrics, span
from repro.parallel.runtime import StateHandle, WorkerRuntime

__all__ = ["BACKENDS", "ExecutionContext"]

BACKENDS = ("serial", "process")

S = TypeVar("S")
T = TypeVar("T")
R = TypeVar("R")


class ExecutionContext:
    """Executes homogeneous task batches serially or on a process pool.

    ``jobs`` alone picks the backend: one job runs serially, more on the
    process pool.  ``backend`` is still accepted (and checked against
    :data:`BACKENDS`) for callers that name it, but it selects nothing.
    """

    def __init__(self, jobs: int = 1, backend: Optional[str] = None) -> None:
        if backend is not None and backend not in BACKENDS:
            raise ConfigError(
                f"unknown parallel backend {backend!r}; pick one of {BACKENDS}"
            )
        if jobs < 1:
            raise invalid_jobs(jobs)
        self.jobs = jobs
        self._runtime: Optional[WorkerRuntime] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutionContext(jobs={self.jobs}, backend={self.backend!r})"

    @property
    def backend(self) -> str:
        return "serial" if self.jobs == 1 else "process"

    @property
    def is_serial(self) -> bool:
        return self.jobs == 1

    @property
    def runtime(self) -> WorkerRuntime:
        """The run-scoped worker runtime, created on first use."""
        if self._runtime is None:
            self._runtime = WorkerRuntime(self.jobs)
        return self._runtime

    def register(self, state, name: str = "state") -> StateHandle:
        """Register a heavy read-only object; shipped to workers once."""
        return self.runtime.register(state, name)

    def close(self) -> None:
        """Shut down the runtime's pool (idempotent)."""
        if self._runtime is not None:
            self._runtime.close()
            self._runtime = None

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    @classmethod
    def resolve(
        cls,
        jobs: Optional[int] = None,
        env: Optional[Mapping[str, str]] = None,
    ) -> "ExecutionContext":
        """Build a context from an explicit job count or the environment.

        ``jobs`` falls back to ``REPRO_JOBS`` and then 1; ``jobs=0`` (or
        ``REPRO_JOBS=0``) means "all cores" and is expanded here — only
        ``resolve`` accepts it.  More than one job runs on the process
        backend, one job serially.
        """
        env = os.environ if env is None else env
        if jobs is None:
            raw = env.get("REPRO_JOBS", "").strip()
            if raw:
                try:
                    jobs = int(raw)
                except ValueError:
                    raise ConfigError(f"REPRO_JOBS must be an integer, got {raw!r}")
            else:
                jobs = 1
        if jobs < 0:
            raise invalid_jobs(jobs)
        if jobs == 0:
            jobs = os.cpu_count() or 1
        return cls(jobs=jobs)

    # -- execution ---------------------------------------------------------
    def map_ordered(
        self,
        fn: Callable[[S, T], R],
        items: Sequence[T],
        *,
        state: S = None,
        chunksize: Optional[int] = None,
        label: str = "map",
    ) -> List[R]:
        """Apply ``fn(state, item)`` to every item; results in input order.

        ``state`` may be a raw object or a :class:`StateHandle` from
        :meth:`register`.  On the process backend either way ships the
        object to each worker at most once per run.
        """
        items = list(items)
        metrics = get_metrics()
        metrics.gauge("parallel.jobs", self.jobs)
        metrics.incr("parallel.tasks", len(items))
        site = f"worker.{label}"
        with span(f"parallel.{label}", backend=self.backend) as sp:
            sp.incr("tasks", len(items))
            if not items:
                return []
            if self.is_serial:
                local_state = (
                    self.runtime.resolve(state)
                    if isinstance(state, StateHandle)
                    else state
                )
                return [fn(local_state, item) for item in items]
            # Process backend: reference state by handle (shipped once per
            # run), then stream items in chunks big enough to amortize the
            # IPC round-trips.
            if chunksize is None:
                chunksize = max(1, len(items) // (self.jobs * 4) or 1)
            chunks = [
                items[start : start + chunksize]
                for start in range(0, len(items), chunksize)
            ]
            return self.runtime.process_map(
                fn, chunks, self._state_ref(state), site, sp
            )

    def _state_ref(self, state):
        """The cross-process reference for ``state``: a handle token.

        Raw objects are auto-registered (memoized by identity), so repeated
        maps over the same object re-ship nothing.
        """
        if state is None:
            return None
        handle = (
            state if isinstance(state, StateHandle) else self.runtime.handle_for(state)
        )
        return ("handle", handle.token)
