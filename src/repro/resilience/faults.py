"""Deterministic fault injection: seeded chaos that replays bit-identically.

A :class:`FaultPlan` maps *call sites* (dotted names such as
``source.orbis``, ``cache.get``, ``worker.confirmation``) to fault kinds:

``fatal``
    every call raises :class:`~repro.errors.InjectedFaultError` —
    exercises quarantine / graceful degradation;
``corrupt[:p]``
    payload text passing through :func:`mangle_text` is garbled with
    probability *p* (default 1.0), drawn from a per-call seeded RNG —
    exercises corrupt-record handling;
``crash[:n]``
    the first *n* eligible calls inside a **worker process** terminate it
    with ``os._exit`` — exercises pool requeue.  A no-op in the parent
    process and on requeued deliveries (``attempt > 0``), so one plan
    cannot crash-loop a run.

Plans are parsed from a compact spec (``REPRO_FAULTS`` /
``--inject-faults``)::

    seed=42;source.orbis=fatal;cache.get=corrupt:0.5;worker.confirmation=crash

Sites accept ``fnmatch`` globs (``source.*=fatal``).  All randomness
derives from the plan seed plus the per-site call counter, so the same plan
over the same run produces the same faults, logs and metrics every time.

The active plan is process-global.  :func:`get_fault_plan` lazily parses
``REPRO_FAULTS`` from the environment, which is how worker processes of a
process pool inherit the plan without any extra plumbing;
:func:`fault_plan_installed` scopes a plan to one block.
"""

from __future__ import annotations

import fnmatch
import multiprocessing
import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import ConfigError, InjectedFaultError
from repro.obs import get_metrics
from repro.rng import derive_seed

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "get_fault_plan",
    "install_fault_plan",
    "clear_fault_plan",
    "fault_plan_installed",
    "fault_point",
    "mangle_text",
    "worker_fault_point",
]

FAULT_KINDS = ("fatal", "corrupt", "crash")

#: Default parameter per kind (see the kind table in the module docstring).
_DEFAULT_PARAM = {"fatal": 0.0, "corrupt": 1.0, "crash": 1.0}


@dataclass(frozen=True)
class FaultSpec:
    """One ``site=kind[:param]`` entry of a fault plan."""

    site: str
    kind: str
    param: float

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; pick one of {FAULT_KINDS}"
            )
        if self.param < 0:
            raise ConfigError(f"fault parameter must be >= 0: {self}")

    def matches(self, site: str) -> bool:
        return fnmatch.fnmatchcase(site, self.site)

    def as_text(self) -> str:
        return f"{self.site}={self.kind}:{self.param:g}"


class FaultPlan:
    """A seeded set of per-site faults with deterministic call counters."""

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``seed=N;site=kind[:param];...`` spec format."""
        seed = 0
        specs = []
        for raw in text.replace(",", ";").split(";"):
            entry = raw.strip()
            if not entry:
                continue
            if "=" not in entry:
                raise ConfigError(
                    f"malformed fault entry {entry!r} (expected site=kind)"
                )
            left, right = (part.strip() for part in entry.split("=", 1))
            if left == "seed":
                try:
                    seed = int(right)
                except ValueError:
                    raise ConfigError(f"fault seed must be an integer: {right!r}")
                continue
            kind, _, param_text = right.partition(":")
            kind = kind.strip()
            if kind not in FAULT_KINDS:
                raise ConfigError(
                    f"unknown fault kind {kind!r} in {entry!r}; "
                    f"pick one of {FAULT_KINDS}"
                )
            if param_text:
                try:
                    param = float(param_text)
                except ValueError:
                    raise ConfigError(f"fault parameter must be numeric: {entry!r}")
            else:
                param = _DEFAULT_PARAM[kind]
            specs.append(FaultSpec(site=left, kind=kind, param=param))
        return cls(specs, seed=seed)

    def as_text(self) -> str:
        """Canonical spec string (round-trips through :meth:`parse`)."""
        parts = [f"seed={self.seed}"]
        parts.extend(spec.as_text() for spec in self.specs)
        return ";".join(parts)

    # -- internals ---------------------------------------------------------
    def _next_call(self, site: str) -> int:
        """0-based index of this call at ``site`` (deterministic counter)."""
        with self._lock:
            count = self._calls.get(site, 0)
            self._calls[site] = count + 1
            return count

    def _rng(self, site: str, count: int) -> random.Random:
        return random.Random(derive_seed(self.seed, f"{site}:{count}"))

    def _matching(self, site: str) -> Tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs if spec.matches(site))

    # -- fault application -------------------------------------------------
    def before(self, site: str) -> None:
        """Apply fatal faults for one call at ``site``."""
        if any(spec.kind == "fatal" for spec in self._matching(site)):
            count = self._next_call(site)
            get_metrics().incr("resilience.faults.injected")
            raise InjectedFaultError(f"injected fatal fault at {site} (call #{count})")

    def mangle(self, site: str, text: str) -> str:
        """Apply corrupt faults to payload text read at ``site``."""
        specs = [spec for spec in self._matching(site) if spec.kind == "corrupt"]
        if not specs or not text:
            return text
        count = self._next_call(f"{site}#payload")
        for spec in specs:
            rng = self._rng(site, count)
            if rng.random() >= spec.param:
                continue
            get_metrics().incr("resilience.faults.mangled")
            cut = rng.randrange(len(text))
            text = text[:cut] + "\x00garbage\x00" + text[cut + 1 :]
        return text

    def crash_due(self, site: str, attempt: int) -> bool:
        """True when an eligible worker call at ``site`` must crash."""
        specs = [s for s in self._matching(site) if s.kind == "crash"]
        if not specs or attempt > 0:
            return False
        count = self._next_call(f"{site}#crash")
        return any(count < spec.param for spec in specs)


# -- the process-global active plan ---------------------------------------
_ACTIVE: Optional[FaultPlan] = None
_RESOLVED = False
_RESOLVE_LOCK = threading.Lock()


def get_fault_plan() -> Optional[FaultPlan]:
    """The active plan: installed explicitly or parsed from ``REPRO_FAULTS``.

    The environment is consulted once per process (worker processes of a
    pool therefore pick the plan up automatically); use
    :func:`clear_fault_plan` to force re-resolution.
    """
    global _ACTIVE, _RESOLVED
    if _RESOLVED:
        return _ACTIVE
    with _RESOLVE_LOCK:
        if not _RESOLVED:
            spec = os.environ.get("REPRO_FAULTS", "").strip()
            _ACTIVE = FaultPlan.parse(spec) if spec else None
            _RESOLVED = True
    return _ACTIVE


def install_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Activate ``plan`` for this process (None deactivates injection)."""
    global _ACTIVE, _RESOLVED
    with _RESOLVE_LOCK:
        _ACTIVE = plan
        _RESOLVED = True


def clear_fault_plan() -> None:
    """Drop the active plan; the next lookup re-reads ``REPRO_FAULTS``."""
    global _ACTIVE, _RESOLVED
    with _RESOLVE_LOCK:
        _ACTIVE = None
        _RESOLVED = False


@contextmanager
def fault_plan_installed(plan: Optional[FaultPlan]) -> Iterator[None]:
    """Activate ``plan`` for the enclosed block, then restore what was there.

    The plan is exported through ``REPRO_FAULTS`` as well, so process-pool
    workers started inside the block replay the same seeded faults as the
    coordinator.  On exit both the previous plan and the previous
    ``REPRO_FAULTS`` value come back, so a plan never leaks into later
    work in the same process.  ``None`` leaves the active plan untouched.
    """
    if plan is None:
        yield
        return
    global _ACTIVE, _RESOLVED
    with _RESOLVE_LOCK:
        saved = (_ACTIVE, _RESOLVED, os.environ.get("REPRO_FAULTS"))
        _ACTIVE, _RESOLVED = plan, True
        os.environ["REPRO_FAULTS"] = plan.as_text()
    try:
        yield
    finally:
        with _RESOLVE_LOCK:
            _ACTIVE, _RESOLVED, env = saved
            if env is None:
                os.environ.pop("REPRO_FAULTS", None)
            else:
                os.environ["REPRO_FAULTS"] = env


def fault_point(site: str) -> None:
    """Hook placed at an I/O boundary; no-op unless a plan is active."""
    plan = get_fault_plan()
    if plan is not None:
        plan.before(site)


def mangle_text(site: str, text: str) -> str:
    """Payload hook for read paths; returns ``text`` unless a plan mangles it."""
    plan = get_fault_plan()
    if plan is None:
        return text
    return plan.mangle(site, text)


def worker_fault_point(site: str, attempt: int) -> None:
    """Hook run before each work item inside a pool worker.

    Crash faults fire only inside a real worker process (never the
    coordinator) and only on first delivery (``attempt == 0``), so
    requeued work is guaranteed to make progress.
    """
    plan = get_fault_plan()
    if (
        plan is not None
        and multiprocessing.parent_process() is not None
        and plan.crash_due(site, attempt)
    ):
        os._exit(3)
