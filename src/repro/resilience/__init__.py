"""Resilience layer: fault injection and source quarantine.

Every data source here is an in-process builder over the synthetic world,
so none of them fails transiently: a failure is either injected or
permanent, and nothing is retried.  Two pieces:

* the fault harness (:mod:`repro.resilience.faults`) — a seeded
  :class:`~repro.resilience.faults.FaultPlan` (``REPRO_FAULTS`` /
  ``--inject-faults``) that injects fatal errors, corrupt payloads and
  worker crashes, reproducibly;
* :class:`~repro.resilience.quarantine.QuarantinedSource` — the inert
  stand-in for a candidate source whose build failed.

Degradation semantics live in :mod:`repro.core.pipeline`: a candidate
source that fails is quarantined, the run continues on the remaining
sources, and the exported dataset carries per-source ``degraded``
provenance flags.  A corrupt cache entry is an evicted miss
(:mod:`repro.parallel.cache`), a crashed pool worker is respawned and its
work requeued (:mod:`repro.parallel.runtime`), and a failed serve reload
keeps the previous snapshot (:mod:`repro.serve.store`).
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    clear_fault_plan,
    fault_plan_installed,
    fault_point,
    get_fault_plan,
    install_fault_plan,
    mangle_text,
    worker_fault_point,
)
from repro.resilience.quarantine import QuarantinedSource

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "QuarantinedSource",
    "clear_fault_plan",
    "fault_plan_installed",
    "fault_point",
    "get_fault_plan",
    "install_fault_plan",
    "mangle_text",
    "worker_fault_point",
]
