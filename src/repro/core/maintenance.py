"""Re-verification planning (the §9 maintenance workflow).

The paper argues that keeping the dataset alive is much cheaper than
rebuilding it: each year one only needs to re-check the classifications
most likely to have changed.  This module turns that argument into code: it
scores every organization's *fragility* and emits a prioritized
re-verification plan.

Fragility signals, in decreasing weight:

* the confirming equity sits close to the 50 % threshold (a small sale
  flips the verdict — the Telia/Ucell class of events);
* control rests on aggregated or indirect holdings (funds/holdings can be
  reshuffled quietly);
* the confirmation source is weak (news stories age worse than government
  transparency portals);
* the home country has announced privatization programs (approximated by
  developing-tier churn propensity);
* the record is a foreign subsidiary (group restructurings are common).
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.pipeline import PipelineResult
from repro.errors import PipelineError
from repro.sources.documents import SourceType
from repro.text.normalize import normalize_name
from repro.world.countries import COUNTRIES

__all__ = [
    "ReverificationItem",
    "plan_reverification",
    "SnapshotRecord",
    "MaintainReport",
    "run_maintenance",
]

_TIER = {c.cc: c.dev_tier for c in COUNTRIES}

#: How much a confirmation source's verdict is expected to age (0 = very
#: stable, 1 = very perishable).
_SOURCE_PERISHABILITY = {
    SourceType.GOVERNMENT_PORTAL.value: 0.1,
    SourceType.ANNUAL_REPORT.value: 0.25,
    SourceType.COMPANY_WEBSITE.value: 0.3,
    SourceType.SEC.value: 0.3,
    SourceType.FCC.value: 0.3,
    SourceType.REGULATOR.value: 0.35,
    SourceType.WORLD_BANK.value: 0.5,
    SourceType.ITU.value: 0.5,
    SourceType.FREEDOM_HOUSE.value: 0.55,
    SourceType.COMMSUPDATE.value: 0.6,
    SourceType.NEWS.value: 0.9,
}


@dataclass(frozen=True)
class ReverificationItem:
    """One organization queued for re-checking, with its risk breakdown."""

    org_id: str
    org_name: str
    fragility: float                  # [0, 1], higher = check sooner
    reasons: Tuple[str, ...]


def _equity_margin_risk(total_equity: Optional[float]) -> Tuple[float, Optional[str]]:
    if total_equity is None:
        return 0.35, "control asserted without a percentage"
    margin = total_equity - 0.5
    if margin < 0.05:
        return 0.9, f"equity {total_equity:.1%} sits within 5 pts of the threshold"
    if margin < 0.15:
        return 0.5, f"equity {total_equity:.1%} within 15 pts of the threshold"
    return 0.1, None


def plan_reverification(
    result: PipelineResult, limit: Optional[int] = None
) -> List[ReverificationItem]:
    """Rank the dataset's organizations by re-verification urgency."""
    items: List[ReverificationItem] = []
    verdicts = result.verdicts
    for org in result.dataset.organizations():
        reasons: List[str] = []
        verdict = verdicts.get(normalize_name(org.org_name))

        equity = verdict.total_equity if verdict is not None else None
        margin_risk, margin_reason = _equity_margin_risk(equity)
        if margin_reason:
            reasons.append(margin_reason)

        structure_risk = 0.1
        if verdict is not None and (
            len(verdict.state_equity) > 1 or verdict.parent_candidates
        ):
            structure_risk = 0.5
            reasons.append("control via aggregated or indirect holdings")

        source_risk = _SOURCE_PERISHABILITY.get(org.source, 0.5)
        if source_risk >= 0.5:
            reasons.append(f"confirmed only via {org.source or 'unknown'}")

        churn_risk = {0: 0.5, 1: 0.3, 2: 0.1}.get(_TIER.get(org.ownership_cc, 1), 0.3)
        if churn_risk >= 0.5:
            reasons.append("home country has high ownership churn")

        subsidiary_risk = 0.4 if org.is_foreign_subsidiary else 0.1
        if org.is_foreign_subsidiary:
            reasons.append("foreign subsidiary (group restructuring risk)")

        fragility = min(
            1.0,
            0.35 * margin_risk
            + 0.2 * structure_risk
            + 0.2 * source_risk
            + 0.15 * churn_risk
            + 0.1 * subsidiary_risk,
        )
        items.append(
            ReverificationItem(
                org_id=org.org_id,
                org_name=org.org_name,
                fragility=round(fragility, 4),
                reasons=tuple(reasons),
            )
        )
    items.sort(key=lambda item: (-item.fragility, item.org_id))
    if limit is not None:
        return items[:limit]
    return items


# -- the longitudinal maintenance loop (repro maintain) ----------------------

_MANIFEST_VERSION = 1


@dataclass(frozen=True)
class SnapshotRecord:
    """One maintained snapshot: where it landed and what it reused."""

    label: str                         # "2021-07"
    dataset_path: str
    cti_path: Optional[str]
    events: Tuple[str, ...]
    provenance: Dict[str, object]
    #: True/False when --verify ran a cold recompute; None when it didn't.
    verified: Optional[bool] = None


@dataclass
class MaintainReport:
    """Everything one ``repro maintain`` invocation produced."""

    out_dir: str
    manifest_path: str
    snapshots: List[SnapshotRecord] = field(default_factory=list)
    published: Optional[str] = None

    def reused_fractions(self) -> List[float]:
        return [
            float(rec.provenance.get("reused_fraction", 0.0)) for rec in self.snapshots
        ]

    def as_text(self) -> str:
        lines = [
            f"{'snapshot':<10} {'events':>6} {'dirty':>6} " f"{'reused':>7} {'wall':>8}"
        ]
        for rec in self.snapshots:
            prov = rec.provenance
            lines.append(
                f"{rec.label:<10} {len(rec.events):>6} "
                f"{prov.get('dirty_origins', '-')!s:>6} "
                f"{prov.get('reused_fraction', 0.0):>7.2%} "
                f"{prov.get('wall_s', 0.0):>7.2f}s"
            )
        return "\n".join(lines)


def _event_text(event) -> str:
    text = f"{event.kind.value}: {event.operator_name} ({event.cc})"
    if event.detail:
        text += f" — {event.detail}"
    return text


def _export_snapshot(result: PipelineResult, dataset_path: Path):
    """Write one snapshot's dataset export plus its CTI sidecar."""
    from repro.io.jsonio import dump_cti_json, dump_json

    dump_json(result.dataset, dataset_path)
    cti_path = None
    if result.cti_selection is not None:
        cti_path = Path(f"{dataset_path}.cti.json")
        dump_cti_json(result.cti_selection, cti_path)
    return cti_path


def _verify_snapshot(
    world,
    dataset_path: Path,
    cti_path: Optional[Path],
    noise,
    fail_fast,
    context,
    config=None,
) -> bool:
    """Cold-recompute the snapshot and byte-compare against the export.

    The verification pipeline shares nothing with the incremental engine:
    fresh inputs, fresh analyst, fresh CTI computer, no result cache —
    exactly what a from-scratch run would produce.  Returns True when the
    exports are byte-identical; raises :class:`PipelineError` on drift.
    """
    from repro.core.pipeline import PipelineInputs, StateOwnershipPipeline

    inputs = PipelineInputs.from_world(world, noise=noise, fail_fast=fail_fast)
    result = StateOwnershipPipeline(
        inputs, config=config, fail_fast=fail_fast, context=context
    ).run()
    scratch = dataset_path.with_name(dataset_path.name + ".verify")
    cold_cti = _export_snapshot(result, scratch)
    try:
        if scratch.read_bytes() != dataset_path.read_bytes():
            raise PipelineError(
                f"incremental export {dataset_path.name} drifted from the "
                "cold recompute"
            )
        if (cold_cti is None) != (cti_path is None):
            raise PipelineError(
                f"incremental run and cold recompute disagree on the CTI "
                f"sidecar for {dataset_path.name}"
            )
        if cold_cti is not None and cti_path is not None:
            if cold_cti.read_bytes() != cti_path.read_bytes():
                raise PipelineError(
                    f"incremental CTI sidecar {cti_path.name} drifted from "
                    "the cold recompute"
                )
    finally:
        scratch.unlink(missing_ok=True)
        if cold_cti is not None:
            cold_cti.unlink(missing_ok=True)
    return True


def _publish(dataset_path: Path, cti_path: Optional[Path], target: Path) -> None:
    """Atomically install the latest snapshot where ``repro serve`` watches.

    The sidecar lands first so a reloader that picks up the new dataset
    never sees a stale CTI file next to it.
    """
    from repro.io.atomic import atomic_replace

    target.parent.mkdir(parents=True, exist_ok=True)
    if cti_path is not None:
        with atomic_replace(Path(f"{target}.cti.json")) as tmp:
            shutil.copyfile(cti_path, tmp)
    with atomic_replace(target) as tmp:
        shutil.copyfile(dataset_path, tmp)


def run_maintenance(
    world,
    out_dir: Union[str, Path],
    months: int,
    start_year: int = 2021,
    start_month: int = 7,
    rates=None,
    noise=None,
    config=None,
    parallel=None,
    fail_fast: bool = False,
    context=None,
    cache=None,
    cold: bool = False,
    verify: bool = False,
    publish: Optional[Union[str, Path]] = None,
) -> MaintainReport:
    """Walk a monthly snapshot sequence, recomputing only what churn dirties.

    The first snapshot is the baseline (no churn, necessarily a cold
    compute); each later month applies one month of ownership churn to the
    world in place, then re-runs the pipeline through the
    :class:`~repro.incremental.engine.IncrementalEngine` — or from scratch
    with ``cold=True``, the comparison baseline.  Every snapshot is
    exported as ``snapshot-YYYY-MM.json`` (+ ``.cti.json`` sidecar, the
    pair ``repro serve`` hot-swaps), and a ``MAINTAIN.json`` manifest
    records per-snapshot events, reuse provenance and wall time.

    ``verify=True`` cold-recomputes every snapshot and byte-compares the
    exports — the equivalence gate CI runs; drift raises
    :class:`PipelineError`.
    """
    from repro.incremental.engine import IncrementalEngine
    from repro.world.events import ChurnSimulator

    if months < 1:
        raise PipelineError("maintain needs at least one snapshot month")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    simulator = ChurnSimulator(world, rates)
    engine = None
    if not cold:
        engine = IncrementalEngine(
            config=config,
            noise=noise,
            fail_fast=fail_fast,
            parallel=parallel,
            cache=cache,
        )
    report = MaintainReport(
        out_dir=str(out_path),
        manifest_path=str(out_path / "MAINTAIN.json"),
    )
    for offset in range(months):
        absolute = start_month - 1 + offset
        year = start_year + absolute // 12
        month = absolute % 12 + 1
        label = f"{year:04d}-{month:02d}"
        events: Tuple[str, ...] = ()
        if offset > 0:
            batch = simulator.simulate_months(year, 1, start_month=month)[0]
            events = tuple(_event_text(e) for e in batch)
        if engine is not None:
            run = engine.run_snapshot(world, context=context, events=events)
            result, provenance = run.result, run.provenance
        else:
            import time as _time

            from repro.core.pipeline import (
                PipelineInputs,
                StateOwnershipPipeline,
            )

            t0 = _time.perf_counter()
            # A fresh process would propagate every routing tree anew;
            # drop the world-level tree cache so the cold baseline does
            # not inherit the previous snapshot's warm trees.
            world.collector.reset_cache()
            inputs = PipelineInputs.from_world(
                world, noise=noise, fail_fast=fail_fast
            )
            result = StateOwnershipPipeline(
                inputs,
                config=config,
                parallel=parallel,
                fail_fast=fail_fast,
                context=context,
            ).run()
            provenance = {
                "events": list(events),
                "mode": "cold",
                "reused_fraction": 0.0,
                "dirty_origins": None,
                "wall_s": round(_time.perf_counter() - t0, 3),
            }
        dataset_path = out_path / f"snapshot-{label}.json"
        cti_path = _export_snapshot(result, dataset_path)
        verified = None
        if verify:
            verified = _verify_snapshot(
                world,
                dataset_path,
                cti_path,
                noise,
                fail_fast,
                context,
                config=config,
            )
        report.snapshots.append(
            SnapshotRecord(
                label=label,
                dataset_path=str(dataset_path),
                cti_path=str(cti_path) if cti_path is not None else None,
                events=events,
                provenance=dict(provenance),
                verified=verified,
            )
        )
    manifest = {
        "format_version": _MANIFEST_VERSION,
        "snapshots": [
            {
                "label": rec.label,
                "dataset": Path(rec.dataset_path).name,
                "cti": Path(rec.cti_path).name if rec.cti_path else None,
                "events": list(rec.events),
                "provenance": rec.provenance,
                "verified": rec.verified,
            }
            for rec in report.snapshots
        ],
    }
    from repro.io.atomic import atomic_replace

    with atomic_replace(Path(report.manifest_path)) as tmp:
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    if publish and report.snapshots:
        last = report.snapshots[-1]
        _publish(
            Path(last.dataset_path),
            Path(last.cti_path) if last.cti_path else None,
            Path(publish),
        )
        report.published = str(publish)
    return report
