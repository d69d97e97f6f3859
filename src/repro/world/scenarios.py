"""Adversarial scenario packs: declarative world perturbations + assertions.

The paper's CTI analysis is only meaningful if policy-sensitive events can
actually move the metric; with the policy routing engine of
:mod:`repro.net.routing` they now can.  This module turns the obvious
state-intervention scenarios into *packs*: each pack

1. **plans** a perturbation against a pristine baseline (adaptively — it
   inspects baseline CTI to pick the country/AS where the effect is
   measurable, so the pack is robust across seeds and scales);
2. **applies** it to a cloned world (a routing policy, a rebuilt topology,
   or an ownership mutation);
3. re-runs the full identification pipeline and **checks** directional
   assertions on how CTI mass and precision/recall shift.

Every pack draws randomness from a seed derived per pack name, mutates only
its own clone of the world, and reports through a canonical JSON encoding —
same seed, same packs, byte-identical report.  The ``scenario-smoke`` CI
job runs the whole library twice and fails on any drift.

Packs double as an integration gauntlet for the degradation paths: the
``route_leak_degraded`` pack injects a fatal Orbis fault mid-leak and
asserts the run still completes with the leak assertions intact.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import WorldError
from repro.net.routing import RoutingPolicy
from repro.net.topology import ASGraph
from repro.resilience import FaultPlan, fault_plan_installed
from repro.rng import derive_seed
from repro.world.events import privatize_operator

import random

# The pipeline layers sit above repro.world in the import graph (sources
# re-use world entity types), so scenario packs import them lazily.


def _pipeline_api():
    from repro.core.pipeline import PipelineInputs, StateOwnershipPipeline
    from repro.core.validation import validate_against_world
    from repro.cti.metric import CTIComputer

    return PipelineInputs, StateOwnershipPipeline, validate_against_world, CTIComputer

__all__ = [
    "Assertion",
    "PackOutcome",
    "ScenarioReport",
    "ScenarioPack",
    "BaselineProbe",
    "SCENARIO_PACKS",
    "all_pack_names",
    "run_scenario_packs",
]


@dataclass(frozen=True)
class Assertion:
    """One directional claim a pack makes about the perturbed world."""

    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class PackOutcome:
    """Everything one pack produced: plan, both metric bundles, verdicts."""

    name: str
    description: str
    plan: dict
    baseline: dict
    perturbed: dict
    assertions: List[Assertion]

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "plan": self.plan,
            "baseline": self.baseline,
            "perturbed": self.perturbed,
            "assertions": [a.as_dict() for a in self.assertions],
            "passed": self.passed,
        }


@dataclass
class ScenarioReport:
    """The full scenario-matrix result (canonically JSON-serializable)."""

    seed: int
    scale: float
    outcomes: List[PackOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "scale": self.scale,
            "packs": {o.name: o.as_dict() for o in self.outcomes},
            "packs_total": len(self.outcomes),
            "packs_passed": sum(1 for o in self.outcomes if o.passed),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        """Canonical byte-stable encoding (the CI drift gate compares it)."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def as_text(self) -> str:
        lines = [
            f"scenario matrix  seed={self.seed} scale={self.scale}",
            "",
        ]
        for outcome in self.outcomes:
            flag = "PASS" if outcome.passed else "FAIL"
            lines.append(f"[{flag}] {outcome.name}")
            for a in outcome.assertions:
                mark = "ok" if a.passed else "FAILED"
                lines.append(f"    {mark:6s} {a.name}: {a.detail}")
        lines.append("")
        lines.append(
            f"{sum(1 for o in self.outcomes if o.passed)}"
            f"/{len(self.outcomes)} packs passed"
        )
        return "\n".join(lines)


class BaselineProbe:
    """Read-only view of the pristine world + its baseline pipeline run.

    Packs use it during planning to aim their perturbation where the
    baseline metric actually has mass; the runner uses it to freeze the
    "before" side of every directional assertion.
    """

    def __init__(self, world, inputs, result) -> None:
        _, _, validate_against_world, CTIComputer = _pipeline_api()
        self.world = world
        self.inputs = inputs
        self.result = result
        self.validation = validate_against_world(result, world)
        self.cti = CTIComputer(inputs.prefix2as, inputs.geolocation, inputs.collector)

    def eligible_ccs(self) -> List[str]:
        return sorted(self.inputs.cti_eligible_ccs)

    def country_cti(self, cc: str) -> Dict[int, float]:
        return self.cti.country_cti(cc)

    def top_influencers(self, cc: str, k: int = 5) -> List[Tuple[int, float]]:
        scores = self.country_cti(cc)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


class ScenarioPack:
    """Base class: a named perturbation with directional assertions."""

    name: str = ""
    description: str = ""
    #: Optional fault-injection plan installed around the perturbed run
    #: (exercises the degradation paths under scenario stress).
    fault_plan: Optional[str] = None

    def plan(self, probe: BaselineProbe, rng: random.Random) -> dict:
        raise NotImplementedError

    def apply(self, world, plan: dict, rng: random.Random) -> None:
        raise NotImplementedError

    def check(self, plan: dict, baseline: dict, perturbed: dict) -> List[Assertion]:
        raise NotImplementedError

    def extra_metrics(self, world, plan: dict) -> dict:
        """Pack-specific observables computed on *both* sides of the
        perturbation (merged into each metric bundle)."""
        return {}

    # -- shared metric helpers -------------------------------------------------
    @staticmethod
    def _cti_of(bundle: dict, cc: str) -> Dict[int, float]:
        return {int(k): v for k, v in bundle["cti"].get(cc, {}).items()}

    @staticmethod
    def _mass(scores: Dict[int, float], asns: Sequence[int]) -> float:
        return sum(scores.get(a, 0.0) for a in asns)


# ---------------------------------------------------------------------------
# Pack implementations
# ---------------------------------------------------------------------------


class DepeeringPack(ScenarioPack):
    """A dominant transit AS depeers: all its settlement-free adjacencies
    go administratively down.  Monitor-observed paths stop crossing the
    cut adjacencies entirely, and the AS — chosen at plan time as the one
    whose CTI footprint rides hardest on its peer edges — loses CTI."""

    name = "depeering"
    description = (
        "peer-dependent top gateway tears down all peering sessions; "
        "observed paths lose the cut edges and CTI mass redistributes"
    )

    def plan(self, probe: BaselineProbe, rng: random.Random) -> dict:
        graph = probe.world.graph
        best = None
        for cc in probe.eligible_ccs():
            ranked = probe.top_influencers(cc, k=1)
            if not ranked:
                continue
            gateway, score = ranked[0]
            peers = sorted(graph.peers_of(gateway))
            if not peers:
                continue
            origins = probe.cti.scored_origins(cc)
            crossings = self._edge_crossings(probe.world, origins, gateway, peers)
            if crossings == 0:
                continue
            key = (crossings, score, cc)
            if best is None or key > best[0]:
                best = (key, cc, gateway, peers, origins)
        if best is None:
            raise WorldError("no CTI-eligible gateway whose paths cross its peer edges")
        _, cc, gateway, peers, origins = best
        return {
            "focus_ccs": [cc],
            "gateway": gateway,
            "peers": peers,
            "origins": origins,
            "down_edges": [[gateway, p] for p in peers],
        }

    def apply(self, world, plan: dict, rng: random.Random) -> None:
        world.set_routing_policy(
            RoutingPolicy.build(down_edges=[tuple(e) for e in plan["down_edges"]])
        )

    def extra_metrics(self, world, plan: dict) -> dict:
        return {
            "edge_crossings": self._edge_crossings(
                world, plan["origins"], plan["gateway"], plan["peers"]
            )
        }

    @staticmethod
    def _edge_crossings(
        world, origins: Sequence[int], gateway: int, peers: Sequence[int]
    ) -> int:
        """Monitor paths (to the scored origins) crossing a gateway-peer
        adjacency — the traffic a depeering directly tears down."""
        peer_set = set(peers)
        collector = world.collector
        count = 0
        for origin in origins:
            for path in collector.paths_to(origin).values():
                for a, b in zip(path, path[1:]):
                    if (a == gateway and b in peer_set) or (
                        b == gateway and a in peer_set
                    ):
                        count += 1
                        break
        return count

    def check(self, plan, baseline, perturbed) -> List[Assertion]:
        cc = plan["focus_ccs"][0]
        cross_before = baseline["edge_crossings"]
        cross_after = perturbed["edge_crossings"]
        before = self._cti_of(baseline, cc)
        after = self._cti_of(perturbed, cc)
        shift = sum(
            abs(after.get(a, 0.0) - before.get(a, 0.0))
            for a in set(before) | set(after)
        )
        return [
            Assertion(
                "cut_edges_vanish_from_paths",
                cross_before > 0 and cross_after == 0,
                f"paths crossing cut adjacencies "
                f"{cross_before} -> {cross_after}",
            ),
            Assertion(
                # Rerouting off the cut adjacencies must move CTI mass
                # between the ASes above the gateway (which AS depends on
                # where the gateway sits — a chokepoint keeps its own
                # score, an edge-dependent gateway loses it — so the
                # robust directional claim is on the distribution).
                "cti_distribution_shifts",
                shift > 0.0,
                f"cc={cc} CTI L1 shift {shift:.6f} across "
                f"{len(set(before) | set(after))} ASes",
            ),
        ]


def _leak_plan(probe: BaselineProbe) -> dict:
    """Shared planner for the route-leak packs.

    The leaker is a multi-homed AS with peers that today carries *no* CTI
    for the focus country; once it re-exports everything, its providers
    receive customer-class (most-preferred) routes through it and traffic
    funnels in — the classic leak amplification.
    """
    graph = probe.world.graph
    best = None
    for cc in probe.eligible_ccs():
        scores = probe.country_cti(cc)
        if not scores:
            continue
        total = sum(scores.values())
        if best is None or (total, cc) > (best[0], best[1]):
            best = (total, cc, scores)
    if best is None:
        raise WorldError("no CTI-eligible country with baseline CTI mass")
    _, cc, scores = best
    candidates = []
    for asn in graph.asns:
        if scores.get(asn, 0.0) > 0.0:
            continue
        n_prov = len(graph.providers_of(asn))
        n_peer = len(graph.peers_of(asn))
        if n_prov >= 2 and n_peer >= 1:
            candidates.append((n_prov + n_peer, -asn, asn))
    if not candidates:
        raise WorldError("no leak candidate (multi-homed, zero baseline CTI)")
    candidates.sort(reverse=True)
    leaker = candidates[0][2]
    return {"focus_ccs": [cc], "leaker": leaker}


class RouteLeakPack(ScenarioPack):
    """A multi-homed AS leaks its full table.  Its providers pick up
    customer-class routes through it, pulling monitor-observed paths (and
    with them CTI mass) through an AS that previously carried none."""

    name = "route_leak"
    description = (
        "multi-homed AS re-exports everything; it acquires CTI for the "
        "focus country it never transited before"
    )

    def plan(self, probe: BaselineProbe, rng: random.Random) -> dict:
        return _leak_plan(probe)

    def apply(self, world, plan: dict, rng: random.Random) -> None:
        world.set_routing_policy(RoutingPolicy.build(leakers=[plan["leaker"]]))

    def check(self, plan, baseline, perturbed) -> List[Assertion]:
        cc = plan["focus_ccs"][0]
        leaker = plan["leaker"]
        before = self._cti_of(baseline, cc).get(leaker, 0.0)
        after = self._cti_of(perturbed, cc).get(leaker, 0.0)
        return [
            Assertion(
                "leaker_gains_cti",
                after > before,
                f"cc={cc} leaker AS{leaker} CTI {before:.6f} -> {after:.6f}",
            ),
        ]


class RouteLeakDegradedPack(RouteLeakPack):
    """The same leak with the Orbis feed failing fatally mid-run: the
    degradation paths must absorb the fault (run completes, provenance
    flags exactly Orbis) while the leak's routing effect still lands."""

    name = "route_leak_degraded"
    description = (
        "route leak with a fatal Orbis fault injected; run degrades "
        "gracefully and the leak assertion still holds"
    )
    fault_plan = "seed=9;source.orbis=fatal"

    def check(self, plan, baseline, perturbed) -> List[Assertion]:
        assertions = super().check(plan, baseline, perturbed)
        flags = perturbed.get("degraded_sources", [])
        assertions.append(
            Assertion(
                "degrades_to_orbis_only",
                flags == ["O"],
                f"degraded_sources={flags!r} (expected ['O'])",
            )
        )
        return assertions


class PrefixHijackPack(ScenarioPack):
    """A foreign tier-1 announces the focus country's largest origin.
    Monitors near the hijacker capture its announcement, so paths to the
    victim bifurcate and the legitimate transit chain loses CTI."""

    name = "prefix_hijack"
    description = (
        "tier-1 AS originates the focus country's largest origin; part "
        "of the monitor fleet is captured and legitimate transit loses CTI"
    )

    def plan(self, probe: BaselineProbe, rng: random.Random) -> dict:
        world = probe.world
        best = None
        for cc in probe.eligible_ccs():
            ranked = probe.top_influencers(cc, k=1)
            origins = probe.cti.scored_origins(cc)
            if not ranked or not origins:
                continue
            counts = world.true_address_counts()
            victim = max(origins, key=lambda a: (counts.get(a, 0), -a))
            key = (ranked[0][1], cc)
            if best is None or key > best[0]:
                best = (key, cc, victim, ranked[0][0])
        if best is None:
            raise WorldError("no CTI-eligible country with scored origins")
        _, cc, victim, top_as = best
        hijackers = [
            t
            for t in sorted(world.tier1_asns)
            if world.country_of_asn(t) != cc and t != victim
        ]
        if not hijackers:
            raise WorldError("no foreign tier-1 available as hijacker")
        return {
            "focus_ccs": [cc],
            "victim": victim,
            "hijacker": hijackers[0],
            "baseline_top_as": top_as,
        }

    def apply(self, world, plan: dict, rng: random.Random) -> None:
        world.set_routing_policy(
            RoutingPolicy.build(hijacks={plan["victim"]: [plan["hijacker"]]})
        )

    def extra_metrics(self, world, plan: dict) -> dict:
        """Monitors whose preferred path to the victim ends at the
        hijacker — the observable capture footprint (0 at baseline)."""
        hijacker = plan["hijacker"]
        captured = sum(
            1
            for path in world.collector.paths_to(plan["victim"]).values()
            if path[-1] == hijacker
        )
        return {"captured_monitors": captured}

    def check(self, plan, baseline, perturbed) -> List[Assertion]:
        cc = plan["focus_ccs"][0]
        top_as = plan["baseline_top_as"]
        before = self._cti_of(baseline, cc).get(top_as, 0.0)
        after = self._cti_of(perturbed, cc).get(top_as, 0.0)
        captured = perturbed.get("captured_monitors", 0)
        return [
            Assertion(
                "monitors_captured",
                captured > 0,
                f"{captured} monitors resolve the victim via the hijacker",
            ),
            Assertion(
                "legit_transit_loses_cti",
                after < before,
                f"cc={cc} top AS{top_as} CTI {before:.6f} -> {after:.6f}",
            ),
        ]


class SanctionsRehomingPack(ScenarioPack):
    """Sanctions cut the focus country's origins off their foreign
    providers; they re-home behind the domestic gateway, which becomes the
    choke point — its CTI must rise."""

    name = "sanctions_rehoming"
    description = (
        "origins drop foreign providers and re-home behind the domestic "
        "gateway; the gateway's CTI concentration increases"
    )

    def plan(self, probe: BaselineProbe, rng: random.Random) -> dict:
        world = probe.world
        graph = world.graph
        best = None
        for cc in probe.eligible_ccs():
            gateways = world.gateway_asns.get(cc, [])
            if not gateways:
                continue
            scores = probe.country_cti(cc)
            gateway = max(gateways, key=lambda g: (scores.get(g, 0.0), -g))
            cut: List[List[int]] = []
            rehomed: List[int] = []
            for asn, record in sorted(world.asn_records.items()):
                if record.cc != cc or asn == gateway:
                    continue
                foreign = [
                    p for p in graph.providers_of(asn) if world.country_of_asn(p) != cc
                ]
                if not foreign:
                    continue
                cut.extend([asn, p] for p in sorted(foreign))
                if (
                    graph.relationship(asn, gateway) is None
                    and gateway not in graph.customer_cone(asn)
                ):
                    rehomed.append(asn)
            if not cut or not rehomed:
                continue
            key = (len(cut), scores.get(gateway, 0.0), cc)
            if best is None or key > best[0]:
                best = (key, cc, gateway, cut, rehomed)
        if best is None:
            raise WorldError("no country with foreign provider edges to cut")
        _, cc, gateway, cut, rehomed = best
        return {
            "focus_ccs": [cc],
            "gateway": gateway,
            "cut_c2p": cut,
            "rehomed": rehomed,
        }

    def apply(self, world, plan: dict, rng: random.Random) -> None:
        drop = {(c, p) for c, p in (tuple(e) for e in plan["cut_c2p"])}
        adds = [(asn, plan["gateway"]) for asn in plan["rehomed"]]
        world.rewire(_rebuild_graph(world.graph, drop, adds))

    def check(self, plan, baseline, perturbed) -> List[Assertion]:
        cc = plan["focus_ccs"][0]
        gateway = plan["gateway"]
        before = self._cti_of(baseline, cc).get(gateway, 0.0)
        after = self._cti_of(perturbed, cc).get(gateway, 0.0)
        foreign = sorted({p for _, p in (tuple(e) for e in plan["cut_c2p"])})
        f_before = self._mass(self._cti_of(baseline, cc), foreign)
        f_after = self._mass(self._cti_of(perturbed, cc), foreign)
        return [
            Assertion(
                "gateway_cti_rises",
                after > before,
                f"cc={cc} gateway AS{gateway} CTI {before:.6f} -> {after:.6f}",
            ),
            Assertion(
                "foreign_provider_cti_drops",
                f_after < f_before,
                f"cc={cc} ex-providers' CTI mass {f_before:.6f} -> {f_after:.6f}",
            ),
        ]


class PrivatizationWavePack(ScenarioPack):
    """Several state carriers the pipeline currently identifies are sold
    below the control threshold.  Ground truth shrinks, and the frozen
    baseline dataset decays: its precision against the *new* truth drops
    (the paper's §9 ageing argument, now as an executable assertion)."""

    name = "privatization_wave"
    description = (
        "state carriers found by the baseline run are privatized; truth "
        "shrinks and the frozen dataset's precision decays"
    )

    #: How many operators the wave privatizes (fewer if the baseline run
    #: identified fewer).
    wave_size = 3

    def plan(self, probe: BaselineProbe, rng: random.Random) -> dict:
        dataset_asns = set(probe.result.state_owned_asns())
        candidates = []
        for gto in probe.world.ground_truth():
            hit = sorted(set(gto.asns) & dataset_asns)
            if hit and not gto.is_foreign_subsidiary:
                candidates.append(
                    (len(hit), len(gto.asns), gto.operator.entity_id, hit)
                )
        if not candidates:
            raise WorldError("baseline run found no true state operators")
        candidates.sort(key=lambda c: (-c[0], -c[1], c[2]))
        wave = candidates[: self.wave_size]
        return {
            "focus_ccs": [],
            "operators": [c[2] for c in wave],
            "privatized_asns": sorted({a for c in wave for a in c[3]}),
        }

    def apply(self, world, plan: dict, rng: random.Random) -> None:
        targets = set(plan["operators"])
        for gto in list(world.ground_truth()):
            if gto.operator.entity_id in targets:
                privatize_operator(world, gto, rng, year=2026)

    def check(self, plan, baseline, perturbed) -> List[Assertion]:
        privatized = set(plan["privatized_asns"])
        truth_before = set(baseline["truth_asns"])
        truth_after = set(perturbed["truth_asns"])
        dataset_before = set(baseline["dataset_asns"])
        dataset_after = set(perturbed["dataset_asns"])
        frozen_tp = len(dataset_before & truth_after)
        frozen_precision = frozen_tp / len(dataset_before) if dataset_before else 0.0
        return [
            Assertion(
                "ground_truth_shrinks",
                len(truth_after) < len(truth_before),
                f"truth ASNs {len(truth_before)} -> {len(truth_after)}",
            ),
            Assertion(
                "frozen_dataset_precision_decays",
                frozen_precision < baseline["asn_precision"],
                f"frozen precision {frozen_precision:.4f} < baseline "
                f"{baseline['asn_precision']:.4f}",
            ),
            Assertion(
                "pipeline_drops_privatized_asns",
                len(privatized & dataset_after)
                < len(privatized & dataset_before),
                f"privatized ASNs in dataset "
                f"{len(privatized & dataset_before)} -> "
                f"{len(privatized & dataset_after)}",
            ),
        ]


def _rebuild_graph(
    old: ASGraph,
    drop_c2p: set,
    add_c2p: Sequence[Tuple[int, int]],
) -> ASGraph:
    """Rebuild a topology minus ``drop_c2p`` edges, plus ``add_c2p``.

    :class:`ASGraph` deliberately has no edge removal (dense adjacency
    arrays are append-only), so scenario perturbations rebuild.  Node
    order is preserved; edge *insertion* order may differ from the
    original build, which is routing-safe because propagation sorts
    adjacency by ASN at every step.
    """
    g = ASGraph()
    for asn in old.asns:
        g.add_as(asn)
    for asn in old.asns:
        for provider in old.providers_of(asn):
            if (asn, provider) in drop_c2p:
                continue
            g.add_c2p(asn, provider)
    seen = set()
    for asn in old.asns:
        for peer in old.peers_of(asn):
            edge = (asn, peer) if asn <= peer else (peer, asn)
            if edge in seen:
                continue
            seen.add(edge)
            g.add_p2p(*edge)
    for customer, provider in add_c2p:
        g.add_c2p(customer, provider)
    return g


#: Registry, in report order.  ≥5 packs assert directional CTI /
#: precision-recall shifts (the scenario-smoke acceptance bar).
SCENARIO_PACKS: Tuple[ScenarioPack, ...] = (
    DepeeringPack(),
    RouteLeakPack(),
    PrefixHijackPack(),
    SanctionsRehomingPack(),
    PrivatizationWavePack(),
    RouteLeakDegradedPack(),
)


def all_pack_names() -> List[str]:
    return [p.name for p in SCENARIO_PACKS]


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _clone_world(world):
    """Deep-copy a world for mutation, leaving derived caches behind."""
    collector, truth = world._collector, world._truth_cache
    world._collector = None
    world._truth_cache = None
    try:
        clone = copy.deepcopy(world)
    finally:
        world._collector = collector
        world._truth_cache = truth
    return clone


def _run_pipeline(world, context=None):
    PipelineInputs, StateOwnershipPipeline, _, _ = _pipeline_api()
    inputs = PipelineInputs.from_world(world)
    result = StateOwnershipPipeline(inputs, context=context).run()
    return inputs, result


def _metric_bundle(world, inputs, result, focus_ccs: Sequence[str]) -> dict:
    """The comparable "side" of a pack: validation + focus-country CTI."""
    _, _, validate_against_world, CTIComputer = _pipeline_api()
    validation = validate_against_world(result, world)
    cti = CTIComputer(inputs.prefix2as, inputs.geolocation, inputs.collector)
    return {
        "asn_precision": validation.asn_precision,
        "asn_recall": validation.asn_recall,
        "asn_f1": validation.asn_f1,
        "company_precision": validation.company_precision,
        "company_recall": validation.company_recall,
        "dataset_asns": sorted(result.state_owned_asns()),
        "truth_asns": sorted(world.ground_truth_asns()),
        "degraded_sources": sorted(s.value for s in result.degraded_sources),
        "cti": {
            cc: {str(asn): score for asn, score in sorted(cti.country_cti(cc).items())}
            for cc in sorted(focus_ccs)
        },
    }


def run_scenario_packs(
    world,
    names: Optional[Sequence[str]] = None,
    context=None,
) -> ScenarioReport:
    """Run scenario packs against ``world`` and collect the report.

    ``world`` is the pristine baseline and is never mutated: every pack
    perturbs its own deep copy.  Pack randomness comes from
    ``derive_seed(world seed, "scenario:<pack>")``, so a report is a pure
    function of (seed, scale, pack list).
    """
    by_name = {p.name: p for p in SCENARIO_PACKS}
    selected: List[ScenarioPack] = []
    for name in names if names else all_pack_names():
        if name not in by_name:
            raise WorldError(
                f"unknown scenario pack {name!r} "
                f"(available: {', '.join(all_pack_names())})"
            )
        selected.append(by_name[name])

    base_inputs, base_result = _run_pipeline(world, context=context)
    probe = BaselineProbe(world, base_inputs, base_result)

    report = ScenarioReport(seed=world.config.seed, scale=world.config.scale)
    for pack in selected:
        rng = random.Random(derive_seed(world.config.seed, f"scenario:{pack.name}"))
        plan = pack.plan(probe, rng)
        focus = plan.get("focus_ccs", [])
        baseline = _metric_bundle(world, base_inputs, base_result, focus)
        baseline.update(pack.extra_metrics(world, plan))

        clone = _clone_world(world)
        pack.apply(clone, plan, rng)
        fault = FaultPlan.parse(pack.fault_plan) if pack.fault_plan else None
        with fault_plan_installed(fault):
            inputs, result = _run_pipeline(clone, context=context)
        perturbed = _metric_bundle(clone, inputs, result, focus)
        perturbed.update(pack.extra_metrics(clone, plan))

        report.outcomes.append(
            PackOutcome(
                name=pack.name,
                description=pack.description,
                plan=plan,
                baseline=baseline,
                perturbed=perturbed,
                assertions=pack.check(plan, baseline, perturbed),
            )
        )
    return report
