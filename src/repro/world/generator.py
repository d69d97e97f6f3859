"""The synthetic ground-truth world generator.

Materializes a full world from a :class:`~repro.config.WorldConfig`:

* governments, funds, holdings, private groups and operator companies with
  equity stakes reproducing the ownership archetypes of the paper;
* foreign subsidiaries following the configured expansion profiles;
* ASN delegations with realistic registered names (including stale and
  unrelated local aliases);
* IPv4 prefixes and eyeball populations sized by country;
* a valley-free AS-level topology (tier-1 clique, international carriers,
  country gateways, domestic operators, sibling ASNs, long-tail networks);
* a set of BGP monitors.

Everything is deterministic given the config's seed.  The derived data
sources (:mod:`repro.sources`) and the classification pipeline only see
noisy projections of this world; the world itself is the scoring oracle.

Generation is **plan/commit split**:

* *plan*: each country's market plan, operator companies, ownership
  scaffolding, ASN sizing, excluded organizations and long tail are
  computed by a pure function of ``(config, country)`` on a dedicated RNG
  substream (``market:<cc>``, ``operators:<cc>``, ``names:<cc>``...);
  topology wiring and the expansion profiles are planned the same way
  (``topology:<cc>``, ``expansion:<cc>``).
* *commit*: plans are applied in the fixed country order — ASN numbers
  and address blocks are drawn here, global name uniqueness is enforced
  here, and cross-country edges (regional export) are resolved here.

The substreams and the commit order are what fix the output bytes, so
they stay even though every phase runs inline, one country after another.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.config import WorldConfig
from repro.errors import WorldError
from repro.net.asn import ASNAllocator
from repro.net.monitors import MonitorSet, RouteCollector
from repro.net.prefix import Prefix, summarize_address_counts
from repro.net.routing import RoutingPolicy
from repro.net.topology import ASGraph
from repro.obs import get_metrics, span
from repro.rng import SeedSequenceFactory
from repro.text.names import NameForge
from repro.text.normalize import normalize_name
from repro.world.countries import COUNTRIES, Country
from repro.world.entities import (
    AsnRecord,
    Entity,
    EntityKind,
    Operator,
    OperatorRole,
    OperatorScope,
    OwnershipStake,
)
from repro.world.markets import CountryMarketPlan, OperatorPlan, plan_country
from repro.world.ownership import OwnershipGraph

__all__ = ["World", "WorldGenerator", "GroundTruthOperator"]

#: Countries whose flagship state carrier acts as an international transit
#: provider (big customer cones — the Table 5 archetypes: SingTel,
#: Rostelecom, China Telecom, Angola Cables, Internexa, Swisscom, Exatel,
#: BSCCL...).
#: Bumped whenever a change alters the world a given config generates, so
#: cached world blobs written by older revisions are never served stale.
GENERATOR_VERSION = 4

INTERNATIONAL_CARRIER_CCS: Tuple[str, ...] = (
    "SG",
    "RU",
    "CN",
    "AO",
    "CO",
    "CH",
    "PL",
    "BD",
    "QA",
    "AE",
    "NO",
    "MY",
)

#: Advanced economies hosting the private global tier-1 carriers.
_TIER1_HOME_CCS: Tuple[str, ...] = (
    "US",
    "US",
    "US",
    "GB",
    "DE",
    "FR",
    "JP",
    "NL",
    "SE",
    "IT",
)

#: Private multinational groups (America-Movil-style) that own operators in
#: several countries; they create the Orbis false-positive surface.
_PRIVATE_GROUP_HOME_CCS: Tuple[str, ...] = ("MX", "ES", "GB", "IN", "FR", "ZA")

_COUNTRY_BY_CC: Dict[str, Country] = {c.cc: c for c in COUNTRIES}

#: Distinguishing words for commit-time name de-duplication.  The pool is
#: a synthesized head×tail cross product (600 distinct invented words, e.g.
#: "Velvia", "Nordane") rather than the forge's 20 generic English salts:
#: several thousand renames happen at full scale, and a small pool would
#: make every salt a *high-frequency registry token* — fattening the
#: token-index candidate sets the company mapper scores, which measurably
#: doubles mapping wall time.  Rare invented tokens keep each candidate
#: set small and make renamed names highly distinctive to match.
_SALT_HEADS: Tuple[str, ...] = (
    "Vel",
    "Nor",
    "Zen",
    "Ald",
    "Bren",
    "Cor",
    "Dal",
    "Eri",
    "Fen",
    "Gal",
    "Hel",
    "Ost",
    "Jur",
    "Kel",
    "Lum",
    "Mir",
    "Nex",
    "Ori",
    "Pel",
    "Quor",
    "Rav",
    "Sol",
    "Tarn",
    "Ulm",
    "Vor",
    "Wes",
    "Xan",
    "Yar",
    "Zor",
    "Arc",
)
_SALT_TAILS: Tuple[str, ...] = (
    "via",
    "dane",
    "mont",
    "tara",
    "lith",
    "band",
    "mere",
    "stad",
    "wick",
    "holm",
    "gate",
    "ford",
    "nova",
    "crest",
    "field",
    "haven",
    "port",
    "reach",
    "ridge",
    "vale",
)
_SALT_WORDS: Tuple[str, ...] = tuple(
    head + tail for head in _SALT_HEADS for tail in _SALT_TAILS
)


@dataclass
class GroundTruthOperator:
    """One confirmed-by-construction state-owned Internet operator."""

    operator: Operator
    controlling_cc: str
    is_foreign_subsidiary: bool
    parent_operator_id: Optional[str]
    asns: Tuple[int, ...]


@dataclass
class World:
    """A fully materialized synthetic world (the scoring oracle)."""

    config: WorldConfig
    countries: Tuple[Country, ...]
    ownership: OwnershipGraph
    plans: Dict[str, CountryMarketPlan]
    asn_records: Dict[int, AsnRecord]
    operator_asns: Dict[str, List[int]]
    graph: ASGraph
    monitors: MonitorSet
    tier1_asns: Tuple[int, ...]
    international_carrier_asns: Dict[str, int]   # cc -> carrier ASN
    gateway_asns: Dict[str, List[int]]            # cc -> gateway ASNs
    transit_dominant_ccs: Set[str]
    routing_policy: Optional[RoutingPolicy] = field(default=None, repr=False)
    _collector: Optional[RouteCollector] = field(default=None, repr=False)
    _truth_cache: Optional[List[GroundTruthOperator]] = field(default=None, repr=False)

    # -- derived views -------------------------------------------------------
    @property
    def collector(self) -> RouteCollector:
        """Lazy route collector over the world's monitors."""
        if self._collector is None:
            self._collector = RouteCollector(
                self.graph, self.monitors, policy=self.routing_policy
            )
        return self._collector

    def set_routing_policy(self, policy: Optional[RoutingPolicy]) -> None:
        """Install (or clear) a routing policy, invalidating cached trees.

        ``None`` routes neutrally, exactly like a neutral policy; every
        subsequent path lookup propagates under the installed policy.
        """
        self.routing_policy = policy
        self._collector = None

    def rewire(self, graph: ASGraph) -> None:
        """Swap in a rebuilt topology (scenario re-homing), dropping the
        collector so routing trees re-propagate over the new graph."""
        self.graph = graph
        self._collector = None

    def operators(self) -> List[Operator]:
        return self.ownership.operators()

    def operator(self, operator_id: str) -> Operator:
        entity = self.ownership.entity(operator_id)
        if not isinstance(entity, Operator):
            raise WorldError(f"{operator_id} is not an operator")
        return entity

    def records_of(self, operator_id: str) -> List[AsnRecord]:
        return [self.asn_records[a] for a in self.operator_asns.get(operator_id, [])]

    def prefix_table(self) -> List[Tuple[Prefix, int]]:
        """All announced (prefix, origin ASN) pairs."""
        table: List[Tuple[Prefix, int]] = []
        for record in self.asn_records.values():
            for base, length in record.prefixes:
                table.append((Prefix(base, length), record.asn))
        return table

    def true_address_counts(self) -> Dict[int, int]:
        """De-duplicated announced address count per origin ASN (one
        post-order trie pass over the full announcement table)."""
        return summarize_address_counts(self.prefix_table())

    def country_of_asn(self, asn: int) -> str:
        return self.asn_records[asn].cc

    # -- ground truth --------------------------------------------------------
    def ground_truth(self) -> List[GroundTruthOperator]:
        """All operators meeting the paper's state-owned definition (§3):
        majority state control, national scope, unrestricted services."""
        if self._truth_cache is not None:
            return self._truth_cache
        assessments = self.ownership.assess_all()
        truth: List[GroundTruthOperator] = []
        for op in self.ownership.operators():
            verdict = assessments[op.entity_id]
            if not verdict.is_state_controlled:
                continue
            if op.scope is not OperatorScope.NATIONAL:
                continue
            if not op.offers_unrestricted_service:
                continue
            controlling = verdict.controlling_cc
            assert controlling is not None
            foreign = controlling != op.cc
            parent = self.ownership.majority_parent(op.entity_id)
            parent_id = (
                parent.entity_id
                if parent is not None and isinstance(parent, Operator)
                else None
            )
            truth.append(
                GroundTruthOperator(
                    operator=op,
                    controlling_cc=controlling,
                    is_foreign_subsidiary=foreign,
                    parent_operator_id=parent_id,
                    asns=tuple(self.operator_asns.get(op.entity_id, ())),
                )
            )
        self._truth_cache = truth
        return truth

    def ground_truth_asns(self) -> Set[int]:
        """The true set of state-owned ASNs."""
        return {asn for gto in self.ground_truth() for asn in gto.asns}

    def content_digest(self) -> str:
        """Stable digest of the world's observable content.

        The config fingerprint names what *should* be built; this digests
        what *was* built — registry records, ownership structure, topology,
        monitors.  Persistent-cache entries derived from a world are keyed
        on both, so an entry written by a different code revision (same
        config, different generated world) can never be served stale.
        """
        from repro.parallel.cache import stable_digest

        # A non-neutral routing policy changes which paths monitors observe,
        # so it must key every derived cache entry.  Neutral/absent policies
        # route identically and are deliberately omitted, so they share
        # persistent CTI cache entries.
        policy_key = (
            self.routing_policy.as_dict()
            if self.routing_policy is not None
            and not self.routing_policy.is_neutral
            else None
        )
        return stable_digest(
            {
                **({"routing_policy": policy_key} if policy_key is not None else {}),
                "records": {
                    str(asn): [
                        record.operator_id,
                        record.cc,
                        record.rir,
                        record.registered_name,
                        str(record.role),
                        [str(p) for p in record.prefixes],
                        record.eyeballs,
                    ]
                    for asn, record in self.asn_records.items()
                },
                "operator_asns": self.operator_asns,
                "entities": {
                    entity.entity_id: [
                        entity.name,
                        getattr(entity, "brand", None),
                        entity.cc,
                        str(entity.kind),
                        str(getattr(entity, "role", None)),
                    ]
                    for entity in self.ownership._entities.values()
                },
                "stakes": {
                    owned: [
                        [stake.owner_id, stake.fraction, stake.since_year]
                        for stake in stakes
                    ]
                    for owned, stakes in self.ownership._stakes_in.items()
                    if stakes
                },
                "edges": {
                    str(asn): [
                        sorted(self.graph.providers_of(asn)),
                        sorted(self.graph.peers_of(asn)),
                    ]
                    for asn in self.graph
                },
                "monitors": [[m.monitor_id, m.host_asn] for m in self.monitors],
                "tier1": list(self.tier1_asns),
                "carriers": self.international_carrier_asns,
                "gateways": self.gateway_asns,
                "transit_dominant": sorted(self.transit_dominant_ccs),
            }
        )

    def ground_truth_operator_ids(self) -> Set[str]:
        return {gto.operator.entity_id for gto in self.ground_truth()}

    def foreign_subsidiary_asns(self) -> Set[int]:
        return {
            asn
            for gto in self.ground_truth()
            if gto.is_foreign_subsidiary
            for asn in gto.asns
        }

    def minority_operator_ids(self) -> Set[str]:
        """Operators with a sub-threshold government stake (and no majority)."""
        assessments = self.ownership.assess_all()
        result: Set[str] = set()
        for op in self.ownership.operators():
            verdict = assessments[op.entity_id]
            if verdict.is_state_controlled:
                continue
            if verdict.minority_stakes():
                result.add(op.entity_id)
        return result

    def state_owned_countries(self) -> Set[str]:
        """Countries that majority-own at least one Internet operator."""
        return {gto.controlling_cc for gto in self.ground_truth()}


# ---------------------------------------------------------------------------
# Plan payloads.  Everything below must never iterate a set of strings:
# their order follows the per-process hash seed, so output would drift.
# ---------------------------------------------------------------------------
@dataclass
class _AsnSpec:
    """A planned ASN delegation, replayed at commit time.

    The plan draws everything that needs the country's RNG (sibling
    weights, registered-name rolls, the more-specific coin); the commit
    performs the draws' *consequences* against the shared allocator and
    address cursor, whose state depends only on commit order.
    """

    cc: str
    rir: str
    role: OperatorRole
    registered: List[str]       # per-sibling WHOIS registered names
    share_24s: List[int]        # per-sibling /24-equivalents
    eyeballs: List[int]         # per-sibling user counts
    more_specific: bool         # announce a /24 out of sibling #1


@dataclass
class _OperatorBundle:
    """One operator plus its ownership scaffolding, built by a plan."""

    operator_id: str
    entities: List[Entity]      # original insertion order; includes operator
    stakes: List[OwnershipStake]
    asn_spec: Optional[_AsnSpec]


@dataclass
class _CountryBundle:
    """Everything one country contributes, in commit-phase groups."""

    cc: str
    plan: CountryMarketPlan
    operators: List[_OperatorBundle]
    excluded: List[_OperatorBundle]
    tail: List[_OperatorBundle]


@dataclass
class _SubsidiaryBundle:
    """One planned foreign subsidiary of an expansion-profile owner."""

    target_cc: str
    parent_id: str
    name: str
    brand: str
    role: OperatorRole
    founded_year: int
    stake_fraction: float
    asnless: bool
    addr_share: float = 0.0
    eyeball_share: float = 0.0
    sibling_count: int = 0
    asn_spec: Optional[_AsnSpec] = None


@dataclass(frozen=True)
class _OpWire:
    """The slice of one operator the wiring planner needs."""

    asns: Tuple[int, ...]
    role: OperatorRole
    primary_addresses: int


@dataclass
class _WiringScaffold:
    """Read-only topology context every country's wiring plan reads."""

    seed: int
    tier1_asns: Tuple[int, ...]
    intl_carriers: Dict[str, int]          # cc -> carrier ASN (fixed order)
    transit_dominant: FrozenSet[str]
    ops_by_cc: Dict[str, List[_OpWire]]    # per-country, insertion order


@dataclass
class _CountryWiring:
    """One country's planned edges plus its commit-time export draws."""

    cc: str
    has_operators: bool
    gateways: List[int]
    edges: List[Tuple[str, int, int]]      # ("c2p"|"p2p", a, b)
    exports: List[Tuple[int, List[str]]]   # (gateway, neighbor ccs to try)


def _plan_asns(
    operator_name: str,
    role: OperatorRole,
    cc: str,
    rir: str,
    sibling_count: int,
    addr_24s: int,
    eyeballs: int,
    rng,
    forge: NameForge,
    unrelated_alias_prob: float = 0.0,
) -> _AsnSpec:
    """Draw one operator's ASN plan (same draw order as the old inline code)."""
    if sibling_count == 1:
        weights = [1.0]
    else:
        primary_weight = rng.uniform(0.55, 0.85)
        rest = [rng.random() + 0.1 for _ in range(sibling_count - 1)]
        rest_total = sum(rest)
        weights = [primary_weight] + [
            (1 - primary_weight) * r / rest_total for r in rest
        ]
    registered: List[str] = []
    share_24s: List[int] = []
    eyeball_counts: List[int] = []
    for i, weight in enumerate(weights):
        share_24s.append(max(1, round(addr_24s * weight)))
        if i == 0:
            name = operator_name
        elif rng.random() < unrelated_alias_prob:
            name = forge.unrelated_legal_name(rir)
        elif rng.random() < 0.26:
            # Sibling from an acquisition keeps the acquired legal name.
            name = forge.unrelated_legal_name(rir)
        elif rng.random() < 0.3:
            name = forge.stale_variant(operator_name)
        else:
            name = operator_name
        registered.append(name)
        eyeball_counts.append(round(eyeballs * weight))
    # Occasionally announce a more-specific /24 out of a sibling ASN,
    # exercising the more-specific de-duplication everywhere downstream.
    more_specific = sibling_count > 1 and rng.random() < 0.25
    return _AsnSpec(
        cc=cc,
        rir=rir,
        role=role,
        registered=registered,
        share_24s=share_24s,
        eyeballs=eyeball_counts,
        more_specific=more_specific,
    )


def _attach_ownership_plan(
    operator: Operator,
    archetype: str,
    country: Country,
    rng,
    forge: NameForge,
    private_group_ids: List[str],
    entities: List[Entity],
    stakes: List[OwnershipStake],
) -> None:
    gov_id = f"gov-{country.cc}"
    if archetype == "state_direct":
        fraction = rng.uniform(0.51, 1.0)
        stakes.append(OwnershipStake(gov_id, operator.entity_id, round(fraction, 3)))
    elif archetype == "state_funds":
        # 2-3 funds, each a minority holder; their aggregate confers
        # control (Telekom Malaysia pattern).
        fund_count = rng.randint(2, 3)
        target_total = rng.uniform(0.52, 0.72)
        cuts = sorted(rng.random() for _ in range(fund_count - 1))
        shares = [(b - a) * target_total for a, b in zip([0.0] + cuts, cuts + [1.0])]
        for i, share in enumerate(shares):
            fund = Entity(
                entity_id=f"fund-{country.cc}-{operator.entity_id}-{i}",
                kind=EntityKind.STATE_FUND,
                name=forge.fund(country.name),
                cc=country.cc,
            )
            entities.append(fund)
            stakes.append(
                OwnershipStake(gov_id, fund.entity_id, round(rng.uniform(0.7, 1.0), 3))
            )
            stakes.append(
                OwnershipStake(
                    fund.entity_id,
                    operator.entity_id,
                    round(min(share, 0.49), 3),
                )
            )
    elif archetype == "state_holding":
        holding = Entity(
            entity_id=f"hold-{country.cc}-{operator.entity_id}",
            kind=EntityKind.HOLDING,
            name=f"{country.name} Telecommunications Holding",
            cc=country.cc,
        )
        entities.append(holding)
        stakes.append(
            OwnershipStake(gov_id, holding.entity_id, round(rng.uniform(0.55, 1.0), 3))
        )
        stakes.append(
            OwnershipStake(
                holding.entity_id,
                operator.entity_id,
                round(rng.uniform(0.51, 0.95), 3),
            )
        )
    elif archetype == "state_jv":
        partner = rng.choice([c for c in COUNTRIES if c.cc != country.cc])
        major = rng.uniform(0.51, 0.7)
        minor = rng.uniform(0.1, min(0.3, 0.99 - major))
        stakes.append(OwnershipStake(gov_id, operator.entity_id, round(major, 3)))
        stakes.append(
            OwnershipStake(f"gov-{partner.cc}", operator.entity_id, round(minor, 3))
        )
    elif archetype == "minority":
        fraction = rng.uniform(0.08, 0.45)
        stakes.append(OwnershipStake(gov_id, operator.entity_id, round(fraction, 3)))
    elif archetype == "private":
        if private_group_ids and rng.random() < 0.22:
            group_id = rng.choice(private_group_ids)
            stakes.append(
                OwnershipStake(
                    group_id,
                    operator.entity_id,
                    round(rng.uniform(0.51, 1.0), 3),
                )
            )
    else:
        raise WorldError(f"unknown ownership archetype {archetype!r}")


def _build_operator(
    config: WorldConfig,
    country: Country,
    op_plan: OperatorPlan,
    index: int,
    rng,
    forge: NameForge,
    private_group_ids: List[str],
) -> _OperatorBundle:
    if op_plan.misleading_name:
        legal, brand = forge.misleading_private_name(country.name)
    elif op_plan.role is OperatorRole.INCUMBENT:
        legal, brand = forge.incumbent(country.name, country.rir)
    elif op_plan.role in (OperatorRole.TRANSIT, OperatorRole.CABLE):
        legal, brand = forge.transit_operator(country.name, country.rir)
    else:
        legal, brand = forge.challenger(country.name, country.rir)
    operator = Operator(
        entity_id=f"op-{country.cc}-m{index}",
        kind=EntityKind.OPERATOR,
        name=legal,
        cc=country.cc,
        brand=brand,
        role=op_plan.role,
        scope=OperatorScope.NATIONAL,
        founded_year=rng.randint(1985, 2015),
        website=f"{brand.lower().replace(' ', '')}.example",
    )
    entities: List[Entity] = [operator]
    stakes: List[OwnershipStake] = []
    _attach_ownership_plan(
        operator,
        op_plan.archetype,
        country,
        rng,
        forge,
        private_group_ids,
        entities,
        stakes,
    )
    budget_24s = config.addr_budget_by_class[country.addr_class]
    addr_24s = max(1, round(op_plan.addr_share * budget_24s))
    eyeballs_total = round(
        op_plan.eyeball_share * config.eyeball_budget_by_class[country.pop_class]
    )
    spec = _plan_asns(
        operator.name,
        operator.role,
        country.cc,
        country.rir,
        sibling_count=op_plan.sibling_count,
        addr_24s=addr_24s,
        eyeballs=eyeballs_total,
        rng=rng,
        forge=forge,
    )
    return _OperatorBundle(operator.entity_id, entities, stakes, spec)


def _build_excluded(
    config: WorldConfig,
    country: Country,
    plan: CountryMarketPlan,
    rng,
    forge: NameForge,
) -> List[_OperatorBundle]:
    bundles: List[_OperatorBundle] = []
    index = 0
    for role in plan.excluded_roles:
        index += 1
        suffix = {
            OperatorRole.ACADEMIC: "National Research and Education Network",
            OperatorRole.GOVNET: "Government Network Agency",
            OperatorRole.NIC: "Network Information Centre",
        }[role]
        operator = Operator(
            entity_id=f"op-{country.cc}-x{index}",
            kind=EntityKind.OPERATOR,
            name=f"{country.name} {suffix}",
            cc=country.cc,
            brand=None,
            role=role,
            scope=OperatorScope.NATIONAL,
            founded_year=rng.randint(1990, 2012),
        )
        stakes = [OwnershipStake(f"gov-{country.cc}", operator.entity_id, 1.0)]
        budget_24s = config.addr_budget_by_class[country.addr_class]
        spec = _plan_asns(
            operator.name,
            operator.role,
            country.cc,
            country.rir,
            sibling_count=1,
            addr_24s=max(1, round(0.008 * budget_24s * rng.uniform(0.5, 1.5))),
            eyeballs=rng.randint(0, 20000) if role is OperatorRole.ACADEMIC else 0,
            rng=rng,
            forge=forge,
        )
        bundles.append(_OperatorBundle(operator.entity_id, [operator], stakes, spec))
    # Subnational state operators in large countries (§5.3 excludes them
    # from the dataset even though a state entity owns them).
    if country.addr_class >= 3 and rng.random() < 0.35:
        index += 1
        province = Entity(
            entity_id=f"subnat-{country.cc}",
            kind=EntityKind.SUBNATIONAL,
            name=f"Province of {country.name} North",
            cc=country.cc,
        )
        operator = Operator(
            entity_id=f"op-{country.cc}-x{index}",
            kind=EntityKind.OPERATOR,
            name=f"{country.name} Northern Regional Telecom",
            cc=country.cc,
            role=OperatorRole.ACCESS,
            scope=OperatorScope.SUBNATIONAL,
            founded_year=rng.randint(1995, 2015),
        )
        stakes = [
            OwnershipStake(
                province.entity_id,
                operator.entity_id,
                round(rng.uniform(0.6, 1.0), 3),
            )
        ]
        budget_24s = config.addr_budget_by_class[country.addr_class]
        spec = _plan_asns(
            operator.name,
            operator.role,
            country.cc,
            country.rir,
            sibling_count=1,
            addr_24s=max(2, round(0.006 * budget_24s * rng.uniform(0.5, 1.5))),
            eyeballs=rng.randint(5000, 80000),
            rng=rng,
            forge=forge,
        )
        bundles.append(
            _OperatorBundle(operator.entity_id, [province, operator], stakes, spec)
        )
    return bundles


def _build_tail(
    config: WorldConfig,
    country: Country,
    plan: CountryMarketPlan,
    rng,
    forge: NameForge,
) -> List[_OperatorBundle]:
    bundles: List[_OperatorBundle] = []
    eyeball_budget = config.eyeball_budget_by_class[country.pop_class]
    tail_eyeballs = round(0.1 * eyeball_budget)
    count = plan.tail_as_count
    # The long tail shares ~5 % of the country's address budget so it
    # never dilutes the planned operator market shares.
    budget_24s = config.addr_budget_by_class[country.addr_class]
    tail_24s_each = max(1, round(0.05 * budget_24s / max(count, 1)))
    for i in range(count):
        legal = forge.unrelated_legal_name(country.rir)
        operator = Operator(
            entity_id=f"op-{country.cc}-t{i + 1}",
            kind=EntityKind.OPERATOR,
            name=legal,
            cc=country.cc,
            role=(
                OperatorRole.ENTERPRISE if rng.random() < 0.6 else OperatorRole.ACCESS
            ),
            scope=OperatorScope.NATIONAL,
            founded_year=rng.randint(1995, 2019),
        )
        spec = _plan_asns(
            operator.name,
            operator.role,
            country.cc,
            country.rir,
            sibling_count=1,
            addr_24s=max(1, round(tail_24s_each * rng.uniform(0.5, 1.5))),
            eyeballs=(
                max(0, round(tail_eyeballs / max(count, 1)))
                if operator.role is OperatorRole.ACCESS
                else 0
            ),
            rng=rng,
            forge=forge,
        )
        bundles.append(_OperatorBundle(operator.entity_id, [operator], [], spec))
    return bundles


def _build_country_task(
    config: WorldConfig, private_group_ids: List[str], cc: str
) -> _CountryBundle:
    """Plan one country end to end: markets, operators, excluded, tail.

    Pure function of ``(config, country)`` — every random draw comes from a
    substream derived from the world seed and the country code, so a
    country's plan does not depend on which countries were planned before.
    """
    country = _COUNTRY_BY_CC[cc]
    factory = SeedSequenceFactory(config.seed)
    forge = NameForge(factory.fresh(f"names:{cc}"))

    rng = factory.fresh(f"market:{cc}")
    plan = plan_country(country, config, rng)
    # Expansion-profile owners must have a state-owned flagship to attach
    # subsidiaries to; force the incumbent if needed.
    if (
        cc in config.expansion_profiles
        and cc not in config.no_state_ownership
        and not plan.operators[0].is_state_owned
    ):
        plan.operators[0].archetype = "state_direct"

    rng = factory.fresh(f"operators:{cc}")
    operators = [
        _build_operator(config, country, op_plan, i + 1, rng, forge, private_group_ids)
        for i, op_plan in enumerate(plan.operators)
    ]

    rng = factory.fresh(f"excluded:{cc}")
    excluded = _build_excluded(config, country, plan, rng, forge)

    rng = factory.fresh(f"tail:{cc}")
    tail = _build_tail(config, country, plan, rng, forge)

    return _CountryBundle(
        cc=cc, plan=plan, operators=operators, excluded=excluded, tail=tail
    )


def _plan_subsidiary(
    config: WorldConfig,
    parent_id: str,
    parent_brand: str,
    parent_cc: str,
    target: Country,
    rng,
    forge: NameForge,
) -> _SubsidiaryBundle:
    legal, brand = forge.subsidiary(parent_brand, target.name, target.rir)
    if parent_cc == "CO":
        role = OperatorRole.TRANSIT          # the Internexa archetype
    elif rng.random() < 0.6:
        role = OperatorRole.MOBILE
    else:
        role = OperatorRole.ACCESS
    founded_year = rng.randint(1998, 2018)
    stake_fraction = round(rng.uniform(0.51, 1.0), 3)
    if rng.random() < config.asnless_subsidiary_prob:
        # Registered for legal purposes only; runs no network of its own
        # (the China-Telecom-in-Brazil case).
        return _SubsidiaryBundle(
            target_cc=target.cc,
            parent_id=parent_id,
            name=legal,
            brand=brand,
            role=role,
            founded_year=founded_year,
            stake_fraction=stake_fraction,
            asnless=True,
        )
    # Foreign subsidiaries command a real access-market share, larger in
    # Africa (Ooredoo/Etisalat pattern, where the paper finds foreign
    # majorities in 6 countries), smaller elsewhere.
    if target.region == "Africa":
        share = rng.uniform(0.1, 0.65)
    else:
        share = rng.uniform(0.03, 0.22)
    if role is OperatorRole.TRANSIT:
        share *= 0.15
    # In big address-space markets even a successful foreign entrant is
    # a sliver of the announced space (China Telecom Americas in the US);
    # eyeball share is dampened less (Optus serves 18 % of Australians).
    addr_damp = (1.0, 1.0, 0.8, 0.25, 0.06, 0.02)[target.addr_class]
    eyeball_share = share * addr_damp**0.5
    share *= addr_damp
    budget_24s = config.addr_budget_by_class[target.addr_class]
    eyeball_budget = config.eyeball_budget_by_class[target.pop_class]
    sub_plan_siblings = rng.randint(*config.subsidiary_sibling_range)
    # The domestic market was already materialized against the full
    # budget, so hitting a *net* share of s requires allocating
    # s/(1-s) of the budget on top (s/(1-s) / (1 + s/(1-s)) == s).
    addr_grossup = share / max(1e-6, 1.0 - min(share, 0.85))
    eyeball_grossup = eyeball_share / max(1e-6, 1.0 - min(eyeball_share, 0.85))
    spec = _plan_asns(
        legal,
        role,
        target.cc,
        target.rir,
        sibling_count=sub_plan_siblings,
        addr_24s=max(1, round(addr_grossup * budget_24s)),
        eyeballs=round(eyeball_grossup * eyeball_budget * rng.uniform(0.8, 1.2)),
        rng=rng,
        forge=forge,
        unrelated_alias_prob=0.35,
    )
    return _SubsidiaryBundle(
        target_cc=target.cc,
        parent_id=parent_id,
        name=legal,
        brand=brand,
        role=role,
        founded_year=founded_year,
        stake_fraction=stake_fraction,
        asnless=False,
        addr_share=share,
        eyeball_share=eyeball_share,
        sibling_count=sub_plan_siblings,
        asn_spec=spec,
    )


def _build_expansion_task(config: WorldConfig, owner: dict) -> List[_SubsidiaryBundle]:
    """Plan one expansion-profile owner's foreign subsidiaries."""
    factory = SeedSequenceFactory(config.seed)
    rng = factory.fresh(f"expansion:{owner['owner_cc']}")
    forge = NameForge(factory.fresh(f"names:expansion:{owner['owner_cc']}"))
    bundles: List[_SubsidiaryBundle] = []
    for target_cc in owner["targets"]:
        bundles.append(
            _plan_subsidiary(
                config,
                owner["parent_id"],
                owner["parent_brand"],
                owner["parent_cc"],
                _COUNTRY_BY_CC[target_cc],
                rng,
                forge,
            )
        )
    return bundles


def _plan_country_wiring(scaffold: _WiringScaffold, cc: str) -> _CountryWiring:
    """Plan one country's intra-topology edges on its own RNG substream.

    Within-country edge-existence checks are simulated against the local
    edge plan (the only same-country edges that can exist at wiring time
    are the ones this very plan creates); cross-country regional-export
    edges depend on other countries' gateways, so only their *draws* are
    made here — the selection itself replays serially at commit time, in
    country order, exactly like the old single-threaded wiring loop.
    """
    factory = SeedSequenceFactory(scaffold.seed)
    rng = factory.fresh(f"topology:{cc}")
    country = _COUNTRY_BY_CC[cc]
    ops = scaffold.ops_by_cc.get(cc, [])
    tier1_set = set(scaffold.tier1_asns)
    carrier_set = set(scaffold.intl_carriers.values())

    operator_primaries: List[Tuple[int, int, bool]] = []
    gateway_candidates: List[int] = []
    role_of: Dict[int, OperatorRole] = {}
    for op in ops:
        primary = op.asns[0]
        if primary in tier1_set:
            continue
        if op.role is OperatorRole.ENTERPRISE:
            continue
        role_of[primary] = op.role
        operator_primaries.append(
            (primary, op.primary_addresses, primary in carrier_set)
        )
        if op.role in (
            OperatorRole.TRANSIT, OperatorRole.CABLE, OperatorRole.INCUMBENT
        ):
            gateway_candidates.append(primary)

    if not operator_primaries:
        return _CountryWiring(cc, False, [], [], [])

    # Gateways: prefer explicit transit/cable operators, else incumbent.
    transit_gateways = [
        asn for asn in gateway_candidates
        if role_of[asn] in (OperatorRole.TRANSIT, OperatorRole.CABLE)
    ]
    gateways = transit_gateways or gateway_candidates[:1]

    intl_pool = list(scaffold.tier1_asns) + [
        asn for ccx, asn in scaffold.intl_carriers.items() if ccx != cc
    ]

    edges: List[Tuple[str, int, int]] = []
    local_pairs: Set[FrozenSet[int]] = set()

    def c2p(a: int, b: int) -> None:
        edges.append(("c2p", a, b))
        local_pairs.add(frozenset((a, b)))

    # Gateways buy international transit.
    for gateway in gateways:
        if gateway in carrier_set:
            continue  # already wired to tier-1s
        providers = rng.sample(intl_pool, k=min(len(intl_pool), rng.randint(1, 3)))
        for provider in providers:
            c2p(gateway, provider)

    transit_dominant = cc in scaffold.transit_dominant
    gateway_set = set(gateways)

    # Operator primaries buy from gateways (transit-dominant) or mix in
    # direct international transit (open markets).
    for primary, _, is_carrier in operator_primaries:
        if primary in gateway_set or is_carrier:
            continue
        if transit_dominant or rng.random() < 0.5:
            for gateway in gateways[: rng.randint(1, max(1, len(gateways)))]:
                if gateway != primary:
                    c2p(primary, gateway)
            if not transit_dominant and rng.random() < 0.4:
                c2p(primary, rng.choice(intl_pool))
        else:
            providers = rng.sample(intl_pool, k=min(len(intl_pool), rng.randint(1, 2)))
            for provider in providers:
                c2p(primary, provider)
            if gateways and rng.random() < 0.3:
                if gateways[0] != primary:
                    c2p(primary, gateways[0])

    # Sibling ASNs hang off their operator's primary.
    for op in ops:
        for sibling in op.asns[1:]:
            c2p(sibling, op.asns[0])

    # Domestic peering among access operators (IXP effect).
    access_primaries = [
        p for p, _, _ in operator_primaries
        if role_of[p]
        in (OperatorRole.ACCESS, OperatorRole.MOBILE, OperatorRole.INCUMBENT)
    ]
    for i, a in enumerate(access_primaries):
        for b in access_primaries[i + 1:]:
            if rng.random() < 0.25 and frozenset((a, b)) not in local_pairs:
                edges.append(("p2p", a, b))
                local_pairs.add(frozenset((a, b)))

    # Long-tail networks buy from domestic operators.
    weights = [max(size, 1) for _, size, _ in operator_primaries]
    primaries_only = [p for p, _, _ in operator_primaries]
    for op in ops:
        if op.role is not OperatorRole.ENTERPRISE:
            continue
        for asn in op.asns:
            count = 1 if rng.random() < 0.7 else 2
            chosen = set()
            for _ in range(count):
                provider = rng.choices(primaries_only, weights=weights, k=1)[0]
                if provider != asn and provider not in chosen:
                    c2p(asn, provider)
                    chosen.add(provider)

    # Regional export: cable gateways pick up foreign customers in the
    # same region (Angola Cables / BSCCL cone growth).  Only the draws
    # happen here; the selection needs other countries' gateways.
    exports: List[Tuple[int, List[str]]] = []
    for gateway in gateways:
        if role_of[gateway] is not OperatorRole.CABLE:
            continue
        neighbors = [
            c.cc for c in COUNTRIES if c.region == country.region and c.cc != cc
        ]
        rng.shuffle(neighbors)
        exports.append((gateway, neighbors[: rng.randint(2, 6)]))

    return _CountryWiring(cc, True, gateways, edges, exports)


class WorldGenerator:
    """Builds a :class:`World` from a :class:`WorldConfig`."""

    def __init__(self, config: Optional[WorldConfig] = None) -> None:
        self.config = config or WorldConfig()
        self._factory = SeedSequenceFactory(self.config.seed)
        self._forge = NameForge(self._factory.stream("names"))
        self._asn_alloc = ASNAllocator(self._factory.stream("asn"))
        self._ownership = OwnershipGraph()
        self._records: Dict[int, AsnRecord] = {}
        self._operator_asns: Dict[str, List[int]] = {}
        self._plans: Dict[str, CountryMarketPlan] = {}
        self._graph = ASGraph()
        self._addr_cursor = 1 << 24  # start allocating at 1.0.0.0
        self._op_counter: Dict[Tuple[str, str], int] = {}
        self._gateway_asns: Dict[str, List[int]] = {}
        self._primary_asn: Dict[str, int] = {}  # operator_id -> primary ASN
        self._tier1_asns: List[int] = []
        self._intl_carriers: Dict[str, int] = {}
        self._transit_dominant: Set[str] = set()
        self._private_groups: List[Entity] = []
        self._used_names: Set[str] = set()
        self._registered_owner: Dict[str, str] = {}  # name -> operator_id

    # -- public entry point ----------------------------------------------------
    def generate(self) -> World:
        """Materialize the full world (deterministic for a given config)."""
        with span("world.generate") as sp:
            with span("entities"):
                self._create_governments()
                self._create_private_groups()
                bundles = self._build_country_bundles()
                self._commit_plans(bundles)
                self._commit_operators(bundles)
                self._materialize_subsidiaries()
                self._commit_excluded(bundles)
                self._commit_tail(bundles)
            with span("topology"):
                self._build_tier1()
                self._build_topology()
                self._graph.validate()
                self._ownership.validate()
            with span("monitors"):
                monitors = MonitorSet.place(
                    self._graph,
                    self.config.monitor_count,
                    self._factory.stream("monitors"),
                )
            sp.incr("asns", len(self._records))
            sp.incr("operators", len(self._ownership.operators()))
            sp.incr("countries", len(COUNTRIES))
            sp.incr("monitors", len(monitors))
            sp.incr("transit_dominant_ccs", len(self._transit_dominant))
            metrics = get_metrics()
            metrics.incr("world.gen.operators", len(self._ownership.operators()))
            metrics.incr("world.gen.asns", len(self._records))
            metrics.incr("world.gen.edges", self._graph.num_edges())
        return World(
            config=self.config,
            countries=COUNTRIES,
            ownership=self._ownership,
            plans=self._plans,
            asn_records=self._records,
            operator_asns=self._operator_asns,
            graph=self._graph,
            monitors=monitors,
            tier1_asns=tuple(self._tier1_asns),
            international_carrier_asns=dict(self._intl_carriers),
            gateway_asns=self._gateway_asns,
            transit_dominant_ccs=set(self._transit_dominant),
        )

    # -- id + name helpers ---------------------------------------------------
    def _next_phase_id(self, cc: str, phase: str) -> str:
        key = (cc, phase)
        self._op_counter[key] = self._op_counter.get(key, 0) + 1
        return f"op-{cc}-{phase}{self._op_counter[key]}"

    @staticmethod
    def _name_key(name: str) -> str:
        """Uniqueness key: the *normalized* form, the one source matching
        and the confirmation corpus fuse documents on.  Exact-string
        uniqueness is not enough — "Royal Telecom Ltd" and "Royal Telecom
        S.A." are the same organization to every downstream consumer."""
        return normalize_name(name) or name.lower()

    def _claim_name(self, name: str) -> str:
        """Reserve a globally unique display name (commit side).

        Per-country forges guarantee uniqueness only within one country;
        cross-country collisions get a deterministic distinguishing prefix
        (a numeric suffix would be stripped by name normalization and fuse
        the two organizations downstream anyway).
        """
        for candidate in self._dedup_candidates(name):
            key = self._name_key(candidate)
            if key not in self._used_names:
                self._used_names.add(key)
                if candidate != name:
                    get_metrics().incr("world.gen.renames")
                return candidate
        raise WorldError(f"could not uniquify name {name!r}")

    @staticmethod
    def _dedup_candidates(name: str):
        yield name
        # Rotate the pool by a name-derived offset: trying the pool in one
        # fixed order would concentrate thousands of renames on the first
        # word, recreating the single high-frequency token the pool exists
        # to avoid.  crc32 is stable across runs and platforms (hash() is
        # salted per process), so generation stays deterministic.
        count = len(_SALT_WORDS)
        start = zlib.crc32(name.encode("utf-8")) % count
        for step in range(count):
            yield f"{_SALT_WORDS[(start + step) % count]} {name}"
        for step in range(count):
            first = _SALT_WORDS[(start + step) % count]
            for gap in range(1, count):
                second = _SALT_WORDS[(start + step + gap) % count]
                yield f"{first} {second} {name}"

    def _commit_entity(self, entity: Entity, renames: Dict[str, str]) -> None:
        """Add an entity, enforcing global name/brand uniqueness in place."""
        original = entity.name
        unique = self._claim_name(original)
        if unique != original:
            entity.name = unique
            renames[original] = unique
        if isinstance(entity, Operator) and entity.brand:
            brand = self._claim_name(entity.brand)
            if brand != entity.brand:
                entity.brand = brand
                entity.website = f"{brand.lower().replace(' ', '')}.example"
        self._ownership.add_entity(entity)

    def _claim_registered(self, name: str, operator: Operator) -> str:
        """Keep WHOIS registered names unique *across operators*.

        Name-based source matching treats a normalized-name match as one
        organization, so two unrelated operators sharing an alias would be
        fused downstream.  An operator's own (already unique) name and its
        aliases may recur across its sibling ASNs; any cross-operator
        collision gets the same deterministic prefix entity names get.
        """
        if name == operator.name:
            return name
        for candidate in self._dedup_candidates(name):
            key = self._name_key(candidate)
            owner = self._registered_owner.get(key)
            if owner == operator.entity_id:
                return candidate
            if owner is None and key not in self._used_names:
                self._registered_owner[key] = operator.entity_id
                self._used_names.add(key)
                if candidate != name:
                    get_metrics().incr("world.gen.renames")
                return candidate
        raise WorldError(f"could not uniquify registered name {name!r}")

    # -- step 1: governments and private groups --------------------------------
    def _create_governments(self) -> None:
        for country in COUNTRIES:
            self._commit_entity(
                Entity(
                    entity_id=f"gov-{country.cc}",
                    kind=EntityKind.GOVERNMENT,
                    name=f"Government of {country.name}",
                    cc=country.cc,
                ),
                {},
            )

    def _create_private_groups(self) -> None:
        rng = self._factory.stream("private-groups")
        for i, cc in enumerate(_PRIVATE_GROUP_HOME_CCS):
            group = Entity(
                entity_id=f"group-{i}",
                kind=EntityKind.PRIVATE,
                name=self._forge.unrelated_legal_name("ARIN"),
                cc=cc,
            )
            self._commit_entity(group, {})
            self._private_groups.append(group)
        # A generic dispersed-float shareholder used where no named private
        # owner is needed.
        rng.random()  # keep the stream warm for future extensions

    # -- step 2+3+5+6: per-country planning -----------------------------------
    def _build_country_bundles(self) -> List[_CountryBundle]:
        """Plan every country, in the fixed country order.

        Every plan is complete before the first commit, so commit order
        (and therefore every RNG draw made at commit time) is the country
        order.
        """
        private_group_ids = [g.entity_id for g in self._private_groups]
        with span("world.countries") as sp:
            bundles = [
                _build_country_task(self.config, private_group_ids, c.cc)
                for c in COUNTRIES
            ]
            sp.incr("countries", len(bundles))
        get_metrics().incr("world.gen.countries", len(bundles))
        return bundles

    def _commit_plans(self, bundles: List[_CountryBundle]) -> None:
        for bundle in bundles:
            if bundle.plan.transit_dominant:
                self._transit_dominant.add(bundle.cc)
            self._plans[bundle.cc] = bundle.plan

    def _commit_operators(self, bundles: List[_CountryBundle]) -> None:
        for bundle in bundles:
            for op_bundle in bundle.operators:
                self._commit_operator_bundle(op_bundle)

    def _commit_excluded(self, bundles: List[_CountryBundle]) -> None:
        for bundle in bundles:
            for op_bundle in bundle.excluded:
                self._commit_operator_bundle(op_bundle)

    def _commit_tail(self, bundles: List[_CountryBundle]) -> None:
        for bundle in bundles:
            for op_bundle in bundle.tail:
                self._commit_operator_bundle(op_bundle)

    def _commit_operator_bundle(self, bundle: _OperatorBundle) -> None:
        renames: Dict[str, str] = {}
        operator: Optional[Operator] = None
        for entity in bundle.entities:
            self._commit_entity(entity, renames)
            if entity.entity_id == bundle.operator_id:
                operator = entity  # type: ignore[assignment]
        for stake in bundle.stakes:
            self._ownership.add_stake(stake)
        assert operator is not None
        if bundle.asn_spec is None:
            self._operator_asns[operator.entity_id] = []
            return
        self._commit_asns(operator, bundle.asn_spec, renames)

    # -- ASN + prefix + eyeball allocation ----------------------------------------
    def _allocate_block(self, num_slash24: int) -> List[Tuple[int, int]]:
        """Allocate non-overlapping aligned prefixes totalling ``num_slash24``
        /24-equivalents; returns (base, length) tuples."""
        prefixes: List[Tuple[int, int]] = []
        remaining = max(1, num_slash24)
        while remaining > 0:
            size = 1 << (remaining.bit_length() - 1)  # largest power of two
            addresses = size * 256
            # Align the cursor to the block size.
            if self._addr_cursor % addresses:
                self._addr_cursor += addresses - (self._addr_cursor % addresses)
            length = 24 - (size.bit_length() - 1)
            prefixes.append((self._addr_cursor, length))
            self._addr_cursor += addresses
            remaining -= size
        return prefixes

    def _commit_asns(
        self,
        operator: Operator,
        spec: _AsnSpec,
        renames: Dict[str, str],
    ) -> None:
        """Replay a worker-drawn ASN plan against the shared allocator.

        Allocation depends only on *commit order* (the allocator pools are
        pre-shuffled and consume no RNG), so replaying bundles in country
        order reproduces the serial allocation exactly.  Registered names
        that exactly match a renamed entity name follow the rename, so the
        WHOIS surface stays consistent with the ownership records.
        """
        asns = self._asn_alloc.allocate_many(spec.rir, len(spec.share_24s))
        self._operator_asns[operator.entity_id] = asns
        self._primary_asn[operator.entity_id] = asns[0]
        for i, asn in enumerate(asns):
            prefixes = self._allocate_block(spec.share_24s[i])
            name = spec.registered[i]
            name = renames.get(name, name)
            record = AsnRecord(
                asn=asn,
                operator_id=operator.entity_id,
                cc=spec.cc,
                rir=spec.rir,
                registered_name=self._claim_registered(name, operator),
                role=spec.role,
                prefixes=prefixes,
                eyeballs=spec.eyeballs[i],
            )
            self._records[asn] = record
        if spec.more_specific and len(asns) > 1:
            donor = self._records[asns[0]]
            wide = next(((b, l) for b, l in donor.prefixes if l <= 22), None)
            if wide is not None:
                base, _ = wide
                self._records[asns[1]].prefixes.append((base, 24))

    def _register_asns(
        self,
        operator: Operator,
        cc: str,
        rir: str,
        sibling_count: int,
        addr_24s: int,
        eyeballs: int,
        rng,
        unrelated_alias_prob: float = 0.0,
    ) -> None:
        """Serial-phase delegation (tier-1 carriers): plan + commit inline."""
        spec = _plan_asns(
            operator.name,
            operator.role,
            cc,
            rir,
            sibling_count=sibling_count,
            addr_24s=addr_24s,
            eyeballs=eyeballs,
            rng=rng,
            forge=self._forge,
            unrelated_alias_prob=unrelated_alias_prob,
        )
        self._commit_asns(operator, spec, {})

    # -- step 4: foreign subsidiaries --------------------------------------------
    def _flagship_map(self) -> Dict[str, str]:
        """Per country, the domestically state-controlled operator with the
        most address space — one ``assess_all`` fixpoint and one scan,
        instead of the old per-owner recomputation (which dominated the
        serial generation profile)."""
        assessments = self._ownership.assess_all()
        best: Dict[str, Tuple[int, str]] = {}
        for op in self._ownership.operators():
            verdict = assessments[op.entity_id]
            if verdict.controlling_cc != op.cc:
                continue
            size = sum(
                self._records[a].num_addresses
                for a in self._operator_asns.get(op.entity_id, [])
            )
            current = best.get(op.cc)
            if current is None or size > current[0]:
                best[op.cc] = (size, op.entity_id)
        return {cc: op_id for cc, (_, op_id) in best.items()}

    def _materialize_subsidiaries(self) -> None:
        flagships = self._flagship_map()
        owners: List[dict] = []
        for owner_cc, targets in self.config.expansion_profiles.items():
            if owner_cc not in _COUNTRY_BY_CC:
                continue
            parent_id = flagships.get(owner_cc)
            if parent_id is None:
                continue
            parent = self._ownership.entity(parent_id)
            owners.append(
                {
                    "owner_cc": owner_cc,
                    "parent_id": parent_id,
                    "parent_brand": parent.display_name,
                    "parent_cc": parent.cc,
                    "targets": [
                        target_cc for target_cc in targets
                        if target_cc in _COUNTRY_BY_CC
                    ],
                }
            )
        with span("world.expansion") as sp:
            bundle_lists = [
                _build_expansion_task(self.config, owner) for owner in owners
            ]
            count = sum(len(bundles) for bundles in bundle_lists)
            sp.incr("subsidiaries", count)
        get_metrics().incr("world.gen.subsidiaries", count)
        for bundles in bundle_lists:
            for sub in bundles:
                self._commit_subsidiary(sub)

    def _commit_subsidiary(self, sub: _SubsidiaryBundle) -> None:
        renames: Dict[str, str] = {}
        operator = Operator(
            entity_id=self._next_phase_id(sub.target_cc, "s"),
            kind=EntityKind.OPERATOR,
            name=sub.name,
            cc=sub.target_cc,
            brand=sub.brand,
            role=sub.role,
            scope=OperatorScope.NATIONAL,
            founded_year=sub.founded_year,
            website=f"{sub.brand.lower().replace(' ', '')}.example",
        )
        self._commit_entity(operator, renames)
        self._ownership.add_stake(
            OwnershipStake(sub.parent_id, operator.entity_id, sub.stake_fraction)
        )
        if sub.asnless:
            self._operator_asns[operator.entity_id] = []
            return
        # Make room by shrinking the domestic operators' recorded shares.
        plan = self._plans[sub.target_cc]
        for op_plan in plan.operators:
            op_plan.addr_share *= 1.0 - sub.addr_share
            op_plan.eyeball_share *= 1.0 - sub.addr_share
        assert sub.asn_spec is not None
        self._commit_asns(operator, sub.asn_spec, renames)
        plan.operators.append(
            OperatorPlan(
                role=sub.role,
                archetype="foreign_subsidiary",
                addr_share=sub.addr_share,
                eyeball_share=sub.eyeball_share,
                sibling_count=sub.sibling_count,
            )
        )

    # -- step 7: tier-1 carriers ------------------------------------------------------
    def _build_tier1(self) -> None:
        rng = self._factory.stream("tier1")
        for i, cc in enumerate(_TIER1_HOME_CCS):
            legal, brand = self._forge.transit_operator(
                f"Backbone {i + 1}", "ARIN" if cc == "US" else "RIPE"
            )
            country = _COUNTRY_BY_CC[cc]
            operator = Operator(
                entity_id=self._next_phase_id(cc, "b"),
                kind=EntityKind.OPERATOR,
                name=legal,
                cc=cc,
                brand=brand,
                role=OperatorRole.TRANSIT,
                scope=OperatorScope.NATIONAL,
                founded_year=rng.randint(1988, 2000),
                website=f"{brand.lower().replace(' ', '')}.example",
            )
            self._commit_entity(operator, {})
            self._register_asns(
                operator,
                cc,
                country.rir,
                sibling_count=1,
                addr_24s=rng.randint(20, 80),
                eyeballs=0,
                rng=rng,
            )
            self._tier1_asns.append(self._primary_asn[operator.entity_id])

    # -- step 8: topology --------------------------------------------------------------
    def _build_topology(self) -> None:
        rng = self._factory.stream("topology")
        graph = self._graph
        for asn in self._records:
            graph.add_as(asn)
        # Tier-1 full mesh.
        for i, a in enumerate(self._tier1_asns):
            for b in self._tier1_asns[i + 1:]:
                graph.add_p2p(a, b)

        # International carriers: the flagship state carrier of selected
        # countries acts as cross-border transit.
        flagships = self._flagship_map()
        for cc in INTERNATIONAL_CARRIER_CCS:
            flagship = flagships.get(cc)
            if flagship is None:
                continue
            carrier_asn = self._primary_asn[flagship]
            self._intl_carriers[cc] = carrier_asn
            for provider in rng.sample(self._tier1_asns, k=2):
                graph.add_c2p(carrier_asn, provider)
            for other_cc, other_asn in self._intl_carriers.items():
                if other_cc != cc and rng.random() < 0.4:
                    graph.add_p2p(carrier_asn, other_asn)

        carrier_asns = set(self._intl_carriers.values())
        scaffold = self._wiring_scaffold()
        with span("world.wiring") as sp:
            plans = [_plan_country_wiring(scaffold, c.cc) for c in COUNTRIES]
            sp.incr("edges", sum(len(wiring.edges) for wiring in plans))
        for wiring in plans:
            self._commit_wiring(wiring, carrier_asns)

    def _wiring_scaffold(self) -> _WiringScaffold:
        """Snapshot the read-only context the wiring plans need."""
        ops_by_cc: Dict[str, List[_OpWire]] = {}
        for op in self._ownership.operators():
            asns = self._operator_asns.get(op.entity_id, [])
            if not asns:
                continue
            ops_by_cc.setdefault(op.cc, []).append(
                _OpWire(
                    asns=tuple(asns),
                    role=op.role,
                    primary_addresses=self._records[asns[0]].num_addresses,
                )
            )
        return _WiringScaffold(
            seed=self.config.seed,
            tier1_asns=tuple(self._tier1_asns),
            intl_carriers=dict(self._intl_carriers),
            transit_dominant=frozenset(self._transit_dominant),
            ops_by_cc=ops_by_cc,
        )

    def _commit_wiring(self, wiring: _CountryWiring, carrier_asns: Set[int]) -> None:
        """Apply one country's planned edges, then resolve its exports.

        Commit runs in country order, so a regional export from country
        *i* only ever sees gateways of countries committed before it —
        the same visibility the old serial wiring loop had.
        """
        if not wiring.has_operators:
            return
        graph = self._graph
        for kind, a, b in wiring.edges:
            if kind == "c2p":
                graph.add_c2p(a, b)
            else:
                graph.add_p2p(a, b)
        self._gateway_asns[wiring.cc] = wiring.gateways
        for gateway, neighbor_ccs in wiring.exports:
            for neighbor_cc in neighbor_ccs:
                for foreign_gateway in self._gateway_asns.get(neighbor_cc, []):
                    if (
                        foreign_gateway != gateway
                        and foreign_gateway not in carrier_asns
                        # Never chain cable gateways under each other: a
                        # triangle of such edges would create a c2p cycle.
                        and self._records[foreign_gateway].role
                        is not OperatorRole.CABLE
                        and graph.relationship(foreign_gateway, gateway) is None
                    ):
                        graph.add_c2p(foreign_gateway, gateway)
                        break
