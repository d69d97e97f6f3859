"""Configuration dataclasses for the world generator, sources and pipeline.

The defaults are calibrated so that a full-scale world (``scale=1.0``)
produces a dataset whose headline numbers land in the same ballpark as the
paper's (989 state-owned ASes from 302 companies across 123 countries,
17 % of announced space, 193 foreign-subsidiary ASes...).  Tests use small
scales for speed; benchmarks use the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError, invalid_jobs

__all__ = [
    "EXPANSION_PROFILES",
    "WorldConfig",
    "SourceNoiseConfig",
    "PipelineConfig",
    "ParallelConfig",
]

#: Foreign-expansion profiles: owner country -> target countries where its
#: state-owned conglomerate operates subsidiaries.  Taken from the paper's
#: Table 3 (the published owner->target mapping), which doubles as the
#: calibration target for the Table 3 benchmark.
EXPANSION_PROFILES: Dict[str, Tuple[str, ...]] = {
    "AE": ("AF", "BF", "BJ", "CI", "EG", "GA", "MA", "ML", "MR", "NE", "TD", "TG"),
    "CN": ("AU", "GB", "HK", "MO", "NL", "PK", "SG", "US", "ZA"),
    "QA": ("DZ", "ID", "IQ", "KW", "MM", "MV", "OM", "PS", "TN"),
    "NO": ("BD", "DK", "FI", "MM", "MY", "PK", "SE", "TH", "GB"),
    "VN": ("BI", "CM", "HT", "KH", "LA", "MZ", "PE", "TL", "TZ"),
    "SG": ("AU", "HK", "JP", "KR", "LK", "TW"),
    "MY": ("BD", "ID", "KH", "LK", "NP"),
    "CO": ("AR", "BR", "CL", "PE"),
    "RS": ("AT", "BA", "ME"),
    "ID": ("MY", "SG", "TL"),
    "BH": ("JO", "MV", "JM"),
    "TN": ("CY", "MR", "MT"),
    "SA": ("BH", "KW"),
    "FJ": ("VU",),
    "MU": ("UG",),
    "BE": ("LU",),
    "CH": ("IT",),
    "RU": ("AM",),
    "SI": ("AL",),
}


@dataclass
class WorldConfig:
    """Parameters of the synthetic ground-truth world."""

    seed: int = 20210701
    #: Global multiplier on per-country AS counts (tests use ~0.25).
    scale: float = 1.0

    #: P(the incumbent is majority state-owned), keyed by (region, dev_tier).
    #: Regional priors reproduce the Africa/Asia prevalence the paper finds.
    incumbent_state_prob: Mapping[str, float] = field(
        default_factory=lambda: {
            "Africa": 0.60,
            "Asia": 0.62,
            "Europe": 0.48,
            "Americas": 0.35,
            "Oceania": 0.35,
        }
    )
    #: P(a second, non-incumbent state-owned operator exists) by region.
    extra_state_operator_prob: Mapping[str, float] = field(
        default_factory=lambda: {
            "Africa": 0.25,
            "Asia": 0.38,
            "Europe": 0.25,
            "Americas": 0.20,
            "Oceania": 0.15,
        }
    )
    #: P(a large private operator carries a minority government stake).
    minority_stake_prob: float = 0.16
    #: Countries that never have state-owned operators (the paper singles
    #: out the US).
    no_state_ownership: Tuple[str, ...] = ("US",)

    #: Ownership-structure mix for state-owned operators:
    #: (direct, funds-aggregate, holding-chain, joint-venture) probabilities.
    ownership_structure_mix: Tuple[float, float, float, float] = (
        0.62,
        0.14,
        0.16,
        0.08,
    )

    #: Number of significant access operators per country by addr_class.
    access_operators_by_class: Tuple[int, ...] = (2, 3, 4, 5, 6, 8)
    #: Long-tail (enterprise/hosting/small-ISP) AS count per addr_class.
    tail_ases_by_class: Tuple[int, ...] = (2, 6, 14, 34, 80, 260)
    #: Address budget per addr_class, in /24 units.  Class 5 is the US only:
    #: its outsized weight reproduces the paper's 17 % -> 25 % jump when the
    #: US is excluded from the state-owned address-space share.
    addr_budget_by_class: Tuple[int, ...] = (24, 90, 340, 1300, 5200, 48000)
    #: Eyeball budget per pop_class (Internet users).
    eyeball_budget_by_class: Tuple[int, ...] = (
        60_000,
        450_000,
        2_600_000,
        11_000_000,
        46_000_000,
        240_000_000,
    )

    #: Sibling-ASN count ranges by operator role weight: incumbents get the
    #: most ASNs (historic allocations, acquisitions).
    incumbent_sibling_range: Tuple[int, int] = (2, 8)
    other_sibling_range: Tuple[int, int] = (1, 3)
    subsidiary_sibling_range: Tuple[int, int] = (1, 3)

    #: Famous ground-truth market shares forced onto specific state
    #: incumbents (paper Table 8 archetypes: Ethiopia 1.0, Cuba 1.0,
    #: China 0.97, UAE 0.99, Syria 1.0...).
    forced_state_share: Mapping[str, float] = field(
        default_factory=lambda: {
            "CN": 0.95,
            "AE": 0.97,
            "ET": 0.99,
            "CU": 0.98,
            "SY": 0.97,
            "ER": 0.97,
            "DJ": 0.96,
            "TM": 0.91,
            "UY": 0.92,
            "IR": 0.9,
        }
    )

    #: P(a developing country is transit-dominant, i.e. eligible for CTI).
    #: Calibrated so that roughly 75 countries qualify (the paper applies
    #: CTI to 75 countries).
    transit_dominant_prob: Mapping[int, float] = field(
        default_factory=lambda: {0: 0.5, 1: 0.2, 2: 0.02}
    )
    #: P(a transit-dominant country has a state transit gateway/backbone).
    state_gateway_prob: float = 0.35
    #: P(the state gateway is *small* in addresses/eyeballs, so only CTI can
    #: find it — the paper's Appendix D phenomenon).
    stealth_gateway_prob: float = 0.6
    #: Countries guaranteed a state-owned submarine-cable operator (the
    #: Figure 5 archetypes: Angola Cables, BSCCL).
    forced_cable_ccs: Tuple[str, ...] = ("AO", "BD")

    #: Foreign expansion: owner cc -> target ccs (paper Table 3 by default).
    expansion_profiles: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(EXPANSION_PROFILES)
    )
    #: P(a foreign subsidiary is registered but runs no ASN of its own).
    asnless_subsidiary_prob: float = 0.12

    #: Number of BGP monitors to place.
    monitor_count: int = 40

    #: Share of countries with an excluded state-funded org (academic etc.).
    excluded_org_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigError("scale must be positive")
        if abs(sum(self.ownership_structure_mix) - 1.0) > 1e-9:
            raise ConfigError("ownership_structure_mix must sum to 1")
        for table_name in ("incumbent_state_prob", "extra_state_operator_prob"):
            table = getattr(self, table_name)
            for region, prob in table.items():
                if not 0.0 <= prob <= 1.0:
                    raise ConfigError(
                        f"{table_name}[{region!r}] = {prob} out of [0, 1]"
                    )
        if len(self.access_operators_by_class) != 6:
            raise ConfigError("access_operators_by_class needs 6 entries")
        if len(self.tail_ases_by_class) != 6:
            raise ConfigError("tail_ases_by_class needs 6 entries")
        if len(self.addr_budget_by_class) != 6:
            raise ConfigError("addr_budget_by_class needs 6 entries")
        if len(self.eyeball_budget_by_class) != 6:
            raise ConfigError("eyeball_budget_by_class needs 6 entries")

    def scaled(self, count: int, minimum: int = 1) -> int:
        """Apply the global scale to an AS count."""
        return max(minimum, round(count * self.scale))

    @classmethod
    def small(cls, seed: int = 20210701) -> "WorldConfig":
        """A reduced world for unit/integration tests."""
        return cls(seed=seed, scale=0.3, monitor_count=16)

    @classmethod
    def tiny(cls, seed: int = 20210701) -> "WorldConfig":
        """A minimal world for fast property tests."""
        return cls(seed=seed, scale=0.12, monitor_count=8)


@dataclass
class SourceNoiseConfig:
    """Noise knobs for the derived data sources (one place, all sources)."""

    #: NetAcuity-style country-level accuracy (the paper cites 74-98 %).
    geolocation_accuracy: float = 0.97
    #: Fraction of ASes covered by the APNIC eyeball estimates.
    eyeball_coverage: float = 0.85
    #: Multiplicative log-normal error sigma on eyeball estimates.
    eyeball_noise_sigma: float = 0.25
    #: P(a WHOIS record carries a stale pre-rebrand name).
    whois_stale_prob: float = 0.10
    #: P(a WHOIS record of a foreign-subsidiary AS uses an unrelated local
    #: legal name — the Internexa/Transamerican case).
    whois_unrelated_alias_prob: float = 0.35
    #: Fraction of ASes registered in PeeringDB (paper: ~20 %).
    peeringdb_coverage: float = 0.20
    #: PeeringDB coverage multiplier for transit/large networks.
    peeringdb_transit_boost: float = 3.0
    #: P(AS2Org fails to cluster a sibling whose WHOIS name diverged).
    as2org_miss_prob: float = 0.25
    #: Orbis error rates (paper: 12 FPs, 140 FNs out of ~300/1000 scale).
    orbis_false_positive_rate: float = 0.045
    orbis_false_negative_rate_developing: float = 0.55
    orbis_false_negative_rate_emerging: float = 0.30
    orbis_false_negative_rate_advanced: float = 0.08
    #: Freedom House covers 65 countries; no false positives (§7).
    freedomhouse_country_count: int = 65
    freedomhouse_recall: float = 0.85
    #: Wikipedia article existence probability by dev tier (0, 1, 2).
    wikipedia_coverage: Tuple[float, float, float] = (0.65, 0.8, 0.92)
    wikipedia_recall: float = 0.8
    #: P(a confirmation document exists) per source type is configured in
    #: the documents source; this is the global ICT-adoption dampener for
    #: developing countries (§9 "visibility").
    developing_doc_penalty: float = 0.25

    def __post_init__(self) -> None:
        for name in (
            "geolocation_accuracy",
            "eyeball_coverage",
            "whois_stale_prob",
            "whois_unrelated_alias_prob",
            "peeringdb_coverage",
            "as2org_miss_prob",
            "orbis_false_positive_rate",
            "freedomhouse_recall",
            "wikipedia_recall",
            "developing_doc_penalty",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} = {value} out of [0, 1]")


@dataclass
class PipelineConfig:
    """Parameters of the three-stage classification pipeline."""

    #: §4.1 market-share threshold for both geolocation and eyeball sources.
    candidate_share_threshold: float = 0.05
    #: §4.1: how many top-CTI ASes to take per eligible country.
    cti_top_k: int = 2
    #: Minimum CTI value for a top-k AS to be considered at all.
    cti_min_score: float = 0.02
    #: Name-similarity threshold for AS-to-company mapping.
    mapping_similarity_threshold: float = 0.7
    #: Minimum corroboration weight for confirming state ownership when the
    #: only evidence is a non-authoritative source.
    confirmation_min_weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.candidate_share_threshold < 1.0:
            raise ConfigError("candidate_share_threshold out of (0, 1)")
        if self.cti_top_k < 1:
            raise ConfigError("cti_top_k must be >= 1")
        if not 0.0 < self.mapping_similarity_threshold <= 1.0:
            raise ConfigError("mapping_similarity_threshold out of (0, 1]")


@dataclass
class ParallelConfig:
    """Execution knobs of one pipeline run (parallelism + persistent cache).

    The defaults are fully serial with no on-disk cache, so library users
    and tests get the unsurprising behaviour; the CLI resolves ``--jobs``
    (with a ``REPRO_JOBS`` fallback) and the cache directory
    (``REPRO_CACHE_DIR``, default ``~/.cache/repro``) into an explicit
    instance.  Serial and process-pool runs produce bit-identical pipeline
    output; only wall time changes.
    """

    #: Worker count; 1 runs serially, more on a process pool.
    jobs: int = 1
    #: Root of the persistent result cache; None disables on-disk caching.
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise invalid_jobs(self.jobs)
