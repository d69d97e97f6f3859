"""Stage 1: candidate ASes and candidate companies (§4).

Three technical sources yield ASNs:

* **Country-level AS geolocation** — ASes originating at least 5 % of some
  country's geolocated address space;
* **APNIC eyeballs** — ASes serving at least 5 % of some country's
  estimated users;
* **CTI** — the two most influential transit ASes of each transit-dominant
  country.

Two non-technical sources yield company names to verify: Orbis's
state-owned-telco query and the Wikipedia + Freedom House harvest.

The returned :class:`CandidateSet` keeps per-candidate provenance (which
sources flagged it — the ``inputs`` field of the output dataset) and the
funnel statistics the paper reports in §4 (793 / 716 / 466 / 1043 / 93 /
1091 ASes, 1023 organizations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.config import PipelineConfig
from repro.cti.selection import CTISelection
from repro.errors import SourceError
from repro.resilience.faults import fault_point
from repro.sources.base import InputSource
from repro.sources.eyeballs import EyeballDataset
from repro.sources.geolocation import GeolocationService
from repro.sources.prefix2as import Prefix2ASTable

__all__ = ["CompanyCandidate", "CandidateSet", "harvest_candidates"]


@dataclass(frozen=True)
class CompanyCandidate:
    """A company name reported as (likely) state-owned by a source."""

    name: str
    cc: str
    source: InputSource


@dataclass
class CandidateSet:
    """Everything stage 1 hands to stage 2."""

    #: Candidate ASNs with the set of sources that selected each.
    asn_sources: Dict[int, Set[InputSource]] = field(default_factory=dict)
    #: Candidate company names from the non-technical sources.
    companies: List[CompanyCandidate] = field(default_factory=list)
    #: §4.1 funnel statistics, keyed by stat name.
    stats: Dict[str, int] = field(default_factory=dict)
    #: Per-AS, per-source detail: country that triggered selection + share.
    detail: Dict[Tuple[int, InputSource], Tuple[str, float]] = field(
        default_factory=dict
    )
    #: Technical sources that failed during harvest and were quarantined
    #: (contributed nothing); the pipeline folds these into the run's
    #: degraded-source provenance.
    degraded: Set[InputSource] = field(default_factory=set)

    def asns(self) -> FrozenSet[int]:
        return frozenset(self.asn_sources)

    def asns_from(self, source: InputSource) -> FrozenSet[int]:
        return frozenset(
            asn for asn, sources in self.asn_sources.items() if source in sources
        )

    def add_asn(
        self,
        asn: int,
        source: InputSource,
        cc: str,
        share: float,
    ) -> None:
        self.asn_sources.setdefault(asn, set()).add(source)
        key = (asn, source)
        # Keep the strongest trigger for reporting.
        if key not in self.detail or share > self.detail[key][1]:
            self.detail[key] = (cc, share)


def _geolocation_candidates(
    candidates: CandidateSet,
    table: Prefix2ASTable,
    geolocation: GeolocationService,
    threshold: float,
) -> None:
    triplets = geolocation.country_asn_addresses(table)
    country_totals: Dict[str, int] = {}
    for (_, cc), count in triplets.items():
        country_totals[cc] = country_totals.get(cc, 0) + count
    for (asn, cc), count in triplets.items():
        total = country_totals.get(cc, 0)
        if total == 0:
            continue
        share = count / total
        if share >= threshold:
            candidates.add_asn(asn, InputSource.GEOLOCATION, cc, share)


def _eyeball_candidates(
    candidates: CandidateSet,
    eyeballs: EyeballDataset,
    threshold: float,
) -> None:
    seen_countries: Set[str] = set()
    for asn in eyeballs.covered_asns():
        cc = eyeballs.country_of(asn)
        if cc is not None:
            seen_countries.add(cc)
    for cc in sorted(seen_countries):
        for asn, share in eyeballs.country_shares(cc).items():
            if share >= threshold:
                candidates.add_asn(asn, InputSource.EYEBALLS, cc, share)


def _cti_candidates(candidates: CandidateSet, selection: CTISelection) -> None:
    for asn in sorted(selection.asns):
        for cc, _rank, score in selection.provenance.get(asn, ()):
            candidates.add_asn(asn, InputSource.CTI, cc, score)


def _harvest_or_quarantine(
    candidates: CandidateSet,
    source: InputSource,
    site: str,
    harvester: Callable[[CandidateSet], None],
) -> None:
    """Run one technical-source harvest, quarantining it on failure.

    The harvester fills a scratch set that is merged only on success, so a
    source that fails mid-harvest contributes *nothing* — the surviving
    candidate set is byte-identical to a run that skipped the source.
    """
    scratch = CandidateSet()
    try:
        fault_point(site)
        harvester(scratch)
    except SourceError:
        candidates.degraded.add(source)
        return
    for (asn, src), (cc, share) in scratch.detail.items():
        candidates.add_asn(asn, src, cc, share)


def harvest_candidates(
    table: Prefix2ASTable,
    geolocation: GeolocationService,
    eyeballs: EyeballDataset,
    cti_selection: Optional[CTISelection],
    orbis_companies: Iterable[Tuple[str, str]],
    wiki_fh_companies: Iterable[Tuple[str, str]],
    config: Optional[PipelineConfig] = None,
    skip: FrozenSet[InputSource] = frozenset(),
) -> CandidateSet:
    """Run all five input sources and assemble the candidate set.

    ``orbis_companies`` and ``wiki_fh_companies`` are (name, cc) iterables —
    the callers extract them from :class:`~repro.sources.orbis.OrbisDatabase`
    and the Wikipedia/Freedom House sources.

    Sources in ``skip`` (ablation studies, pre-degraded inputs) are not
    harvested at all.  Each technical source runs behind its
    fault-injection site (``source.geolocation``, ``source.eyeballs``) and
    is quarantined into ``CandidateSet.degraded`` when it fails, instead of
    sinking the run.
    """
    config = config or PipelineConfig()
    candidates = CandidateSet()
    threshold = config.candidate_share_threshold

    if InputSource.GEOLOCATION not in skip:
        _harvest_or_quarantine(
            candidates,
            InputSource.GEOLOCATION,
            "source.geolocation",
            lambda cs: _geolocation_candidates(cs, table, geolocation, threshold),
        )
    geo_asns = candidates.asns_from(InputSource.GEOLOCATION)

    if InputSource.EYEBALLS not in skip:
        _harvest_or_quarantine(
            candidates,
            InputSource.EYEBALLS,
            "source.eyeballs",
            lambda cs: _eyeball_candidates(cs, eyeballs, threshold),
        )
    eyeball_asns = candidates.asns_from(InputSource.EYEBALLS)

    if cti_selection is not None and InputSource.CTI not in skip:
        _cti_candidates(candidates, cti_selection)
    cti_asns = candidates.asns_from(InputSource.CTI)

    seen_names: Set[Tuple[str, str, InputSource]] = set()
    for name, cc in orbis_companies:
        key = (name.lower(), cc, InputSource.ORBIS)
        if key not in seen_names:
            seen_names.add(key)
            candidates.companies.append(
                CompanyCandidate(name=name, cc=cc, source=InputSource.ORBIS)
            )
    for name, cc in wiki_fh_companies:
        key = (name.lower(), cc, InputSource.WIKIPEDIA_FH)
        if key not in seen_names:
            seen_names.add(key)
            candidates.companies.append(
                CompanyCandidate(name=name, cc=cc, source=InputSource.WIKIPEDIA_FH)
            )

    candidates.stats = {
        "geolocation_asns": len(geo_asns),
        "eyeball_asns": len(eyeball_asns),
        "geo_eyeball_intersection": len(geo_asns & eyeball_asns),
        "geo_eyeball_union": len(geo_asns | eyeball_asns),
        "cti_asns": len(cti_asns),
        "total_asns": len(candidates.asn_sources),
        "orbis_companies": sum(
            1 for c in candidates.companies if c.source is InputSource.ORBIS
        ),
        "wiki_fh_companies": sum(
            1 for c in candidates.companies if c.source is InputSource.WIKIPEDIA_FH
        ),
    }
    return candidates
