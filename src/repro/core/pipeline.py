"""The three-stage classification pipeline (Figure 2), end to end.

:class:`StateOwnershipPipeline` consumes only derived data sources (never
the world's ground truth) and emits the output dataset plus rich
diagnostics.  :class:`PipelineInputs.from_world` is the convenience
constructor that materializes every source from a synthetic world.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.config import ParallelConfig, PipelineConfig, SourceNoiseConfig
from repro.core.candidates import CandidateSet, harvest_candidates
from repro.core.confirmation import (
    ConfirmationStatus,
    ConfirmationVerdict,
    OwnershipAnalyst,
    ExclusionReason,
    classify_exclusion,
)
from repro.core.dataset import OrganizationRecord, StateOwnedDataset
from repro.core.expansion import expand_to_asns
from repro.core.mapping import CompanyMapper
from repro.core.subsidiaries import DiscoveredCompany, SubsidiaryExplorer
from repro.cti.metric import CTIComputer
from repro.cti.selection import CTISelection, select_cti_candidates
from repro.errors import PipelineError, SourceError
from repro.obs import get_metrics, span
from repro.parallel import (
    ExecutionContext,
    ResultCache,
    stable_digest,
    world_fingerprint,
)
from repro.resilience import QuarantinedSource, fault_point
from repro.sources.as2org import As2OrgDataset
from repro.sources.asrank import AsRankDataset
from repro.sources.base import InputSource
from repro.sources.documents import ConfirmationCorpus
from repro.sources.eyeballs import EyeballDataset
from repro.sources.freedomhouse import FreedomHouseReports
from repro.sources.geolocation import GeolocationService
from repro.sources.orbis import OrbisDatabase
from repro.sources.peeringdb import PeeringDBDataset
from repro.sources.prefix2as import Prefix2ASTable
from repro.sources.whois import WhoisDatabase
from repro.sources.wikipedia import WikipediaArticles
from repro.text.normalize import normalize_name
from repro.world.countries import COUNTRIES

__all__ = ["PipelineInputs", "PipelineResult", "StateOwnershipPipeline"]

_COUNTRY_NAME = {c.cc: c.name for c in COUNTRIES}
_COUNTRY_RIR = {c.cc: c.rir for c in COUNTRIES}


@dataclass
class PipelineInputs:
    """Every data source the pipeline consumes."""

    prefix2as: Prefix2ASTable
    geolocation: GeolocationService
    eyeballs: EyeballDataset
    whois: WhoisDatabase
    peeringdb: PeeringDBDataset
    as2org: As2OrgDataset
    orbis: OrbisDatabase
    freedomhouse: FreedomHouseReports
    wikipedia: WikipediaArticles
    corpus: ConfirmationCorpus
    collector: object                  # RouteCollector (for CTI)
    cti_eligible_ccs: Tuple[str, ...]  # transit-dominant countries
    asrank: Optional[object] = None    # AsRankDataset (evaluation only)
    #: Content digest of the configuration that produced these inputs; keys
    #: the persistent result cache.  None disables on-disk caching for runs
    #: over hand-assembled inputs, whose provenance we cannot fingerprint.
    fingerprint: Optional[str] = None
    #: Candidate sources quarantined while *building* the inputs: each
    #: failed and was replaced by an inert
    #: :class:`~repro.resilience.QuarantinedSource`.  The pipeline folds
    #: these into the run's degraded-source provenance.
    degraded: FrozenSet[InputSource] = frozenset()
    #: The call sites that failed, for diagnostics ("source.orbis", ...).
    degraded_sites: Tuple[str, ...] = ()

    @classmethod
    def from_world(
        cls,
        world,
        noise: Optional[SourceNoiseConfig] = None,
        fail_fast: bool = False,
        prefix2as: Optional[Prefix2ASTable] = None,
    ) -> "PipelineInputs":
        """Materialize all derived sources from a synthetic world.

        Every source loader runs behind its fault-injection site
        (``source.<name>``).  Loaders the pipeline can run without — the
        five candidate feeds — degrade into
        :class:`~repro.resilience.QuarantinedSource` stand-ins when they
        fail; infrastructure loaders (prefix2as, WHOIS, PeeringDB, AS2Org,
        the confirmation corpus) stay fatal.  With ``fail_fast`` every
        failed loader is fatal.

        ``prefix2as`` reuses an already-built table (and its trie) when
        the caller has proven, via the prefix-source fingerprint, that the
        world's announced table is unchanged — the incremental maintain
        loop's trie-reuse path.
        """
        noise = noise or SourceNoiseConfig()
        degraded: Set[InputSource] = set()
        failed_sites: List[str] = []

        def build(site: str, builder):
            """A required loader: a failure is fatal."""
            fault_point(site)
            return builder()

        def build_optional(site: str, builder, flags: Tuple[InputSource, ...]):
            """A candidate-feed loader: a failure quarantines it."""
            try:
                return build(site, builder)
            except SourceError:
                if fail_fast:
                    raise
                metrics = get_metrics()
                metrics.incr("resilience.quarantined")
                for flag in flags:
                    degraded.add(flag)
                    metrics.incr(f"resilience.quarantined.{flag.name.lower()}")
                failed_sites.append(site)
                return QuarantinedSource(site)

        if prefix2as is None:
            prefix2as = build(
                "source.prefix2as", lambda: Prefix2ASTable.from_world(world)
            )
        whois = build("source.whois", lambda: WhoisDatabase.from_world(world, noise))
        freedomhouse = build_optional(
            "source.freedomhouse",
            lambda: FreedomHouseReports.from_world(world, noise),
            (InputSource.WIKIPEDIA_FH,),
        )
        # CTI cascades with geolocation: the transit-influence metric
        # cannot attribute addresses to countries without it.
        geolocation = build_optional(
            "source.geolocation",
            lambda: GeolocationService.from_world(world, noise),
            (InputSource.GEOLOCATION, InputSource.CTI),
        )
        eyeballs = build_optional(
            "source.eyeballs",
            lambda: EyeballDataset.from_world(world, noise),
            (InputSource.EYEBALLS,),
        )
        peeringdb = build(
            "source.peeringdb",
            lambda: PeeringDBDataset.from_world(world, noise),
        )
        as2org = build(
            "source.as2org",
            lambda: As2OrgDataset.from_world(world, whois, noise),
        )
        orbis = build_optional(
            "source.orbis",
            lambda: OrbisDatabase.from_world(world, noise),
            (InputSource.ORBIS,),
        )
        wikipedia = build_optional(
            "source.wikipedia",
            lambda: WikipediaArticles.from_world(world, noise),
            (InputSource.WIKIPEDIA_FH,),
        )
        # The confirmation corpus folds Freedom House reports in when they
        # are available; a degraded FH source thins the corpus (documents
        # are lost) but must not take confirmation down with it.
        fh_for_corpus = (
            None if isinstance(freedomhouse, QuarantinedSource) else freedomhouse
        )
        corpus = build(
            "source.corpus",
            lambda: ConfirmationCorpus.from_world(world, fh_for_corpus, noise),
        )
        asrank = build("source.asrank", lambda: AsRankDataset.from_world(world))
        return cls(
            prefix2as=prefix2as,
            geolocation=geolocation,
            eyeballs=eyeballs,
            whois=whois,
            peeringdb=peeringdb,
            as2org=as2org,
            orbis=orbis,
            freedomhouse=freedomhouse,
            wikipedia=wikipedia,
            corpus=corpus,
            collector=world.collector,
            cti_eligible_ccs=tuple(sorted(world.transit_dominant_ccs)),
            asrank=asrank,
            # Both what should be built (config + noise) and what was
            # built: a cache entry written by a different code revision —
            # same config, different generated world — can never collide.
            fingerprint=stable_digest(
                {
                    "config": world_fingerprint(world.config, noise),
                    "world": world.content_digest(),
                }
            ),
            degraded=frozenset(degraded),
            degraded_sites=tuple(failed_sites),
        )


@dataclass
class CompanyWork:
    """One company queued for stage-2 verification."""

    canonical_name: str
    sources: Set[InputSource] = field(default_factory=set)
    seed_asns: Set[int] = field(default_factory=set)
    cc_votes: Counter = field(default_factory=Counter)

    @property
    def cc_hint(self) -> Optional[str]:
        if not self.cc_votes:
            return None
        return self.cc_votes.most_common(1)[0][0]


@dataclass
class PipelineResult:
    """Dataset + full diagnostics of one pipeline run."""

    dataset: StateOwnedDataset
    candidates: CandidateSet
    cti_selection: Optional[CTISelection]
    verdicts: Dict[str, ConfirmationVerdict]
    work: Dict[str, CompanyWork]
    confirmed_keys: Set[str]
    minority_keys: Set[str]
    excluded: Dict[str, str]             # key -> exclusion reason text
    unconfirmed_keys: Set[str]           # candidates with no usable evidence
    discoveries: List[DiscoveredCompany]
    asn_inputs: Dict[int, FrozenSet[InputSource]]
    org_inputs: Dict[str, FrozenSet[InputSource]]   # org_id -> sources
    stats: Dict[str, float]
    #: Candidate sources quarantined anywhere along the run (input build,
    #: run-time query, or harvest); empty for a clean run.
    degraded_sources: FrozenSet[InputSource] = frozenset()

    def state_owned_asns(self) -> FrozenSet[int]:
        return self.dataset.all_asns()


def _investigate_task(state: Dict[str, object], company_name: str) -> Tuple[
    ConfirmationVerdict,
    Dict[str, ConfirmationVerdict],
    Dict[str, Tuple[str, ...]],
    Set[str],
]:
    """Stage-2 work unit: investigate one company.

    ``state`` carries the analyst: shared by reference on the serial
    backend (so memoized ownership chains are reused exactly as in the
    serial loop), shipped once per worker on the process backend.  The
    returned minority-log snapshot lets the coordinator merge §7 minority
    findings from worker-local analysts deterministically; the footprint
    delta (per-verdict corpus-query footprints plus volatile keys recorded
    by this investigation) lets it merge the invalidation metadata the
    incremental maintain loop seeds the next snapshot from.
    """
    analyst: OwnershipAnalyst = state["analyst"]  # type: ignore[assignment]
    mark = analyst.footprint_mark()
    verdict = analyst.investigate(company_name)
    footprints, volatile = analyst.footprint_delta(mark)
    return verdict, dict(analyst.minority_log), footprints, volatile


def _decode_scores(payload: Dict[str, Dict[str, float]]) -> Dict[str, Dict[int, float]]:
    """Cached CTI score maps back to int-keyed form (JSON stringifies keys)."""
    return {
        cc: {int(asn): score for asn, score in scores.items()}
        for cc, scores in payload.items()
    }


class StateOwnershipPipeline:
    """Orchestrates stages 1-3 over a fixed set of inputs."""

    def __init__(
        self,
        inputs: PipelineInputs,
        config: Optional[PipelineConfig] = None,
        parallel: Optional[ParallelConfig] = None,
        fail_fast: bool = False,
        context: Optional[ExecutionContext] = None,
        cti_computer: Optional[CTIComputer] = None,
        analyst: Optional[OwnershipAnalyst] = None,
    ) -> None:
        self._inputs = inputs
        self._config = config or PipelineConfig()
        self._parallel = parallel or ParallelConfig()
        self._fail_fast = fail_fast
        self._context = context
        self._whois_memo: Dict[int, object] = {}
        # Incremental-maintain injection points: a CTI computer carrying
        # still-valid transit terms/scores, and an analyst pre-seeded with
        # verdicts whose corpus-query footprints survived the delta.  When
        # a computer is injected the whole-run "cti" cache section is
        # bypassed — the injector owns finer-grained reuse.
        self._cti_computer = cti_computer
        self._analyst = analyst

    # -- public API --------------------------------------------------------------
    def run(self, skip_sources: Iterable[InputSource] = ()) -> PipelineResult:
        """Run the full pipeline.

        ``skip_sources`` disables candidate sources for ablation studies
        (the A1 benchmark); stage 2/3 behaviour is unchanged.

        Candidate sources that fail at run time (or arrived quarantined
        from :meth:`PipelineInputs.from_world`) are degraded: they
        contribute nothing, the run completes, and the output dataset
        carries their codes in ``degraded_sources``.  A degraded run is
        byte-identical to one that listed the same sources in
        ``skip_sources``.  With ``fail_fast`` any source
        failure aborts the run with :class:`PipelineError` instead.

        An injected execution context (shared with world generation by the
        CLI so one worker pool serves the whole run) is left open for the
        owner to close; a context created here is closed when the run ends.
        """
        context = self._context
        if context is not None:
            return self._run(context, skip_sources)
        with ExecutionContext(jobs=self._parallel.jobs) as context:
            return self._run(context, skip_sources)

    def _run(
        self,
        context: ExecutionContext,
        skip_sources: Iterable[InputSource] = (),
    ) -> PipelineResult:
        started = time.time()
        inputs = self._inputs
        config = self._config
        fail_fast = self._fail_fast
        degraded: Set[InputSource] = set(inputs.degraded)
        if degraded and fail_fast:
            raise PipelineError(
                "inputs arrived degraded ("
                + ", ".join(sorted(s.name for s in degraded))
                + ") and fail_fast is set"
            )
        skip = set(skip_sources) | degraded
        self._whois_memo = {}
        cache = (
            ResultCache(self._parallel.cache_dir) if self._parallel.cache_dir else None
        )
        get_metrics().gauge("parallel.jobs", context.jobs)

        def quarantine(source: InputSource) -> None:
            """Fold a run-time source failure into the degradation state."""
            if fail_fast:
                raise PipelineError(f"source {source.name} failed and fail_fast is set")
            metrics = get_metrics()
            metrics.incr("resilience.quarantined")
            metrics.incr(f"resilience.quarantined.{source.name.lower()}")
            degraded.add(source)
            skip.add(source)

        # ---- stage 1: candidates ------------------------------------------------
        cti_selection: Optional[CTISelection] = None
        with span("pipeline.candidates") as sp_candidates:
            if InputSource.CTI not in skip:
                try:
                    fault_point("source.cti")
                    cti_selection = self._compute_cti(inputs, config, context, cache)
                except SourceError:
                    quarantine(InputSource.CTI)
            orbis_companies: List[Tuple[str, str]] = []
            if InputSource.ORBIS not in skip:
                try:
                    fault_point("source.orbis")
                    orbis_companies = [
                        (r.company_name, r.cc)
                        for r in inputs.orbis.state_owned_telcos()
                    ]
                except SourceError:
                    quarantine(InputSource.ORBIS)
            wiki_fh: List[Tuple[str, str]] = []
            if InputSource.WIKIPEDIA_FH not in skip:
                # Wikipedia and Freedom House feed one joint candidate
                # source (code W): if either query fails, the whole feed is
                # quarantined so the provenance flag is unambiguous.
                try:
                    fault_point("source.wikipedia")
                    wiki_fh = list(inputs.wikipedia.state_owned_company_names())
                    fault_point("source.freedomhouse")
                    wiki_fh += inputs.freedomhouse.state_owned_company_names()
                except SourceError:
                    wiki_fh = []
                    quarantine(InputSource.WIKIPEDIA_FH)
            candidates = harvest_candidates(
                table=inputs.prefix2as,
                geolocation=inputs.geolocation,
                eyeballs=inputs.eyeballs,
                cti_selection=cti_selection,
                orbis_companies=orbis_companies,
                wiki_fh_companies=wiki_fh,
                config=config,
                skip=frozenset(skip),
            )
            for source in candidates.degraded:
                quarantine(source)
            for source in InputSource:
                harvested = len(candidates.asns_from(source))
                if harvested:
                    sp_candidates.incr(f"asns.{source.name.lower()}", harvested)
            sp_candidates.incr("asns_total", len(candidates.asn_sources))
            sp_candidates.incr("companies", len(candidates.companies))

        # ---- mapping: candidates -> company worklist ------------------------------
        mapper = CompanyMapper(inputs.whois, inputs.peeringdb, inputs.corpus, config)
        work: Dict[str, CompanyWork] = {}
        unmapped_asns = 0
        with span("pipeline.mapping") as sp_mapping:
            for asn in sorted(candidates.asn_sources):
                mapped = mapper.map_asn(asn)
                if mapped is None:
                    unmapped_asns += 1
                    continue
                key = normalize_name(mapped.company_name)
                item = work.setdefault(
                    key, CompanyWork(canonical_name=mapped.company_name)
                )
                item.sources |= candidates.asn_sources[asn]
                item.seed_asns.add(asn)
                if mapped.cc:
                    item.cc_votes[mapped.cc] += 1
            for company in candidates.companies:
                canonical = self._canonicalize(company.name, mapper)
                key = normalize_name(canonical)
                item = work.setdefault(key, CompanyWork(canonical_name=canonical))
                item.sources.add(company.source)
                if company.cc:
                    item.cc_votes[company.cc] += 1
            candidates.stats["candidate_organizations"] = (
                inputs.as2org.distinct_org_count(candidates.asn_sources)
            )
            candidates.stats["unmapped_asns"] = unmapped_asns
            candidates.stats["companies_to_verify"] = len(work)
            sp_mapping.incr("unmapped_asns", unmapped_asns)
            sp_mapping.incr("companies_to_verify", len(work))

        # ---- stage 2: confirmation -------------------------------------------------
        analyst = self._analyst or OwnershipAnalyst(inputs.corpus, config)
        verdicts: Dict[str, ConfirmationVerdict] = {}
        confirmed: Dict[str, ConfirmationVerdict] = {}
        minority: Set[str] = set()
        excluded: Dict[str, str] = {}
        unconfirmed: Set[str] = set()
        with span("pipeline.confirmation") as sp_confirm:
            # Pre-exclusion is a cheap registry lookup; the investigations
            # behind the surviving worklist are independent per company, so
            # they fan out across the execution context.  Results come back
            # in worklist (sorted-key) order and are folded in serially, so
            # verdict classification and minority merging are deterministic
            # for every backend.
            queue: List[Tuple[str, CompanyWork]] = []
            for key in sorted(work):
                item = work[key]
                reason = self._pre_exclusion(item, inputs.peeringdb)
                if reason is not None:
                    excluded[key] = reason.value
                    sp_confirm.incr(f"excluded.{reason.name.lower()}")
                    continue
                queue.append((key, item))
            results = context.map_ordered(
                _investigate_task,
                [item.canonical_name for _, item in queue],
                state={"analyst": analyst},
                label="confirmation",
            )
            for (key, item), (
                verdict,
                worker_minority,
                worker_footprints,
                worker_volatile,
            ) in zip(queue, results):
                analyst.absorb(
                    verdict,
                    worker_minority,
                    footprints=worker_footprints,
                    volatile=worker_volatile,
                )
                verdicts[key] = verdict
                sp_confirm.incr(f"verdict.{verdict.status.name.lower()}")
                if verdict.status is ConfirmationStatus.CONFIRMED:
                    confirmed[key] = verdict
                elif verdict.status is ConfirmationStatus.MINORITY:
                    minority.add(key)
                elif verdict.status is ConfirmationStatus.EXCLUDED_SUBNATIONAL:
                    excluded[key] = ExclusionReason.SUBNATIONAL.value
                else:
                    unconfirmed.add(key)

        # ---- stage 2b: parent / subsidiary discovery ---------------------------------
        with span("pipeline.discovery") as sp_discovery:
            explorer = SubsidiaryExplorer(analyst)
            discoveries = explorer.explore(
                (verdict.company_name, verdict) for verdict in confirmed.values()
            )
            parent_discovered: Set[str] = set()
            for discovery in discoveries:
                key = normalize_name(discovery.company_name)
                if key in confirmed:
                    continue
                verdicts[key] = discovery.verdict
                confirmed[key] = discovery.verdict
                sp_discovery.incr(f"discovered.{discovery.relationship}")
                if discovery.relationship == "parent":
                    parent_discovered.add(key)
                parent_key = normalize_name(discovery.discovered_via)
                item = work.setdefault(
                    key, CompanyWork(canonical_name=discovery.company_name)
                )
                if parent_key in work:
                    item.sources |= work[parent_key].sources
            minority |= {key for key in analyst.minority_log if key not in confirmed}

        # ---- stage 3: expansion + dataset assembly ----------------------------------
        with span("pipeline.expansion") as sp_expand:
            dataset, asn_inputs, org_inputs = self._assemble(
                confirmed,
                work,
                mapper,
                candidates,
                parent_discovered,
                degraded=frozenset(degraded),
            )
            sp_expand.incr("organizations", len(dataset))
            sp_expand.incr("asns_expanded", len(dataset.all_asns()))
            sp_expand.incr(
                "foreign_subsidiary_asns", len(dataset.foreign_subsidiary_asns())
            )

        stats = dict(candidates.stats)
        stats.update(
            {
                "confirmed_companies": len(confirmed),
                "minority_companies": len(minority),
                "excluded_companies": len(excluded),
                "unconfirmed_companies": len(unconfirmed),
                "discovered_companies": len(discoveries),
                "state_owned_asns": len(dataset.all_asns()),
                "foreign_subsidiary_asns": len(dataset.foreign_subsidiary_asns()),
                "degraded_sources": len(degraded),
                "runtime_seconds": round(time.time() - started, 3),
            }
        )
        return PipelineResult(
            dataset=dataset,
            candidates=candidates,
            cti_selection=cti_selection,
            verdicts=verdicts,
            work=work,
            confirmed_keys=set(confirmed),
            minority_keys=minority,
            excluded=excluded,
            unconfirmed_keys=unconfirmed,
            discoveries=discoveries,
            asn_inputs=asn_inputs,
            org_inputs=org_inputs,
            stats=stats,
            degraded_sources=frozenset(degraded),
        )

    # -- helpers -----------------------------------------------------------------
    def _compute_cti(
        self,
        inputs: PipelineInputs,
        config: PipelineConfig,
        context: ExecutionContext,
        cache: Optional[ResultCache],
    ) -> CTISelection:
        """The CTI stage: score transit influence and select candidates.

        Runs behind the ``source.cti`` fault site so a mid-computation
        failure (including a quarantined geolocation dependency) degrades
        the CTI feed instead of sinking the run.
        """
        with span("cti") as sp_cti:
            metrics = get_metrics()
            computed_before = metrics.counter("cti.countries_computed")
            pruned_before = metrics.counter("cti.origins_pruned")
            injected = self._cti_computer is not None
            cti = self._cti_computer or CTIComputer(
                inputs.prefix2as, inputs.geolocation, inputs.collector
            )
            cache_key = None if injected else self._cti_cache_key(cti)
            cached = (
                cache.get("cti", cache_key)
                if cache is not None and cache_key is not None
                else None
            )
            if cached is not None:
                cti.preload_scores(_decode_scores(cached.get("scores", {})))
                sp_cti.set("cache", "hit")
            cti_selection = select_cti_candidates(
                cti,
                inputs.cti_eligible_ccs,
                top_k=config.cti_top_k,
                min_score=config.cti_min_score,
                context=context,
            )
            if cache is not None and cache_key is not None and cached is None:
                cache.put(
                    "cti",
                    cache_key,
                    {
                        "scores": cti.computed_scores(),
                        "tree_stats": cti.transit_term_stats(),
                    },
                )
                sp_cti.set("cache", "miss")
            sp_cti.incr(
                "countries_computed",
                metrics.counter("cti.countries_computed") - computed_before,
            )
            sp_cti.incr(
                "origins_pruned",
                metrics.counter("cti.origins_pruned") - pruned_before,
            )
            sp_cti.incr("asns_selected", len(cti_selection.asns))
        return cti_selection

    @staticmethod
    def _canonicalize(name: str, mapper: CompanyMapper) -> str:
        """Resolve a raw company-candidate name to its corpus identity."""
        docs = mapper.corpus.find_documents(name)
        if docs:
            return docs[0].subject_names[0]
        return name

    def _cti_cache_key(self, cti: CTIComputer) -> Optional[str]:
        """Persistent-cache key for the CTI score maps of this run.

        Keys only what the score maps depend on: the input fingerprint and
        the scoring knobs.  Selection knobs (``top_k``, ``min_score``) are
        excluded — selection is a cheap recomputation over cached scores.
        Returns None (caching disabled) for un-fingerprinted inputs.
        """
        if self._inputs.fingerprint is None:
            return None
        return stable_digest(
            {
                "fingerprint": self._inputs.fingerprint,
                "eligible": sorted(self._inputs.cti_eligible_ccs),
                "min_address_fraction": cti.min_address_fraction,
            }
        )

    def _whois_lookup(self, asn: int):
        """Memoized WHOIS lookup: the assembly stage queries the same ASNs
        from several helpers; the registry view is immutable within a run."""
        if asn in self._whois_memo:
            return self._whois_memo[asn]
        record = self._inputs.whois.lookup(asn)
        self._whois_memo[asn] = record
        return record

    def _pre_exclusion(
        self, item: CompanyWork, peeringdb: PeeringDBDataset
    ) -> Optional[ExclusionReason]:
        info_type = None
        for asn in sorted(item.seed_asns):
            record = peeringdb.lookup(asn)
            if record is not None:
                info_type = record.info_type
                break
        return classify_exclusion(item.canonical_name, info_type)

    def _operating_cc(
        self,
        asns: Set[int],
        item: Optional[CompanyWork],
        verdict: ConfirmationVerdict,
    ) -> Optional[str]:
        votes: Counter = Counter()
        for asn in asns:
            record = self._whois_lookup(asn)
            if record is not None:
                votes[record.cc] += 1
        if votes:
            return votes.most_common(1)[0][0]
        if item is not None and item.cc_hint:
            return item.cc_hint
        if verdict.confirming_doc is not None:
            return verdict.confirming_doc.cc
        return None

    def _conglomerate_name(
        self,
        key: str,
        confirmed: Dict[str, ConfirmationVerdict],
        memo: Dict[str, str],
        guard: Optional[Set[str]] = None,
    ) -> str:
        if key in memo:
            return memo[key]
        guard = guard or set()
        if key in guard:
            return confirmed[key].company_name
        guard.add(key)
        verdict = confirmed[key]
        name = verdict.company_name
        for parent_name, _fraction in verdict.parent_candidates:
            parent_key = normalize_name(parent_name)
            if parent_key in confirmed and parent_key != key:
                name = self._conglomerate_name(parent_key, confirmed, memo, guard)
                break
        memo[key] = name
        return name

    def _assemble(
        self,
        confirmed: Dict[str, ConfirmationVerdict],
        work: Dict[str, CompanyWork],
        mapper: CompanyMapper,
        candidates: CandidateSet,
        parent_discovered: Optional[Set[str]] = None,
        degraded: FrozenSet[InputSource] = frozenset(),
    ) -> Tuple[
        StateOwnedDataset,
        Dict[int, FrozenSet[InputSource]],
        Dict[str, FrozenSet[InputSource]],
    ]:
        parent_discovered = parent_discovered or set()
        inputs = self._inputs
        organizations: List[OrganizationRecord] = []
        asns_of_org: Dict[str, List[int]] = {}
        used_org_ids: Set[str] = set()
        asn_inputs: Dict[int, Set[InputSource]] = {}
        org_inputs: Dict[str, FrozenSet[InputSource]] = {}
        conglomerate_memo: Dict[str, str] = {}
        org_id_of_key: Dict[str, str] = {}

        # First pass: expand every confirmed company to its ASNs and decide
        # its org_id, so parent links can reference org ids in pass two.
        expanded: Dict[str, Set[int]] = {}
        claimed_asns: Set[int] = set()
        for key in sorted(confirmed):
            verdict = confirmed[key]
            item = work.get(key)
            seed = set(item.seed_asns) if item is not None else set()
            cc_hint = item.cc_hint if item is not None else None
            aliases = (
                verdict.confirming_doc.subject_names
                if verdict.confirming_doc is not None
                else ()
            )
            asns = expand_to_asns(
                verdict.company_name,
                mapper,
                inputs.as2org,
                cc=cc_hint,
                seed_asns=seed,
                aliases=aliases,
            )
            # Every organization in the output dataset operates in exactly
            # one country (foreign subsidiaries are separate legal entities
            # per target country), so prune cross-country name-collision
            # pollution: keep only ASNs registered in the org's country.
            cc_of = {}
            for asn in asns:
                record = self._whois_lookup(asn)
                if record is not None:
                    cc_of[asn] = record.cc
            if cc_of:
                votes = Counter(cc_of.values())
                preferred = (
                    cc_hint
                    if cc_hint is not None and cc_hint in votes
                    else votes.most_common(1)[0][0]
                )
                asns = {a for a in asns if cc_of.get(a) == preferred}
            # An ASN belongs to exactly one organization: first claim wins
            # (deterministic order), mirroring the dataset's 1:N org->ASN map.
            asns = {a for a in asns if a not in claimed_asns}
            claimed_asns |= asns
            expanded[key] = asns
            org_id = self._pick_org_id(key, asns, used_org_ids)
            used_org_ids.add(org_id)
            org_id_of_key[key] = org_id

        for key in sorted(confirmed):
            verdict = confirmed[key]
            item = work.get(key)
            asns = expanded[key]
            if key in parent_discovered and not asns:
                # A corporate parent found while walking ownership chains
                # that runs no network of its own: a holding, not an
                # Internet operator.  It stays out of the dataset (its name
                # still surfaces through conglomerate_name).
                continue
            ownership_cc = verdict.controlling_cc
            if ownership_cc is None:
                raise PipelineError(
                    f"confirmed company {verdict.company_name!r} has no "
                    f"controlling country"
                )
            operating_cc = self._operating_cc(asns, item, verdict)
            # A foreign-subsidiary verdict needs corroboration beyond a mere
            # country-code mismatch (which can be a mapping artifact): either
            # a corporate majority parent was seen in the evidence, or the
            # confirming document itself concerns the operating country.
            doc_cc = (
                verdict.confirming_doc.cc
                if verdict.confirming_doc is not None
                else None
            )
            foreign = (
                operating_cc is not None
                and operating_cc != ownership_cc
                and (bool(verdict.parent_candidates) or doc_cc == operating_cc)
            )
            rir = self._rir_of(asns, operating_cc or ownership_cc)
            doc = verdict.confirming_doc
            sources = frozenset(item.sources) if item is not None else frozenset()
            org_id = org_id_of_key[key]
            parent_org = None
            for parent_name, _fraction in verdict.parent_candidates:
                parent_key = normalize_name(parent_name)
                if parent_key in org_id_of_key and parent_key != key:
                    parent_org = org_id_of_key[parent_key]
                    break
            notes: List[str] = []
            if not asns:
                notes.append("no ASN found for this operator")
            if verdict.total_equity is None:
                notes.append("state control asserted without percentage")
            elif len(verdict.state_equity) > 1 or (
                verdict.total_equity < 0.999 and verdict.parent_candidates
            ):
                notes.append("control via aggregated/indirect holdings")
            organizations.append(
                OrganizationRecord(
                    conglomerate_name=self._conglomerate_name(
                        key, confirmed, conglomerate_memo
                    ),
                    org_id=org_id,
                    org_name=verdict.company_name,
                    ownership_cc=ownership_cc,
                    ownership_country_name=_COUNTRY_NAME.get(
                        ownership_cc, ownership_cc
                    ),
                    rir=rir,
                    source=doc.source_type.value if doc is not None else "",
                    quote=doc.quote if doc is not None else "",
                    quote_lang=doc.language if doc is not None else "",
                    url=doc.url if doc is not None else "",
                    additional_info="; ".join(notes),
                    inputs=tuple(sorted(source.value for source in sources)),
                    parent_org=parent_org,
                    target_cc=operating_cc if foreign else None,
                    target_country_name=_COUNTRY_NAME.get(operating_cc)
                    if foreign and operating_cc
                    else None,
                )
            )
            asns_of_org[org_id] = sorted(asns)
            org_inputs[org_id] = sources
            # Per-ASN provenance: most sources surface the *operator* (via a
            # flagship AS or a company name), so their credit extends to all
            # of the organization's ASNs.  CTI is the exception — the paper
            # counts its contribution per selected AS (Table 6: 15 ASes),
            # so CTI credit stays with the ASNs it actually ranked.
            company_level = sources - {InputSource.CTI}
            for asn in asns:
                contribution = set(candidates.asn_sources.get(asn, set()))
                contribution |= company_level
                asn_inputs.setdefault(asn, set()).update(contribution)

        dataset = StateOwnedDataset(
            organizations,
            asns_of_org,
            degraded_sources=tuple(sorted(s.value for s in degraded)),
        )
        return (
            dataset,
            {asn: frozenset(srcs) for asn, srcs in asn_inputs.items()},
            org_inputs,
        )

    def _pick_org_id(self, key: str, asns: Set[int], used: Set[str]) -> str:
        for asn in sorted(asns):
            org = self._inputs.as2org.org_of(asn)
            if org is not None and org not in used:
                return org
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=3).hexdigest()
        org_id = f"ORG-{digest.upper()}-X"
        suffix = 1
        while org_id in used:
            suffix += 1
            org_id = f"ORG-{digest.upper()}-X{suffix}"
        return org_id

    def _rir_of(self, asns: Set[int], fallback_cc: Optional[str]) -> str:
        for asn in sorted(asns):
            record = self._whois_lookup(asn)
            if record is not None:
                return record.rir
        if fallback_cc is not None:
            return _COUNTRY_RIR.get(fallback_cc, "")
        return ""
