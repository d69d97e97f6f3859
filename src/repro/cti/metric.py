"""Country-Level Transit Influence (Appendix G).

For a transit AS and a country C the metric is::

    CTI(AS, C) = sum over monitors m of
        w(m)/|M| * sum over prefixes p with AS on the preferred path m->p of
            ( a(p, C) / A(C) ) * ( 1 / d(AS, m, p) )

where ``w(m)`` is the inverse of the number of monitors in m's host AS,
``a(p, C)`` is the number of addresses of prefix p geolocated to C that are
not covered by a more-specific announced prefix, ``A(C)`` is the total
address count geolocated to C, and ``d`` is the AS-hop distance between AS
and the prefix on the observed path.  The origin AS itself is not a transit
hop (d would be 0) and a monitor hosted inside AS does not count toward
AS's influence.

CTI captures how much of a country's inbound connectivity funnels through a
given transit provider — exactly the lens that surfaces the small,
state-owned gateways no popularity-based source can see (§4.1, Appendix D).

Execution shape
---------------
The monitor-observed path walk for one origin is independent of the country
being scored, so the expensive part — computing the routing tree toward the
origin and collecting its per-hop ``(asn, w(m)/|M|, d)`` *transit terms* —
is done **once per origin** and shared by every country that scores that
origin.  :meth:`CTIComputer.precompute` fans that per-origin work out over
an :class:`~repro.parallel.ExecutionContext`; :meth:`country_cti` then
replays the terms in exactly the order the serial loop visits them, so
scores are bit-identical regardless of worker count.  The per-country
address-weight index is built lazily on first use: constructing a
``CTIComputer`` costs nothing if (for example) cached scores are preloaded.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import AnalysisError
from repro.cti.soa import CountryWeightIndex
from repro.net.monitors import RouteCollector
from repro.net.prefix import Prefix
from repro.obs import get_metrics
from repro.sources.geolocation import GeolocationService
from repro.sources.prefix2as import Prefix2ASTable

__all__ = ["CTIComputer"]

#: Countries scored per shard by :meth:`CTIComputer.score_countries`; the
#: terms of origins no later shard needs are released between shards, so
#: peak memory is bounded by the widest shard instead of the whole run.
_COUNTRY_SHARD = 16

#: One transit contribution: (transit ASN, w(m)/|M|, AS-hop distance).
TransitTerm = Tuple[int, float, int]


def _walk_origin(collector: RouteCollector, origin: int) -> Tuple[TransitTerm, ...]:
    """Transit terms of one origin over every monitor, in monitor order.

    This is the country-independent inner loop of the metric: it computes
    (or reuses) the routing tree toward ``origin`` and emits one
    ``(asn, w, d)`` term per transit hop per monitor, preserving the
    (monitor, hop) iteration order of the original serial formula so that
    replaying the terms reproduces its floating-point sums bit for bit.
    """
    terms: List[TransitTerm] = []
    for monitor, w in collector.monitors.normalized_weights():
        path = collector.path(monitor, origin)
        if path is None or len(path) < 2:
            continue
        # path[0] is the monitor's host AS, path[-1] the origin.
        length = len(path)
        for index, asn in enumerate(path):
            distance = length - 1 - index
            if distance == 0:
                continue  # the origin is not a transit hop
            if asn == monitor.host_asn:
                continue  # m is contained within AS itself
            terms.append((asn, w, distance))
    return tuple(terms)


def _walk_origin_task(
    collector: RouteCollector, origin: int
) -> Tuple[int, Tuple[TransitTerm, ...]]:
    """Worker task: ``(origin, terms)`` so results self-identify."""
    return origin, _walk_origin(collector, origin)


class CTIComputer:
    """Computes CTI scores per country over a fixed BGP/geolocation view."""

    def __init__(
        self,
        table: Prefix2ASTable,
        geolocation: GeolocationService,
        collector: RouteCollector,
        min_address_fraction: float = 1e-3,
    ) -> None:
        self._table = table
        self._geolocation = geolocation
        self._collector = collector
        #: Origins holding less than this fraction of a country's addresses
        #: are skipped: their CTI contribution is bounded by the fraction
        #: itself, and pruning them avoids computing routing trees for the
        #: long tail of geolocation-leak artifacts.
        self._min_address_fraction = min_address_fraction
        # Struct-of-arrays per-country address-weight index (origin and
        # weight columns per country span, see repro.cti.soa).  Built
        # lazily on first use — a computer whose scores come preloaded
        # from the persistent cache never pays for the table scan.
        self._index: Optional[CountryWeightIndex] = None
        #: Dict-shaped view of the index, materialized only when the
        #: reference oracle (or a legacy caller) asks for it.
        self._dict_view: Optional[
            Tuple[Dict[str, Dict[int, int]], Dict[str, int]]
        ] = None
        #: Per-origin transit terms, shared across all countries that score
        #: the origin (and across serial/parallel execution paths).
        self._terms: Dict[int, Tuple[TransitTerm, ...]] = {}
        self._cti_cache: Dict[str, Dict[int, float]] = {}

    @property
    def min_address_fraction(self) -> float:
        """The address-fraction prune threshold (part of the cache key)."""
        return self._min_address_fraction

    # -- lazy per-country address index ------------------------------------
    def _ensure_index(self) -> CountryWeightIndex:
        if self._index is not None:
            return self._index
        weights_by_cc: Dict[str, Dict[int, int]] = {}
        totals: Dict[str, int] = {}
        # The flat prefix/count view bakes the post-order trie pass into
        # its uncovered column, so this loop pays only for geolocation —
        # no per-prefix dict lookups.  Row order is table order, identical
        # to iterating (prefix, origin) pairs directly.
        flat = self._table.flat_counts()
        get_metrics().incr("cti.index_prefixes", len(self._table))
        for base, length, origin, usable in flat.rows():
            if usable == 0:
                continue
            prefix = Prefix(base, length)
            split = self._geolocation.locate_prefix(prefix, origin)
            scale = usable / prefix.num_addresses
            for cc, count in split.items():
                scaled = round(count * scale)
                if scaled <= 0:
                    continue
                weights = weights_by_cc.setdefault(cc, {})
                weights[origin] = weights.get(origin, 0) + scaled
                totals[cc] = totals.get(cc, 0) + scaled
        # The dicts are transient: the index flattens them to SoA columns
        # in the same insertion order, which is what the scoring loop (and
        # its float-addition order) replays.
        self._index = CountryWeightIndex.build(weights_by_cc, totals)
        return self._index

    @property
    def weight_index(self) -> CountryWeightIndex:
        """The flat per-country weight index (shm-shareable)."""
        return self._ensure_index()

    @property
    def _per_country(self) -> Dict[str, Dict[int, int]]:
        """Dict-shaped view of the weight index (oracle/compat path)."""
        if self._dict_view is None:
            self._dict_view = self._ensure_index().as_dicts()
        return self._dict_view[0]

    @property
    def _country_totals(self) -> Dict[str, int]:
        if self._dict_view is None:
            self._dict_view = self._ensure_index().as_dicts()
        return self._dict_view[1]

    def countries(self) -> List[str]:
        """Countries with any geolocated address space."""
        return sorted(self._ensure_index().ccs)

    def country_address_total(self, cc: str) -> int:
        """A(C): total geolocated addresses of the country."""
        return self._ensure_index().total(cc)

    # -- shared per-origin transit terms -----------------------------------
    def scored_origins(self, cc: str) -> List[int]:
        """Public view of the origins CTI actually scores for ``cc``.

        Scenario packs use this to aim perturbations (hijack victims,
        leak beneficiaries) at origins that contribute to the metric.
        """
        return self._scored_origins(cc)

    def _scored_origins(self, cc: str) -> List[int]:
        """Origins of ``cc`` passing the address-fraction prune, in the
        index column order the scoring loop uses."""
        index = self._ensure_index()
        span = index.span(cc)
        total = index.total(cc)
        if span is None or total == 0:
            return []
        start, end = span
        origins = index.origins
        weights = index.weights
        return [
            origins[i]
            for i in range(start, end)
            if weights[i] / total >= self._min_address_fraction
        ]

    def _origin_terms(self, origin: int) -> Tuple[TransitTerm, ...]:
        terms = self._terms.get(origin)
        if terms is None:
            terms = _walk_origin(self._collector, origin)
            self._terms[origin] = terms
            get_metrics().incr("cti.origins_walked")
        return terms

    def precompute(
        self,
        ccs: Iterable[str],
        context=None,
    ) -> int:
        """Compute transit terms for every origin the given countries score.

        Origins are deduplicated across countries first, then fanned out
        over ``context`` (an :class:`~repro.parallel.ExecutionContext`;
        None or a serial context computes inline).  Countries whose scores
        are already cached — in memory or preloaded from the persistent
        cache — contribute no work.  Returns the number of origins walked.
        """
        pending = [cc for cc in ccs if cc not in self._cti_cache]
        if not pending:
            return 0
        if len(self._collector.monitors) == 0:
            raise AnalysisError("CTI requires at least one monitor")
        needed = sorted(
            {
                origin
                for cc in pending
                for origin in self._scored_origins(cc)
                if origin not in self._terms
            }
        )
        if not needed:
            return 0
        metrics = get_metrics()
        if context is None or context.is_serial:
            for origin in needed:
                self._origin_terms(origin)
        else:
            results = context.map_ordered(
                _walk_origin_task,
                needed,
                state=self._collector,
                label="cti.terms",
            )
            for origin, terms in results:
                self._terms[origin] = terms
            metrics.incr("cti.origins_walked", len(needed))
        return len(needed)

    def release_terms(self, keep: Optional[Set[int]] = None) -> int:
        """Drop cached transit terms (all, or all not in ``keep``).

        Scores already computed are unaffected; origins scored again later
        simply re-walk.  Returns the number of term tuples released.
        """
        if keep is None:
            released = len(self._terms)
            self._terms = {}
        else:
            victims = [o for o in self._terms if o not in keep]
            for origin in victims:
                del self._terms[origin]
            released = len(victims)
        if released:
            get_metrics().incr("cti.terms_released", released)
        return released

    def score_countries(
        self,
        ccs: Iterable[str],
        context=None,
        shard_size: Optional[int] = None,
    ) -> None:
        """Score many countries in bounded memory, sharded by country group.

        Drains :meth:`stream_country_scores` with retention on: every
        yielded score map also lands in the in-memory cache, exactly like
        the historical eager pass.
        """
        for _ in self.stream_country_scores(ccs, context=context, shard_size=shard_size):
            pass

    def stream_country_scores(
        self,
        ccs: Iterable[str],
        context=None,
        shard_size: Optional[int] = None,
        retain: bool = True,
    ):
        """Yield ``(cc, scores)`` per country, sharded, in input order.

        Splits ``ccs`` into shards of ``shard_size`` (default 16),
        precomputes each shard's origin terms over ``context``, scores and
        **yields** the shard's countries one at a time, then releases the
        terms no remaining shard needs.  Peak term memory is bounded by the widest shard +
        carryover instead of the whole country list, and — because
        per-country scores depend only on that country's column span and
        its origins' terms — the scores are bit-identical to an unsharded
        pass regardless of shard size or backend.

        With ``retain=False`` each score map is dropped from the cache
        right after it is yielded, so a consumer that reduces per country
        (ranking, export, aggregation) never holds more than one shard of
        scores — the coordinator-side merge streams instead of
        accumulating.  Countries already cached are yielded from cache
        (and kept, regardless of ``retain``).
        """
        shard_size = max(1, _COUNTRY_SHARD if shard_size is None else shard_size)
        ccs = list(ccs)
        pending = {cc for cc in ccs if cc not in self._cti_cache}
        order = [cc for cc in ccs if cc in pending]
        shards = [order[i : i + shard_size] for i in range(0, len(order), shard_size)]
        if len(shards) > 1:
            get_metrics().incr("cti.country_shards", len(shards))
        # Shards are computed on demand as the consumer advances, so the
        # in-flight buffer never exceeds one shard of score maps.
        ready: Dict[str, Dict[int, float]] = {}
        processed = 0
        for cc in ccs:
            if cc not in pending:
                yield cc, self._cti_cache.get(cc, {})
                continue
            while cc not in ready:
                shard = shards[processed]
                processed += 1
                self.precompute(shard, context=context)
                for shard_cc in shard:
                    scores = self.country_cti(shard_cc)
                    if not retain:
                        self._cti_cache.pop(shard_cc, None)
                    ready[shard_cc] = scores
                remaining = shards[processed:]
                if remaining:
                    keep: Set[int] = set()
                    for later in remaining:
                        for later_cc in later:
                            keep.update(self._scored_origins(later_cc))
                    self.release_terms(keep=keep)
            yield cc, ready.pop(cc)

    # -- persistent-cache interchange --------------------------------------
    def preload_terms(self, terms: Mapping[int, Tuple[TransitTerm, ...]]) -> None:
        """Install externally computed transit terms (incremental reuse).

        Sound only when the terms were walked under the same routing view
        (graph adjacency + monitors) — the caller keys them on the routing
        fingerprint.  Preloaded origins are never re-walked.
        """
        for origin, origin_terms in terms.items():
            self._terms[int(origin)] = tuple(
                (int(asn), float(w), int(d)) for asn, w, d in origin_terms
            )

    def term_snapshot(self) -> Dict[int, Tuple[TransitTerm, ...]]:
        """Copy of the per-origin transit terms currently held.

        Sharded scoring releases terms between shards, so this may cover
        only the origins of the final shard — callers treat it as a
        partial carry, never as the full walked set.
        """
        return dict(self._terms)

    def preload_scores(self, scores: Mapping[str, Mapping[int, float]]) -> None:
        """Install externally computed score maps (warm persistent cache).

        Preloaded countries are served from memory: no address index, no
        routing trees, no ``cti.countries_computed`` increments.
        """
        for cc, country_scores in scores.items():
            self._cti_cache[cc] = dict(country_scores)

    def computed_scores(self) -> Dict[str, Dict[int, float]]:
        """Copy of every per-country score map computed (or preloaded) so far."""
        return {cc: dict(scores) for cc, scores in self._cti_cache.items()}

    def transit_term_stats(self) -> Dict[str, int]:
        """Routing-tree statistics for diagnostics and cache metadata."""
        return {
            "origins_walked": len(self._terms),
            "transit_terms": sum(len(t) for t in self._terms.values()),
            "trees_computed": self._collector.trees_computed(),
        }

    # -- the metric --------------------------------------------------------
    def country_cti(self, cc: str) -> Dict[int, float]:
        """CTI(AS, cc) for every transit AS with non-zero influence.

        Scores straight off the SoA weight index: one pass over the
        country's column span, with the same divisions and additions (in
        the same order) as the dict walk it replaced — see
        :meth:`_reference_country_cti`, the retained oracle.
        """
        metrics = get_metrics()
        if cc in self._cti_cache:
            metrics.incr("cti.cache_hits")
            return self._cti_cache[cc]
        index = self._ensure_index()
        span = index.span(cc)
        total = index.total(cc)
        metrics.incr("cti.countries_computed")
        if span is None or span[0] == span[1] or total == 0:
            self._cti_cache[cc] = {}
            return {}
        if len(self._collector.monitors) == 0:
            raise AnalysisError("CTI requires at least one monitor")
        start, end = span
        origins = index.origins
        weights = index.weights
        scores: Dict[int, float] = {}
        origins_scored = 0
        origins_pruned = 0
        for i in range(start, end):
            address_fraction = weights[i] / total
            if address_fraction < self._min_address_fraction:
                origins_pruned += 1
                continue
            origins_scored += 1
            # Replay the shared per-origin terms in the exact (monitor, hop)
            # order of the original nested loop: same additions, same
            # float associativity, bit-identical scores.
            for asn, w, distance in self._origin_terms(origins[i]):
                scores[asn] = scores.get(asn, 0.0) + (w * address_fraction / distance)
        metrics.incr("cti.origins_scored", origins_scored)
        metrics.incr("cti.origins_pruned", origins_pruned)
        self._cti_cache[cc] = scores
        return scores

    def _reference_country_cti(self, cc: str) -> Dict[int, float]:
        """Dict-walk oracle: the pre-SoA scoring loop, retained verbatim.

        Bypasses the score cache and walks the dict-shaped index exactly
        as the original implementation did.  The randomized equivalence
        suite asserts ``country_cti(cc) == _reference_country_cti(cc)``
        (bit-identical floats) across seeds; never call this in
        production paths.
        """
        origin_weights = self._per_country.get(cc)
        total = self._country_totals.get(cc, 0)
        if not origin_weights or total == 0:
            return {}
        if len(self._collector.monitors) == 0:
            raise AnalysisError("CTI requires at least one monitor")
        scores: Dict[int, float] = {}
        for origin, weight in origin_weights.items():
            address_fraction = weight / total
            if address_fraction < self._min_address_fraction:
                continue
            for asn, w, distance in self._origin_terms(origin):
                scores[asn] = scores.get(asn, 0.0) + (w * address_fraction / distance)
        return scores

    def _reference_scored_origins(self, cc: str) -> List[int]:
        """Dict-walk oracle for :meth:`_scored_origins`."""
        origin_weights = self._per_country.get(cc)
        total = self._country_totals.get(cc, 0)
        if not origin_weights or total == 0:
            return []
        return [
            origin
            for origin, weight in origin_weights.items()
            if weight / total >= self._min_address_fraction
        ]

    def top_influencers(self, cc: str, k: int = 2) -> List[Tuple[int, float]]:
        """The ``k`` highest-CTI transit ASes for a country."""
        scores = self.country_cti(cc)
        ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
        return ranked[:k]

    def cti_of(self, asn: int, cc: str) -> float:
        """CTI score of one AS on one country (0 when absent)."""
        return self.country_cti(cc).get(asn, 0.0)
