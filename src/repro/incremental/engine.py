"""The delta-driven incremental recompute engine.

One :class:`IncrementalEngine` instance walks a sequence of world
snapshots (typically produced by :mod:`repro.world.events` churn between
calls) and runs the full pipeline on each, recomputing only what each
delta invalidates:

* **CTI transit terms** are keyed on the routing fingerprint (graph
  adjacency + monitors).  Churn events never touch the graph, so on a
  warm snapshot every walked origin's terms are reused — the dominant
  cost of the cold pipeline drops to zero.
* **Per-country CTI score maps** are additionally keyed on the country's
  address-weight slice digest; an unchanged slice replays to the same
  float sums, so the previous score map is byte-exact.
* **The prefix trie** (and the whole :class:`Prefix2ASTable`) is carried
  when the announced-prefix fingerprint is unchanged.
* **Corpus query answers** survive via the dirty-token calculus of
  :mod:`repro.incremental.corpus_cache`.
* **Confirmation verdicts** survive when their recorded query footprint
  is disjoint from the dirty tokens (:meth:`OwnershipAnalyst.seed_memo`).

Everything reused is provably identical to what a cold recompute would
produce, so incremental exports are byte-identical to cold ones — the
equivalence suite and ``repro maintain --verify`` both enforce that.

Reused artifacts are also spilled to two fine-grained
:class:`~repro.parallel.ResultCache` sections — ``cti-terms`` (one blob
per origin, keyed on the origin-local fingerprint) and ``cti-scores``
(one blob per country) — so a fresh process warm-starts from disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.config import ParallelConfig, PipelineConfig, SourceNoiseConfig
from repro.core.confirmation import ConfirmationVerdict, OwnershipAnalyst
from repro.core.pipeline import (
    PipelineInputs,
    PipelineResult,
    StateOwnershipPipeline,
)
from repro.cti.metric import CTIComputer, TransitTerm
from repro.incremental.corpus_cache import CachingCorpus, corpus_delta
from repro.incremental.fingerprints import (
    country_score_key,
    country_slice_digest,
    geolocation_fingerprint,
    origin_term_key,
    prefix_fingerprint,
    routing_fingerprint,
)
from repro.obs import get_metrics, span
from repro.parallel import ResultCache, stable_digest
from repro.sources.documents import Document
from repro.sources.prefix2as import Prefix2ASTable

__all__ = ["IncrementalEngine", "SnapshotRun"]

#: ResultCache section for per-origin transit-term blobs.
_TERMS_SECTION = "cti-terms"
#: ResultCache section for per-country score-map blobs.
_SCORES_SECTION = "cti-scores"


def _manifest_key(routing_fp: str) -> str:
    """Key of the per-routing-view manifest listing persisted origins."""
    return stable_digest({"manifest": routing_fp})


def _decode_terms(payload: Dict[str, object]) -> Tuple[TransitTerm, ...]:
    return tuple((int(asn), float(w), int(d)) for asn, w, d in payload.get("terms", ()))


@dataclass
class SnapshotRun:
    """One snapshot's pipeline result plus its incremental provenance."""

    result: PipelineResult
    inputs: PipelineInputs
    #: What was reused vs recomputed: ``dirty_origins``,
    #: ``reused_fraction``, ``wall_s``, per-layer counters and the event
    #: descriptions that produced this snapshot.
    provenance: Dict[str, object] = field(default_factory=dict)


class IncrementalEngine:
    """Runs the pipeline over successive snapshots with minimal recompute.

    The engine carries forward, between :meth:`run_snapshot` calls: the
    three layer fingerprints, the prefix table, the CTI computer (terms +
    score maps), the memoizing corpus and the analyst's verdict memo with
    its query footprints.  Each new snapshot is fingerprinted, the dirty
    set is derived, and only the invalidated artifacts are rebuilt.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        noise: Optional[SourceNoiseConfig] = None,
        fail_fast: bool = False,
        parallel: Optional[ParallelConfig] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self._config = config or PipelineConfig()
        self._noise = noise or SourceNoiseConfig()
        self._fail_fast = fail_fast
        self._parallel = parallel or ParallelConfig()
        self._cache = cache
        # -- carried state (None / empty until the first snapshot runs) --
        self._routing_fp: Optional[str] = None
        self._prefix_fp: Optional[str] = None
        self._geo_fp: Optional[str] = None
        self._prefix2as: Optional[Prefix2ASTable] = None
        self._documents: List[Document] = []
        self._corpus: Optional[CachingCorpus] = None
        self._cti: Optional[CTIComputer] = None
        self._term_carry: Dict[int, Tuple[TransitTerm, ...]] = {}
        self._score_slices: Dict[str, Tuple[str, Dict[int, float]]] = {}
        self._analyst_state: Optional[
            Tuple[
                Dict[str, ConfirmationVerdict],
                Dict[str, Tuple[str, ...]],
                Set[str],
                Dict[str, ConfirmationVerdict],
            ]
        ] = None
        #: Cache keys already written this engine lifetime (skip re-puts).
        self._persisted: Set[Tuple[str, str]] = set()

    # -- the one public entry point ----------------------------------------
    def run_snapshot(
        self,
        world,
        context=None,
        events: Sequence[str] = (),
    ) -> SnapshotRun:
        """Run the pipeline on ``world``, reusing everything still valid.

        ``world`` is typically the same object as last time, mutated in
        place by churn events — but any world works; the fingerprints, not
        object identity, decide what is reused.  ``events`` is recorded in
        the provenance verbatim.
        """
        t0 = time.perf_counter()
        metrics = get_metrics()
        walked_before = metrics.counter("cti.origins_walked")
        scored_before = metrics.counter("cti.countries_computed")
        served_before = metrics.counter("cti.cache_hits")

        with span("incremental.fingerprint"):
            routing_fp = routing_fingerprint(world)
            prefix_fp = prefix_fingerprint(world)
            geo_fp = geolocation_fingerprint(world, self._noise)
        routing_reused = routing_fp == self._routing_fp
        prefix_reused = self._prefix2as is not None and prefix_fp == self._prefix_fp

        inputs = PipelineInputs.from_world(
            world,
            noise=self._noise,
            fail_fast=self._fail_fast,
            prefix2as=self._prefix2as if prefix_reused else None,
        )

        # -- corpus layer: wrap, diff, seed --------------------------------
        documents = inputs.corpus.all_documents()
        corpus = CachingCorpus(documents)
        delta = None
        if self._corpus is not None:
            delta = corpus_delta(self._documents, documents)
            corpus.seed_from(self._corpus, delta)
        inputs.corpus = corpus
        dirty_tokens: Set[str] = set(delta.dirty_tokens) if delta else set()

        # -- confirmation layer: seed the analyst memo ---------------------
        analyst = OwnershipAnalyst(corpus, self._config)
        seeded_verdicts = 0
        if self._analyst_state is not None:
            memo, footprints, volatile, minority_log = self._analyst_state
            seeded_verdicts = analyst.seed_memo(
                memo, footprints, volatile, minority_log, dirty_tokens
            )

        # -- CTI layer: carry / preload ------------------------------------
        carried_computer = (
            routing_reused
            and prefix_fp == self._prefix_fp
            and geo_fp == self._geo_fp
            and self._cti is not None
        )
        terms_preloaded = 0
        scores_seeded = 0
        if carried_computer:
            # The whole routing/prefix/geolocation view is unchanged, so
            # the previous computer — terms, weight index and every score
            # map — is exact as-is.
            cti = self._cti
        else:
            cti = CTIComputer(inputs.prefix2as, inputs.geolocation, inputs.collector)
            if routing_reused and self._term_carry:
                cti.preload_terms(self._term_carry)
                terms_preloaded = len(self._term_carry)
            # Disk-tier keys embed the *current* fingerprints, so lookups
            # are sound even on a fresh engine with no carried state.
            scores_seeded = self._seed_scores(cti, routing_fp, inputs)
            terms_preloaded += self._load_terms(cti, routing_fp)

        # -- run the pipeline with the prepared artifacts ------------------
        pipeline = StateOwnershipPipeline(
            inputs,
            config=self._config,
            parallel=self._parallel,
            fail_fast=self._fail_fast,
            context=context,
            cti_computer=cti,
            analyst=analyst,
        )
        result = pipeline.run()

        # -- accounting ----------------------------------------------------
        dirty_origins = metrics.counter("cti.origins_walked") - walked_before
        countries_computed = metrics.counter("cti.countries_computed") - scored_before
        scores_served = metrics.counter("cti.cache_hits") - served_before
        reused = corpus.stats.hits + seeded_verdicts + terms_preloaded + scores_served
        fresh = corpus.stats.computed + dirty_origins + countries_computed
        reused_fraction = reused / (reused + fresh) if (reused + fresh) else 0.0
        metrics.incr("incremental.snapshots")
        metrics.incr("incremental.dirty_origins", dirty_origins)

        # -- persist + carry for the next snapshot -------------------------
        if result.cti_selection is not None:
            self._persist(cti, routing_fp)
            self._cti = cti
            self._term_carry = cti.term_snapshot()
            if not carried_computer:
                self._score_slices = self._slice_snapshot(cti, inputs)
        self._routing_fp = routing_fp
        self._prefix_fp = prefix_fp
        self._geo_fp = geo_fp
        self._prefix2as = inputs.prefix2as
        self._documents = documents
        self._corpus = corpus
        self._analyst_state = analyst.carry_state()

        provenance: Dict[str, object] = {
            "events": list(events),
            "computer_carried": carried_computer,
            "routing_reused": routing_reused,
            "trie_reused": prefix_reused,
            "dirty_origins": dirty_origins,
            "terms_preloaded": terms_preloaded,
            "scores_seeded": scores_seeded,
            "scores_served": scores_served,
            "countries_computed": countries_computed,
            "seeded_verdicts": seeded_verdicts,
            "corpus": corpus.stats.as_dict(),
            "corpus_changed_docs": delta.changed_docs if delta else 0,
            "reused_fraction": round(reused_fraction, 4),
            "wall_s": round(time.perf_counter() - t0, 3),
        }
        return SnapshotRun(result=result, inputs=inputs, provenance=provenance)

    # -- fine-grained persistent tiers -------------------------------------
    def _load_terms(self, cti: CTIComputer, routing_fp: str) -> int:
        """Warm-start transit terms from the per-origin disk tier.

        Only worth the file reads when the in-memory carry is empty (a
        fresh engine in a new process); origins already held are skipped.
        """
        if self._cache is None or self._term_carry:
            return 0
        manifest = self._cache.get(_TERMS_SECTION, _manifest_key(routing_fp))
        if not manifest:
            return 0
        held = cti.term_snapshot()
        loaded: Dict[int, Tuple[TransitTerm, ...]] = {}
        for origin in manifest.get("origins", ()):
            origin = int(origin)
            if origin in held:
                continue
            payload = self._cache.get(
                _TERMS_SECTION, origin_term_key(routing_fp, origin)
            )
            if payload is not None:
                loaded[origin] = _decode_terms(payload)
        if loaded:
            cti.preload_terms(loaded)
            get_metrics().incr("incremental.terms_loaded", len(loaded))
        return len(loaded)

    def _seed_scores(
        self, cti: CTIComputer, routing_fp: str, inputs: PipelineInputs
    ) -> int:
        """Preload per-country score maps whose weight slice is unchanged.

        Sound because a country's score map is a pure function of the
        routing view (terms), its (origin, weight) column span + total,
        and the prune threshold — all captured by the key.  The in-memory
        slice carry was computed under ``self._routing_fp``, so it is only
        consulted when the routing view is unchanged; the disk tier keys
        on ``routing_fp`` directly and is always sound.
        """
        carry_valid = routing_fp == self._routing_fp and self._score_slices
        if not carry_valid and self._cache is None:
            return 0
        seeded: Dict[str, Dict[int, float]] = {}
        index = cti.weight_index
        for cc in inputs.cti_eligible_ccs:
            digest = country_slice_digest(index, cc)
            held = self._score_slices.get(cc) if carry_valid else None
            if held is not None and held[0] == digest:
                seeded[cc] = held[1]
                continue
            if self._cache is not None:
                payload = self._cache.get(
                    _SCORES_SECTION,
                    country_score_key(routing_fp, digest, cti.min_address_fraction),
                )
                if payload is not None:
                    seeded[cc] = {
                        int(asn): float(score)
                        for asn, score in payload.get("scores", {}).items()
                    }
        if seeded:
            cti.preload_scores(seeded)
            get_metrics().incr("incremental.scores_seeded", len(seeded))
        return len(seeded)

    def _slice_snapshot(
        self, cti: CTIComputer, inputs: PipelineInputs
    ) -> Dict[str, Tuple[str, Dict[int, float]]]:
        """(slice digest, score map) per eligible country, for carrying."""
        index = cti.weight_index
        scores = cti.computed_scores()
        return {
            cc: (country_slice_digest(index, cc), scores.get(cc, {}))
            for cc in inputs.cti_eligible_ccs
        }

    def _persist(self, cti: CTIComputer, routing_fp: str) -> None:
        """Spill terms and score maps to the fine-grained disk tiers."""
        if self._cache is None:
            return
        terms = cti.term_snapshot()
        manifest_key = _manifest_key(routing_fp)
        manifest = self._cache.get(_TERMS_SECTION, manifest_key) or {}
        known: Set[int] = {int(o) for o in manifest.get("origins", ())}
        new_origins = []
        for origin, origin_terms in terms.items():
            key = origin_term_key(routing_fp, origin)
            if (_TERMS_SECTION, key) in self._persisted:
                continue
            self._cache.put(
                _TERMS_SECTION,
                key,
                {"terms": [list(term) for term in origin_terms]},
            )
            self._persisted.add((_TERMS_SECTION, key))
            if origin not in known:
                new_origins.append(origin)
        if new_origins:
            self._cache.put(
                _TERMS_SECTION,
                manifest_key,
                {"origins": sorted(known | set(new_origins))},
            )
        if cti._index is None:
            # No weight index was built this snapshot (every score came
            # preloaded), so the slice digests — and therefore the score
            # keys — are unchanged from what is already on disk.
            return
        index = cti.weight_index
        for cc, scores in cti.computed_scores().items():
            key = country_score_key(
                routing_fp,
                country_slice_digest(index, cc),
                cti.min_address_fraction,
            )
            if (_SCORES_SECTION, key) in self._persisted:
                continue
            self._cache.put(
                _SCORES_SECTION,
                key,
                {"scores": {str(asn): score for asn, score in scores.items()}},
            )
            self._persisted.add((_SCORES_SECTION, key))
