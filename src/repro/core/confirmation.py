"""Stage 2: ownership confirmation (§5).

:class:`OwnershipAnalyst` codifies the paper's manual verification: given a
company name, it retrieves the confirmation documents, reads the shareholder
claims, and decides whether a *federal-level* government holds at least 50 %
of the equity — chasing indirect chains (state funds, holding companies,
corporate parents) exactly the way the authors did by hand:

* a claim naming a government directly contributes its fraction;
* a claim naming another entity triggers a recursive investigation of that
  entity; if the entity turns out to be state-controlled, its **full stake**
  counts toward the controlling government (control-chain semantics — the
  Telekom Malaysia fund-aggregation case);
* authoritative sources that assert state ownership without a percentage
  (Freedom House, World Bank, ITU) confirm on their own, since the paper
  found them reliable;
* subnational owners and restricted-sector operators are flagged for
  exclusion (§5.3);
* sub-threshold stakes are logged as minority participation (§7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.config import PipelineConfig
from repro.sources.documents import ConfirmationCorpus, Document, SourceType
from repro.text.normalize import normalize_name

__all__ = [
    "ExclusionReason",
    "ConfirmationStatus",
    "ConfirmationVerdict",
    "OwnershipAnalyst",
    "classify_exclusion",
]


class ExclusionReason(enum.Enum):
    """Why an otherwise state-funded organization is excluded (§5.3)."""

    SUBNATIONAL = "subnational government owner"
    ACADEMIC = "academic / research & education network"
    GOVNET = "government bureaucratic network"
    NIC = "Internet administrative organization"


_EXCLUSION_KEYWORDS: Tuple[Tuple[str, ExclusionReason], ...] = (
    ("research and education", ExclusionReason.ACADEMIC),
    ("university", ExclusionReason.ACADEMIC),
    ("academic", ExclusionReason.ACADEMIC),
    ("government network", ExclusionReason.GOVNET),
    ("ministry", ExclusionReason.GOVNET),
    ("network information centre", ExclusionReason.NIC),
    ("network information center", ExclusionReason.NIC),
    ("regional telecom", ExclusionReason.SUBNATIONAL),
    ("province of", ExclusionReason.SUBNATIONAL),
    ("municipal", ExclusionReason.SUBNATIONAL),
)

_PDB_TYPE_EXCLUSIONS = {
    "Educational/Research": ExclusionReason.ACADEMIC,
    "Government": ExclusionReason.GOVNET,
}


def classify_exclusion(
    company_name: str, pdb_info_type: Optional[str] = None
) -> Optional[ExclusionReason]:
    """Keyword/registry classification of excluded organization types.

    Mirrors the paper's filters: the organization's own naming and its
    self-declared PeeringDB network type identify academic backbones,
    government office networks, NICs and subnational operators.
    """
    normalized = normalize_name(company_name)
    for keyword, reason in _EXCLUSION_KEYWORDS:
        if keyword in normalized:
            return reason
    if pdb_info_type in _PDB_TYPE_EXCLUSIONS:
        return _PDB_TYPE_EXCLUSIONS[pdb_info_type]
    return None


class ConfirmationStatus(enum.Enum):
    CONFIRMED = "confirmed state-owned"
    MINORITY = "minority state participation"
    NOT_STATE = "no state participation found"
    NO_EVIDENCE = "no authoritative evidence found"
    EXCLUDED_SUBNATIONAL = "owned by a subnational government"


@dataclass
class ConfirmationVerdict:
    """Outcome of investigating one company."""

    company_name: str
    status: ConfirmationStatus
    controlling_cc: Optional[str] = None
    total_equity: Optional[float] = None      # None: asserted w/o percentage
    confirming_doc: Optional[Document] = None
    state_equity: Dict[str, float] = field(default_factory=dict)
    parent_candidates: List[Tuple[str, float]] = field(default_factory=list)
    subsidiary_names: List[str] = field(default_factory=list)
    docs_consulted: int = 0

    @property
    def is_confirmed(self) -> bool:
        return self.status is ConfirmationStatus.CONFIRMED

    @property
    def source_type(self) -> Optional[SourceType]:
        return (
            self.confirming_doc.source_type if self.confirming_doc is not None else None
        )


#: Control threshold from the IMF definition the paper adopts (§3).
_THRESHOLD = 0.5
#: Maximum ownership-chain depth the analyst chases.
_MAX_DEPTH = 4


class OwnershipAnalyst:
    """Automated stand-in for the paper's manual verification (§5)."""

    def __init__(
        self,
        corpus: ConfirmationCorpus,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        self._corpus = corpus
        self._config = config or PipelineConfig()
        self._memo: Dict[str, ConfirmationVerdict] = {}
        #: Keys currently being investigated (the open recursion chain).
        self._in_progress: Set[str] = set()
        #: One footprint collector per in-flight investigation: ``names``
        #: accumulates every corpus query issued below that frame,
        #: ``volatile`` is set when a cycle/depth guard fires anywhere
        #: while the frame is open.
        self._collectors: List[Dict[str, object]] = []
        #: Companies encountered with minority state stakes (§7 logging).
        self.minority_log: Dict[str, ConfirmationVerdict] = {}
        #: key -> every corpus query string issued while computing its
        #: verdict (own queries plus the whole recursive chain's).  This is
        #: the verdict's *footprint*: if none of these names shares a token
        #: with a changed document, the verdict is still exact against the
        #: new corpus (see repro.incremental).
        self._footprints: Dict[str, Tuple[str, ...]] = {}
        #: Keys whose verdict was computed while a cycle/depth guard fired
        #: somewhere in the open chain: such verdicts depend on the call
        #: stack, not just the corpus, and are never carried forward.
        self._volatile: Set[str] = set()
        #: Append-only log of keys as their footprints are recorded, so a
        #: worker can ship only the delta of one task back (see
        #: footprint_mark / footprint_delta).
        self._footprint_log: List[str] = []
        #: Verdicts adopted from a previous snapshot (provenance counter).
        self.seeded_verdicts = 0

    def _record_query(self, name: str) -> None:
        for frame in self._collectors:
            frame["names"].add(name)  # type: ignore[union-attr]

    def _mark_volatile(self) -> None:
        for frame in self._collectors:
            frame["volatile"] = True

    def investigate(self, company_name: str, depth: int = 0) -> ConfirmationVerdict:
        """Investigate one company, chasing ownership chains recursively."""
        key = normalize_name(company_name)
        if key in self._memo:
            # A memo hit re-executes no queries, so open collectors inherit
            # the hit's recorded footprint (and volatility) wholesale.
            footprint = self._footprints.get(key)
            if footprint:
                for frame in self._collectors:
                    frame["names"].update(footprint)  # type: ignore[union-attr]
            if key in self._volatile:
                self._mark_volatile()
            return self._memo[key]
        if key in self._in_progress or depth > _MAX_DEPTH:
            # Cycle or runaway chain: treat as unresolvable evidence.  The
            # guard verdict depends on the call stack, so everything above
            # it in the chain becomes uncarryable.
            self._mark_volatile()
            return ConfirmationVerdict(
                company_name=company_name,
                status=ConfirmationStatus.NO_EVIDENCE,
            )
        self._in_progress.add(key)
        frame: Dict[str, object] = {"names": set(), "volatile": False}
        self._collectors.append(frame)
        try:
            verdict = self._investigate_uncached(company_name, depth)
        finally:
            self._in_progress.discard(key)
            self._collectors.pop()
        names: Set[str] = frame["names"]  # type: ignore[assignment]
        for parent in self._collectors:
            parent["names"].update(names)  # type: ignore[union-attr]
            if frame["volatile"]:
                parent["volatile"] = True
        self._memo[key] = verdict
        self._footprints[key] = tuple(sorted(names))
        if frame["volatile"]:
            self._volatile.add(key)
        self._footprint_log.append(key)
        if verdict.status is ConfirmationStatus.MINORITY:
            self.minority_log[key] = verdict
        return verdict

    def absorb(
        self,
        verdict: ConfirmationVerdict,
        minority_log: Optional[Dict[str, ConfirmationVerdict]] = None,
        footprints: Optional[Dict[str, Tuple[str, ...]]] = None,
        volatile: Optional[Set[str]] = None,
    ) -> None:
        """Merge a verdict computed by a worker into this analyst.

        Investigation is a pure function of the (immutable) corpus, so a
        colliding key always carries an equal verdict and ``setdefault``
        merging is order-independent.  ``footprints``/``volatile`` carry
        the worker's per-key query footprints so the coordinator's analyst
        stays seedable into the next snapshot.
        """
        self._memo.setdefault(normalize_name(verdict.company_name), verdict)
        for key in sorted(minority_log or ()):
            self.minority_log.setdefault(key, minority_log[key])
        for key in sorted(footprints or ()):
            self._footprints.setdefault(key, footprints[key])
        if volatile:
            self._volatile.update(volatile)

    # -- cross-snapshot carry (repro.incremental) ---------------------------
    def footprint_mark(self) -> int:
        """Position in the footprint log before a task starts."""
        return len(self._footprint_log)

    def footprint_delta(self, mark: int) -> Tuple[Dict[str, Tuple[str, ...]], Set[str]]:
        """Footprints (and volatile keys) recorded since ``mark``.

        What a process-pool worker ships back alongside its verdict so the
        coordinator's analyst accumulates the full footprint map.
        """
        keys = self._footprint_log[mark:]
        delta = {key: self._footprints[key] for key in keys if key in self._footprints}
        volatile = {key for key in keys if key in self._volatile}
        return delta, volatile

    def carry_state(
        self,
    ) -> Tuple[
        Dict[str, ConfirmationVerdict],
        Dict[str, Tuple[str, ...]],
        Set[str],
        Dict[str, ConfirmationVerdict],
    ]:
        """Everything a successor analyst needs for :meth:`seed_memo`."""
        return (
            dict(self._memo),
            dict(self._footprints),
            set(self._volatile),
            dict(self.minority_log),
        )

    def seed_memo(
        self,
        memo: Dict[str, ConfirmationVerdict],
        footprints: Dict[str, Tuple[str, ...]],
        volatile: Set[str],
        minority_log: Dict[str, ConfirmationVerdict],
        dirty_tokens: Set[str],
    ) -> int:
        """Adopt a previous snapshot's verdicts that the delta left exact.

        An entry survives when it has a footprint, was never volatile, and
        none of its footprint queries shares a name token with a changed
        document — under those conditions every corpus answer it was built
        from is value-identical in the new corpus, so replaying the
        investigation would reproduce the verdict bit for bit.  Surviving
        MINORITY entries are replayed into the §7 minority log.  Returns
        the number of verdicts seeded.
        """
        from repro.incremental.fingerprints import tokens_overlap

        seeded = 0
        for key, verdict in memo.items():
            if key in volatile:
                continue
            footprint = footprints.get(key)
            if footprint is None:
                continue
            if tokens_overlap(footprint, dirty_tokens):
                continue
            self._memo[key] = verdict
            self._footprints[key] = footprint
            if key in minority_log:
                self.minority_log[key] = minority_log[key]
            seeded += 1
        self.seeded_verdicts = seeded
        return seeded

    # -- the actual analysis ------------------------------------------------------
    def _investigate_uncached(
        self, company_name: str, depth: int
    ) -> ConfirmationVerdict:
        self._record_query(company_name)
        docs = self._corpus.find_documents(company_name)
        if not docs:
            return ConfirmationVerdict(
                company_name=company_name,
                status=ConfirmationStatus.NO_EVIDENCE,
            )
        # Report the company under the matched document's legal name, not
        # the query string.  Chained investigations query by *normalized*
        # holder key, so without this the verdict's name would depend on
        # which query string reached the company first — an ordering
        # artifact that would also make parallel runs diverge from serial.
        if docs[0].subject_names:
            company_name = docs[0].subject_names[0]

        # Gather de-duplicated claims: one entry per holder name.
        holder_claims: Dict[
            str, Tuple[Optional[float], bool, Optional[str], bool, Document]
        ] = {}
        assertions: List[Tuple[str, Document]] = []  # (gov cc, doc) w/o %
        subsidiary_names: List[str] = []
        any_claims = False
        for doc in docs:
            subsidiary_names.extend(doc.subsidiary_names)
            for claim in doc.claims:
                any_claims = True
                holder_key = normalize_name(claim.holder_name)
                if claim.holder_is_government and claim.fraction is None:
                    if claim.holder_cc is not None:
                        assertions.append((claim.holder_cc, doc))
                    continue
                if holder_key not in holder_claims:
                    holder_claims[holder_key] = (
                        claim.fraction,
                        claim.holder_is_government,
                        claim.holder_cc,
                        claim.holder_is_subnational,
                        doc,
                    )

        state_equity: Dict[str, float] = {}
        equity_docs: Dict[str, Document] = {}
        subnational_total = 0.0
        parent_candidates: List[Tuple[str, float]] = []
        for holder_key, (fraction, is_gov, holder_cc, is_subnat, doc) in (
            holder_claims.items()
        ):
            if fraction is None:
                continue
            if is_gov and holder_cc is not None:
                state_equity[holder_cc] = state_equity.get(holder_cc, 0.0) + fraction
                equity_docs.setdefault(holder_cc, doc)
                continue
            if is_subnat:
                subnational_total += fraction
                continue
            # Corporate holder: investigate the chain.
            chained = self.investigate(holder_key, depth + 1)
            if chained.is_confirmed and chained.controlling_cc is not None:
                cc = chained.controlling_cc
                state_equity[cc] = state_equity.get(cc, 0.0) + fraction
                equity_docs.setdefault(cc, doc)
            if fraction >= _THRESHOLD:
                parent_candidates.append((holder_key, fraction))

        verdict = ConfirmationVerdict(
            company_name=company_name,
            status=ConfirmationStatus.NOT_STATE,
            state_equity=dict(state_equity),
            parent_candidates=parent_candidates,
            subsidiary_names=sorted(set(subsidiary_names)),
            docs_consulted=len(docs),
        )

        if state_equity:
            top_cc = max(state_equity, key=lambda cc: (state_equity[cc], cc))
            if state_equity[top_cc] >= _THRESHOLD - 1e-9:
                verdict.status = ConfirmationStatus.CONFIRMED
                verdict.controlling_cc = top_cc
                verdict.total_equity = round(state_equity[top_cc], 4)
                verdict.confirming_doc = equity_docs[top_cc]
                return verdict

        if assertions:
            # An authoritative source asserts state ownership without a
            # percentage; the paper accepts Freedom House / World Bank at
            # this stage.
            cc, doc = assertions[0]
            verdict.status = ConfirmationStatus.CONFIRMED
            verdict.controlling_cc = cc
            verdict.total_equity = None
            verdict.confirming_doc = doc
            return verdict

        if subnational_total >= _THRESHOLD - 1e-9:
            verdict.status = ConfirmationStatus.EXCLUDED_SUBNATIONAL
            return verdict

        if state_equity:
            verdict.status = ConfirmationStatus.MINORITY
            top_cc = max(state_equity, key=lambda cc: (state_equity[cc], cc))
            verdict.controlling_cc = None
            verdict.total_equity = round(state_equity[top_cc], 4)
            verdict.confirming_doc = equity_docs[top_cc]
            return verdict

        if not any_claims:
            verdict.status = ConfirmationStatus.NO_EVIDENCE
        return verdict
