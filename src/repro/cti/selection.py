"""Selecting candidate ASes from CTI scores (§4.1, "Countries' main
upstream providers").

The paper applies CTI in the 75 countries previously inferred to be
transit-dominant and takes the two highest-ranked transit ASes per country.
Here the transit-dominant country list comes from whoever calls us (the
pipeline passes the world's inferred list; ablations can pass others).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.cti.metric import CTIComputer

__all__ = ["CTISelection", "select_cti_candidates"]


@dataclass(frozen=True)
class CTISelection:
    """The CTI candidate set plus per-AS provenance."""

    asns: frozenset
    #: asn -> list of (country, rank, score) entries that selected it.
    provenance: Dict[int, Tuple[Tuple[str, int, float], ...]]
    countries_applied: Tuple[str, ...]

    def countries_of(self, asn: int) -> List[str]:
        """Countries in which ``asn`` ranked among the top influencers."""
        return [cc for cc, _, _ in self.provenance.get(asn, ())]


def select_cti_candidates(
    cti: CTIComputer,
    eligible_countries: Iterable[str],
    top_k: int = 2,
    min_score: float = 0.02,
    context=None,
) -> CTISelection:
    """Take the ``top_k`` CTI-ranked ASes in every eligible country.

    ``min_score`` discards countries whose "top" transit ASes barely carry
    anything (the metric is meaningless where peering dominates).

    ``context`` (an :class:`~repro.parallel.ExecutionContext`) fans the
    per-origin routing-tree work out across workers before the per-country
    scoring replays it — results are bit-identical to the serial path.
    The fan-out is sharded by country group (16 countries a shard): each
    shard precomputes, scores, and releases the transit terms no later
    shard needs, so term memory stays bounded at internet scale.  Scores
    stream per country (:meth:`~repro.cti.metric.CTIComputer.
    stream_country_scores`) and are ranked as they arrive, so selection
    never waits on — or re-reads — the full score set.
    """
    eligible = sorted(set(eligible_countries))
    provenance: Dict[int, List[Tuple[str, int, float]]] = {}
    selected: Set[int] = set()
    applied: List[str] = []
    for cc, scores in cti.stream_country_scores(eligible, context=context):
        ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))[:top_k]
        kept = [(asn, score) for asn, score in ranked if score >= min_score]
        if not kept:
            continue
        applied.append(cc)
        for rank, (asn, score) in enumerate(kept, start=1):
            selected.add(asn)
            provenance.setdefault(asn, []).append((cc, rank, score))
    return CTISelection(
        asns=frozenset(selected),
        provenance={asn: tuple(entries) for asn, entries in provenance.items()},
        countries_applied=tuple(applied),
    )
