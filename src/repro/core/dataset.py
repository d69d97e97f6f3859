"""The output dataset (§6, Listing 1).

Two data products, exactly as the paper publishes them:

* a list of state-owned organizations with confirmation metadata
  (:class:`OrganizationRecord` — the JSON object of Listing 1), and
* a mapping from each organization to the ASNs it owns.

:class:`StateOwnedDataset` is the container; JSON and SQLite round-trips
live in :mod:`repro.io.jsonio` / :mod:`repro.io.sqliteio`.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import DatasetError

__all__ = ["OrganizationRecord", "StateOwnedDataset"]


@dataclass(frozen=True)
class OrganizationRecord:
    """One state-owned organization (the Listing 1 schema)."""

    conglomerate_name: str
    org_id: str
    org_name: str
    ownership_cc: str               # country holding the majority
    ownership_country_name: str
    rir: str
    source: str                     # confirmation source type
    quote: str
    quote_lang: str
    url: str
    additional_info: str = ""
    inputs: Tuple[str, ...] = ()    # candidate-source codes: G, E, C, W, O
    parent_org: Optional[str] = None        # parent org_id (subsidiaries)
    target_cc: Optional[str] = None         # operating country (foreign subs)
    target_country_name: Optional[str] = None

    @property
    def is_foreign_subsidiary(self) -> bool:
        """True when the operator serves a country other than its owner's."""
        return self.target_cc is not None and self.target_cc != self.ownership_cc

    @property
    def operating_cc(self) -> str:
        """The country whose market the operator serves."""
        return self.target_cc or self.ownership_cc

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["inputs"] = list(self.inputs)
        return data


class StateOwnedDataset:
    """The paper's two data products with convenience queries.

    ``degraded_sources`` is the resilience provenance of the producing run:
    the candidate-source codes (``G``/``E``/``C``/``W``/``O``) that were
    quarantined because they failed.  An empty tuple means a
    clean run.  The flags survive both the JSON and SQLite round-trips, so
    a consumer can always tell a complete dataset from a degraded one.
    """

    def __init__(
        self,
        organizations: Sequence[OrganizationRecord],
        asns_of_org: Dict[str, Sequence[int]],
        degraded_sources: Sequence[str] = (),
    ) -> None:
        for code in degraded_sources:
            if not isinstance(code, str) or not code:
                raise DatasetError(
                    f"degraded source codes must be non-empty strings, " f"got {code!r}"
                )
        self._degraded_sources: Tuple[str, ...] = tuple(sorted(set(degraded_sources)))
        self._organizations: List[OrganizationRecord] = list(organizations)
        seen: Set[str] = set()
        for org in self._organizations:
            if org.org_id in seen:
                raise DatasetError(f"duplicate org_id {org.org_id}")
            seen.add(org.org_id)
        unknown = set(asns_of_org) - seen
        if unknown:
            raise DatasetError(f"ASN lists for unknown orgs: {sorted(unknown)}")
        self._asns_of_org: Dict[str, Tuple[int, ...]] = {
            org_id: tuple(sorted(set(asns))) for org_id, asns in asns_of_org.items()
        }

    # -- container protocol ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._organizations)

    def __iter__(self) -> Iterator[OrganizationRecord]:
        return iter(self._organizations)

    # -- queries ------------------------------------------------------------------
    @property
    def degraded_sources(self) -> Tuple[str, ...]:
        """Candidate-source codes quarantined in the producing run."""
        return self._degraded_sources

    @property
    def is_degraded(self) -> bool:
        """True when at least one candidate source was quarantined."""
        return bool(self._degraded_sources)

    def organizations(self) -> List[OrganizationRecord]:
        return list(self._organizations)

    def organization(self, org_id: str) -> OrganizationRecord:
        for org in self._organizations:
            if org.org_id == org_id:
                return org
        raise DatasetError(f"unknown org_id {org_id}")

    def asns_of(self, org_id: str) -> Tuple[int, ...]:
        """ASNs owned by one organization (empty tuple for ASN-less orgs)."""
        self.organization(org_id)
        return self._asns_of_org.get(org_id, ())

    def all_asns(self) -> FrozenSet[int]:
        """Every state-owned ASN in the dataset."""
        return frozenset(asn for asns in self._asns_of_org.values() for asn in asns)

    def foreign_subsidiary_asns(self) -> FrozenSet[int]:
        return frozenset(
            asn
            for org in self._organizations
            if org.is_foreign_subsidiary
            for asn in self._asns_of_org.get(org.org_id, ())
        )

    def org_of_asn(self, asn: int) -> Optional[OrganizationRecord]:
        for org in self._organizations:
            if asn in self._asns_of_org.get(org.org_id, ()):
                return org
        return None

    def owner_countries(self) -> FrozenSet[str]:
        """Countries that majority-own at least one organization."""
        return frozenset(org.ownership_cc for org in self._organizations)

    def subsidiary_owner_countries(self) -> FrozenSet[str]:
        """Countries owning foreign subsidiaries."""
        return frozenset(
            org.ownership_cc for org in self._organizations if org.is_foreign_subsidiary
        )

    def organizations_in(self, operating_cc: str) -> List[OrganizationRecord]:
        """Organizations operating in one country (domestic + foreign)."""
        return [org for org in self._organizations if org.operating_cc == operating_cc]

    def domestic_organizations(self) -> List[OrganizationRecord]:
        return [o for o in self._organizations if not o.is_foreign_subsidiary]

    def foreign_subsidiaries(self) -> List[OrganizationRecord]:
        return [o for o in self._organizations if o.is_foreign_subsidiary]

    def asn_count(self) -> int:
        return len(self.all_asns())

    # -- construction helpers --------------------------------------------------------
    def merged_with(self, other: "StateOwnedDataset") -> "StateOwnedDataset":
        """Union of two datasets (org_ids must not clash)."""
        orgs = self.organizations() + other.organizations()
        asns: Dict[str, Sequence[int]] = dict(self._asns_of_org)
        for org in other.organizations():
            asns[org.org_id] = other.asns_of(org.org_id)
        return StateOwnedDataset(
            orgs,
            asns,
            degraded_sources=self._degraded_sources
            + other.degraded_sources,
        )
