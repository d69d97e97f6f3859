"""Prefix-to-AS table (the CAIDA ``prefix2as`` stand-in).

Derived directly from the world's announced prefixes — the real dataset is
built from public BGP dumps and is essentially exact, so this source carries
no noise model.  It provides the origin-AS view that both the geolocation
candidate source and the CTI metric consume.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import SourceError
from repro.net.prefix import Prefix, PrefixTrie, sweep_uncovered_counts

__all__ = ["FlatPrefixCounts", "Prefix2ASTable"]


class FlatPrefixCounts:
    """SoA view of the announced table with Appendix-G usable counts.

    Four parallel columns in table (base, length) sort order: prefix base
    addresses (``'I'``), prefix lengths (``'B'``), origin ASNs (``'q'``)
    and the uncovered address count of each prefix (``'q'``, the
    more-specific accounting already applied).  Iterating :meth:`rows`
    replays exactly the ``(prefix, origin)`` order of the owning table, so
    index builds over the flat view are byte-identical to dict walks.
    """

    __slots__ = ("bases", "lengths", "origins", "uncovered")

    def __init__(
        self,
        bases: Sequence[int],
        lengths: Sequence[int],
        origins: Sequence[int],
        uncovered: Sequence[int],
    ) -> None:
        self.bases = bases
        self.lengths = lengths
        self.origins = origins
        self.uncovered = uncovered

    def __len__(self) -> int:
        return len(self.bases)

    def rows(self) -> Iterator[Tuple[int, int, int, int]]:
        """Yield ``(base, length, origin, uncovered)`` in table order."""
        return zip(self.bases, self.lengths, self.origins, self.uncovered)


class Prefix2ASTable:
    """All BGP-announced (prefix, origin ASN) pairs with lookup structures."""

    def __init__(self, entries: List[Tuple[Prefix, int]]) -> None:
        if not entries:
            raise SourceError("prefix2as table cannot be empty")
        self._entries = sorted(entries, key=lambda pair: (pair[0].base, pair[0].length))
        self._by_origin: Dict[int, List[Prefix]] = {}
        for prefix, origin in self._entries:
            self._by_origin.setdefault(origin, []).append(prefix)
        self._flat: Optional[FlatPrefixCounts] = None
        # The trie only serves point queries (longest match, per-prefix
        # uncovered counts); the pipeline's batch accounting runs on the
        # linear sweep over the sorted columns instead, so the trie build —
        # formerly the dominant serial fraction of table construction at
        # scale — is deferred until a point query actually needs it.
        self._trie_obj: Optional[PrefixTrie[int]] = None

    @property
    def _trie(self) -> PrefixTrie[int]:
        if self._trie_obj is None:
            self._trie_obj = PrefixTrie(self._entries)
        return self._trie_obj

    @classmethod
    def from_world(cls, world) -> "Prefix2ASTable":
        """Build the table from a :class:`~repro.world.generator.World`."""
        return cls(world.prefix_table())

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[Prefix, int]]:
        return iter(self._entries)

    @property
    def origins(self) -> Set[int]:
        """All origin ASNs visible in the global routing table."""
        return set(self._by_origin)

    def prefixes_of(self, origin: int) -> List[Prefix]:
        """Prefixes announced by ``origin`` (empty list if none)."""
        return list(self._by_origin.get(origin, []))

    def origin_of(self, address: int) -> Optional[int]:
        """Origin AS of the longest prefix covering ``address``."""
        match = self._trie.longest_match(address)
        return match[1] if match else None

    def origin_of_prefix(self, prefix: Prefix) -> Optional[int]:
        """Origin of an exactly-announced prefix."""
        return self._trie.get(prefix)

    def uncovered_addresses(self, prefix: Prefix) -> int:
        """Addresses of ``prefix`` not covered by a more-specific announcement
        (the Appendix-G ``a(p, C)`` accounting rule)."""
        return self._trie.uncovered_addresses(prefix)

    def uncovered_address_counts(self) -> Dict[Prefix, int]:
        """``a(p, C)`` for every announced prefix in one post-order trie pass
        (memoized; the table is immutable).  Treat as read-only."""
        return self._trie.uncovered_address_counts()

    def flat_counts(self) -> FlatPrefixCounts:
        """The SoA prefix/count view (memoized; the table is immutable).

        The columns are filled in entry order and the usable counts come
        from the linear stack sweep (:func:`~repro.net.prefix.
        sweep_uncovered_counts`) over the already-sorted (base, length)
        columns — no trie.  The view is what the CTI index build and the
        geolocation source iterate.
        """
        if self._flat is None:
            bases = array("I")
            lengths = array("B")
            origins = array("q")
            for prefix, origin in self._entries:
                bases.append(prefix.base)
                lengths.append(prefix.length)
                origins.append(origin)
            counts = sweep_uncovered_counts(bases, lengths)
            self._flat = FlatPrefixCounts(bases, lengths, origins, counts)
        return self._flat

    def _reference_flat_counts(self) -> FlatPrefixCounts:
        """Trie-built SoA view: the pre-sweep implementation, retained as
        the equivalence oracle for :meth:`flat_counts`."""
        uncovered = self.uncovered_address_counts()
        bases = array("I")
        lengths = array("B")
        origins = array("q")
        counts = array("q")
        for prefix, origin in self._entries:
            bases.append(prefix.base)
            lengths.append(prefix.length)
            origins.append(origin)
            counts.append(uncovered[prefix])
        return FlatPrefixCounts(bases, lengths, origins, counts)

    def announced_address_counts(self) -> Dict[int, int]:
        """De-duplicated announced address count per origin AS."""
        flat = self.flat_counts()
        totals: Dict[int, int] = {}
        for origin, count in zip(flat.origins, flat.uncovered):
            totals[origin] = totals.get(origin, 0) + count
        return totals

    def total_announced_addresses(self) -> int:
        """Total de-duplicated announced address space."""
        return sum(self.announced_address_counts().values())
