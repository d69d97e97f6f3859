"""IPv4 prefix arithmetic and a binary prefix trie.

Prefixes are value objects stored as ``(base, length)`` where ``base`` is the
32-bit network address as an int.  The :class:`PrefixTrie` supports the two
queries the paper's machinery needs:

* longest-prefix match (geolocation, origin lookup), and
* "addresses of p not covered by a more specific prefix" — the ``a(p, C)``
  term of the CTI formula (Appendix G).

The ``a(p, C)`` accounting is served by a single-pass batch kernel: one
post-order trie walk computes every stored prefix's covered-address count
bottom-up (a child subtree's covered union is disjoint from its sibling's,
so unions reduce to sums), making :func:`summarize_address_counts` and the
CTI address index O(nodes) instead of O(prefixes × subtree).  The walk is
memoized against a trie version counter and the pre-kernel per-prefix
implementation is retained as ``_reference_uncovered_addresses`` /
``_reference_summarize_address_counts`` oracles for equivalence tests.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import PrefixError
from repro.obs import get_metrics

__all__ = [
    "Prefix",
    "PrefixTrie",
    "summarize_address_counts",
    "sweep_uncovered_counts",
]

_MAX = 2**32


def _mask(length: int) -> int:
    """Return the netmask int for a prefix of ``length`` bits."""
    if length == 0:
        return 0
    return ((1 << length) - 1) << (32 - length)


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 network prefix, e.g. ``Prefix.parse("10.0.0.0/8")``."""

    base: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise PrefixError(f"invalid prefix length {self.length}")
        if not 0 <= self.base < _MAX:
            raise PrefixError(f"invalid base address {self.base}")
        if self.base & ~_mask(self.length):
            raise PrefixError(
                f"base {self._format_addr(self.base)} has host bits set "
                f"for /{self.length}"
            )

    # -- construction -----------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse dotted-quad CIDR notation, e.g. ``"192.0.2.0/24"``."""
        try:
            addr_text, length_text = text.strip().split("/")
            octets = [int(part) for part in addr_text.split(".")]
            length = int(length_text)
        except (ValueError, AttributeError) as exc:
            raise PrefixError(f"malformed prefix {text!r}") from exc
        if len(octets) != 4 or any(not 0 <= o <= 255 for o in octets):
            raise PrefixError(f"malformed address in {text!r}")
        base = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
        return cls(base, length)

    @classmethod
    def from_host(cls, address: int, length: int) -> "Prefix":
        """Build the /``length`` prefix containing host ``address``."""
        return cls(address & _mask(length), length)

    # -- properties -------------------------------------------------------
    @property
    def num_addresses(self) -> int:
        """Number of addresses covered (2^(32-length))."""
        return 1 << (32 - self.length)

    @property
    def last(self) -> int:
        """The highest address in the prefix."""
        return self.base + self.num_addresses - 1

    # -- set-like operations ----------------------------------------------
    def contains_address(self, address: int) -> bool:
        """True if ``address`` (an int) falls inside this prefix."""
        return self.base <= address <= self.last

    def covers(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        return self.length <= other.length and (
            other.base & _mask(self.length)
        ) == self.base

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        return self.covers(other) or other.covers(self)

    def subprefixes(self, length: int) -> Iterator["Prefix"]:
        """Yield all sub-prefixes of the given (longer) ``length``."""
        if length < self.length or length > 32:
            raise PrefixError(f"cannot split /{self.length} into /{length} subprefixes")
        step = 1 << (32 - length)
        for base in range(self.base, self.base + self.num_addresses, step):
            yield Prefix(base, length)

    def split(self) -> Tuple["Prefix", "Prefix"]:
        """Split into the two halves one bit longer."""
        if self.length >= 32:
            raise PrefixError("cannot split a /32")
        left = Prefix(self.base, self.length + 1)
        right = Prefix(self.base | (1 << (31 - self.length)), self.length + 1)
        return left, right

    # -- formatting ---------------------------------------------------------
    @staticmethod
    def _format_addr(address: int) -> str:
        return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    def __str__(self) -> str:
        return f"{self._format_addr(self.base)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"


V = TypeVar("V")


class _TrieNode(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """A binary trie mapping prefixes to values.

    Supports exact lookup, longest-prefix match for addresses, enumeration,
    and the CTI helper :meth:`uncovered_addresses`.
    """

    def __init__(self, items: Optional[Iterable[Tuple[Prefix, V]]] = None) -> None:
        self._root: _TrieNode[V] = _TrieNode()
        self._size = 0
        #: Bumped on every insert; the batch uncovered-address map is
        #: memoized against it and lazily recomputed after mutation.
        self._version = 0
        self._uncovered: Optional[Dict[Prefix, int]] = None
        self._uncovered_version = -1
        if items is not None:
            for prefix, value in items:
                self.insert(prefix, value)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        return self._has_exact(prefix)

    def _walk_bits(self, prefix: Prefix) -> Iterator[int]:
        for i in range(prefix.length):
            yield (prefix.base >> (31 - i)) & 1

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        node = self._root
        for bit in self._walk_bits(prefix):
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]  # type: ignore[assignment]
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True
        self._version += 1

    def _find_exact(self, prefix: Prefix) -> Optional[_TrieNode[V]]:
        node = self._root
        for bit in self._walk_bits(prefix):
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node

    def _has_exact(self, prefix: Prefix) -> bool:
        node = self._find_exact(prefix)
        return node is not None and node.has_value

    def get(self, prefix: Prefix) -> Optional[V]:
        """Return the value stored exactly at ``prefix`` (None if absent)."""
        node = self._find_exact(prefix)
        if node is not None and node.has_value:
            return node.value
        return None

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, V]]:
        """Return the (prefix, value) of the longest prefix covering ``address``."""
        node = self._root
        best: Optional[Tuple[Prefix, V]] = None
        if node.has_value:
            best = (Prefix(0, 0), node.value)  # type: ignore[arg-type]
        for depth in range(32):
            bit = (address >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = (
                    Prefix.from_host(address, depth + 1),
                    node.value,  # type: ignore[arg-type]
                )
        return best

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Yield all (prefix, value) pairs in address order."""

        def _walk(
            node: _TrieNode[V], base: int, depth: int
        ) -> Iterator[Tuple[Prefix, V]]:
            if node.has_value:
                yield Prefix(base, depth), node.value  # type: ignore[misc]
            for bit in (0, 1):
                child = node.children[bit]
                if child is not None:
                    child_base = base | (bit << (31 - depth)) if depth < 32 else base
                    yield from _walk(child, child_base, depth + 1)

        yield from _walk(self._root, 0, 0)

    def covering(self, prefix: Prefix) -> List[Tuple[Prefix, V]]:
        """Return all stored prefixes that cover ``prefix`` (shortest first)."""
        result: List[Tuple[Prefix, V]] = []
        node = self._root
        if node.has_value:
            result.append((Prefix(0, 0), node.value))  # type: ignore[arg-type]
        depth = 0
        for bit in self._walk_bits(prefix):
            child = node.children[bit]
            if child is None:
                return result
            node = child
            depth += 1
            if node.has_value:
                result.append(
                    (Prefix.from_host(prefix.base, depth), node.value)  # type: ignore[arg-type]
                )
        return result

    def covered_by(self, prefix: Prefix) -> List[Tuple[Prefix, V]]:
        """Return all stored prefixes equal to or more specific than ``prefix``."""
        node = self._find_exact(prefix)
        if node is None:
            return []

        result: List[Tuple[Prefix, V]] = []

        def _walk(current: _TrieNode[V], base: int, depth: int) -> None:
            if current.has_value:
                result.append((Prefix(base, depth), current.value))  # type: ignore[arg-type]
            for bit in (0, 1):
                child = current.children[bit]
                if child is not None and depth < 32:
                    _walk(child, base | (bit << (31 - depth)), depth + 1)

        _walk(node, prefix.base, prefix.length)
        return result

    def uncovered_addresses(self, prefix: Prefix) -> int:
        """Addresses of ``prefix`` not covered by a *more specific* stored prefix.

        This is the ``a(p, C)`` accounting rule from the paper's Appendix G:
        when both 10.0.0.0/16 and 10.0.0.0/24 are announced, the /24's
        addresses are attributed to the /24 only.

        Stored prefixes are answered in O(1) from the memoized batch map of
        :meth:`uncovered_address_counts`; unstored prefixes fall back to the
        per-query subtree walk.
        """
        if self._has_exact(prefix):
            return self.uncovered_address_counts()[prefix]
        return self._reference_uncovered_addresses(prefix)

    def uncovered_address_counts(self) -> Dict[Prefix, int]:
        """``a(p, C)`` for *every* stored prefix, from one post-order walk.

        A stored prefix covers its whole span, so a subtree's covered union
        is its span when the root is stored and the sum of its two disjoint
        child-subtree unions otherwise; each stored prefix's uncovered count
        is then its span minus its children's covered unions.  One O(nodes)
        pass replaces the O(subtree + sort) walk per stored prefix.

        The map is memoized until the next :meth:`insert`; treat it as
        read-only.
        """
        if self._uncovered is not None and self._uncovered_version == self._version:
            get_metrics().incr("prefix.summary.cache_hits")
            return self._uncovered
        counts: Dict[Prefix, int] = {}
        nodes_walked = 0

        def _walk(node: _TrieNode[V], base: int, depth: int) -> int:
            """Return the subtree's covered-address union; record uncovered
            counts for stored prefixes along the way."""
            nonlocal nodes_walked
            nodes_walked += 1
            child_covered = 0
            for bit in (0, 1):
                child = node.children[bit]
                if child is not None:
                    child_base = base | (bit << (31 - depth)) if depth < 32 else base
                    child_covered += _walk(child, child_base, depth + 1)
            if node.has_value:
                span = 1 << (32 - depth)
                counts[Prefix(base, depth)] = span - child_covered
                return span
            return child_covered

        _walk(self._root, 0, 0)
        self._uncovered = counts
        self._uncovered_version = self._version
        metrics = get_metrics()
        metrics.incr("prefix.summary.batches")
        metrics.incr("prefix.summary.nodes", nodes_walked)
        metrics.incr("prefix.summary.prefixes", len(counts))
        return counts

    def _reference_uncovered_addresses(self, prefix: Prefix) -> int:
        """Naive per-prefix subtree walk: the pre-kernel implementation,
        retained as the equivalence oracle for the batch map."""
        more_specifics = [
            p for p, _ in self.covered_by(prefix) if p.length > prefix.length
        ]
        if not more_specifics:
            return prefix.num_addresses
        # More specifics can nest; count the union of their address spans by
        # keeping only the maximal (shortest) ones.
        more_specifics.sort(key=lambda p: (p.base, p.length))
        covered = 0
        current_end = -1
        for specific in more_specifics:
            if specific.base > current_end:
                covered += specific.num_addresses
                current_end = specific.last
            elif specific.last > current_end:
                covered += specific.last - current_end
                current_end = specific.last
        return prefix.num_addresses - covered


def sweep_uncovered_counts(bases: "array", lengths: "array") -> "array":
    """``a(p, C)`` for a (base, length)-sorted prefix table, no trie.

    One linear stack sweep over the sorted columns replaces the trie build
    plus post-order walk: because aligned prefixes either nest or are
    disjoint, the (base, length) sort visits every prefix after its
    ancestors, so an explicit stack of open ancestors is all the structure
    the accounting needs.  Each popped prefix charges its whole span to the
    nearest still-open stored ancestor (the trie's "a stored prefix covers
    its span" rule), and its own uncovered count is its span minus what its
    maximal stored descendants charged it.  Duplicate (base, length) rows
    (one trie node, several table rows) replay the first row's count.
    Returns an ``array('q')`` of uncovered counts in row order.
    """
    out = array("q", bytes(8 * len(bases)))
    # Parallel stacks of the currently-open ancestor chain.
    st_end: List[int] = []  # last covered address
    st_span: List[int] = []  # full span
    st_out: List[int] = []  # output slot
    st_cov: List[int] = []  # addresses claimed by maximal stored descendants
    # Duplicate rows alias their first occurrence, applied after the sweep
    # (the first occurrence's slot is only final once it pops off the stack).
    aliases: List[Tuple[int, int]] = []
    prev_base = prev_length = prev_slot = -1
    for i in range(len(bases)):
        base = bases[i]
        length = lengths[i]
        if base == prev_base and length == prev_length:
            aliases.append((i, prev_slot))
            continue
        while st_end and st_end[-1] < base:
            st_end.pop()
            span = st_span.pop()
            out[st_out.pop()] = span - st_cov.pop()
            if st_cov:
                st_cov[-1] += span
        span = 1 << (32 - length)
        st_end.append(base + span - 1)
        st_span.append(span)
        st_out.append(i)
        st_cov.append(0)
        prev_base, prev_length, prev_slot = base, length, i
    while st_end:
        st_end.pop()
        span = st_span.pop()
        out[st_out.pop()] = span - st_cov.pop()
        if st_cov:
            st_cov[-1] += span
    for dup_slot, first_slot in aliases:
        out[dup_slot] = out[first_slot]
    return out


def summarize_address_counts(prefixes: Iterable[Tuple[Prefix, V]]) -> Dict[V, int]:
    """Aggregate announced address counts per value (e.g. per origin AS).

    Overlapping announcements are de-duplicated with the more-specific rule:
    each address is attributed to the longest prefix covering it.  One
    post-order pass sizes every prefix's uncovered span; a second in-order
    pass accumulates per value, preserving the historical (address-order)
    aggregation so results stay byte-identical to the per-prefix original.
    """
    trie: PrefixTrie[V] = PrefixTrie()
    for prefix, value in prefixes:
        trie.insert(prefix, value)
    uncovered = trie.uncovered_address_counts()
    totals: Dict[V, int] = {}
    for prefix, value in trie.items():
        totals[value] = totals.get(value, 0) + uncovered[prefix]
    return totals


def _reference_summarize_address_counts(
    prefixes: Iterable[Tuple[Prefix, V]]
) -> Dict[V, int]:
    """Pre-kernel :func:`summarize_address_counts`: one subtree walk per
    stored prefix.  Retained as the equivalence oracle."""
    trie: PrefixTrie[V] = PrefixTrie()
    for prefix, value in prefixes:
        trie.insert(prefix, value)
    totals: Dict[V, int] = {}
    for prefix, value in trie.items():
        totals[value] = totals.get(value, 0) + trie._reference_uncovered_addresses(
            prefix
        )
    return totals
