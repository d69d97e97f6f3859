"""Equivalence suite for the single-pass analytic kernels.

The bitset customer-cone sweep (:meth:`ASGraph.all_cone_sizes`) and the
bottom-up trie address accounting
(:meth:`PrefixTrie.uncovered_address_counts`) replaced per-query
traversals; the naive implementations were retained as ``_reference_*``
oracles.  This suite pits the kernels against the oracles across ~100
seeded randomized graphs/tries, checks byte-identical aggregate outputs
(``AsRankDataset.from_world``, :func:`summarize_address_counts`), and
exercises the version-counter cache invalidation after mutation.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import TopologyError
from repro.net.prefix import (
    Prefix,
    PrefixTrie,
    _reference_summarize_address_counts,
    summarize_address_counts,
)
from repro.net.topology import ASGraph
from repro.obs import get_metrics
from repro.sources.asrank import AsRankDataset, _reference_cone_sizes_from_world


def random_dag(rng: random.Random) -> ASGraph:
    """A random acyclic c2p topology with a sprinkling of peering edges.

    Acyclicity by construction: ASes get a random order and c2p edges only
    point from later positions (customers) to earlier ones (providers).
    """
    n = rng.randint(2, 60)
    asns = rng.sample(range(1, 100_000), n)
    g = ASGraph()
    for asn in asns:
        g.add_as(asn)
    for i in range(1, n):
        for j in rng.sample(range(i), k=min(i, rng.randint(0, 3))):
            g.add_c2p(asns[i], asns[j])
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(asns, 2)
        if a != b and g.relationship(a, b) is None:
            g.add_p2p(a, b)
    return g


def random_trie(rng: random.Random) -> PrefixTrie:
    trie: PrefixTrie[int] = PrefixTrie()
    for _ in range(rng.randint(1, 40)):
        prefix = Prefix.from_host(rng.getrandbits(32), rng.randint(0, 32))
        trie.insert(prefix, rng.randint(1, 5))
    return trie


class TestConeSweepEquivalence:
    @pytest.mark.parametrize("seed", range(50))
    def test_matches_bfs_oracle(self, seed):
        rng = random.Random(1000 + seed)
        g = random_dag(rng)
        fast = dict(g.all_cone_sizes())
        reference = g._reference_cone_sizes(g.asns)
        assert fast == reference
        assert repr(fast) == repr(reference)  # same ordering, byte-identical

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_subset_matches_oracle(self, seed):
        rng = random.Random(2000 + seed)
        g = random_dag(rng)
        subset = rng.sample(g.asns, k=max(1, len(g.asns) // 2))
        assert g.customer_cone_sizes(subset) == g._reference_cone_sizes(subset)

    def test_single_size_uses_sweep(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        g.add_c2p(3, 2)
        assert g.customer_cone_size(1) == 3
        assert g.customer_cone_size(3) == 1

    def test_unknown_asn_raises(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        with pytest.raises(TopologyError):
            g.customer_cone_size(99)
        with pytest.raises(TopologyError):
            g.customer_cone_sizes([1, 99])

    def test_cycle_raises(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        g.add_c2p(3, 2)
        g.add_c2p(1, 3)  # representable long cycle
        with pytest.raises(TopologyError):
            g.all_cone_sizes()


class TestConeCacheInvalidation:
    def test_edge_mutation_invalidates(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        assert g.customer_cone_size(1) == 2
        g.add_c2p(3, 2)  # mutate after the memoized sweep
        assert g.customer_cone_size(1) == 3
        assert dict(g.all_cone_sizes()) == g._reference_cone_sizes(g.asns)

    def test_new_as_invalidates(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        sizes = g.all_cone_sizes()
        assert 5 not in sizes
        g.add_as(5)
        assert g.all_cone_sizes()[5] == 1

    def test_duplicate_edge_keeps_cache(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        g.all_cone_sizes()
        metrics = get_metrics()
        hits_before = metrics.counter("graph.cone.cache_hits")
        g.add_c2p(2, 1)  # no-op: duplicate edge must not bump the version
        g.all_cone_sizes()
        assert metrics.counter("graph.cone.cache_hits") == hits_before + 1

    def test_sweep_counters_flow(self):
        metrics = get_metrics()
        sweeps_before = metrics.counter("graph.cone.sweeps")
        g = ASGraph()
        g.add_c2p(2, 1)
        g.all_cone_sizes()
        g.all_cone_sizes()
        assert metrics.counter("graph.cone.sweeps") == sweeps_before + 1

    def test_asns_view_cached_and_refreshed(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        view = g.asns
        assert isinstance(view, tuple)
        assert g.asns is view  # cached, no per-access copy
        g.add_p2p(1, 3)
        assert g.asns == (2, 1, 3)


class TestTrieAccountingEquivalence:
    @pytest.mark.parametrize("seed", range(50))
    def test_matches_per_prefix_oracle(self, seed):
        rng = random.Random(3000 + seed)
        trie = random_trie(rng)
        batch = trie.uncovered_address_counts()
        assert set(batch) == {p for p, _ in trie.items()}
        for prefix, _ in trie.items():
            assert batch[prefix] == trie._reference_uncovered_addresses(prefix)
            assert trie.uncovered_addresses(prefix) == batch[prefix]

    @pytest.mark.parametrize("seed", range(5))
    def test_unstored_prefix_falls_back(self, seed):
        rng = random.Random(4000 + seed)
        trie = random_trie(rng)
        for _ in range(10):
            probe = Prefix.from_host(rng.getrandbits(32), rng.randint(0, 32))
            assert trie.uncovered_addresses(
                probe
            ) == trie._reference_uncovered_addresses(probe)

    @pytest.mark.parametrize("seed", range(10))
    def test_summarize_byte_identical(self, seed):
        rng = random.Random(5000 + seed)
        items = [
            (
                Prefix.from_host(rng.getrandbits(32), rng.randint(0, 32)),
                rng.randint(1, 4),
            )
            for _ in range(rng.randint(1, 30))
        ]
        fast = summarize_address_counts(items)
        reference = _reference_summarize_address_counts(items)
        assert fast == reference
        assert repr(fast) == repr(reference)  # same insertion order

    def test_contains_single_walk_semantics(self):
        trie: PrefixTrie[object] = PrefixTrie()
        wide = Prefix.parse("10.0.0.0/8")
        narrow = Prefix.parse("10.1.0.0/16")
        trie.insert(wide, None)  # a stored None value still counts as present
        assert wide in trie
        assert narrow not in trie
        trie.insert(narrow, "x")
        assert narrow in trie


class TestTrieCacheInvalidation:
    def test_insert_invalidates_batch_map(self):
        trie: PrefixTrie[str] = PrefixTrie()
        wide = Prefix.parse("10.0.0.0/16")
        trie.insert(wide, "a")
        assert trie.uncovered_addresses(wide) == wide.num_addresses
        trie.insert(Prefix.parse("10.0.1.0/24"), "b")
        assert trie.uncovered_addresses(wide) == wide.num_addresses - 256

    def test_value_replacement_invalidates(self):
        trie: PrefixTrie[str] = PrefixTrie()
        p = Prefix.parse("10.0.0.0/16")
        trie.insert(p, "a")
        before = trie.uncovered_address_counts()
        trie.insert(p, "b")
        after = trie.uncovered_address_counts()
        assert before is not after

    def test_cache_hit_counter_flows(self):
        trie: PrefixTrie[str] = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/16"), "a")
        trie.uncovered_address_counts()
        metrics = get_metrics()
        hits_before = metrics.counter("prefix.summary.cache_hits")
        trie.uncovered_address_counts()
        assert metrics.counter("prefix.summary.cache_hits") == hits_before + 1


class TestWorldLevelEquivalence:
    def test_asrank_from_world_byte_identical(self, tiny_world):
        dataset = AsRankDataset.from_world(tiny_world)
        reference = _reference_cone_sizes_from_world(tiny_world)
        assert dataset._cone_sizes == reference
        assert repr(dataset._cone_sizes) == repr(reference)

    def test_true_address_counts_byte_identical(self, tiny_world):
        fast = tiny_world.true_address_counts()
        reference = _reference_summarize_address_counts(tiny_world.prefix_table())
        assert fast == reference
        assert repr(fast) == repr(reference)

    def test_table_uncovered_map_matches_per_prefix(self, tiny_world):
        from repro.sources.prefix2as import Prefix2ASTable

        table = Prefix2ASTable.from_world(tiny_world)
        uncovered = table.uncovered_address_counts()
        for prefix, _ in table:
            assert uncovered[prefix] == table._trie._reference_uncovered_addresses(
                prefix
            )


class TestLinearSweepEquivalence:
    """The stack-sweep prefix accounting vs the trie oracle.

    :func:`sweep_uncovered_counts` replaced the trie build + post-order
    walk in the table's batch path; the trie-backed
    ``_reference_flat_counts`` stays as the oracle.  Random tables include
    nested prefixes and duplicate (base, length) rows under different
    origins — the aliasing case the sweep must replay, not recompute.
    """

    @staticmethod
    def _random_entries(rng: random.Random):
        entries = []
        for _ in range(rng.randint(1, 60)):
            prefix = Prefix.from_host(rng.getrandbits(32), rng.randint(4, 30))
            entries.append((prefix, rng.randint(1, 500)))
            # Sprinkle nested more-specifics and exact duplicates.
            if rng.random() < 0.4 and prefix.length <= 28:
                sub = Prefix.from_host(prefix.base, prefix.length + 2)
                entries.append((sub, rng.randint(1, 500)))
            if rng.random() < 0.2:
                entries.append((prefix, rng.randint(1, 500)))
        return entries

    @pytest.mark.parametrize("seed", range(50))
    def test_sweep_matches_trie_oracle(self, seed):
        from repro.sources.prefix2as import Prefix2ASTable

        rng = random.Random(6000 + seed)
        table = Prefix2ASTable(self._random_entries(rng))
        fast = table.flat_counts()
        reference = table._reference_flat_counts()
        assert list(fast.bases) == list(reference.bases)
        assert list(fast.lengths) == list(reference.lengths)
        assert list(fast.origins) == list(reference.origins)
        assert list(fast.uncovered) == list(reference.uncovered)

    @staticmethod
    def _interval_oracle(bases, lengths):
        """Brute-force ``a(p, C)``: span minus the merged union of every
        distinct strictly-more-specific stored prefix inside it."""
        distinct = sorted(set(zip(bases, lengths)))
        out = []
        for base, length in zip(bases, lengths):
            end = base + (1 << (32 - length))
            inner = sorted(
                (b, b + (1 << (32 - l)))
                for b, l in distinct
                if l > length and base <= b and b + (1 << (32 - l)) <= end
            )
            covered = 0
            cursor = base
            for lo, hi in inner:
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - base) - covered)
        return out

    @pytest.mark.parametrize("seed", range(20))
    def test_sweep_matches_interval_oracle(self, seed):
        """The kernel itself over the full /0–/32 length range (the table
        test above draws /4–/30 only), against an oracle that shares no
        code with the trie."""
        from array import array

        from repro.net.prefix import sweep_uncovered_counts

        rng = random.Random(7000 + seed)
        rows = set()
        for _ in range(rng.randint(1, 60)):
            prefix = Prefix.from_host(rng.getrandbits(32), rng.randint(0, 32))
            rows.add((prefix.base, prefix.length))
            if prefix.length < 32 and rng.random() < 0.4:
                sub = Prefix.from_host(
                    prefix.base + rng.getrandbits(32 - prefix.length),
                    rng.randint(prefix.length + 1, 32),
                )
                rows.add((sub.base, sub.length))
        ordered = sorted(rows)
        # Duplicate (base, length) rows, as a table with several origins
        # for one prefix has them, must replay the first row's count.
        ordered += [row for row in ordered if rng.random() < 0.2]
        ordered.sort()
        bases = array("I", (base for base, _ in ordered))
        lengths = array("B", (length for _, length in ordered))
        counts = sweep_uncovered_counts(bases, lengths)
        assert list(counts) == self._interval_oracle(list(bases), list(lengths))

    def test_flat_counts_is_memoized(self):
        from repro.sources.prefix2as import Prefix2ASTable

        table = Prefix2ASTable(self._random_entries(random.Random(123456)))
        first = table.flat_counts()
        assert table.flat_counts() is first
        reference = table._reference_flat_counts()
        assert first.uncovered.tobytes() == reference.uncovered.tobytes()

    def test_sweep_edge_tables(self):
        from array import array

        from repro.net.prefix import sweep_uncovered_counts

        def sweep(rows):
            bases = array("I", (base for base, _ in rows))
            lengths = array("B", (length for _, length in rows))
            return list(sweep_uncovered_counts(bases, lengths))

        assert sweep([]) == []
        assert sweep([(0, 0)]) == [1 << 32]
        assert sweep([(0, 0), (0xFFFFFFFF, 32)]) == [(1 << 32) - 1, 1]
        assert sweep([(0, 0), (0, 0), (5, 32)]) == [(1 << 32) - 1] * 2 + [1]
