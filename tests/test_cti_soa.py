"""Struct-of-arrays CTI scoring: randomized oracle equivalence.

The SoA scorer (:meth:`CTIComputer.country_cti`) must be *byte-identical*
to the retained dict-walk oracle (:meth:`CTIComputer._reference_country_cti`)
— same floats, not approximately equal — across randomized topologies,
prefix tables, geolocation noise, and monitor placements.  Also covers the
shm roundtrip of :class:`CountryWeightIndex`, the flat prefix/count view
against the trie accounting it bakes in, and the memory ceiling: a
worker's private (anonymous) memory must stay flat as ``--jobs`` doubles
because the weight index lives in one shared segment instead of per-worker
copies.
"""

from __future__ import annotations

import os
import random
from array import array

import pytest

from repro.config import SourceNoiseConfig
from repro.cti.metric import CTIComputer
from repro.cti.soa import CountryWeightIndex
from repro.net.monitors import Monitor, MonitorSet, RouteCollector
from repro.net.prefix import Prefix
from repro.net.topology import ASGraph
from repro.parallel import ExecutionContext, SharedStatePlane
from repro.parallel.shm import attach_ref, release_worker_attachments
from repro.sources.geolocation import GeolocationService
from repro.sources.prefix2as import Prefix2ASTable

_CCS = ("AA", "BB", "CC", "DD", "EE")


def random_scenario(seed: int) -> CTIComputer:
    """A random small internet: tier-1s, gateways, multihomed origins,
    nested prefixes, noisy geolocation, random monitor placement."""
    rng = random.Random(seed)
    # Owners come from a random subset, but the geolocation service sees
    # all five countries — its leak model samples up to 3 wrong ones.
    owner_ccs = list(_CCS[: rng.randint(2, len(_CCS))])
    ccs = list(_CCS)
    graph = ASGraph()
    tier1 = [1, 2]
    graph.add_p2p(1, 2)
    gateways = [10 + i for i in range(rng.randint(2, 4))]
    for gw in gateways:
        graph.add_c2p(gw, rng.choice(tier1))
    origins = [100 + i for i in range(rng.randint(4, 10))]
    for origin in origins:
        for gw in rng.sample(gateways, rng.randint(1, min(2, len(gateways)))):
            graph.add_c2p(origin, gw)

    everyone = tier1 + gateways + origins
    true_cc = {asn: rng.choice(owner_ccs) for asn in everyone}

    entries = []
    block = 1
    for asn in everyone:
        for _ in range(rng.randint(1, 3)):
            a, b = block >> 8, block & 0xFF
            entries.append((Prefix.parse(f"{a}.{b}.0.0/16"), asn))
            if rng.random() < 0.3:
                # A more-specific inside the /16, owned by a random AS, so
                # the uncovered-address accounting actually bites.
                entries.append(
                    (
                        Prefix.parse(f"{a}.{b}.{rng.randint(0, 255)}.0/24"),
                        rng.choice(everyone),
                    )
                )
            block += 1
    table = Prefix2ASTable(entries)
    geo = GeolocationService(
        true_cc,
        ccs,
        SourceNoiseConfig(geolocation_accuracy=rng.uniform(0.7, 1.0)),
        seed=seed,
    )
    hosts = rng.sample(tier1 + gateways, rng.randint(1, 3))
    monitors = MonitorSet([Monitor(f"m{i}", host) for i, host in enumerate(hosts)])
    return CTIComputer(table, geo, RouteCollector(graph, monitors))


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(50))
    def test_soa_scorer_matches_dict_oracle(self, seed):
        cti = random_scenario(seed)
        ccs = cti.countries()
        assert ccs, "scenario must geolocate some address space"
        for cc in ccs:
            assert (
                cti._scored_origins(cc) == cti._reference_scored_origins(cc)
            ), (seed, cc)
            reference = cti._reference_country_cti(cc)
            assert cti.country_cti(cc) == reference, (seed, cc)

    @pytest.mark.parametrize("seed", [3, 17, 41])
    def test_sharded_scoring_matches_unsharded(self, seed):
        sharded = random_scenario(seed)
        unsharded = random_scenario(seed)
        ccs = sharded.countries()
        sharded.score_countries(ccs, shard_size=1)
        for cc in ccs:
            assert sharded.country_cti(cc) == unsharded.country_cti(cc), cc

    def test_flat_counts_match_trie_accounting(self):
        for seed in range(10):
            table = random_scenario(seed)._table
            by_prefix = table.uncovered_address_counts()
            rows = list(table.flat_counts().rows())
            assert len(rows) == len(table)
            for (base, length, origin, uncovered), (prefix, entry_origin) in (
                zip(rows, table)
            ):
                assert (Prefix(base, length), origin) == (
                    prefix,
                    entry_origin,
                )
                assert uncovered == by_prefix[prefix], prefix


class TestWeightIndexShm:
    def test_index_roundtrip(self):
        cti = random_scenario(7)
        index = cti.weight_index
        plane = SharedStatePlane()
        try:
            rebuilt = attach_ref(plane.share(index))
            assert isinstance(rebuilt, CountryWeightIndex)
            assert rebuilt.ccs == index.ccs
            assert len(rebuilt) == len(index)
            for cc in index.ccs:
                assert rebuilt.span(cc) == index.span(cc)
                assert rebuilt.total(cc) == index.total(cc)
            assert rebuilt.as_dicts() == index.as_dicts()
        finally:
            release_worker_attachments()
            plane.close()

    def test_scoring_off_rebuilt_index_is_identical(self):
        baseline = random_scenario(11)
        expected = {cc: baseline.country_cti(cc) for cc in baseline.countries()}
        plane = SharedStatePlane()
        try:
            rebuilt = attach_ref(plane.share(baseline.weight_index))
            fresh = random_scenario(11)
            fresh._index = rebuilt  # as a worker-side attach would install
            for cc, scores in expected.items():
                assert fresh.country_cti(cc) == scores, cc
        finally:
            release_worker_attachments()
            plane.close()

    def test_empty_index(self):
        index = CountryWeightIndex.build({}, {})
        assert len(index) == 0
        assert index.span("XX") is None
        assert index.total("XX") == 0
        assert "XX" not in index


# -- memory ceiling ----------------------------------------------------------
def _rss_fields() -> dict:
    fields = {}
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(("RssAnon:", "RssShmem:")):
                key, value = line.split(":")
                fields[key] = int(value.split()[0]) * 1024
    return fields


def _touch_columns(index, stripe):
    """Fault in every page of the shared weight column; report how much
    *private* (anonymous) and *shared* memory the read added."""
    before = _rss_fields()
    weights = index.weights
    total = 0
    # 'q' items are 8 bytes -> stride 256 touches every 4 KiB page twice.
    for i in range(stripe % 256, len(weights), 256):
        total += weights[i]
    after = _rss_fields()
    return (
        total,
        after["RssAnon"] - before["RssAnon"],
        after["RssShmem"] - before["RssShmem"],
    )


def _big_index(n: int) -> CountryWeightIndex:
    return CountryWeightIndex(
        b"XX",
        array("i", [0, 2]),
        array("i", [0, n]),
        array("q", range(n)),
        array("q", range(n)),
        array("q", [n]),
    )


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="needs /proc RssAnon/RssShmem accounting (Linux)",
)
class TestMemoryCeiling:
    def test_worker_private_memory_flat_as_jobs_double(self):
        """Reading a ~90MB shared index must cost workers shared pages,
        not private copies, and the cost must not grow with --jobs."""
        from repro.obs import get_metrics

        n = 6_000_000  # two 'q' columns -> ~91 MB segment
        index = _big_index(n)
        state_bytes = 2 * 8 * n
        metrics = get_metrics()
        peak_anon_delta = {}
        for jobs in (2, 4):
            blob_before = metrics.counter("runtime.state_bytes")
            shm_before = metrics.counter("runtime.shm_bytes")
            with ExecutionContext(jobs=jobs) as context:
                results = context.map_ordered(
                    _touch_columns, list(range(jobs * 2)), state=index
                )
            # The pickled ship blob carries only the tiny ShmRef name card;
            # the index bytes travel through the shared segment.
            blob_bytes = metrics.counter("runtime.state_bytes") - blob_before
            assert blob_bytes < 4096, blob_bytes
            assert (metrics.counter("runtime.shm_bytes") - shm_before >= state_bytes)
            assert all(r[0] > 0 for r in results)
            peak_anon_delta[jobs] = max(r[1] for r in results)
            # At least one worker demonstrably paged the column in as
            # *shared* memory (the segment, not a private copy).
            assert max(r[2] for r in results) > state_bytes // 4
        # Zero-copy ceiling: touching every page of the 90MB column adds
        # only interpreter noise to a worker's private memory...
        for jobs, anon in peak_anon_delta.items():
            assert anon < state_bytes // 8, (jobs, anon, state_bytes)
        # ...and stays flat when the pool doubles.
        assert (peak_anon_delta[4] < peak_anon_delta[2] + 8 * 2**20), peak_anon_delta
