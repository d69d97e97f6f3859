"""Tests for valley-free route propagation under routing policies.

Three pillars hold :func:`repro.net.propagation.propagate` to its contract:

* 50-seed randomized suites proving the flat-array kernel makes *exactly*
  the decisions of the per-edge oracle in ``tests/oracles/propagation.py``
  — same paths, classes and distances, not just same reachability — with
  no policy, with the neutral policy, and under every policy feature;
* valley-free invariant checks — policies that only disable edges or add
  hijack announcers must never manufacture a valley, while a route leak
  must be able to (the negative control that proves the checker has teeth);
* byte-identity of propagated-route CTI across the serial and process
  backends, policy riding along through pickle and shared memory.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.config import SourceNoiseConfig
from repro.cti.metric import CTIComputer
from repro.errors import TopologyError
from repro.net.bgp import RouteClass
from repro.net.monitors import Monitor, MonitorSet, RouteCollector
from repro.net.prefix import Prefix
from repro.net.propagation import PropagationKernel, propagate
from repro.net.routing import NEUTRAL_POLICY, RoutingPolicy
from repro.net.topology import ASGraph
from repro.parallel import ExecutionContext
from repro.sources.geolocation import GeolocationService
from repro.sources.prefix2as import Prefix2ASTable

from tests.oracles.propagation import reference_propagate
from tests.test_bgp import random_valley_free_graph, valley_free


def leak_quad():
    """The canonical route-leak shape.

    Tier-1s AS1 ~ AS2 peer; AS3 multihomes under both; the origin AS4 buys
    from AS1 only.  Neutrally AS2 reaches AS4 over the peering (2,1,4);
    when AS3 leaks, its provider route (3,1,4) arrives at AS2 as a
    *customer* route, which outranks the peer route.
    """
    g = ASGraph()
    g.add_p2p(1, 2)
    g.add_c2p(3, 1)
    g.add_c2p(3, 2)
    g.add_c2p(4, 1)
    return g


class TestRoutingPolicy:
    def test_build_normalizes_down_edges(self):
        p = RoutingPolicy.build(down_edges=[(2, 1), (1, 2), (5, 9)])
        assert p.down_edges == ((1, 2), (5, 9))

    def test_build_normalizes_hijacks(self):
        # Victim never announces against itself; duplicates collapse.
        p = RoutingPolicy.build(hijacks={4: [5, 4, 5], 7: [7]})
        assert p.hijacks == ((4, (5,)),)
        assert p.hijackers_of(4) == (5,)
        assert p.hijackers_of(7) == ()

    def test_construction_order_irrelevant(self):
        a = RoutingPolicy.build(
            down_edges=[(9, 3), (1, 2)], leakers=[8, 5], hijacks={4: [6, 5]}
        )
        b = RoutingPolicy.build(
            down_edges=[(2, 1), (3, 9)], leakers=[5, 8], hijacks={4: [5, 6]}
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_neutrality(self):
        assert NEUTRAL_POLICY.is_neutral
        assert RoutingPolicy.build().is_neutral
        assert not RoutingPolicy.build(leakers=[3]).is_neutral
        assert not RoutingPolicy.build(down_edges=[(1, 2)]).is_neutral
        assert not RoutingPolicy.build(hijacks={4: [5]}).is_neutral

    def test_dict_roundtrip(self):
        p = RoutingPolicy.build(down_edges=[(1, 2)], leakers=[3], hijacks={4: [5, 6]})
        assert RoutingPolicy.from_dict(p.as_dict()) == p
        assert RoutingPolicy.from_dict(NEUTRAL_POLICY.as_dict()).is_neutral

    def test_pickle_roundtrip(self):
        p = RoutingPolicy.build(down_edges=[(1, 2)], leakers=[3])
        assert pickle.loads(pickle.dumps(p)) == p


class TestNeutralEquivalence:
    """A policy that says nothing routes exactly like no policy at all."""

    @pytest.mark.parametrize("seed", range(50))
    def test_neutral_policy_matches_oracle(self, seed):
        rng = random.Random(seed)
        graph = random_valley_free_graph(rng)
        for origin in graph.asns:
            oracle = reference_propagate(graph, origin)
            tree = propagate(graph, origin, NEUTRAL_POLICY)
            for asn in graph.asns:
                assert tree.has_route(asn) == oracle.has_route(asn)
                if not oracle.has_route(asn):
                    continue
                assert tree.path_from(asn) == oracle.path_from(asn)
                assert tree.route_class(asn) is oracle.route_class(asn)
                assert tree.distance(asn) == oracle.distance(asn)

    def test_none_policy_means_neutral(self):
        graph = random_valley_free_graph(random.Random(99))
        origin = graph.asns[-1]
        a = propagate(graph, origin)
        b = reference_propagate(graph, origin, NEUTRAL_POLICY)
        assert all(a.path_from(x) == b.path_from(x) for x in graph.asns)

    def test_unknown_origin_raises(self):
        with pytest.raises(TopologyError):
            propagate(leak_quad(), 999)


class TestValleyFreeInvariant:
    @pytest.mark.parametrize("seed", range(10))
    def test_down_edges_and_hijacks_never_make_valleys(self, seed):
        """Disabling adjacencies or adding announcers only re-selects among
        valley-free candidates; it can never create a valley."""
        rng = random.Random(1000 + seed)
        graph = random_valley_free_graph(rng)
        asns = graph.asns
        down = []
        for asn in rng.sample(asns, k=4):
            providers = sorted(graph.providers_of(asn))
            if providers and rng.random() < 0.8:
                down.append((asn, rng.choice(providers)))
            peers = sorted(graph.peers_of(asn))
            if peers:
                down.append((asn, rng.choice(peers)))
        victim, hijacker = rng.sample(asns, k=2)
        policy = RoutingPolicy.build(down_edges=down, hijacks={victim: [hijacker]})
        for origin in asns:
            tree = propagate(graph, origin, policy)
            for asn in asns:
                if tree.has_route(asn):
                    assert valley_free(graph, tree.path_from(asn))

    def test_leak_creates_a_valley(self):
        """Negative control: the leaked customer route at AS2 climbs back
        up through the leaker — exactly the valley the checker must flag."""
        graph = leak_quad()
        neutral = propagate(graph, 4)
        assert neutral.path_from(2) == (2, 1, 4)
        assert valley_free(graph, neutral.path_from(2))

        leaked = propagate(graph, 4, RoutingPolicy.build(leakers=[3]))
        assert leaked.path_from(2) == (2, 3, 1, 4)
        assert leaked.route_class(2) is RouteClass.CUSTOMER
        assert not valley_free(graph, leaked.path_from(2))

    def test_leak_does_not_displace_better_routes(self):
        # AS1 already holds a customer route of length 1; the leaker's
        # longer customer offer must lose the tie-break.
        graph = leak_quad()
        leaked = propagate(graph, 4, RoutingPolicy.build(leakers=[3]))
        assert leaked.path_from(1) == (1, 4)

    @pytest.mark.parametrize("seed", range(20))
    def test_leak_storm_stays_loop_free(self, seed):
        rng = random.Random(2000 + seed)
        graph = random_valley_free_graph(rng)
        leakers = rng.sample(graph.asns, k=3)
        policy = RoutingPolicy.build(leakers=leakers)
        for origin in graph.asns:
            tree = propagate(graph, origin, policy)
            for asn in graph.asns:
                if tree.has_route(asn):
                    path = tree.path_from(asn)
                    assert len(set(path)) == len(path), (origin, path)
                    assert path[-1] == origin


class TestPolicyMechanics:
    def test_down_edge_blocks_propagation(self):
        g = ASGraph()
        g.add_p2p(1, 2)
        policy = RoutingPolicy.build(down_edges=[(2, 1)])
        tree = propagate(g, 1, policy)
        assert not tree.has_route(2)

    def test_down_edge_forces_detour(self):
        g = ASGraph()
        g.add_p2p(1, 2)
        g.add_c2p(10, 1)
        g.add_c2p(10, 2)
        g.add_c2p(100, 10)
        tree = propagate(
            g, 100, RoutingPolicy.build(down_edges=[(10, 1)])
        )
        # AS1 can no longer hear 100 from its customer 10; the peer AS2
        # still can, and exports over the peering.
        assert tree.path_from(1) == (1, 2, 10, 100)

    def test_hijack_splits_the_graph(self):
        g = ASGraph()
        g.add_p2p(1, 2)
        g.add_c2p(4, 1)
        g.add_c2p(5, 2)
        policy = RoutingPolicy.build(hijacks={4: [5]})
        tree = propagate(g, 4, policy)
        # Each tier-1 prefers its own customer's announcement.
        assert tree.path_from(1) == (1, 4)
        assert tree.path_from(2) == (2, 5)
        for asn in g.asns:
            assert tree.path_from(asn)[-1] in (4, 5)

    def test_hijacker_not_in_graph_is_ignored(self):
        graph = leak_quad()
        tree = propagate(
            graph, 4, RoutingPolicy.build(hijacks={4: [999]})
        )
        oracle = propagate(graph, 4)
        assert all(tree.path_from(a) == oracle.path_from(a) for a in graph.asns)

    def test_collector_computes_each_origin_once(self):
        collector = _leak_collector(RoutingPolicy.build(leakers=[3]))
        first = collector.paths_to(4)
        assert collector.paths_to(4) == first
        assert collector.trees_computed() == 1
        assert collector._kernel.trees_built == 1
        assert collector.policy.leakers == (3,)


def _leak_collector(policy=None):
    monitors = MonitorSet([Monitor("m0", 2), Monitor("m1", 1)])
    return RouteCollector(leak_quad(), monitors, policy=policy)


class TestCollectorPolicy:
    def test_default_is_no_policy(self):
        collector = _leak_collector()
        assert collector.policy is None

    def test_policy_changes_observed_paths(self):
        leak = RoutingPolicy.build(leakers=[3])
        assert _leak_collector().paths_to(4)["m0"] == (2, 1, 4)
        assert _leak_collector(leak).paths_to(4)["m0"] == (2, 3, 1, 4)

    def test_neutral_policy_observes_default_paths(self):
        default = _leak_collector()
        neutral = _leak_collector(NEUTRAL_POLICY)
        for origin in (1, 2, 3, 4):
            assert neutral.paths_to(origin) == default.paths_to(origin)

    def test_pickle_preserves_policy(self):
        leak = RoutingPolicy.build(leakers=[3])
        original = _leak_collector(leak)
        expected = original.paths_to(4)
        clone = pickle.loads(pickle.dumps(original))
        assert clone.policy == leak
        assert clone.trees_computed() == 0  # caches never travel
        assert clone.paths_to(4) == expected

    def test_shm_rebuild_preserves_policy(self):
        leak = RoutingPolicy.build(leakers=[3], down_edges=[(1, 2)])
        original = _leak_collector(leak)
        meta, buffers = original.__shm_export__()
        rebuilt = RouteCollector.__shm_rebuild__(
            meta, [buf for _, buf in buffers]
        )
        assert rebuilt.policy == leak
        for origin in (1, 2, 3, 4):
            assert rebuilt.paths_to(origin) == original.paths_to(origin)

    def test_shm_rebuild_without_policy_stays_neutral(self):
        original = _leak_collector()
        meta, buffers = original.__shm_export__()
        rebuilt = RouteCollector.__shm_rebuild__(
            meta, [buf for _, buf in buffers]
        )
        assert rebuilt.policy is None
        assert rebuilt.paths_to(4) == original.paths_to(4)


_CTI_CCS = ["XX", "YY"]


_CTI_POLICY = RoutingPolicy.build(leakers=[12], down_edges=[(1, 3)])


def _policy_cti_scenario(policy=_CTI_POLICY):
    """Two toy countries behind gateways, scored under a non-neutral policy.

    The leak (AS12) and the depeered adjacency (1~3) both reroute monitor
    paths, so the scores genuinely exercise the policy rather than
    coinciding with the neutral trees.
    """
    graph = ASGraph()
    graph.add_p2p(1, 2)
    graph.add_p2p(1, 3)
    graph.add_p2p(2, 3)
    graph.add_c2p(10, 1)
    graph.add_c2p(11, 2)
    graph.add_c2p(12, 1)
    graph.add_c2p(12, 3)
    graph.add_c2p(100, 10)
    graph.add_c2p(101, 10)
    graph.add_c2p(102, 11)
    graph.add_c2p(103, 11)
    entries = [
        (Prefix.parse("10.0.0.0/16"), 100),
        (Prefix.parse("10.1.0.0/16"), 101),
        (Prefix.parse("10.2.0.0/16"), 102),
        (Prefix.parse("10.3.0.0/16"), 103),
        (Prefix.parse("20.0.0.0/16"), 10),
        (Prefix.parse("20.1.0.0/16"), 11),
        (Prefix.parse("20.2.0.0/16"), 12),
    ]
    true_cc = {
        100: "XX",
        101: "XX",
        10: "XX",
        102: "YY",
        103: "YY",
        11: "YY",
        12: "ZZ",
        1: "T1",
        2: "T1",
        3: "T1",
    }
    geo = GeolocationService(
        true_cc,
        ["XX", "YY", "ZZ", "T1"],
        SourceNoiseConfig(geolocation_accuracy=1.0),
        seed=1,
    )
    monitors = MonitorSet([Monitor("m0", 2), Monitor("m1", 3)])
    collector = RouteCollector(graph, monitors, policy=policy)
    return CTIComputer(Prefix2ASTable(entries), geo, collector)


def _policy_scores(jobs=None, policy=_CTI_POLICY):
    cti = _policy_cti_scenario(policy)
    if jobs is None:
        cti.score_countries(_CTI_CCS)
    else:
        with ExecutionContext(jobs=jobs) as context:
            cti.score_countries(_CTI_CCS, context=context)
    return {cc: cti.country_cti(cc) for cc in _CTI_CCS}


class TestPropagatedCTIByteIdentity:
    def test_policy_perturbs_scores(self):
        # Sanity: the non-neutral policy must actually move the metric,
        # otherwise byte-identity across backends would be vacuous.
        assert _policy_scores() != _policy_scores(policy=None)

    def test_serial_process_bit_identical(self):
        serial = _policy_scores()
        forked = _policy_scores(jobs=2)
        # Exact float equality — not approx: both backends must make the
        # same additions in the same order on the same policy paths.
        assert serial == forked


class TestKernelOracleEquivalence:
    """The flat-array kernel IS the oracle, feature by feature.

    This suite pins :class:`~repro.net.propagation.PropagationKernel`
    against ``reference_propagate`` with no policy and under every policy
    feature the kernel supports, and proves buffer reuse inside one
    kernel never bleeds state between origins.
    """

    @staticmethod
    def _assert_same_tree(graph, kernel_tree, oracle_tree):
        for asn in graph.asns:
            assert kernel_tree.has_route(asn) == oracle_tree.has_route(asn), asn
            if not oracle_tree.has_route(asn):
                continue
            assert kernel_tree.path_from(asn) == oracle_tree.path_from(asn), asn
            assert kernel_tree.route_class(asn) is oracle_tree.route_class(asn)
            assert kernel_tree.distance(asn) == oracle_tree.distance(asn)

    @staticmethod
    def _random_policies(graph, rng):
        asns = graph.asns
        down = []
        for asn in rng.sample(asns, k=4):
            providers = sorted(graph.providers_of(asn))
            if providers:
                down.append((asn, rng.choice(providers)))
            peers = sorted(graph.peers_of(asn))
            if peers and rng.random() < 0.5:
                down.append((asn, rng.choice(peers)))
        leakers = rng.sample(asns, k=2)
        victim, hijacker = rng.sample(asns, k=2)
        return [
            RoutingPolicy.build(down_edges=down),
            RoutingPolicy.build(leakers=leakers),
            RoutingPolicy.build(hijacks={victim: [hijacker]}),
            RoutingPolicy.build(
                down_edges=down, leakers=leakers, hijacks={victim: [hijacker]}
            ),
        ]

    @pytest.mark.parametrize("seed", range(50))
    def test_kernel_matches_oracle_without_policy(self, seed):
        rng = random.Random(7000 + seed)
        graph = random_valley_free_graph(rng)
        kernel = PropagationKernel(graph)
        for origin in graph.asns:
            self._assert_same_tree(
                graph,
                kernel.propagate(origin),
                reference_propagate(graph, origin),
            )

    @pytest.mark.parametrize("seed", range(50))
    def test_kernel_matches_policy_oracle_under_every_feature(self, seed):
        rng = random.Random(8000 + seed)
        graph = random_valley_free_graph(rng)
        origins = rng.sample(graph.asns, k=6)
        for policy in self._random_policies(graph, rng):
            kernel = PropagationKernel(graph, policy)
            for origin in origins:
                self._assert_same_tree(
                    graph,
                    kernel.propagate(origin),
                    reference_propagate(graph, origin, policy),
                )

    def test_buffer_reuse_does_not_bleed_between_origins(self):
        """A tree handed out earlier must be unchanged by later propagations
        on the same kernel — its arrays are copies, not views of the
        kernel's reusable scratch buffers."""
        rng = random.Random(424242)
        graph = random_valley_free_graph(rng)
        kernel = PropagationKernel(graph)
        first_origin = graph.asns[0]
        first = kernel.propagate(first_origin)
        snapshot = {
            asn: (
                first.has_route(asn),
                first.path_from(asn) if first.has_route(asn) else None,
                first.route_class(asn) if first.has_route(asn) else None,
                first.distance(asn) if first.has_route(asn) else None,
            )
            for asn in graph.asns
        }
        for origin in graph.asns[1:]:
            kernel.propagate(origin)
        after = {
            asn: (
                first.has_route(asn),
                first.path_from(asn) if first.has_route(asn) else None,
                first.route_class(asn) if first.has_route(asn) else None,
                first.distance(asn) if first.has_route(asn) else None,
            )
            for asn in graph.asns
        }
        assert after == snapshot

    def test_each_collector_reuses_one_kernel(self):
        graph = leak_quad()
        monitors = MonitorSet([Monitor("m0", 2)])
        neutral = RouteCollector(graph, monitors)
        leaky = RouteCollector(graph, monitors, RoutingPolicy.build(leakers=[3]))
        for origin in (1, 4, 4):
            neutral.paths_to(origin)
            leaky.paths_to(origin)
        assert neutral._kernel is not leaky._kernel
        assert neutral._kernel.trees_built == leaky._kernel.trees_built == 2
        assert neutral.paths_to(4)["m0"] == (2, 1, 4)
        assert leaky.paths_to(4)["m0"] == (2, 3, 1, 4)
