"""Tests for Gao-Rexford route propagation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.net.bgp import RouteClass
from repro.net.monitors import Monitor, MonitorSet, RouteCollector
from repro.net.propagation import propagate
from repro.net.topology import ASGraph, Relationship


def valley_free(graph: ASGraph, path):
    """Check the valley-free property: once the path goes 'down' (p2c) or
    sideways (p2p), it must keep going down."""
    # Walk from origin outward: reverse so path[0] is origin.
    hops = list(reversed(path))
    seen_down_or_peer = False
    peers_used = 0
    for a, b in zip(hops, hops[1:]):
        rel = graph.relationship(b, a)  # what is a from b's perspective?
        if rel is Relationship.CUSTOMER:
            # b learned the route from its customer a: uphill segment.
            if seen_down_or_peer:
                return False
        elif rel is Relationship.PEER:
            if seen_down_or_peer:
                return False
            seen_down_or_peer = True
            peers_used += 1
            if peers_used > 1:
                return False
        else:
            seen_down_or_peer = True
    return True


class TestBasicPropagation:
    def test_origin_has_zero_distance(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        tree = propagate(g, 2)
        assert tree.distance(2) == 0
        assert tree.route_class(2) is RouteClass.ORIGIN
        assert tree.path_from(2) == (2,)

    def test_provider_learns_customer_route(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        tree = propagate(g, 2)
        assert tree.route_class(1) is RouteClass.CUSTOMER
        assert tree.path_from(1) == (1, 2)

    def test_customer_learns_provider_route(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        tree = propagate(g, 1)
        assert tree.route_class(2) is RouteClass.PROVIDER
        assert tree.path_from(2) == (2, 1)

    def test_peer_route_single_hop(self):
        g = ASGraph()
        g.add_p2p(1, 2)
        tree = propagate(g, 1)
        assert tree.route_class(2) is RouteClass.PEER
        assert tree.path_from(2) == (2, 1)

    def test_peer_routes_not_transitive(self):
        # 1~2~3 peers: 3 must NOT reach 1 via 2 (no valley-free export).
        g = ASGraph()
        g.add_p2p(1, 2)
        g.add_p2p(2, 3)
        tree = propagate(g, 1)
        assert not tree.has_route(3)

    def test_unknown_origin(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        with pytest.raises(TopologyError):
            propagate(g, 42)


class TestPreferences:
    def test_customer_preferred_over_peer(self):
        # 9's route to 5: via customer 5 directly... build: 9 has customer 5
        # and peer 6, where 6 also reaches 5.
        g = ASGraph()
        g.add_c2p(5, 9)     # 5 is customer of 9
        g.add_p2p(9, 6)
        g.add_c2p(5, 6)
        tree = propagate(g, 5)
        assert tree.route_class(9) is RouteClass.CUSTOMER
        assert tree.path_from(9) == (9, 5)

    def test_peer_preferred_over_provider(self):
        # 3 can reach origin 1 via peer 2 (short) or via provider 4.
        g = ASGraph()
        g.add_p2p(3, 2)
        g.add_c2p(1, 2)     # 2 has customer 1 -> exports to peer 3
        g.add_c2p(3, 4)     # 4 is provider of 3
        g.add_c2p(1, 4)
        tree = propagate(g, 1)
        assert tree.route_class(3) is RouteClass.PEER

    def test_customer_route_preferred_even_if_longer(self):
        # Origin 1.  AS 10 can reach via a 3-hop customer chain or a 1-hop
        # provider; Gao-Rexford prefers the customer route.
        g = ASGraph()
        g.add_c2p(1, 2)
        g.add_c2p(2, 3)
        g.add_c2p(3, 10)    # customer chain 10 <- 3 <- 2 <- 1
        g.add_c2p(10, 20)   # 20 provider of 10
        g.add_c2p(1, 20)
        tree = propagate(g, 1)
        assert tree.route_class(10) is RouteClass.CUSTOMER
        assert tree.path_from(10) == (10, 3, 2, 1)

    def test_shortest_within_class(self):
        g = ASGraph()
        # two provider paths to origin 1: length 2 and length 3.
        g.add_c2p(1, 2)
        g.add_c2p(5, 2)       # 5 -> 2 -> 1 (via provider 2)
        g.add_c2p(1, 3)
        g.add_c2p(4, 3)
        g.add_c2p(5, 4)       # 5 -> 4 -> 3 -> 1
        tree = propagate(g, 1)
        assert tree.distance(5) == 2

    def test_deterministic_tie_break_lowest_asn(self):
        g = ASGraph()
        g.add_c2p(1, 7)
        g.add_c2p(1, 3)
        g.add_c2p(9, 7)
        g.add_c2p(9, 3)
        tree = propagate(g, 1)
        # 9 has two equal-length provider... actually customer routes via 3
        # and 7; lowest next-hop ASN (3) must win.
        assert tree.path_from(9) == (9, 3, 1)


class TestTreeCache:
    def test_collector_reuses_trees(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        collector = RouteCollector(g, MonitorSet([Monitor("m0", 2)]))
        first = collector.paths_to(1)
        assert collector.paths_to(1) == first == {"m0": (2, 1)}
        assert collector.trees_computed() == 1
        assert collector._kernel.trees_built == 1


def random_valley_free_graph(rng: random.Random, n_levels=4, per_level=4):
    """Random layered graph: providers always in strictly higher layers."""
    g = ASGraph()
    levels = []
    asn = 1
    for level in range(n_levels):
        layer = []
        for _ in range(per_level):
            g.add_as(asn)
            layer.append(asn)
            asn += 1
        levels.append(layer)
    for i, layer in enumerate(levels[1:], start=1):
        for node in layer:
            providers = rng.sample(
                levels[i - 1], k=rng.randint(1, min(2, len(levels[i - 1])))
            )
            for p in providers:
                g.add_c2p(node, p)
    # a few peering edges within levels
    for layer in levels:
        for a, b in zip(layer, layer[1:]):
            if rng.random() < 0.5:
                g.add_p2p(a, b)
    return g


class TestValleyFreeProperty:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_all_paths_valley_free(self, seed):
        rng = random.Random(seed)
        g = random_valley_free_graph(rng)
        g.validate()
        origins = rng.sample(g.asns, k=3)
        for origin in origins:
            tree = propagate(g, origin)
            for asn in g.asns:
                path = tree.path_from(asn)
                if path is None or len(path) < 2:
                    continue
                assert valley_free(g, path), (origin, path)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_paths_loop_free_and_consistent(self, seed):
        rng = random.Random(seed)
        g = random_valley_free_graph(rng)
        origin = rng.choice(g.asns)
        tree = propagate(g, origin)
        for asn in g.asns:
            path = tree.path_from(asn)
            if path is None:
                continue
            assert len(set(path)) == len(path)       # loop-free
            assert path[0] == asn and path[-1] == origin
            assert tree.distance(asn) == len(path) - 1
