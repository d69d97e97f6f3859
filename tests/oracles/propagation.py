"""The route-propagation oracle.

:func:`reference_propagate` is the original per-edge implementation of
valley-free propagation under a :class:`~repro.net.routing.RoutingPolicy`.
:class:`~repro.net.propagation.PropagationKernel` must make exactly its
decisions — same phases, same iteration order, same tie-breaks — for the
neutral policy and under every policy feature (down edges, hijacks,
leakers); ``tests/test_routing.py`` holds the two together over
randomized graphs.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.errors import TopologyError
from repro.net.bgp import RouteClass, RoutingTree, _UNREACHED
from repro.net.routing import (
    NEUTRAL_POLICY,
    RoutingPolicy,
    _normalize_edge,
    _relax_leaks,
)

__all__ = ["reference_propagate"]

_ORIGIN = int(RouteClass.ORIGIN)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)


def reference_propagate(
    graph,
    origin: int,
    policy: Optional[RoutingPolicy] = None,
) -> RoutingTree:
    """The routing tree toward ``origin`` under ``policy`` (None = neutral).

    Runs the classic three-phase breadth-first propagation: customer routes
    bubble up through providers, then spread one hop across peering edges,
    then provider routes sink down through customers.  Each phase processes
    nodes in increasing path length so that the first route installed at a
    node within a phase is its shortest; ties are broken on lowest next-hop
    ASN by pre-sorting adjacency in ASN order.  Down edges never carry a
    route, hijackers announce at distance zero next to the origin, and
    leakers trigger the leak relaxation afterwards.
    """
    policy = NEUTRAL_POLICY if policy is None else policy
    if origin not in graph:
        raise TopologyError(f"origin AS{origin} not in graph")

    n = len(graph)
    dist = [_UNREACHED] * n
    route_class = [_UNREACHED] * n
    next_hop = [-1] * n

    # Hijacks seed extra announcers at distance zero; every AS then selects
    # among announcers with its ordinary preference rules.
    seeds = [graph.index_of(origin)]
    for announcer in policy.hijackers_of(origin):
        if announcer in graph:
            seeds.append(graph.index_of(announcer))
    for seed in seeds:
        dist[seed] = 0
        route_class[seed] = _ORIGIN

    down = _down_index_pairs(graph, policy)

    def edge_down(a: int, b: int) -> bool:
        return bool(down) and _normalize_edge(a, b) in down

    # One ASN-order sort per adjacency row, up front.
    asn_at = graph.asn_at
    sorted_providers = [sorted(graph.providers[i], key=asn_at) for i in range(n)]
    sorted_customers = [sorted(graph.customers[i], key=asn_at) for i in range(n)]
    sorted_peers = [sorted(graph.peers[i], key=asn_at) for i in range(n)]

    # Phase 1: customer routes climb provider edges (valley-free "uphill").
    # BFS by hop count; a node adopts the first (shortest, lowest-ASN) offer.
    frontier = sorted(seeds, key=asn_at)
    hop = 0
    while frontier:
        hop += 1
        next_frontier: List[int] = []
        for node in frontier:
            for provider in sorted_providers[node]:
                if edge_down(node, provider):
                    continue
                if dist[provider] == _UNREACHED:
                    dist[provider] = hop
                    route_class[provider] = _CUSTOMER
                    next_hop[provider] = node
                    next_frontier.append(provider)
        frontier = next_frontier

    # Phase 2: every AS holding a customer (or origin) route exports it to
    # its peers; peer routes are not re-exported to other peers/providers.
    # Exporters in increasing distance, so the first offer a peer records
    # is its preferred one.
    exporters = sorted(
        (i for i in range(n) if route_class[i] in (_ORIGIN, _CUSTOMER)),
        key=lambda i: (dist[i], graph.asn_at(i)),
    )
    peer_updates: List[Tuple[int, int, int]] = []
    for node in exporters:
        for peer in sorted_peers[node]:
            if edge_down(node, peer):
                continue
            if dist[peer] == _UNREACHED:
                peer_updates.append((peer, node, dist[node] + 1))
    for peer, via, d in peer_updates:
        if dist[peer] == _UNREACHED:
            dist[peer] = d
            route_class[peer] = _PEER
            next_hop[peer] = via

    # Phase 3: provider routes sink down customer edges ("downhill").
    # Seed with every routed node, ordered by distance, and BFS downward.
    queue = deque(
        sorted(
            (i for i in range(n) if dist[i] != _UNREACHED),
            key=lambda i: (dist[i], graph.asn_at(i)),
        )
    )
    while queue:
        node = queue.popleft()
        for customer in sorted_customers[node]:
            if edge_down(node, customer):
                continue
            if dist[customer] == _UNREACHED:
                dist[customer] = dist[node] + 1
                route_class[customer] = _PROVIDER
                next_hop[customer] = node
                queue.append(customer)

    if policy.leakers:
        _relax_leaks(graph, policy, dist, route_class, next_hop, edge_down)

    return RoutingTree(graph, origin, next_hop, dist, route_class)


def _down_index_pairs(graph, policy: RoutingPolicy) -> FrozenSet[Tuple[int, int]]:
    """Policy down-edges translated to normalized dense-index pairs."""
    pairs: Set[Tuple[int, int]] = set()
    for a, b in policy.down_edges:
        if a in graph and b in graph:
            pairs.add(_normalize_edge(graph.index_of(a), graph.index_of(b)))
    return frozenset(pairs)
