"""Flat-array route propagation: the one engine every routing tree comes from.

:func:`propagate` computes the Gao-Rexford routing tree toward one origin,
optionally under a :class:`~repro.net.routing.RoutingPolicy`; callers
routing many origins over one graph hold a :class:`PropagationKernel`
(as :class:`~repro.net.monitors.RouteCollector` does) so the per-graph
work is paid once.  At internet scale (~68k ASes) propagation is the CTI
hot loop: one routing tree per scored origin, thousands of origins per
run.

Per *graph* (not per origin) the kernel builds one CSR image whose rows
are pre-sorted by neighbor ASN — the exact tie-break order every phase
needs — with policy down-edges pruned at build time, so the per-origin
propagation touches nothing but flat ``bytearray`` / ``array('i')``
buffers:

* ``dist`` / ``route_class`` — ``bytearray`` stamped from a preallocated
  all-``_UNREACHED`` template (one C memcpy per origin);
* ``next_hop`` — ``array('i')`` stamped from an all ``-1`` template;
* frontier *buckets* — one reusable list per hop distance, replacing
  full-graph ``sorted(range(n), key=...)`` passes: nodes are appended to
  their hop bucket during BFS and each bucket is sorted by ASN only once,
  so exporter order ``(dist, asn)`` is reproduced with per-bucket sorts
  over already-partitioned data.

The decision sequence — phase order, first-offer-wins adoption, ASN
tie-breaks, hijack seeding, leak relaxation — replicates the per-edge
oracle in ``tests/oracles/propagation.py`` exactly, which is what keeps
every tree (and therefore every CTI float) byte-identical;
``tests/test_routing.py`` pins kernel vs oracle across 50 randomized
seeds for the neutral policy and for every policy feature.

Buffers are owned by the kernel and reused across origins **within** one
kernel (one kernel per route collector per worker).  Returned trees
snapshot nothing: the per-origin result arrays are stamped fresh from the
templates each call, so a tree handed out earlier is never mutated by a
later propagation (the buffer-isolation suite asserts this).
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from repro.errors import TopologyError
from repro.net.bgp import RoutingTree
from repro.net.flatgraph import CSRRows, FlatASGraph
from repro.net.routing import _relax_leaks

__all__ = ["PropagationKernel", "propagate"]

# Mirror the RouteClass values of repro.net.bgp as plain ints for the
# bytearray result planes.
_UNREACHED = 255
_ORIGIN = 0
_CUSTOMER = 1
_PEER = 2
_PROVIDER = 3


def _sorted_csr(graph, rows_of, order: List[int]) -> Tuple[List[int], List[int]]:
    """One relationship kind flattened to CSR with ASN-sorted rows.

    ``order`` maps a neighbor's dense index to its ASN rank; sorting each
    row by rank is exactly ``sorted(row, key=graph.asn_at)``, done once
    per graph.
    Plain Python lists beat ``array('i')`` in the propagation loops:
    list items are already boxed ints, so the hot path never re-boxes.
    """
    indptr: List[int] = [0]
    indices: List[int] = []
    rank = order.__getitem__
    for node in range(len(graph)):
        row = sorted(rows_of[node], key=rank)
        indices.extend(row)
        indptr.append(len(indices))
    return indptr, indices


def _prune_edges(indptr, indices, node_count, down) -> Tuple[List[int], List[int]]:
    """Drop down-edges from a CSR image (policy-disabled adjacencies)."""
    new_ptr: List[int] = [0]
    new_idx: List[int] = []
    for node in range(node_count):
        for j in range(indptr[node], indptr[node + 1]):
            neighbor = indices[j]
            pair = (node, neighbor) if node <= neighbor else (neighbor, node)
            if pair not in down:
                new_idx.append(neighbor)
        new_ptr.append(len(new_idx))
    return new_ptr, new_idx


class PropagationKernel:
    """Reusable flat-array valley-free propagation over one fixed graph.

    ``graph`` may be a mutable :class:`~repro.net.topology.ASGraph` or a
    read-only :class:`~repro.net.flatgraph.FlatASGraph`; the kernel keeps
    its own ASN-sorted CSR image either way.  ``policy`` is an optional
    :class:`~repro.net.routing.RoutingPolicy`: down-edges are pruned from
    the image at build time (a down edge never carries a route in any
    phase), hijacks seed extra announcers, leakers trigger the shared
    relaxation pass.  A neutral policy is the same as ``None``.  A kernel
    is tied to the (graph, policy) snapshot it was built from — callers
    that mutate the graph build a fresh kernel.
    """

    __slots__ = (
        "_source",
        "_policy",
        "_n",
        "_asns",
        "_p_ptr",
        "_p_idx",
        "_c_ptr",
        "_c_idx",
        "_e_ptr",
        "_e_idx",
        "_dist_template",
        "_hop_template",
        "_buckets",
        "_leak_graph",
        "trees_built",
    )

    def __init__(self, graph, policy=None) -> None:
        if policy is not None and policy.is_neutral:
            policy = None
        self._source = graph
        self._policy = policy
        n = len(graph)
        self._n = n
        self._asns: List[int] = [graph.asn_at(i) for i in range(n)]
        # ASN rank per dense index: sorting rows by rank == sorting by ASN,
        # with integer list lookups instead of method-call keys.
        order = [0] * n
        for rank, idx in enumerate(sorted(range(n), key=self._asns.__getitem__)):
            order[idx] = rank
        self._p_ptr, self._p_idx = _sorted_csr(graph, graph.providers, order)
        self._c_ptr, self._c_idx = _sorted_csr(graph, graph.customers, order)
        self._e_ptr, self._e_idx = _sorted_csr(graph, graph.peers, order)
        if policy is not None and policy.down_edges:
            down = self._down_pairs(policy)
            self._p_ptr, self._p_idx = _prune_edges(self._p_ptr, self._p_idx, n, down)
            self._c_ptr, self._c_idx = _prune_edges(self._c_ptr, self._c_idx, n, down)
            self._e_ptr, self._e_idx = _prune_edges(self._e_ptr, self._e_idx, n, down)
        self._dist_template = bytes([_UNREACHED]) * n
        self._hop_template = array("i", [-1]) * n
        #: Reusable per-hop frontier buckets (grown on demand, cleared per
        #: origin); replaces full-graph (dist, asn) sorts.
        self._buckets: List[List[int]] = []
        self._leak_graph: Optional[FlatASGraph] = None
        self.trees_built = 0

    def _down_pairs(self, policy):
        pairs = set()
        index_of = self._index_of
        for a, b in policy.down_edges:
            try:
                ia, ib = index_of(a), index_of(b)
            except TopologyError:
                continue
            pairs.add((ia, ib) if ia <= ib else (ib, ia))
        return pairs

    def _index_of(self, asn: int) -> int:
        return self._source.index_of(asn)

    @property
    def policy(self):
        return self._policy

    def __len__(self) -> int:
        return self._n

    # -- the hot loop --------------------------------------------------------
    def propagate(self, origin: int):
        """The routing tree toward ``origin`` (a fresh RoutingTree).

        Decision-for-decision identical to the reference oracle; see the
        module docstring for the order argument.
        """
        if origin not in self._source:
            raise TopologyError(f"origin AS{origin} not in graph")

        n = self._n
        asns = self._asns
        policy = self._policy

        # Per-origin result arrays: stamped from the templates (two
        # memcpys), never shared with previously returned trees.
        dist = bytearray(self._dist_template)
        route_class = bytearray(self._dist_template)
        next_hop = self._hop_template[:]

        # Seeds: the origin plus (under a hijack) every extra announcer
        # present in the graph, all at distance zero, frontier in ASN order.
        origin_idx = self._index_of(origin)
        seeds = [origin_idx]
        if policy is not None and policy.hijacks:
            for announcer in policy.hijackers_of(origin):
                try:
                    seeds.append(self._index_of(announcer))
                except TopologyError:
                    continue
            if len(seeds) > 1:
                seeds.sort(key=asns.__getitem__)
        for seed in seeds:
            dist[seed] = 0
            route_class[seed] = _ORIGIN

        buckets = self._buckets
        for bucket in buckets:
            del bucket[:]

        def bucket_at(hop: int) -> List[int]:
            while len(buckets) <= hop:
                buckets.append([])
            return buckets[hop]

        bucket_at(0).extend(seeds)

        # Phase 1: customer routes climb provider edges (valley-free
        # "uphill").  Rows are pre-sorted by ASN, so the first offer a
        # provider sees within a hop is the lowest-ASN one — the oracle's
        # tie-break — and BFS order gives shortest-first across hops.
        p_ptr, p_idx = self._p_ptr, self._p_idx
        frontier = seeds
        hop = 0
        while frontier:
            hop += 1
            next_frontier: List[int] = []
            append = next_frontier.append
            for node in frontier:
                for j in range(p_ptr[node], p_ptr[node + 1]):
                    provider = p_idx[j]
                    if dist[provider] == _UNREACHED:
                        dist[provider] = hop
                        route_class[provider] = _CUSTOMER
                        next_hop[provider] = node
                        append(provider)
            if next_frontier:
                bucket_at(hop).extend(next_frontier)
            frontier = next_frontier

        # Phase 2: every customer-or-origin route is exported one hop
        # across peering edges.  The oracle visits exporters sorted by
        # (dist, asn); the hop buckets are already partitioned by dist, so
        # sorting each bucket by ASN reproduces that global order with
        # per-bucket work.  First recorded offer per peer wins.
        e_ptr, e_idx = self._e_ptr, self._e_idx
        rank = asns.__getitem__
        peer_updates: List[Tuple[int, int, int]] = []
        record = peer_updates.append
        for bucket in buckets:
            if len(bucket) > 1:
                bucket.sort(key=rank)
            for node in bucket:
                offered = dist[node] + 1
                for j in range(e_ptr[node], e_ptr[node + 1]):
                    peer = e_idx[j]
                    if dist[peer] == _UNREACHED:
                        record((peer, node, offered))
        for peer, via, d in peer_updates:
            if dist[peer] == _UNREACHED:
                dist[peer] = d
                route_class[peer] = _PEER
                next_hop[peer] = via
                bucket_at(d).append(peer)

        # Phase 3: provider routes sink down customer edges ("downhill").
        # The oracle seeds its FIFO with every routed node sorted by
        # (dist, asn); replaying the buckets in hop order — re-sorting only
        # the ones phase 2 extended — yields the identical queue prefix,
        # and discovered customers append in the same (FIFO, ASN-sorted
        # row) order the oracle's deque produces.
        c_ptr, c_idx = self._c_ptr, self._c_idx
        queue: List[int] = []
        for bucket in buckets:
            if len(bucket) > 1:
                bucket.sort(key=rank)
            queue.extend(bucket)
        push = queue.append
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            down_dist = dist[node] + 1
            for j in range(c_ptr[node], c_ptr[node + 1]):
                customer = c_idx[j]
                if dist[customer] == _UNREACHED:
                    dist[customer] = down_dist
                    route_class[customer] = _PROVIDER
                    next_hop[customer] = node
                    push(customer)

        if policy is not None and policy.leakers:
            self._relax_leaks(policy, dist, route_class, next_hop)

        self.trees_built += 1
        return RoutingTree(self._source, origin, next_hop, dist, route_class)

    # -- leak relaxation -----------------------------------------------------
    def _relax_leaks(self, policy, dist, route_class, next_hop) -> None:
        """Run the shared leak-relaxation pass over the kernel's arrays.

        Leaks are rare (a policy feature, never the neutral hot path), so
        this runs the plain relaxation worklist the oracle runs too, over
        a flat view of the kernel's pruned adjacency — same offers, same
        strict-improvement adoption, same loop refusal.  Down edges are already
        pruned from the view, so the edge filter is a constant ``False``.
        """
        if self._leak_graph is None:
            self._leak_graph = FlatASGraph(
                self._asns,
                CSRRows(self._p_ptr, self._p_idx),
                CSRRows(self._c_ptr, self._c_idx),
                CSRRows(self._e_ptr, self._e_idx),
            )
        _relax_leaks(
            self._leak_graph,
            policy,
            dist,
            route_class,
            next_hop,
            lambda a, b: False,
        )


def propagate(graph, origin: int, policy=None):
    """The routing tree toward ``origin`` under ``policy`` (None = neutral).

    ``graph`` may be a mutable :class:`~repro.net.topology.ASGraph` or a
    read-only :class:`~repro.net.flatgraph.FlatASGraph` view.  Builds a
    one-off :class:`PropagationKernel`; callers routing many origins over
    one graph should hold a kernel (or a route collector) instead.
    """
    return PropagationKernel(graph, policy).propagate(origin)
