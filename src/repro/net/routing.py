"""Routing policies: declarative perturbations of valley-free propagation.

On a *pristine* topology the routing tree toward an origin is a pure
function of the AS graph, so policy-sensitive events — depeering, route
leaks, prefix hijacks — cannot perturb monitor-observed paths at all.  A
:class:`RoutingPolicy` states such events explicitly, and
:func:`repro.net.propagation.propagate` routes under it:

* ``down_edges`` — adjacencies administratively disabled (depeering, link
  failure, sanctions).  Routes simply never cross a down edge.
* ``hijacks`` — per-victim sets of additional announcers.  A hijacked
  origin propagates from multiple seeds; each AS picks whichever announcer
  wins under normal preference rules, exactly like a multiple-origin
  conflict in real BGP.
* ``leakers`` — ASes that re-export *every* route to *every* neighbor,
  violating valley-free export (the classic route-leak incident).  Leaked
  routes still compete on the receiver's normal local-pref / path-length /
  lowest-ASN preference order, which is what makes leaks attract traffic:
  a leaked route arrives at the leaker's providers as a customer route,
  the most-preferred class.

A *neutral* policy (nothing down, nobody leaking, no hijacks) changes no
decision: it routes exactly like ``policy=None``.

The leak relaxation that runs after the three valley-free phases lives
here (:func:`_relax_leaks`); it is a level-synchronous worklist that only
touches the subgraph a leak actually improves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.net.bgp import RouteClass, _UNREACHED

__all__ = ["RoutingPolicy", "NEUTRAL_POLICY"]


def _normalize_edge(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class RoutingPolicy:
    """A declarative perturbation of valley-free route propagation.

    Instances are immutable, hashable, picklable, and canonically ordered so
    that two policies built from the same facts compare (and digest) equal
    regardless of construction order.  Use :meth:`build` rather than the
    raw constructor; it normalizes the field encodings.
    """

    down_edges: Tuple[Tuple[int, int], ...] = ()
    leakers: Tuple[int, ...] = ()
    hijacks: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()

    @classmethod
    def build(
        cls,
        down_edges: Iterable[Tuple[int, int]] = (),
        leakers: Iterable[int] = (),
        hijacks: Optional[Mapping[int, Iterable[int]]] = None,
    ) -> "RoutingPolicy":
        """Normalize and freeze a policy.

        ``down_edges`` pairs are unordered (an adjacency is down in both
        directions); ``hijacks`` maps a victim origin ASN to the extra
        ASNs announcing its prefixes.
        """
        edges = tuple(sorted({_normalize_edge(a, b) for a, b in down_edges}))
        leak = tuple(sorted(set(leakers)))
        hj: List[Tuple[int, Tuple[int, ...]]] = []
        for victim, announcers in sorted((hijacks or {}).items()):
            extra = tuple(sorted(set(announcers) - {victim}))
            if extra:
                hj.append((victim, extra))
        return cls(down_edges=edges, leakers=leak, hijacks=tuple(hj))

    @property
    def is_neutral(self) -> bool:
        """True when the policy cannot change any routing decision."""
        return not (self.down_edges or self.leakers or self.hijacks)

    def hijackers_of(self, origin: int) -> Tuple[int, ...]:
        """Extra announcer ASNs for ``origin`` (empty when not hijacked)."""
        for victim, announcers in self.hijacks:
            if victim == origin:
                return announcers
        return ()

    def as_dict(self) -> dict:
        """JSON-friendly canonical encoding (also the digest/shm form)."""
        return {
            "down_edges": [list(pair) for pair in self.down_edges],
            "leakers": list(self.leakers),
            "hijacks": [[victim, list(extra)] for victim, extra in self.hijacks],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RoutingPolicy":
        return cls.build(
            down_edges=[tuple(pair) for pair in data.get("down_edges", ())],
            leakers=data.get("leakers", ()),
            hijacks={victim: extra for victim, extra in data.get("hijacks", ())},
        )


NEUTRAL_POLICY = RoutingPolicy()

_ORIGIN = int(RouteClass.ORIGIN)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)

# Leak relaxation is monotone (a node's selection key only ever improves),
# so it terminates on its own; the round cap is a defensive backstop that
# would only trip on a bug, never on a valid topology.
_MAX_LEAK_ROUNDS = 10_000


def _relax_leaks(
    graph,
    policy: RoutingPolicy,
    dist: List[int],
    route_class: List[int],
    next_hop: List[int],
    edge_down,
) -> None:
    """Level-synchronous relaxation once leakers re-export everything.

    After the three valley-free phases, each routed leaker offers its route
    to *all* neighbors (not just customers); any neighbor whose selection
    strictly improves adopts the leaked route and re-exports under its own
    rules next round, so the improvement front expands breadth-first.  A
    node's selection key ``(route class at receiver, path length, next-hop
    ASN)`` only ever decreases, which bounds total work and guarantees
    termination; AS-path loops are prevented by refusing any offer whose
    current pointer chain already passes through the receiver.
    """
    leak_set = {graph.index_of(asn) for asn in policy.leakers if asn in graph}

    def selection_key(i: int) -> Tuple[int, int, int]:
        via = next_hop[i]
        via_asn = graph.asn_at(via) if via >= 0 else -1
        return (route_class[i], dist[i], via_asn)

    def chain_contains(start: int, target: int) -> bool:
        i = start
        while i != -1:
            if i == target:
                return True
            i = next_hop[i]
        return False

    worklist: Set[int] = {i for i in leak_set if dist[i] != _UNREACHED}
    rounds = 0
    while worklist and rounds < _MAX_LEAK_ROUNDS:
        rounds += 1
        # Collect the best offer each neighbor receives this round, from
        # the pre-round state, exporters visited in deterministic order.
        offers: Dict[int, Tuple[Tuple[int, int, int], int]] = {}
        for node in sorted(worklist, key=graph.asn_at):
            if dist[node] == _UNREACHED or dist[node] + 1 >= _UNREACHED:
                continue
            cls = route_class[node]
            leaking = node in leak_set
            targets: List[Tuple[int, int]] = []
            if leaking or cls in (_ORIGIN, _CUSTOMER):
                for provider in graph.providers[node]:
                    targets.append((provider, _CUSTOMER))
                for peer in graph.peers[node]:
                    targets.append((peer, _PEER))
            for customer in graph.customers[node]:
                targets.append((customer, _PROVIDER))
            offered = (dist[node] + 1, graph.asn_at(node))
            for neighbor, neighbor_class in targets:
                if edge_down(node, neighbor):
                    continue
                key = (neighbor_class, offered[0], offered[1])
                best = offers.get(neighbor)
                if best is None or key < best[0]:
                    offers[neighbor] = (key, node)

        # Apply strictly-improving offers sequentially (sorted by receiver
        # ASN) so mid-round loop checks always see consistent pointers.
        improved: Set[int] = set()
        for neighbor in sorted(offers, key=graph.asn_at):
            key, via = offers[neighbor]
            if key >= selection_key(neighbor):
                continue
            if chain_contains(via, neighbor):
                continue
            route_class[neighbor] = key[0]
            dist[neighbor] = key[1]
            next_hop[neighbor] = via
            improved.add(neighbor)
        worklist = improved
