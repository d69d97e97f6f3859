"""Gao-Rexford BGP routes and routing trees.

For a given origin AS, every other AS selects its *preferred* route toward
the origin under the standard policy model:

* prefer routes learned from customers over peers over providers;
* among equally-preferred routes, prefer the shortest AS path;
* break remaining ties on the lowest next-hop ASN (deterministic stand-in
  for router-id tie-breaking).

Export rules follow from the valley-free property: routes learned from a
customer are exported to everyone; routes learned from a peer or provider are
exported only to customers.

The result is a :class:`RoutingTree` — a compact next-hop table from which
full AS paths (as observed by the paper's BGP monitors) are reconstructed.
Trees are computed by :func:`repro.net.propagation.propagate`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.net.topology import ASGraph

__all__ = ["RouteClass", "Route", "RoutingTree"]


class RouteClass(enum.IntEnum):
    """Preference class of a route (lower value = more preferred)."""

    ORIGIN = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


@dataclass(frozen=True)
class Route:
    """A selected route from one AS toward an origin."""

    source: int          # the AS holding the route
    origin: int          # destination origin AS
    path: Tuple[int, ...]  # AS path: source first, origin last
    route_class: RouteClass

    @property
    def length(self) -> int:
        """Number of AS-level hops (path edges)."""
        return len(self.path) - 1


_UNREACHED = 255


class RoutingTree:
    """Preferred next-hops of every AS toward a single origin AS."""

    def __init__(
        self,
        graph: ASGraph,
        origin: int,
        next_hop: List[int],
        dist: List[int],
        route_class: List[int],
    ) -> None:
        self._graph = graph
        self.origin = origin
        self._next_hop = next_hop          # dense index of next hop, -1 at origin
        self._dist = dist                  # hop count, _UNREACHED if none
        self._route_class = route_class

    def has_route(self, asn: int) -> bool:
        """True if ``asn`` selected any route toward the origin."""
        return self._dist[self._graph.index_of(asn)] != _UNREACHED

    def distance(self, asn: int) -> Optional[int]:
        """AS-hop distance from ``asn`` to the origin (None if unreachable)."""
        d = self._dist[self._graph.index_of(asn)]
        return None if d == _UNREACHED else d

    def route_class(self, asn: int) -> Optional[RouteClass]:
        """Preference class of the route selected by ``asn``."""
        if not self.has_route(asn):
            return None
        return RouteClass(self._route_class[self._graph.index_of(asn)])

    def path_from(self, asn: int) -> Optional[Tuple[int, ...]]:
        """AS path from ``asn`` to the origin (inclusive), or None."""
        idx = self._graph.index_of(asn)
        if self._dist[idx] == _UNREACHED:
            return None
        path = [self._graph.asn_at(idx)]
        while self._next_hop[idx] != -1:
            idx = self._next_hop[idx]
            path.append(self._graph.asn_at(idx))
        return tuple(path)

    def route_from(self, asn: int) -> Optional[Route]:
        """Full :class:`Route` object selected by ``asn`` (or None)."""
        path = self.path_from(asn)
        if path is None:
            return None
        return Route(
            source=asn,
            origin=self.origin,
            path=path,
            route_class=RouteClass(self._route_class[self._graph.index_of(asn)]),
        )

    def reachable_count(self) -> int:
        """Number of ASes (including the origin) with a route."""
        return sum(1 for d in self._dist if d != _UNREACHED)
