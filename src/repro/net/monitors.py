"""BGP monitors (vantage points) and route collection.

The paper's CTI metric consumes AS paths observed by RouteViews/RIS monitors,
where each monitor is an operational border router inside a host AS.  Here a
:class:`Monitor` is placed inside an AS of the simulated topology, and the
:class:`RouteCollector` reconstructs each monitor's preferred path to any
origin from the Gao-Rexford routing trees.

Monitor weighting follows Appendix G: a monitor's weight is the inverse of
the number of monitors hosted by its own AS, so over-instrumented ASes do not
dominate the metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import TopologyError
from repro.net.bgp import RoutingTree
from repro.net.propagation import PropagationKernel
from repro.net.routing import RoutingPolicy
from repro.net.topology import ASGraph

__all__ = ["Monitor", "MonitorSet", "RouteCollector"]


@dataclass(frozen=True)
class Monitor:
    """A BGP vantage point hosted inside ``host_asn``."""

    monitor_id: str
    host_asn: int


class MonitorSet:
    """An ordered collection of monitors with Appendix-G weights."""

    def __init__(self, monitors: Iterable[Monitor]) -> None:
        self._monitors: List[Monitor] = list(monitors)
        counts: Dict[int, int] = {}
        for monitor in self._monitors:
            counts[monitor.host_asn] = counts.get(monitor.host_asn, 0) + 1
        self._weights = {
            monitor.monitor_id: 1.0 / counts[monitor.host_asn]
            for monitor in self._monitors
        }
        self._normalized: Optional[Tuple[Tuple[Monitor, float], ...]] = None

    def __len__(self) -> int:
        return len(self._monitors)

    def __iter__(self) -> Iterator[Monitor]:
        return iter(self._monitors)

    def weight(self, monitor: Monitor) -> float:
        """Appendix-G weight w(m) = 1 / (#monitors in m's AS)."""
        return self._weights[monitor.monitor_id]

    def normalized_weights(self) -> Tuple[Tuple[Monitor, float], ...]:
        """``(monitor, w(m)/|M|)`` pairs in monitor order.

        This is the per-monitor factor of the CTI formula; computing it here
        (once per monitor set) keeps the serial scoring loop and the
        parallel per-origin workers on the exact same float values.
        """
        if self._normalized is None:
            count = len(self._monitors)
            self._normalized = tuple(
                (monitor, self.weight(monitor) / count) for monitor in self._monitors
            )
        return self._normalized

    @property
    def host_asns(self) -> List[int]:
        """Host ASNs in monitor order (duplicates possible)."""
        return [m.host_asn for m in self._monitors]

    @classmethod
    def place(
        cls,
        graph: ASGraph,
        count: int,
        rng,
        bias_to_degree: bool = True,
    ) -> "MonitorSet":
        """Place ``count`` monitors in the topology.

        Real route collectors are disproportionately hosted by large,
        well-connected networks; with ``bias_to_degree`` the sampling weight
        of each AS is its neighbor degree.  A small fraction of ASes host
        two monitors, exercising the 1/|monitors-in-AS| weighting.
        """
        asns = graph.asns
        if not asns:
            raise TopologyError("cannot place monitors in an empty graph")
        if bias_to_degree:
            weights = [graph.degree(asn) + 1 for asn in asns]
        else:
            weights = [1] * len(asns)
        hosts = rng.choices(asns, weights=weights, k=count)
        monitors = [
            Monitor(monitor_id=f"mon{i:03d}", host_asn=host)
            for i, host in enumerate(hosts)
        ]
        return cls(monitors)


class RouteCollector:
    """Reconstructs monitor-observed AS paths from routing trees.

    Mirrors a RouteViews/RIS collector: for each (monitor, origin) pair it
    reports the AS path the monitor's host AS prefers toward the origin.
    Routing trees are computed lazily, one per origin, by a
    :class:`~repro.net.propagation.PropagationKernel` the collector builds
    on first use and reuses for every origin.  ``policy`` is an optional
    :class:`~repro.net.routing.RoutingPolicy`; ``None`` routes neutrally.
    """

    def __init__(
        self,
        graph: ASGraph,
        monitors: MonitorSet,
        policy: Optional[RoutingPolicy] = None,
    ) -> None:
        self._graph = graph
        self.monitors = monitors
        self._policy = policy
        self._kernel: Optional[PropagationKernel] = None
        self._trees: Dict[int, RoutingTree] = {}

    @property
    def policy(self) -> Optional[RoutingPolicy]:
        """The routing policy in force (None = neutral)."""
        return self._policy

    def __getstate__(self) -> dict:
        """Pickle only the graph, monitors and policy, never the trees.

        Process-pool workers receive a collector once per worker; shipping
        an already-warm tree cache would bloat that transfer with data the
        worker is about to recompute for *its* origins anyway.
        """
        return {
            "graph": self._graph,
            "monitors": self.monitors,
            "policy": self._policy,
        }

    def __setstate__(self, state: dict) -> None:
        self._graph = state["graph"]
        self.monitors = state["monitors"]
        self._policy = state.get("policy")
        self._kernel = None
        self._trees = {}

    # -- zero-copy shipping (repro.parallel.shm protocol) -------------------
    def __shm_export__(self):
        """Flatten to CSR buffers + a tiny monitor meta dict.

        The graph dominates a collector's pickle; exporting it as flat
        arrays lets every process worker attach to one shared copy.  The
        monitor list is a few hundred (id, asn) pairs and rides in meta.
        """
        from repro.net.flatgraph import flatten_graph

        meta = {
            "monitors": tuple((m.monitor_id, m.host_asn) for m in self.monitors),
            "policy": (None if self._policy is None else self._policy.as_dict()),
        }
        _, buffers = flatten_graph(self._graph).__shm_export__()
        return meta, buffers

    @classmethod
    def __shm_rebuild__(cls, meta, views) -> "RouteCollector":
        from repro.net.flatgraph import GraphArrays

        graph = GraphArrays(views).view()
        monitors = MonitorSet(
            Monitor(monitor_id=mid, host_asn=host) for mid, host in meta["monitors"]
        )
        policy_data = meta.get("policy")
        policy = None if policy_data is None else RoutingPolicy.from_dict(policy_data)
        return cls(graph, monitors, policy=policy)

    def _tree(self, origin: int) -> RoutingTree:
        tree = self._trees.get(origin)
        if tree is None:
            if self._kernel is None:
                self._kernel = PropagationKernel(self._graph, self._policy)
            tree = self._trees[origin] = self._kernel.propagate(origin)
        return tree

    def path(self, monitor: Monitor, origin: int) -> Optional[Tuple[int, ...]]:
        """AS path from the monitor's host AS to ``origin`` (inclusive).

        Returns None when the host AS has no route.  When the monitor sits
        inside the origin AS itself, the path is the single-element tuple
        ``(origin,)``.
        """
        return self._tree(origin).path_from(monitor.host_asn)

    def paths_to(self, origin: int) -> Dict[str, Tuple[int, ...]]:
        """Paths from every monitor (by monitor_id) that can reach ``origin``."""
        tree = self._tree(origin)
        result: Dict[str, Tuple[int, ...]] = {}
        for monitor in self.monitors:
            path = tree.path_from(monitor.host_asn)
            if path is not None:
                result[monitor.monitor_id] = path
        return result

    def trees_computed(self) -> int:
        """Number of routing trees materialized so far (for diagnostics)."""
        return len(self._trees)

    def reset_cache(self) -> None:
        """Drop every materialized routing tree.

        Cold-recompute baselines (``repro maintain --cold``) call this
        between snapshots so the collector re-propagates from scratch,
        as a fresh process would — otherwise trees warmed by the previous
        snapshot would silently grant the cold path the very reuse it is
        supposed to measure the absence of.
        """
        self._kernel = None
        self._trees = {}
