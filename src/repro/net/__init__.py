"""Network primitives: ASNs, IPv4 prefixes, AS-level topology and BGP.

This subpackage is the substrate that the paper's technical data sources are
derived from: CAIDA-style prefix-to-AS tables, BGP paths for the CTI metric,
and customer cones for ASRank.
"""

from repro.net.asn import ASN, ASNAllocator
from repro.net.prefix import Prefix, PrefixTrie, summarize_address_counts
from repro.net.topology import ASGraph, Relationship
from repro.net.bgp import Route, RoutingTree
from repro.net.routing import NEUTRAL_POLICY, RoutingPolicy
from repro.net.propagation import propagate
from repro.net.monitors import Monitor, MonitorSet, RouteCollector

__all__ = [
    "ASN",
    "ASNAllocator",
    "Prefix",
    "PrefixTrie",
    "summarize_address_counts",
    "ASGraph",
    "Relationship",
    "Route",
    "RoutingTree",
    "RoutingPolicy",
    "NEUTRAL_POLICY",
    "propagate",
    "Monitor",
    "MonitorSet",
    "RouteCollector",
]
