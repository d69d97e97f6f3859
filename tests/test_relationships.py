"""Tests for AS-relationship inference from observed paths."""


from repro.net.propagation import propagate
from repro.net.relationships import infer_relationships
from repro.net.topology import ASGraph, Relationship


def observed_paths(graph, origins, observers):
    paths = []
    for origin in origins:
        tree = propagate(graph, origin)
        for observer in observers:
            path = tree.path_from(observer)
            if path and len(path) >= 2:
                paths.append(path)
    return paths


def star_graph():
    """Provider 1 with customers 10, 11, 12; 1 peers with 2 (customers 20, 21)."""
    g = ASGraph()
    for c in (10, 11, 12):
        g.add_c2p(c, 1)
    for c in (20, 21):
        g.add_c2p(c, 2)
    g.add_p2p(1, 2)
    return g


class TestInference:
    def test_simple_chain(self):
        g = ASGraph()
        g.add_c2p(2, 1)
        g.add_c2p(3, 2)
        paths = observed_paths(g, origins=[3], observers=[1])
        inferred = infer_relationships(paths)
        assert inferred.relationship(3, 2) is Relationship.PROVIDER
        assert inferred.relationship(2, 3) is Relationship.CUSTOMER

    def test_star_recovers_most_edges(self):
        g = star_graph()
        paths = observed_paths(g, origins=[10, 11, 12, 20, 21], observers=g.asns)
        inferred = infer_relationships(paths)
        assert inferred.agreement_with(g) > 0.7

    def test_peering_at_top_detected(self):
        g = star_graph()
        # Paths crossing the 1~2 peering from both directions.
        paths = observed_paths(g, origins=[10, 20], observers=[21, 11])
        inferred = infer_relationships(paths)
        assert inferred.relationship(1, 2) in (
            Relationship.PEER, Relationship.CUSTOMER, Relationship.PROVIDER
        )
        # The customer edges below the top are never misread as peers.
        assert inferred.relationship(10, 1) is Relationship.PROVIDER

    def test_unknown_edge_is_none(self):
        inferred = infer_relationships([(1, 2)])
        assert inferred.relationship(5, 6) is None

    def test_cone_from_inferred_edges(self):
        # A star provider is unambiguous for degree-anchored inference: the
        # hub's observed degree dominates, so its customer edges all point
        # the right way and the inferred cone matches the true cone.
        g = star_graph()
        paths = observed_paths(g, origins=[10, 11, 12, 20, 21], observers=g.asns)
        inferred = infer_relationships(paths)
        assert inferred.customer_cone_size(1) >= 4
        assert inferred.customer_cone_size(10) == 1

    def test_empty_paths(self):
        inferred = infer_relationships([])
        assert inferred.edge_count() == 0
        assert inferred.agreement_with(ASGraph()) == 0.0

    def test_world_scale_agreement(self, tiny_world):
        """On monitor-observed paths of a generated world the inference
        recovers well over half of the relationship types.  (The real
        pipelines see hundreds of vantage points; with the tiny world's
        handful of monitors the degree anchor is often starved, so this is
        a floor, not the production fidelity.)"""
        collector = tiny_world.collector
        origins = [gto.asns[0] for gto in tiny_world.ground_truth()[:40] if gto.asns]
        paths = []
        for origin in origins:
            paths.extend(collector.paths_to(origin).values())
        inferred = infer_relationships(paths)
        assert inferred.edge_count() > 50
        assert inferred.agreement_with(tiny_world.graph) > 0.55
