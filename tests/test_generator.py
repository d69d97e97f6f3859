"""Invariant tests for the synthetic world generator."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.config import WorldConfig
from repro.net.prefix import Prefix, PrefixTrie
from repro.world.entities import EntityKind, OperatorRole, OperatorScope
from repro.world.generator import (
    WorldGenerator,
    _CountryWiring,
    _plan_country_wiring,
)


class TestStructure:
    def test_asns_unique_across_operators(self, tiny_world):
        seen = set()
        for asns in tiny_world.operator_asns.values():
            for asn in asns:
                assert asn not in seen
                seen.add(asn)

    def test_every_record_has_an_operator(self, tiny_world):
        for record in tiny_world.asn_records.values():
            operator = tiny_world.operator(record.operator_id)
            assert operator.kind is EntityKind.OPERATOR

    def test_prefixes_do_not_overlap_across_operators(self, tiny_world):
        # More-specific announcements only happen within one operator's
        # sibling set; cross-operator prefixes must be disjoint.
        trie = PrefixTrie()
        for asn, record in tiny_world.asn_records.items():
            for base, length in record.prefixes:
                trie.insert(Prefix(base, length), record.operator_id)
        for prefix, owner in trie.items():
            for covering, other_owner in trie.covering(prefix):
                assert other_owner == owner

    def test_rir_matches_country(self, tiny_world):
        rir_of = {c.cc: c.rir for c in tiny_world.countries}
        for record in tiny_world.asn_records.values():
            assert record.rir == rir_of[record.cc]

    def test_topology_contains_all_asns(self, tiny_world):
        for asn in tiny_world.asn_records:
            assert asn in tiny_world.graph

    def test_monitor_hosts_exist(self, tiny_world):
        for monitor in tiny_world.monitors:
            assert monitor.host_asn in tiny_world.graph


class TestGroundTruth:
    def test_us_has_no_domestic_state_operators(self, tiny_world):
        for gto in tiny_world.ground_truth():
            if gto.operator.cc == "US":
                # only foreign subsidiaries may operate in the US
                assert gto.is_foreign_subsidiary

    def test_restricted_roles_excluded(self, tiny_world):
        roles = {gto.operator.role for gto in tiny_world.ground_truth()}
        assert OperatorRole.ACADEMIC not in roles
        assert OperatorRole.GOVNET not in roles
        assert OperatorRole.NIC not in roles

    def test_subnational_excluded(self, tiny_world):
        for gto in tiny_world.ground_truth():
            assert gto.operator.scope is OperatorScope.NATIONAL

    def test_expansion_profiles_realized(self, tiny_world):
        owners = Counter()
        for gto in tiny_world.ground_truth():
            if gto.is_foreign_subsidiary:
                owners[gto.controlling_cc] += 1
        profiles = tiny_world.config.expansion_profiles
        # Most configured expanders materialize (ASN-less subs may vanish).
        realized = sum(1 for cc in profiles if owners.get(cc, 0) > 0)
        assert realized >= len(profiles) * 0.7

    def test_foreign_subsidiaries_have_parents(self, tiny_world):
        for gto in tiny_world.ground_truth():
            if gto.is_foreign_subsidiary:
                parent = tiny_world.ownership.majority_parent(gto.operator.entity_id)
                assert parent is not None

    def test_forced_cable_countries(self, tiny_world):
        cable_ccs = {
            gto.operator.cc
            for gto in tiny_world.ground_truth()
            if gto.operator.role is OperatorRole.CABLE
        }
        for cc in tiny_world.config.forced_cable_ccs:
            assert cc in cable_ccs

    def test_forced_share_countries_state_owned(self, tiny_world):
        owners = tiny_world.state_owned_countries()
        for cc in tiny_world.config.forced_state_share:
            assert cc in owners


class TestCalibration:
    def test_address_share_in_band(self, small_world):
        counts = small_world.true_address_counts()
        total = sum(counts.values())
        so = sum(counts.get(a, 0) for a in small_world.ground_truth_asns())
        assert 0.10 <= so / total <= 0.30   # paper: 0.17

    def test_us_overrepresented(self, small_world):
        counts = small_world.true_address_counts()
        total = sum(counts.values())
        us = sum(
            counts.get(a, 0) for a, r in small_world.asn_records.items() if r.cc == "US"
        )
        assert us / total > 0.2

    def test_country_counts_in_band(self, small_world):
        owners = small_world.state_owned_countries()
        assert 90 <= len(owners) <= 160     # paper: 123

    def test_transit_dominant_count(self, small_world):
        assert 40 <= len(small_world.transit_dominant_ccs) <= 110  # paper: 75


class TestDeterminism:
    def test_same_seed_same_world(self):
        config = WorldConfig.tiny(seed=123)
        w1 = WorldGenerator(config).generate()
        w2 = WorldGenerator(WorldConfig.tiny(seed=123)).generate()
        assert set(w1.asn_records) == set(w2.asn_records)
        assert w1.ground_truth_asns() == w2.ground_truth_asns()
        assert w1.graph.num_edges() == w2.graph.num_edges()

    def test_different_seed_different_world(self):
        w1 = WorldGenerator(WorldConfig.tiny(seed=1)).generate()
        w2 = WorldGenerator(WorldConfig.tiny(seed=2)).generate()
        assert set(w1.asn_records) != set(w2.asn_records)

    def test_same_seed_same_world_at_scale(self):
        config = WorldConfig(seed=97, scale=0.3)
        first = WorldGenerator(config).generate()
        second = WorldGenerator(config).generate()
        assert first.content_digest() == second.content_digest()
        assert first.graph.num_edges() == second.graph.num_edges()


class TestWiringPlan:
    """Each country's wiring is planned on its own RNG substream from a
    read-only scaffold, then committed in country order."""

    @pytest.fixture(scope="class")
    def built(self):
        generator = WorldGenerator(WorldConfig.tiny())
        world = generator.generate()
        return generator._wiring_scaffold(), world

    def test_country_without_operators_plans_nothing(self, built):
        scaffold, _ = built
        cc = next(iter(scaffold.ops_by_cc))
        empty = replace(scaffold, ops_by_cc={})
        assert _plan_country_wiring(empty, cc) == _CountryWiring(cc, False, [], [], [])

    def test_plan_depends_only_on_its_country(self, built):
        scaffold, _ = built
        assert len(scaffold.ops_by_cc) > 1
        for cc, ops in scaffold.ops_by_cc.items():
            plan = _plan_country_wiring(scaffold, cc)
            assert _plan_country_wiring(scaffold, cc) == plan
            alone = replace(scaffold, ops_by_cc={cc: ops})
            assert _plan_country_wiring(alone, cc) == plan, cc

    def test_planned_edges_land_in_the_graph(self, built):
        scaffold, world = built
        graph = world.graph
        checked = 0
        for cc in scaffold.ops_by_cc:
            plan = _plan_country_wiring(scaffold, cc)
            if not plan.has_operators:
                continue
            assert world.gateway_asns[cc] == plan.gateways, cc
            for kind, a, b in plan.edges:
                if kind == "c2p":
                    assert b in graph.providers_of(a), (cc, a, b)
                else:
                    assert b in graph.peers_of(a), (cc, a, b)
                checked += 1
        assert checked > 0
