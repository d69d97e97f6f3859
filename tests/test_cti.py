"""Tests for the CTI metric (Appendix G) and candidate selection."""

import pytest

from repro.config import SourceNoiseConfig
from repro.cti.metric import CTIComputer
from repro.cti.selection import select_cti_candidates
from repro.net.monitors import Monitor, MonitorSet, RouteCollector
from repro.net.prefix import Prefix
from repro.net.topology import ASGraph
from repro.sources.geolocation import GeolocationService
from repro.sources.prefix2as import Prefix2ASTable


def gateway_scenario():
    """A transit-dominant toy country.

    AS 100, 101 are domestic origins in country XX; both buy transit only
    from gateway AS 10, which buys from tier-1 AS 1; the monitor lives in
    tier-1 AS 2 (peered with AS 1).
    """
    graph = ASGraph()
    graph.add_p2p(1, 2)
    graph.add_c2p(10, 1)
    graph.add_c2p(100, 10)
    graph.add_c2p(101, 10)
    entries = [
        (Prefix.parse("10.0.0.0/16"), 100),
        (Prefix.parse("10.1.0.0/16"), 101),
        (Prefix.parse("20.0.0.0/16"), 10),
        (Prefix.parse("30.0.0.0/8"), 1),
        (Prefix.parse("40.0.0.0/8"), 2),
    ]
    table = Prefix2ASTable(entries)
    true_cc = {100: "XX", 101: "XX", 10: "XX", 1: "T1", 2: "T1"}
    geo = GeolocationService(
        true_cc,
        ["XX", "T1"],
        SourceNoiseConfig(geolocation_accuracy=1.0),
        seed=1,
    )
    monitors = MonitorSet([Monitor("m0", 2)])
    collector = RouteCollector(graph, monitors)
    return CTIComputer(table, geo, collector)


class TestCTIFormula:
    def test_gateway_dominates(self):
        cti = gateway_scenario()
        scores = cti.country_cti("XX")
        assert scores[10] == max(scores.values())

    def test_origin_not_credited_for_own_prefixes(self):
        cti = gateway_scenario()
        scores = cti.country_cti("XX")
        # ASes 100/101 originate XX space but transit nothing.
        assert 100 not in scores
        assert 101 not in scores

    def test_gateway_score_value(self):
        # The gateway carries 2/3 of XX's addresses (its own /16 is origin
        # space) at distance 1: CTI = (1/3)/1 + (1/3)/1 = 2/3.
        cti = gateway_scenario()
        assert cti.country_cti("XX")[10] == pytest.approx(2 / 3, abs=1e-6)

    def test_distance_discount(self):
        # Tier-1 AS 1 sits at distance 2 from the XX origins and at
        # distance 1 from the gateway's own prefix.
        cti = gateway_scenario()
        expected = (1 / 3) / 2 + (1 / 3) / 2 + (1 / 3) / 1
        assert cti.country_cti("XX")[1] == pytest.approx(expected, abs=1e-6)

    def test_monitor_host_not_credited(self):
        cti = gateway_scenario()
        scores = cti.country_cti("XX")
        assert 2 not in scores  # the monitor sits inside AS 2

    def test_country_totals(self):
        cti = gateway_scenario()
        assert cti.country_address_total("XX") == 3 * 65536

    def test_unknown_country_empty(self):
        cti = gateway_scenario()
        assert cti.country_cti("ZZ") == {}

    def test_scores_bounded(self):
        cti = gateway_scenario()
        for cc in cti.countries():
            for score in cti.country_cti(cc).values():
                assert 0.0 < score <= 1.0 + 1e-9


class TestMonitorWeighting:
    def test_two_monitors_same_as_weight_half(self):
        monitors = MonitorSet([Monitor("a", 1), Monitor("b", 1), Monitor("c", 2)])
        assert monitors.weight(Monitor("a", 1)) == pytest.approx(0.5)
        assert monitors.weight(Monitor("c", 2)) == pytest.approx(1.0)


def _reference_country_cti(cti, cc):
    """The pre-optimization formula: w(m)/|M| recomputed for every
    origin x monitor iteration.  Kept as the oracle for the hot-loop
    regression test — the hoisted implementation must match bit for bit."""
    origin_weights = cti._per_country.get(cc)
    total = cti._country_totals.get(cc, 0)
    if not origin_weights or total == 0:
        return {}
    monitors = cti._collector.monitors
    monitor_count = len(monitors)
    scores = {}
    for origin, weight in origin_weights.items():
        address_fraction = weight / total
        if address_fraction < cti._min_address_fraction:
            continue
        for monitor in monitors:
            path = cti._collector.path(monitor, origin)
            if path is None or len(path) < 2:
                continue
            w = cti._collector.monitors.weight(monitor) / monitor_count
            length = len(path)
            for index, asn in enumerate(path):
                distance = length - 1 - index
                if distance == 0:
                    continue
                if asn == monitor.host_asn:
                    continue
                scores[asn] = scores.get(asn, 0.0) + (w * address_fraction / distance)
    return scores


class TestScoreDeterminism:
    def test_toy_scenario_bit_identical(self):
        cti = gateway_scenario()
        assert cti.country_cti("XX") == _reference_country_cti(cti, "XX")

    def test_fixed_seed_world_bit_identical(self, small_world, small_inputs):
        """Scores on a full fixed-seed world match the unhoisted formula
        exactly (==, not approx): the weight hoist must not perturb a
        single bit of any score."""
        cti = CTIComputer(
            small_inputs.prefix2as,
            small_inputs.geolocation,
            small_world.collector,
        )
        ccs = sorted(small_world.transit_dominant_ccs)
        assert ccs, "fixture world must have transit-dominant countries"
        for cc in ccs:
            assert cti.country_cti(cc) == _reference_country_cti(cti, cc)

    def test_cached_recall_identical(self):
        cti = gateway_scenario()
        first = dict(cti.country_cti("XX"))
        assert cti.country_cti("XX") == first


class TestSelection:
    def test_top_k_selected(self):
        cti = gateway_scenario()
        selection = select_cti_candidates(cti, ["XX"], top_k=2, min_score=0.01)
        assert 10 in selection.asns
        assert selection.countries_applied == ("XX",)

    def test_min_score_filters(self):
        cti = gateway_scenario()
        selection = select_cti_candidates(cti, ["XX"], top_k=2, min_score=10.0)
        assert not selection.asns

    def test_provenance(self):
        cti = gateway_scenario()
        selection = select_cti_candidates(cti, ["XX"], top_k=2)
        assert selection.countries_of(10) == ["XX"]
        for asn in selection.asns:
            assert selection.provenance[asn]

    def test_world_selection_finds_state_gateways(self, small_world, small_inputs):
        cti = CTIComputer(
            small_inputs.prefix2as,
            small_inputs.geolocation,
            small_world.collector,
        )
        selection = select_cti_candidates(cti, sorted(small_world.transit_dominant_ccs))
        so = small_world.ground_truth_asns()
        # CTI candidates include a meaningful number of state-owned ASes.
        assert len(set(selection.asns) & so) >= 5


class TestStreamingScores:
    """``stream_country_scores`` — the generator behind batch scoring."""

    def test_stream_matches_batch(self):
        batch = gateway_scenario()
        batch.score_countries(["XX", "T1"])
        streamed = gateway_scenario()
        got = dict(streamed.stream_country_scores(["XX", "T1"]))
        assert got == batch.computed_scores()

    def test_stream_preserves_input_order(self):
        cti = gateway_scenario()
        order = [cc for cc, _ in cti.stream_country_scores(["T1", "XX"])]
        assert order == ["T1", "XX"]

    def test_retain_false_drops_cache_entries(self):
        cti = gateway_scenario()
        scores = dict(cti.stream_country_scores(["XX"], retain=False))
        assert scores["XX"]
        assert "XX" not in cti.computed_scores()
        # Scoring again recomputes identically.
        assert cti.country_cti("XX") == scores["XX"]

    def test_sharded_stream_identical(self):
        sharded = dict(
            gateway_scenario().stream_country_scores(["XX", "T1"], shard_size=1)
        )
        whole = dict(gateway_scenario().stream_country_scores(["XX", "T1"]))
        assert sharded == whole
