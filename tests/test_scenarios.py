"""Tests for the adversarial scenario-pack library.

The expensive part — a full matrix run over the tiny world — happens once
in the session-scoped ``scenario_report`` fixture (``conftest.py``); the
assertions then slice that one report.
Cross-run determinism is checked by re-running a single pack and demanding
its outcome dict match the full-matrix run key for key, value for value
(same seed derivation, same plan, same floats).  The CI ``scenario-smoke``
job layers byte-level report comparison at scale 0.2 on top of this.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import WorldError
from repro.net.topology import ASGraph
from repro.world.scenarios import (
    SCENARIO_PACKS,
    _rebuild_graph,
    all_pack_names,
    run_scenario_packs,
)


class TestRegistry:
    def test_at_least_five_packs(self):
        # The acceptance bar: >=5 packs asserting directional shifts.
        assert len(SCENARIO_PACKS) >= 5

    def test_names_unique_and_listed(self):
        names = all_pack_names()
        assert len(names) == len(set(names)) == len(SCENARIO_PACKS)

    def test_every_pack_documented(self):
        for pack in SCENARIO_PACKS:
            assert pack.name
            assert pack.description

    def test_unknown_pack_rejected(self, tiny_world):
        with pytest.raises(WorldError, match="unknown scenario pack"):
            run_scenario_packs(tiny_world, names=["not-a-pack"])


class TestRebuildGraph:
    def _old(self):
        g = ASGraph()
        g.add_p2p(1, 2)
        g.add_c2p(10, 1)
        g.add_c2p(10, 2)
        g.add_c2p(100, 10)
        return g

    def test_drops_and_adds_c2p_edges(self):
        new = _rebuild_graph(self._old(), {(10, 1)}, [(100, 2)])
        assert 1 not in new.providers_of(10)
        assert 2 in new.providers_of(10)
        assert sorted(new.providers_of(100)) == [2, 10]

    def test_preserves_nodes_and_peerings(self):
        old = self._old()
        new = _rebuild_graph(old, {(10, 1)}, [])
        assert new.asns == old.asns
        assert set(new.peers_of(1)) == {2}
        assert set(new.peers_of(2)) == {1}

    def test_noop_rebuild_routes_identically(self):
        from repro.net.propagation import propagate

        old = self._old()
        new = _rebuild_graph(old, set(), [])
        for origin in old.asns:
            a = propagate(old, origin)
            b = propagate(new, origin)
            assert all(a.path_from(x) == b.path_from(x) for x in old.asns)


class TestFullMatrix:
    def test_every_pack_passes_on_tiny_world(self, scenario_report):
        failing = [o.name for o in scenario_report.outcomes if not o.passed]
        assert scenario_report.passed, f"failing packs: {failing}"
        assert len(scenario_report.outcomes) == len(SCENARIO_PACKS)

    def test_assertions_carry_evidence(self, scenario_report):
        for outcome in scenario_report.outcomes:
            assert outcome.assertions
            for assertion in outcome.assertions:
                assert assertion.name
                assert assertion.detail

    def test_report_dict_shape(self, scenario_report, tiny_world):
        data = scenario_report.as_dict()
        assert data["seed"] == tiny_world.config.seed
        assert data["scale"] == tiny_world.config.scale
        assert data["packs_total"] == len(SCENARIO_PACKS)
        assert data["packs_passed"] == len(SCENARIO_PACKS)
        assert set(data["packs"]) == set(all_pack_names())

    def test_json_is_canonical(self, scenario_report):
        text = scenario_report.to_json()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed == scenario_report.as_dict()
        # Canonical form: re-encoding the parsed dict reproduces the text.
        assert (json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text)

    def test_text_rendering(self, scenario_report):
        text = scenario_report.as_text()
        assert "[PASS]" in text
        assert f"{len(SCENARIO_PACKS)}/{len(SCENARIO_PACKS)} packs passed" in text

    def test_baseline_world_not_mutated(self, scenario_report, tiny_world):
        # Packs perturb deep copies; the shared fixture world must come
        # out of a full matrix run untouched.
        for outcome in scenario_report.outcomes:
            assert outcome.baseline["truth_asns"] == sorted(
                tiny_world.ground_truth_asns()
            )
        assert tiny_world.routing_policy is None

    def test_degraded_pack_rode_the_fault_plan(self, scenario_report):
        by_name = {o.name: o for o in scenario_report.outcomes}
        degraded = by_name["route_leak_degraded"]
        assert degraded.perturbed["degraded_sources"] == ["O"]
        # ...and the fault plan must not leak into sibling packs.
        assert by_name["route_leak"].perturbed["degraded_sources"] == []


class TestDeterminism:
    def test_single_pack_rerun_matches_matrix_run(self, scenario_report, tiny_world):
        """An independent run of one pack reproduces the full-matrix
        outcome exactly — every float, every sorted list, every detail
        string — because pack randomness derives from (world seed, pack
        name) alone."""
        solo = run_scenario_packs(tiny_world, names=["route_leak"])
        matrix = next(o for o in scenario_report.outcomes if o.name == "route_leak")
        assert solo.outcomes[0].as_dict() == matrix.as_dict()
        assert json.dumps(
            solo.outcomes[0].as_dict(), sort_keys=True
        ) == json.dumps(matrix.as_dict(), sort_keys=True)
