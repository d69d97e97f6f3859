"""The parallel execution layer: contexts, the persistent cache, and the
bit-identity guarantee of parallel pipeline runs."""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.config import ParallelConfig, WorldConfig
from repro.core import StateOwnershipPipeline
from repro.core.confirmation import OwnershipAnalyst
from repro.cti.metric import CTIComputer
from repro.errors import ConfigError
from repro.io.jsonio import dataset_to_json
from repro.obs import get_metrics
from repro.parallel import (
    BACKENDS,
    ExecutionContext,
    ResultCache,
    resolve_cache_dir,
    stable_digest,
    world_fingerprint,
)


def _double(state, item):
    """Module-level so the process backend can address it."""
    return (state or 0) + item * 2


def _ident(state, item):
    return item


class TestExecutionContext:
    @pytest.mark.parametrize("jobs", [1, 2], ids=BACKENDS)
    def test_map_ordered_preserves_input_order(self, jobs):
        with ExecutionContext(jobs=jobs) as context:
            items = list(range(23))
            assert context.map_ordered(_double, items, state=5) == [
                5 + i * 2 for i in items
            ]

    @pytest.mark.parametrize("jobs", [1, 2], ids=BACKENDS)
    def test_empty_batch(self, jobs):
        with ExecutionContext(jobs=jobs) as context:
            assert context.map_ordered(_ident, []) == []

    def test_single_job_is_serial(self):
        assert ExecutionContext(jobs=1, backend="process").is_serial

    @pytest.mark.parametrize("backend", ["gpu", "thread"])
    def test_unknown_backend_rejected(self, backend):
        with pytest.raises(ConfigError):
            ExecutionContext(jobs=2, backend=backend)

    def test_jobs_pick_the_backend(self):
        assert ExecutionContext(jobs=1).backend == "serial"
        assert ExecutionContext(jobs=2).backend == "process"
        # A named backend is checked but selects nothing.
        assert ExecutionContext(jobs=2, backend="serial").backend == "process"

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ConfigError):
            ExecutionContext(jobs=0)

    def test_resolve_defaults_to_serial(self):
        context = ExecutionContext.resolve(env={})
        assert context.jobs == 1
        assert context.backend == "serial"

    def test_resolve_reads_environment(self):
        context = ExecutionContext.resolve(env={"REPRO_JOBS": "3"})
        assert context.jobs == 3
        assert context.backend == "process"

    def test_resolve_explicit_wins_over_env(self):
        context = ExecutionContext.resolve(jobs=2, env={"REPRO_JOBS": "7"})
        assert context.jobs == 2
        assert context.backend == "process"

    def test_resolve_zero_means_all_cores(self):
        context = ExecutionContext.resolve(jobs=0, env={})
        assert context.jobs == (os.cpu_count() or 1)

    def test_resolve_multi_job_defaults_to_process(self):
        assert ExecutionContext.resolve(jobs=2, env={}).backend == "process"

    def test_resolve_rejects_garbage_env(self):
        with pytest.raises(ConfigError):
            ExecutionContext.resolve(env={"REPRO_JOBS": "many"})

    def test_task_metrics_flow(self):
        metrics = get_metrics()
        before = metrics.counter("parallel.tasks")
        with ExecutionContext(jobs=2) as context:
            context.map_ordered(_ident, [1, 2, 3])
        assert metrics.counter("parallel.tasks") - before == 3


class TestParallelConfig:
    def test_defaults_are_serial_and_uncached(self):
        config = ParallelConfig()
        assert config.jobs == 1
        assert config.cache_dir is None

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigError):
            ParallelConfig(jobs=0)


class TestStableDigest:
    def test_key_order_is_irrelevant(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})

    def test_values_matter(self):
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})

    def test_tuples_and_lists_coincide(self):
        assert stable_digest((1, 2, 3)) == stable_digest([1, 2, 3])

    def test_world_fingerprint_tracks_config(self):
        a = world_fingerprint(WorldConfig(seed=1, scale=0.1))
        b = world_fingerprint(WorldConfig(seed=2, scale=0.1))
        assert a != b
        assert a == world_fingerprint(WorldConfig(seed=1, scale=0.1))


class TestResolveCacheDir:
    def test_env_override(self, tmp_path):
        assert resolve_cache_dir(env={"REPRO_CACHE_DIR": str(tmp_path)}) == tmp_path

    def test_empty_env_disables(self):
        assert resolve_cache_dir(env={"REPRO_CACHE_DIR": ""}) is None

    def test_default_under_home(self):
        path = resolve_cache_dir(env={})
        assert path is not None
        assert path.name == "repro"


class TestResultCache:
    def test_floats_roundtrip_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        scores = {"NO": {"64512": 0.1 + 0.2, "64513": 1e-17 + 1.0}}
        cache.put("cti", "k1", {"scores": scores})
        loaded = cache.get("cti", "k1")
        assert loaded == {"scores": scores}
        assert (loaded["scores"]["NO"]["64512"] == scores["NO"]["64512"])  # bit-exact

    def test_absent_key_is_a_miss(self, tmp_path):
        metrics = get_metrics()
        before = metrics.counter("cache.misses")
        assert ResultCache(tmp_path).get("cti", "nothing") is None
        assert metrics.counter("cache.misses") - before == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cti", "k1", {"x": 1})
        (tmp_path / "cti" / "k1.json").write_text("{truncated")
        assert cache.get("cti", "k1") is None

    def test_non_dict_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "cti").mkdir()
        (tmp_path / "cti" / "k1.json").write_text("[1, 2]")
        assert cache.get("cti", "k1") is None

    def test_hit_and_write_counters(self, tmp_path):
        metrics = get_metrics()
        cache = ResultCache(tmp_path)
        writes = metrics.counter("cache.writes")
        hits = metrics.counter("cache.hits")
        cache.put("cti", "k1", {"x": 1})
        assert metrics.counter("cache.writes") - writes == 1
        assert cache.get("cti", "k1") == {"x": 1}
        assert metrics.counter("cache.hits") - hits == 1

    def test_invalid_section_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).get("../escape", "k")


class TestWorkerStatePickling:
    def test_analyst_survives_pickling(self, small_inputs):
        analyst = OwnershipAnalyst(small_inputs.corpus)
        clone = pickle.loads(pickle.dumps(analyst))
        assert clone._in_progress == set()

    def test_collector_pickles_without_trees(self, small_inputs):
        collector = small_inputs.collector
        clone = pickle.loads(pickle.dumps(collector))
        assert clone.trees_computed() == 0
        origin = sorted(collector._graph.asns)[0]
        monitor = next(iter(collector.monitors))
        assert clone.path(monitor, origin) == collector.path(monitor, origin)


class TestCTILaziness:
    def test_init_does_not_scan_the_table(self, small_inputs):
        cti = CTIComputer(
            small_inputs.prefix2as,
            small_inputs.geolocation,
            small_inputs.collector,
        )
        assert cti._index is None

    def test_preloaded_scores_skip_computation(self, small_inputs):
        cti = CTIComputer(
            small_inputs.prefix2as,
            small_inputs.geolocation,
            small_inputs.collector,
        )
        cti.preload_scores({"NO": {64512: 0.5}})
        metrics = get_metrics()
        before = metrics.counter("cti.countries_computed")
        assert cti.country_cti("NO") == {64512: 0.5}
        assert metrics.counter("cti.countries_computed") == before
        assert cti._index is None  # still no index build

    def test_precompute_shares_terms_across_countries(self, small_inputs):
        cti = CTIComputer(
            small_inputs.prefix2as,
            small_inputs.geolocation,
            small_inputs.collector,
        )
        ccs = cti.countries()[:3]
        walked = cti.precompute(ccs)
        stats = cti.transit_term_stats()
        assert stats["origins_walked"] == walked
        for cc in ccs:
            cti.country_cti(cc)
        # Scoring after precompute never walks a new origin.
        assert cti.transit_term_stats()["origins_walked"] == walked
        # A second precompute over cached countries is free.
        assert cti.precompute(ccs) == 0


def _result_key(result):
    """Everything observable about a run, modulo wall-clock."""
    stats = {k: v for k, v in result.stats.items() if k != "runtime_seconds"}
    return dataset_to_json(result.dataset), stats


class TestPipelineDeterminism:
    def test_parallel_runs_are_bit_identical(
        self, process_pipeline_run, pipeline_result
    ):
        parallel, pool_spawns = process_pipeline_run
        assert pool_spawns >= 1  # ParallelConfig(jobs=2) ran on a process pool
        assert _result_key(parallel) == _result_key(pipeline_result)
        assert parallel.confirmed_keys == pipeline_result.confirmed_keys
        assert parallel.minority_keys == pipeline_result.minority_keys
        assert parallel.excluded == pipeline_result.excluded

    def test_warm_cache_skips_cti_and_matches(
        self, tmp_path, small_inputs, pipeline_result
    ):
        parallel = ParallelConfig(cache_dir=str(tmp_path / "cache"))
        metrics = get_metrics()

        cold = StateOwnershipPipeline(small_inputs, parallel=parallel).run()
        assert metrics.counter("cache.writes") >= 1

        computed_before = metrics.counter("cti.countries_computed")
        hits_before = metrics.counter("cache.hits")
        warm = StateOwnershipPipeline(small_inputs, parallel=parallel).run()
        # The warm run serves every CTI score map from disk: no country is
        # recomputed, and the cache reports at least one hit.
        assert metrics.counter("cti.countries_computed") == computed_before
        assert metrics.counter("cache.hits") - hits_before >= 1
        assert _result_key(warm) == _result_key(cold)
        assert _result_key(warm) == _result_key(pipeline_result)

    def test_cache_entry_is_valid_json(self, tmp_path, small_inputs):
        parallel = ParallelConfig(cache_dir=str(tmp_path / "cache"))
        StateOwnershipPipeline(small_inputs, parallel=parallel).run()
        entries = list((tmp_path / "cache" / "cti").glob("*.json"))
        assert entries
        payload = json.loads(entries[0].read_text())
        assert "scores" in payload and "tree_stats" in payload
