"""The run-scoped worker runtime: one pool per run, states shipped once,
crash-requeue on a reused pool, world generation metrics, and the world
blob cache."""

from __future__ import annotations

import argparse
import pickle

import pytest

from repro.cli import _make_world
from repro.config import ParallelConfig, WorldConfig
from repro.errors import ConfigError, invalid_jobs
from repro.obs import get_metrics
from repro.parallel import (
    ExecutionContext,
    ResultCache,
    StateHandle,
    WorkerRuntime,
)
from repro.resilience import clear_fault_plan
from repro.world.generator import World, WorldGenerator
from repro.world.worldcache import world_cache_key as _world_cache_key


def _add(state, item):
    """Module-level so the process backend can address it."""
    return (state or 0) + item


def _lookup(state, item):
    return state["base"] + item


def _square(state, item):
    return item * item


# -- satellite: one jobs rule, one error text -------------------------------
class TestUnifiedJobsValidation:
    """Every entry point rejects a bad worker count with the same message."""

    CANONICAL = str(invalid_jobs(-2))

    def test_context_init_uses_canonical_error(self):
        with pytest.raises(ConfigError) as err:
            ExecutionContext(jobs=-2)
        assert str(err.value) == self.CANONICAL

    def test_resolve_uses_canonical_error(self):
        with pytest.raises(ConfigError) as err:
            ExecutionContext.resolve(jobs=-2, env={})
        assert str(err.value) == self.CANONICAL

    def test_parallel_config_uses_canonical_error(self):
        with pytest.raises(ConfigError) as err:
            ParallelConfig(jobs=-2)
        assert str(err.value) == self.CANONICAL

    def test_runtime_rejects_zero_jobs(self):
        # jobs=0 is an input convention, expanded before construction; a
        # constructed context never carries it.
        with pytest.raises(ConfigError):
            ExecutionContext(jobs=0)


# -- tentpole: persistent pool ----------------------------------------------
class TestPoolReuse:
    def test_exactly_one_pool_across_maps(self):
        metrics = get_metrics()
        spawns = metrics.counter("parallel.pool_spawns")
        reuses = metrics.counter("parallel.pool_reuse")
        with ExecutionContext(jobs=2) as context:
            for _ in range(3):
                assert context.map_ordered(_add, [1, 2, 3], state=10) == [
                    11,
                    12,
                    13,
                ]
        assert metrics.counter("parallel.pool_spawns") - spawns == 1
        assert metrics.counter("parallel.pool_reuse") - reuses == 2

    def test_serial_backend_spawns_nothing(self):
        metrics = get_metrics()
        spawns = metrics.counter("parallel.pool_spawns")
        with ExecutionContext(jobs=1) as context:
            context.map_ordered(_add, [1, 2], state=0)
        assert metrics.counter("parallel.pool_spawns") == spawns

    def test_closed_runtime_rejects_work(self):
        runtime = WorkerRuntime(jobs=2)
        runtime.close()
        with pytest.raises(ConfigError):
            runtime._ensure_process_pool()

    def test_close_is_idempotent(self):
        context = ExecutionContext(jobs=2)
        context.map_ordered(_add, [1], state=0)
        context.close()
        context.close()


# -- tentpole: pickle-once shared state -------------------------------------
class TestStateShipping:
    def test_registered_state_ships_once(self):
        metrics = get_metrics()
        with ExecutionContext(jobs=2) as context:
            handle = context.register({"base": 100})
            ships = metrics.counter("parallel.state_ships")
            first = context.map_ordered(_lookup, [1, 2], state=handle)
            second = context.map_ordered(_lookup, [3, 4], state=handle)
        assert first == [101, 102] and second == [103, 104]
        assert metrics.counter("parallel.state_ships") - ships == 1

    def test_raw_state_auto_registered_by_identity(self):
        metrics = get_metrics()
        state = {"base": 7}
        with ExecutionContext(jobs=2) as context:
            ships = metrics.counter("parallel.state_ships")
            context.map_ordered(_lookup, [1], state=state)
            context.map_ordered(_lookup, [2], state=state)
        assert metrics.counter("parallel.state_ships") - ships == 1

    def test_late_registration_broadcasts_without_respawn(self):
        metrics = get_metrics()
        with ExecutionContext(jobs=2) as context:
            context.map_ordered(_square, list(range(4)))  # spawns the pool
            spawns = metrics.counter("parallel.pool_spawns")
            handle = context.register({"base": 50})
            result = context.map_ordered(_lookup, [1, 2], state=handle)
        assert result == [51, 52]
        assert metrics.counter("parallel.pool_spawns") == spawns

    def test_handle_resolves_on_serial(self):
        with ExecutionContext(jobs=1) as context:
            handle = context.register({"base": 5})
            assert context.map_ordered(_lookup, [1], state=handle) == [6]

    def test_unknown_handle_is_a_config_error(self):
        with ExecutionContext(jobs=1) as context:
            with pytest.raises(ConfigError):
                context.map_ordered(_lookup, [1], state=StateHandle("state#999"))


# -- tentpole: crash-requeue must survive pool reuse ------------------------
class TestCrashRequeueOnReusedPool:
    def test_second_map_crash_requeues_and_merges_in_order(self, monkeypatch):
        # The plan is in the environment BEFORE the first map, so the
        # persistent pool's workers inherit it at spawn; the site only
        # matches the second map's label, proving the requeue protocol
        # works on a pool that is being REUSED, not freshly spawned.
        monkeypatch.setenv("REPRO_FAULTS", "worker.crashy=crash:1")
        clear_fault_plan()
        metrics = get_metrics()
        try:
            with ExecutionContext(jobs=2) as context:
                clean = context.map_ordered(
                    _square, list(range(8)), label="calm", chunksize=2
                )
                spawns = metrics.counter("parallel.pool_spawns")
                restarts = metrics.counter("parallel.pool_restarts")
                crashed = context.map_ordered(
                    _square, list(range(12)), label="crashy", chunksize=3
                )
        finally:
            monkeypatch.delenv("REPRO_FAULTS", raising=False)
            clear_fault_plan()
        assert clean == [i * i for i in range(8)]
        assert crashed == [i * i for i in range(12)]
        assert metrics.counter("parallel.pool_restarts") > restarts
        # The respawn after the crash is the only extra pool.
        assert metrics.counter("parallel.pool_spawns") - spawns >= 1

    def test_pool_breaking_mid_submission_requeues(self, monkeypatch):
        # A worker can die while later chunks are still being queued, and
        # then ``submit`` itself raises: those chunks are requeued too.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        real_submit = ProcessPoolExecutor.submit
        chunk_submits = []

        def breaking_submit(self, fn, *args, **kwargs):
            if fn.__name__ == "_run_chunk":
                chunk_submits.append(fn)
                if len(chunk_submits) == 3:
                    raise BrokenProcessPool("worker died during submission")
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", breaking_submit)
        restarts = get_metrics().counter("parallel.pool_restarts")
        with ExecutionContext(jobs=2) as context:
            results = context.map_ordered(
                _square, list(range(12)), label="queued", chunksize=2
            )
        assert results == [i * i for i in range(12)]
        assert get_metrics().counter("parallel.pool_restarts") == restarts + 1


# -- tentpole: parallel world generation is bit-identical -------------------
def _world_snapshot(world: World) -> dict:
    return {
        "records": {
            asn: (
                record.operator_id,
                record.cc,
                record.rir,
                record.registered_name,
                record.role,
                tuple(record.prefixes),
                record.eyeballs,
            )
            for asn, record in world.asn_records.items()
        },
        "record_order": list(world.asn_records),
        "operator_asns": world.operator_asns,
        "entities": [
            (entity.entity_id, entity.name, entity.cc, entity.kind)
            for entity in world.ownership._entities.values()
        ],
        "num_edges": world.graph.num_edges(),
        "gateways": world.gateway_asns,
        "tier1": world.tier1_asns,
        "carriers": world.international_carrier_asns,
        "monitors": [(m.monitor_id, m.host_asn) for m in world.monitors],
        "truth": sorted(world.ground_truth_asns()),
    }


class TestWorldGeneration:
    def test_generation_metrics_flow(self):
        metrics = get_metrics()
        operators = metrics.counter("world.gen.operators")
        countries = metrics.counter("world.gen.countries")
        WorldGenerator(WorldConfig.tiny()).generate()
        assert metrics.counter("world.gen.operators") > operators
        assert metrics.counter("world.gen.countries") > countries

    def test_generation_under_an_open_pool_spawns_nothing(self):
        """A ``-j 2`` run opens its context before the world is built; the
        build stays serial and equals the plain serial world."""
        metrics = get_metrics()
        serial = _world_snapshot(WorldGenerator(WorldConfig.tiny()).generate())
        spawns = metrics.counter("parallel.pool_spawns")
        with ExecutionContext(jobs=2, backend="process"):
            world = WorldGenerator(WorldConfig.tiny()).generate()
        assert metrics.counter("parallel.pool_spawns") == spawns
        assert _world_snapshot(world) == serial


# -- satellite: the world blob cache ----------------------------------------
def _world_args(seed: int = 20210701, scale: float = 0.12):
    return argparse.Namespace(seed=seed, scale=scale)


class TestWorldBlobCache:
    def test_warm_load_skips_generation(self, tmp_path):
        cache = ResultCache(tmp_path)
        metrics = get_metrics()
        cold = _make_world(_world_args(), cache=cache)
        written = metrics.counter("cache.bytes_written")
        assert written > 0
        generated = metrics.counter("world.gen.countries")
        warm = _make_world(_world_args(), cache=cache)
        # No generation happened on the warm path...
        assert metrics.counter("world.gen.countries") == generated
        assert metrics.counter("cache.bytes_read") > 0
        # ...and the loaded world is equivalent to the generated one.
        assert _world_snapshot(warm) == _world_snapshot(cold)

    def test_fingerprint_separates_configs(self, tmp_path):
        cache = ResultCache(tmp_path)
        _make_world(_world_args(seed=1), cache=cache)
        key_other = _world_cache_key(WorldConfig(seed=2, scale=0.12))
        assert cache.get_blob("world", key_other) is None
        assert (
            cache.get_blob("world", _world_cache_key(WorldConfig(seed=1, scale=0.12)))
            is not None
        )

    def test_corrupt_blob_is_evicted_and_regenerated(self, tmp_path):
        cache = ResultCache(tmp_path)
        _make_world(_world_args(), cache=cache)
        key = _world_cache_key(WorldConfig(seed=20210701, scale=0.12))
        blob_path = cache._blob_path("world", key)
        blob_path.write_bytes(b"RPB1" + b"\x00" * 40)
        metrics = get_metrics()
        corrupt = metrics.counter("cache.corrupt")
        world = _make_world(_world_args(), cache=cache)
        assert isinstance(world, World)
        assert metrics.counter("cache.corrupt") > corrupt
        # The regenerated world was re-cached over the corrupt entry.
        assert cache.get_blob("world", key) is not None

    def test_unpicklable_payload_is_evicted(self, tmp_path):
        # A well-formed blob whose payload is not a pickled World (e.g.
        # written by an older code revision) must be evicted, not crash.
        cache = ResultCache(tmp_path)
        key = _world_cache_key(WorldConfig(seed=20210701, scale=0.12))
        cache.put_blob("world", key, pickle.dumps({"not": "a world"}))
        world = _make_world(_world_args(), cache=cache)
        assert isinstance(world, World)

    def test_blob_roundtrip_preserves_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = pickle.dumps(list(range(100)))
        cache.put_blob("world", "k" * 8, payload)
        assert cache.get_blob("world", "k" * 8) == payload


class TestContentDigest:
    """Derived-cache keys must track the generated world, not the config:
    an entry written by a different code revision (same config, different
    world) must never be served stale."""

    def test_same_world_same_digest(self, tiny_world):
        rebuilt = WorldGenerator(tiny_world.config).generate()
        assert rebuilt.content_digest() == tiny_world.content_digest()

    def test_digest_survives_pickling(self, tiny_world):
        clone = pickle.loads(pickle.dumps(tiny_world, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone.content_digest() == tiny_world.content_digest()

    def test_digest_tracks_world_content(self, tiny_world):
        digest = tiny_world.content_digest()
        record = next(iter(tiny_world.asn_records.values()))
        original = record.registered_name
        record.registered_name = original + " (Renamed)"
        try:
            assert tiny_world.content_digest() != digest
        finally:
            record.registered_name = original
        assert tiny_world.content_digest() == digest

    def test_pipeline_fingerprint_includes_content(self, tiny_world):
        from repro.core import PipelineInputs

        fingerprint = PipelineInputs.from_world(tiny_world).fingerprint
        record = next(iter(tiny_world.asn_records.values()))
        original = record.registered_name
        record.registered_name = original + " (Renamed)"
        try:
            changed = PipelineInputs.from_world(tiny_world).fingerprint
        finally:
            record.registered_name = original
        assert changed != fingerprint
