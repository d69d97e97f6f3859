"""Shared fixtures.

Expensive artifacts (worlds, a full pipeline run) are session-scoped: the
small world takes a couple of seconds to generate and the pipeline run ~20
seconds, so every integration test reuses one instance.

With ``REPRO_WORLD_CACHE=1`` (set by the CI workflow, whose
``actions/cache`` step restores ``~/.cache/repro`` across jobs) the world
fixtures go through the digest-verified blob cache in
:mod:`repro.world.worldcache` instead of regenerating; a cold run writes
the blobs back for the next job.  Local runs default to plain generation.
"""

from __future__ import annotations

import os

import pytest

from repro.config import (
    ParallelConfig,
    PipelineConfig,
    SourceNoiseConfig,
    WorldConfig,
)
from repro.core import PipelineInputs, StateOwnershipPipeline
from repro.obs import get_metrics
from repro.parallel import ResultCache, resolve_cache_dir
from repro.world.generator import World, WorldGenerator
from repro.world.scenarios import run_scenario_packs
from repro.world.worldcache import load_or_generate


def _materialize_world(config: WorldConfig) -> World:
    if os.environ.get("REPRO_WORLD_CACHE") == "1":
        root = resolve_cache_dir()
        cache = ResultCache(root) if root is not None else None
        return load_or_generate(config, cache)
    return WorldGenerator(config).generate()


@pytest.fixture(scope="session")
def tiny_world() -> World:
    """A minimal world for fast structural tests."""
    return _materialize_world(WorldConfig.tiny())


@pytest.fixture(scope="session")
def small_world() -> World:
    """The standard integration-test world."""
    return _materialize_world(WorldConfig.small())


@pytest.fixture(scope="session")
def small_inputs(small_world):
    """All derived data sources for the small world."""
    return PipelineInputs.from_world(small_world)


@pytest.fixture(scope="session")
def pipeline_result(small_inputs):
    """One full pipeline run over the small world (shared, read-only)."""
    return StateOwnershipPipeline(small_inputs).run()


@pytest.fixture(scope="session")
def process_pipeline_run(small_inputs):
    """The same run with ``ParallelConfig(jobs=2)``, so the pipeline builds
    its own process-pool context (shared, read-only).

    Returns ``(result, pool_spawns)``; the spawn count lets tests check
    that the run really went through a pool.
    """
    metrics = get_metrics()
    spawns_before = metrics.counter("parallel.pool_spawns")
    result = StateOwnershipPipeline(small_inputs, parallel=ParallelConfig(jobs=2)).run()
    return result, metrics.counter("parallel.pool_spawns") - spawns_before


@pytest.fixture(scope="session")
def scenario_report(tiny_world):
    """One full scenario-matrix run over the tiny world (shared, read-only)."""
    return run_scenario_packs(tiny_world)


@pytest.fixture()
def noise() -> SourceNoiseConfig:
    return SourceNoiseConfig()


@pytest.fixture()
def pipeline_config() -> PipelineConfig:
    return PipelineConfig()
