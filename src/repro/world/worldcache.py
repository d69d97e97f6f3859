"""Digest-verified blob cache for generated worlds.

A world is a pure function of its :class:`~repro.config.WorldConfig`, so a
pickled copy keyed by the config fingerprint and the generator revision
lets every warm consumer — CLI runs, test fixtures, benchmarks, the CI
jobs — skip generation entirely.  This module centralizes the key scheme
and the load-or-generate path that used to live inside the CLI, so the CI
``actions/cache`` step, the fixtures and the CLI all agree on what a blob
is called and when it is stale.

:func:`cache_epoch` condenses the key space into a single string for the
CI cache key: it digests the generator revision plus the fingerprints of
every world configuration the workflow touches, so pushing a change that
invalidates any blob rotates the whole cross-job cache.
"""

from __future__ import annotations

import pickle
from typing import Iterable, Optional

from repro.config import WorldConfig
from repro.parallel import (
    ExecutionContext,
    ResultCache,
    stable_digest,
    world_fingerprint,
)
from repro.world.generator import GENERATOR_VERSION, World, WorldGenerator

__all__ = [
    "world_cache_key",
    "load_or_generate",
    "cache_epoch",
    "DEFAULT_CI_CONFIGS",
]

#: Every (seed, scale) the CI workflow materializes: the test fixtures
#: (tiny/small), the smoke jobs (0.1/0.2), and the bench scale sweep
#: (0.2/0.5).  Keeping this list in one place means the actions/cache key
#: rotates whenever any of them would produce a different world.
DEFAULT_CI_CONFIGS: tuple = (
    WorldConfig(seed=5, scale=0.1),
    WorldConfig(seed=20210701, scale=0.12, monitor_count=8),
    WorldConfig(seed=20210701, scale=0.2),
    WorldConfig(seed=20210701, scale=0.3),
    WorldConfig(seed=20210701, scale=0.3, monitor_count=16),
    WorldConfig(seed=20210701, scale=0.5),
)


def world_cache_key(config: WorldConfig) -> str:
    """Blob-cache key for a generated world: config plus generator revision,
    so a blob written by an older generator is never served stale."""
    return stable_digest(
        {
            "config": world_fingerprint(config),
            "generator": GENERATOR_VERSION,
        }
    )


def load_or_generate(
    config: WorldConfig,
    cache: Optional[ResultCache] = None,
    context: Optional[ExecutionContext] = None,
) -> World:
    """Load the configured world from the blob cache, or generate it.

    ``context`` is accepted for callers that pass their run's execution
    context, and unused: world generation always runs serially, because
    fanning its per-country phases out was never faster.

    An unpicklable cached entry (e.g. written by an older code revision)
    is evicted and regenerated; a fresh generation is written back so the
    next consumer — possibly a different CI job restored from the same
    ``actions/cache`` snapshot — loads instead of rebuilding.
    """
    key = world_cache_key(config)
    if cache is not None:
        blob = cache.get_blob("world", key)
        if blob is not None:
            try:
                world = pickle.loads(blob)
            except Exception:
                world = None
            if isinstance(world, World):
                return world
            cache.evict("world", key)
    world = WorldGenerator(config).generate()
    if cache is not None:
        cache.put_blob(
            "world", key, pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL)
        )
    return world


def cache_epoch(configs: Iterable[WorldConfig] = DEFAULT_CI_CONFIGS) -> str:
    """One digest naming the current generation of all CI world blobs.

    CI embeds this in its ``actions/cache`` key (printed by
    ``python -m repro.world.worldcache``), so the cross-job cache rotates
    exactly when a code change would regenerate any standard world.
    """
    return stable_digest({"keys": [world_cache_key(c) for c in configs]})


if __name__ == "__main__":  # pragma: no cover - CI key helper
    print(cache_epoch())
