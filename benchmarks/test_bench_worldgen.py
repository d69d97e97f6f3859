"""World-generation benchmarks: generated vs cached.

Two single-round measurements of obtaining the same world:

* the generation baseline (world generation always runs serially), and
* the warm blob-cache load through :func:`~repro.world.worldcache.
  load_or_generate`, against a cache that same function warmed — the
  key, digest check and unpickle that warm ``run``/``report``/
  ``validate`` invocations pay instead of generating.

``BENCH_worldgen.json`` also holds a ``worldgen_parallel`` series from
when generation could fan out; it is kept as history and gets no new
records.
"""

from __future__ import annotations

import os

from _record import append_record, mean_seconds

from repro.config import WorldConfig
from repro.obs import get_metrics
from repro.parallel import ResultCache
from repro.world.generator import WorldGenerator
from repro.world.worldcache import load_or_generate

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "20210701"))


def _config() -> WorldConfig:
    return WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE)


def test_bench_worldgen_serial(benchmark):
    world = benchmark.pedantic(
        lambda: WorldGenerator(_config()).generate(), rounds=1, iterations=1
    )
    benchmark.extra_info["jobs"] = 1
    benchmark.extra_info["backend"] = "serial"
    benchmark.extra_info["asns"] = len(world.asn_records)
    assert world.asn_records
    append_record(
        "worldgen",
        "worldgen_serial",
        tracked={"wall_s": mean_seconds(benchmark)},
        context={"scale": BENCH_SCALE, "seed": BENCH_SEED, "jobs": 1},
        asns=len(world.asn_records),
    )


def test_bench_worldgen_cached(benchmark, tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("repro-world-cache"))
    config = _config()
    generated = load_or_generate(config, cache)
    metrics = get_metrics()
    generations = metrics.counter("world.gen.countries")

    world = benchmark.pedantic(
        lambda: load_or_generate(config, cache), rounds=1, iterations=1
    )
    benchmark.extra_info["cache"] = "warm"
    assert metrics.counter("world.gen.countries") == generations  # a load
    assert world.content_digest() == generated.content_digest()
    append_record(
        "worldgen",
        "worldgen_cached",
        tracked={"wall_s": mean_seconds(benchmark)},
        context={"scale": BENCH_SCALE, "seed": BENCH_SEED, "cache": "warm"},
        asns=len(world.asn_records),
    )
