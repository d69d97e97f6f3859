"""World-generation benchmarks: generated vs cached.

Two measurements of obtaining the same world, each the median of
``ROUNDS`` rounds on fresh state:

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

from _record import ROUNDS, append_record, median_seconds

from repro.config import WorldConfig
from repro.obs import get_metrics
from repro.parallel import ResultCache
from repro.world.generator import WorldGenerator
from repro.world.worldcache import load_or_generate

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "20210701"))


def _config() -> WorldConfig:
    return WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE)


def _generate(generator: WorldGenerator):
    world = generator.generate()
    assert world.asn_records
    return world


def test_bench_worldgen_serial(benchmark):
    world = benchmark.pedantic(
        _generate,
        setup=lambda: ((WorldGenerator(_config()),), {}),
        rounds=ROUNDS,
    )
    benchmark.extra_info["jobs"] = 1
    benchmark.extra_info["backend"] = "serial"
    benchmark.extra_info["asns"] = len(world.asn_records)
    append_record(
        "worldgen",
        "worldgen_serial",
        tracked={"wall_s": median_seconds(benchmark)},
        context={"scale": BENCH_SCALE, "seed": BENCH_SEED, "jobs": 1},
        asns=len(world.asn_records),
    )


def test_bench_worldgen_cached(benchmark, tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("repro-world-cache"))
    config = _config()
    generated = load_or_generate(config, cache)
    metrics = get_metrics()
    generations = metrics.counter("world.gen.countries")
    loaded = []

    def load():
        loaded.append(load_or_generate(config, cache))

    def check():
        assert metrics.counter("world.gen.countries") == generations  # a load
        assert loaded.pop().content_digest() == generated.content_digest()

    benchmark.pedantic(load, teardown=check, rounds=ROUNDS)
    benchmark.extra_info["cache"] = "warm"
    append_record(
        "worldgen",
        "worldgen_cached",
        tracked={"wall_s": median_seconds(benchmark)},
        context={"scale": BENCH_SCALE, "seed": BENCH_SEED, "cache": "warm"},
        asns=len(generated.asn_records),
    )
