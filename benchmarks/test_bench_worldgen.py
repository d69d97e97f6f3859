"""World-generation benchmarks: serial vs fanned-out vs cached.

Three single-round measurements of building the same world:

* the serial baseline,
* the parallel build (per-country planning phases fanned through a
  run-scoped worker runtime on the process backend), and
* the warm blob-cache load (the pickled world served from disk, keyed by
  its config fingerprint — what warm ``run``/``report``/``validate``
  invocations pay instead of generating).

The parallel world must stay bit-identical to the serial one, so the
parallel benchmark asserts record-level equality rather than trusting the
fan-out.  ``extra_info`` carries the pool-lifecycle counters
(``parallel.pool_spawns`` / ``pool_reuse`` / ``state_ships``) so exported
``BENCH_*.json`` files show the single-pool guarantee holding under load.
"""

from __future__ import annotations

import os
import pickle

from _record import append_record, mean_seconds

from repro.config import WorldConfig
from repro.obs import get_metrics
from repro.parallel import ExecutionContext, ResultCache, world_fingerprint
from repro.world.generator import WorldGenerator

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "20210701"))

# Floor of 2 so the single-pool/pickle-once machinery is exercised even on
# single-core CI runners (where the fan-out yields no wall-time win).
_PARALLEL_JOBS = max(2, min(4, os.cpu_count() or 1))


def _config() -> WorldConfig:
    return WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE)


def _signature(world):
    """A cheap record-level identity signature of a generated world."""
    return (
        list(world.asn_records),
        world.operator_asns,
        world.graph.num_edges(),
        world.gateway_asns,
        [(m.monitor_id, m.host_asn) for m in world.monitors],
    )


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


def test_bench_worldgen_parallel(benchmark):
    serial_signature = _signature(WorldGenerator(_config()).generate())
    metrics = get_metrics()
    spawns = metrics.counter("parallel.pool_spawns")
    reuses = metrics.counter("parallel.pool_reuse")
    ships = metrics.counter("parallel.state_ships")

    def build():
        with ExecutionContext(jobs=_PARALLEL_JOBS) as context:
            return WorldGenerator(_config(), context=context).generate()

    world = benchmark.pedantic(build, rounds=1, iterations=1)
    benchmark.extra_info["jobs"] = _PARALLEL_JOBS
    benchmark.extra_info["backend"] = "process"
    benchmark.extra_info["pool_spawns"] = (
        metrics.counter("parallel.pool_spawns") - spawns
    )
    benchmark.extra_info["pool_reuse"] = metrics.counter("parallel.pool_reuse") - reuses
    benchmark.extra_info["state_ships"] = (
        metrics.counter("parallel.state_ships") - ships
    )
    assert benchmark.extra_info["pool_spawns"] == 1
    assert _signature(world) == serial_signature
    append_record(
        "worldgen",
        "worldgen_parallel",
        tracked={"wall_s": mean_seconds(benchmark)},
        context={
            "scale": BENCH_SCALE,
            "seed": BENCH_SEED,
            "jobs": _PARALLEL_JOBS,
        },
        asns=len(world.asn_records),
    )


def test_bench_worldgen_cached(benchmark, tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("repro-world-cache"))
    config = _config()
    key = world_fingerprint(config)
    cache.put_blob(
        "world",
        key,
        pickle.dumps(
            WorldGenerator(config).generate(),
            protocol=pickle.HIGHEST_PROTOCOL,
        ),
    )

    def load():
        return pickle.loads(cache.get_blob("world", key))

    world = benchmark.pedantic(load, rounds=1, iterations=1)
    benchmark.extra_info["cache"] = "warm"
    assert world.asn_records
    append_record(
        "worldgen",
        "worldgen_cached",
        tracked={"wall_s": mean_seconds(benchmark)},
        context={"scale": BENCH_SCALE, "seed": BENCH_SEED, "cache": "warm"},
        asns=len(world.asn_records),
    )
