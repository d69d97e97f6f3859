"""Scale-sweep wall-time curve for the zero-copy state plane.

For each scale in ``REPRO_BENCH_SWEEP`` (default ``1,3,10``) this builds a
world (serially, as every caller does) and scores CTI for every
transit-dominant country through the shared-memory runtime on the process
backend — the end-to-end "build and score" path the shm plane exists
for.  Per scale it records the build wall time, the CTI scoring wall
time (sharded fan-out, collector shipped as one shared segment), the
shared-segment byte volume, and the coordinator's peak RSS, appending
the curve to ``BENCH_scale.json`` under ``REPRO_BENCH_RECORD=1``.

Serial/parallel equivalence at every scale is asserted on a sample
country rather than re-scoring the whole sweep twice: the sampled score
maps must be bit-identical.
"""

from __future__ import annotations

import os
import resource
import time

import pytest

from _record import append_record

from repro.config import WorldConfig
from repro.cti.metric import CTIComputer
from repro.obs import get_metrics
from repro.parallel import ExecutionContext
from repro.world.generator import WorldGenerator

BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "20210701"))
_SWEEP = [
    float(token)
    for token in os.environ.get("REPRO_BENCH_SWEEP", "1,3,10").split(",")
    if token.strip()
]
_JOBS = max(2, min(8, os.cpu_count() or 1))


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@pytest.mark.parametrize("scale", _SWEEP)
def test_bench_scale_sweep(benchmark, scale):
    metrics = get_metrics()
    shm_before = metrics.counter("runtime.shm_bytes")

    def build_and_score():
        timings = {}
        started = time.perf_counter()
        world = WorldGenerator(WorldConfig(seed=BENCH_SEED, scale=scale)).generate()
        timings["build_s"] = time.perf_counter() - started
        with ExecutionContext(jobs=_JOBS) as context:

            from repro.core import PipelineInputs

            inputs = PipelineInputs.from_world(world)
            cti = CTIComputer(inputs.prefix2as, inputs.geolocation, inputs.collector)
            eligible = sorted(inputs.cti_eligible_ccs)
            started = time.perf_counter()
            cti.score_countries(eligible, context=context)
            timings["cti_s"] = time.perf_counter() - started
        return world, inputs, cti, eligible, timings

    world, inputs, cti, eligible, timings = benchmark.pedantic(
        build_and_score, rounds=1, iterations=1
    )

    # Equivalence spot check: the serial scorer must reproduce the
    # parallel-precomputed scores bit for bit on a sample country.
    serial = CTIComputer(inputs.prefix2as, inputs.geolocation, inputs.collector)
    for cc in eligible[:3]:
        assert serial.country_cti(cc) == cti.country_cti(cc), cc

    total_s = timings["build_s"] + timings["cti_s"]
    stats = {
        "scale": scale,
        "jobs": _JOBS,
        "asns": len(world.asn_records),
        "countries_scored": len(eligible),
        "build_s": round(timings["build_s"], 3),
        "cti_s": round(timings["cti_s"], 3),
        "total_s": round(total_s, 3),
        "shm_bytes": metrics.counter("runtime.shm_bytes") - shm_before,
        "peak_rss_mb": round(_peak_rss_bytes() / 2**20, 1),
    }
    benchmark.extra_info.update(stats)
    print(
        f"\nscale {scale}: {stats['asns']} ASes, build {stats['build_s']}s, "
        f"cti {stats['cti_s']}s over {stats['countries_scored']} countries "
        f"({stats['shm_bytes']} shm bytes, peak rss {stats['peak_rss_mb']}MB)"
    )

    append_record(
        "scale",
        "scale_sweep",
        tracked={
            "build_s": stats["build_s"],
            "cti_s": stats["cti_s"],
            "total_s": stats["total_s"],
        },
        context={"scale": scale, "seed": BENCH_SEED, "jobs": _JOBS},
        asns=stats["asns"],
        countries_scored=stats["countries_scored"],
        shm_bytes=stats["shm_bytes"],
        peak_rss_mb=stats["peak_rss_mb"],
    )
