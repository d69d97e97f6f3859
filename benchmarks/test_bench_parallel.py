"""Parallel-execution benchmarks: serial vs multi-core vs warm cache.

Three measurements of the same reduced-world pipeline run, each the
median of ``ROUNDS`` rounds, every round on a freshly built pipeline:

* the serial baseline,
* the multi-core run (process backend), and
* the warm-cache run (CTI served entirely from the persistent cache).

Every run gets a **fresh** route collector: routing trees are cached per
collector, so reusing the session collector would hand later runs a warm
tree cache and fake the speedup.  ``extra_info`` records the worker count
and backend so exported ``BENCH_*.json`` files are self-describing.
"""

from __future__ import annotations

import dataclasses
import os

from _record import ROUNDS, append_record, median_seconds

from repro.config import ParallelConfig
from repro.core.pipeline import StateOwnershipPipeline
from repro.io.tables import render_table
from repro.net.monitors import RouteCollector
from repro.obs import get_metrics

# Floor of 2 so the single-pool/pickle-once machinery is exercised even on
# single-core CI runners (where the fan-out yields no wall-time win).
_PARALLEL_JOBS = max(2, min(4, os.cpu_count() or 1))


def _cold_inputs(inputs):
    """The same derived sources with an unwarmed route collector."""
    collector = inputs.collector
    return dataclasses.replace(
        inputs,
        collector=RouteCollector(collector._graph, collector.monitors),
    )


def _run(pipeline: StateOwnershipPipeline):
    result = pipeline.run()
    assert len(result.dataset)
    return result


def _report(title, result):
    print()
    print(
        render_table(
            ("metric", "value"),
            [
                ("companies confirmed", len(result.dataset)),
                ("state-owned ASNs", len(result.dataset.all_asns())),
                ("runtime (s)", f"{result.stats['runtime_seconds']:.2f}"),
            ],
            title=title,
        )
    )


def test_bench_pipeline_serial(benchmark, small_bench_inputs):
    def setup():
        return (StateOwnershipPipeline(_cold_inputs(small_bench_inputs)),), {}

    result = benchmark.pedantic(_run, setup=setup, rounds=ROUNDS)
    benchmark.extra_info["jobs"] = 1
    benchmark.extra_info["backend"] = "serial"
    _report("Serial baseline (cold routing trees)", result)
    append_record(
        "parallel",
        "pipeline_serial",
        tracked={"wall_s": median_seconds(benchmark)},
        context={"jobs": 1, "backend": "serial"},
        confirmed=len(result.dataset),
    )


def test_bench_pipeline_parallel(benchmark, small_bench_inputs):
    metrics = get_metrics()
    counters = ("pool_spawns", "pool_reuse", "state_ships")
    before = {}

    def setup():
        before.update({c: metrics.counter(f"parallel.{c}") for c in counters})
        pipeline = StateOwnershipPipeline(
            _cold_inputs(small_bench_inputs),
            parallel=ParallelConfig(jobs=_PARALLEL_JOBS),
        )
        return (pipeline,), {}

    def check(_pipeline):
        for c in counters:
            benchmark.extra_info[c] = metrics.counter(f"parallel.{c}") - before[c]
        assert benchmark.extra_info["pool_spawns"] == 1

    result = benchmark.pedantic(_run, setup=setup, teardown=check, rounds=ROUNDS)
    benchmark.extra_info["jobs"] = _PARALLEL_JOBS
    benchmark.extra_info["backend"] = "process"
    _report(
        f"Process backend, {_PARALLEL_JOBS} workers (cold routing trees)",
        result,
    )
    append_record(
        "parallel",
        "pipeline_parallel",
        tracked={"wall_s": median_seconds(benchmark)},
        context={"jobs": _PARALLEL_JOBS, "backend": "process"},
        confirmed=len(result.dataset),
        shm_bytes=metrics.counter("runtime.shm_bytes"),
    )


def test_bench_pipeline_warm_cache(benchmark, small_bench_inputs, tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("repro-cache"))
    parallel = ParallelConfig(cache_dir=cache_dir)
    # Prime the persistent cache (not part of the measurement).
    StateOwnershipPipeline(_cold_inputs(small_bench_inputs), parallel=parallel).run()

    metrics = get_metrics()
    before = {}

    def setup():
        before["hits"] = metrics.counter("cache.hits")
        pipeline = StateOwnershipPipeline(
            _cold_inputs(small_bench_inputs), parallel=parallel
        )
        return (pipeline,), {}

    def check(_pipeline):
        assert metrics.counter("cache.hits") - before["hits"] >= 1

    result = benchmark.pedantic(_run, setup=setup, teardown=check, rounds=ROUNDS)
    benchmark.extra_info["jobs"] = 1
    benchmark.extra_info["backend"] = "serial"
    benchmark.extra_info["cache"] = "warm"
    _report("Warm persistent cache (CTI served from disk)", result)
    append_record(
        "parallel",
        "pipeline_warm_cache",
        tracked={"wall_s": median_seconds(benchmark)},
        context={"jobs": 1, "backend": "serial", "cache": "warm"},
        confirmed=len(result.dataset),
    )
