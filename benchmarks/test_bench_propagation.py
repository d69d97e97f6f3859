"""Micro-benchmark: the flat-array propagation kernel vs the oracle.

On one world it times, over the exact origin set CTI scoring walks:

* the :class:`~repro.net.propagation.PropagationKernel` (CSR-native BFS,
  preallocated buffers reused across origins) over every origin;
* the per-edge oracle ``reference_propagate`` (``tests/oracles/``) over a
  bounded origin sample, yielding a measured ``oracle_speedup_x``;
* CTI scoring on top of the kernel, serially and through a 2-job process
  context — asserted **byte-identical** (same repr, not approximately
  equal) before any number is recorded.

Kernel-vs-oracle equivalence is asserted on the sampled origins right
here in the benchmark, so a kernel that drifts from the oracle can never
post a time.  With ``REPRO_BENCH_RECORD=1`` each run appends one record
to ``BENCH_propagation.json`` (``oracle_speedup_x`` higher-is-better,
wall times lower-is-better, gated by ``repro bench-diff``).
"""

from __future__ import annotations

import os
import time

from _record import append_record
from conftest import BENCH_SCALE, BENCH_SEED, _materialize_world

from repro.config import WorldConfig
from repro.core import PipelineInputs
from repro.cti.metric import CTIComputer
from repro.io.tables import render_table
from repro.net.monitors import RouteCollector
from repro.net.propagation import PropagationKernel
from repro.parallel import ExecutionContext

from tests.oracles.propagation import reference_propagate

#: Upper bound on oracle-timed origins; the oracle is the slow side, the
#: sample keeps reduced-scale CI passes fast while staying representative.
_ORACLE_SAMPLE = int(os.environ.get("REPRO_BENCH_ORACLE_SAMPLE", "60"))


def _assert_same_tree(graph, kernel_tree, oracle_tree, origin):
    for asn in graph.asns:
        assert kernel_tree.has_route(asn) == oracle_tree.has_route(asn), (origin, asn)
        if not oracle_tree.has_route(asn):
            continue
        assert kernel_tree.path_from(asn) == oracle_tree.path_from(asn), (origin, asn)
        assert kernel_tree.route_class(asn) is oracle_tree.route_class(asn)
        assert kernel_tree.distance(asn) == oracle_tree.distance(asn)


def test_bench_propagation_kernel(benchmark):
    world = _materialize_world(WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE))
    graph = world.graph
    monitors = world.collector.monitors
    inputs = PipelineInputs.from_world(world)
    eligible = sorted(inputs.cti_eligible_ccs)
    seed_cti = CTIComputer(
        inputs.prefix2as, inputs.geolocation, RouteCollector(graph, monitors)
    )
    origins = sorted(
        {origin for cc in eligible for origin in seed_cti.scored_origins(cc)}
    )
    stride = max(1, len(origins) // _ORACLE_SAMPLE)
    sample = origins[::stride][:_ORACLE_SAMPLE]

    def propagate_and_score():
        timings = {}
        kernel = PropagationKernel(graph)

        started = time.perf_counter()
        for origin in origins:
            kernel.propagate(origin)
        timings["kernel_trees_s"] = time.perf_counter() - started

        started = time.perf_counter()
        kernel_trees = [kernel.propagate(origin) for origin in sample]
        kernel_sample_s = time.perf_counter() - started

        started = time.perf_counter()
        oracle_trees = [reference_propagate(graph, origin) for origin in sample]
        oracle_sample_s = time.perf_counter() - started
        timings["oracle_speedup_x"] = (
            oracle_sample_s / kernel_sample_s if kernel_sample_s else float("inf")
        )
        for origin, k_tree, o_tree in zip(sample, kernel_trees, oracle_trees):
            _assert_same_tree(graph, k_tree, o_tree, origin)

        serial_cti = CTIComputer(
            inputs.prefix2as, inputs.geolocation, RouteCollector(graph, monitors)
        )
        started = time.perf_counter()
        serial_cti.score_countries(eligible)
        timings["cti_serial_s"] = time.perf_counter() - started

        parallel_cti = CTIComputer(
            inputs.prefix2as, inputs.geolocation, RouteCollector(graph, monitors)
        )
        started = time.perf_counter()
        with ExecutionContext(jobs=2) as context:
            parallel_cti.score_countries(eligible, context=context)
        timings["cti_parallel_s"] = time.perf_counter() - started

        # Byte-identity, not float tolerance: serial and parallel scoring
        # must make the same additions in the same order.
        assert repr(parallel_cti.computed_scores()) == repr(
            serial_cti.computed_scores()
        )
        return timings

    timings = benchmark.pedantic(propagate_and_score, rounds=1, iterations=1)

    print()
    print(
        render_table(
            ("metric", "value"),
            [
                ("ASes", len(graph)),
                ("origins propagated", len(origins)),
                ("oracle sample", len(sample)),
                ("kernel trees", f"{timings['kernel_trees_s']:.3f}s"),
                ("oracle speedup", f"{timings['oracle_speedup_x']:.2f}x"),
                ("CTI serial", f"{timings['cti_serial_s']:.3f}s"),
                ("CTI parallel (2 jobs)", f"{timings['cti_parallel_s']:.3f}s"),
            ],
            title=f"Propagation kernel (scale {BENCH_SCALE})",
        )
    )

    append_record(
        "propagation",
        f"propagation_scale_{BENCH_SCALE}",
        tracked=timings,
        context={
            "scale": BENCH_SCALE,
            "seed": BENCH_SEED,
            "jobs": 2,
            "oracle_sample": len(sample),
        },
        origins=len(origins),
        ases=len(graph),
    )
