"""One repetition of a pipeline workload, in a fresh process.

Usage (run.py spawns this; it is not meant to be run by hand)::

    python3 perfbench/child.py SPEC.json RESULT.json

``SPEC.json`` names the command: ``{"mode": "run" | "maintain" | "setup",
"argv": [...CLI arguments...], "seed", "scale", "jobs", "cache_dir",
"trace": bool, "asns_path": optional file for the world's ASNs}``.  ``run`` and ``maintain`` go through ``repro.cli.main``
exactly as the ``repro`` command does; ``setup`` makes only the world call
the CLI makes (``load_or_generate`` with a result cache and a worker
pool).  The result file holds the setup time, peak RSS of this process
and of its reaped pool workers, and the layer rows when tracing.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.environ["REPRO_CACHE_DIR"] = spec["cache_dir"]

    import repro.cli  # noqa: F401  (import time is part of the command)

    import_s = time.perf_counter() - _STARTED
    import tracer as tracing

    tracer = tracing.Tracer()
    if spec.get("trace"):
        tracing.install(tracer)
        tracing.install_maps(tracer)
    else:
        tracing.install(tracer, tracing.SETUP_TARGETS)

    if spec["mode"] == "setup":
        from repro.config import WorldConfig
        from repro.parallel import ExecutionContext, ResultCache

        with ExecutionContext(jobs=spec["jobs"], backend="process") as context:
            world = repro.cli.load_or_generate(
                WorldConfig(seed=spec["seed"], scale=spec["scale"]),
                cache=ResultCache(spec["cache_dir"]),
                context=context,
            )
        status = 0 if len(world.graph) > 0 else 1
    else:
        status = repro.cli.main(spec["argv"])

    setup_samples = tracer.row("world.load").samples
    result = {
        "status": status,
        "import_s": import_s,
        "child_s": time.perf_counter() - _STARTED,
        "setup_s": setup_samples[0] if setup_samples else None,
        "rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
        "worker_rss_mb": _maxrss_mb(resource.RUSAGE_CHILDREN),
    }
    if spec.get("asns_path"):
        with open(spec["asns_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.world_asns, fh)
    if spec.get("trace"):
        from repro.obs import get_metrics

        metrics = get_metrics()
        result["trace"] = tracer.as_dict()
        result["counters"] = {
            name: metrics.counter(name)
            for name in ("parallel.pool_spawns", "cti.origins_walked")
        }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
