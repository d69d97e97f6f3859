"""Repository benchmark: cold pipeline runs, the monthly maintain walk and
snapshot serving, measured from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run-s1 --seed 20210701 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown (see perfbench/README.md).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A
record with provenance and every sample is also written under
``perfbench/_work/results/`` for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402


def _spec():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_WORLD_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "cli.py").is_file():
        print(f"error: no program sources at {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    tmp = common.scratch_dir(f"{args.workload}-")
    started = time.perf_counter()
    try:
        res = workload.run(bool(args.trace), tmp)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    elapsed = time.perf_counter() - started

    metrics = {}
    for entry in wanted:
        value = res.metrics.get(entry["name"])
        if value is None:
            if not args.trace:
                print(f"error: {args.workload} measured no {entry['name']}",
                      file=sys.stderr)
                return 1
            value = 0.0  # a layer this workload leaves idle
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}

    record = {
        "provenance": common.provenance(args.workload, args.seed, res.params),
        "trace": args.trace,
        "seconds": args.seconds,
        "elapsed_s": elapsed,
        "attempted": res.attempted,
        "failed": res.failed,
        "errors": res.errors,
        "metrics": metrics,
        "info": res.info,
    }
    results = common.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    _summary(args, record)
    correct = res.failed == 0
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


def _summary(args, record) -> None:
    prov = record["provenance"]
    world = prov["params"].get("world_seed")
    print(f"# {args.workload} seed={args.seed} world={world} "
          f"trace={args.trace} commit={prov['commit'][:12]} dirty={prov['dirty']} "
          f"python={prov['python']} nproc={prov['nproc']} host={prov['host']}")
    for name, entry in record["metrics"].items():
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}")
    for name, value in record["info"].items():
        print(f"{name:40s} {value:14.6g}")
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"{'failed_frac':40s} {frac:14.6g} ratio  "
          f"({record['failed']}/{record['attempted']})")
    for error in record["errors"][:10]:
        print(f"! {error}")


if __name__ == "__main__":
    sys.exit(main())
