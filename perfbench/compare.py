"""Compare two sets of benchmark records (``perfbench/_work/results/*.json``).

Usage (from the repository root)::

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Per workload and end-to-end metric it prints each side's median and
quartiles, and the change against the bound fixed in ``BENCHMARK.json``.
Exit status: 0 clean, 1 when a metric worsened beyond its bound, 2 when
the records cannot be compared — different hosts, workloads with
different parameters, or traced mixed with untraced records.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def _load(paths: List[str]) -> List[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def refusal(base: List[dict], new: List[dict]) -> str:
    """Why these records may not be compared, or '' when they may."""
    records = base + new
    hosts = {r["provenance"]["host"] for r in records}
    if len(hosts) > 1:
        return f"records come from different hosts {sorted(hosts)}"
    if len({r["trace"] for r in records}) > 1:
        return "traced and untraced records are mixed"
    params: Dict[str, set] = {}
    for r in records:
        prov = r["provenance"]
        params.setdefault(prov["workload"], set()).add(
            json.dumps(prov["params"], sort_keys=True))
    for workload, seen in sorted(params.items()):
        if len(seen) > 1:
            return f"{workload} records ran with different parameters"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description="compare benchmark records")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = _load(args.base), _load(args.new)
    why = refusal(base, new)
    if why:
        print(f"refused: {why}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    workloads = sorted({r["provenance"]["workload"] for r in base + new})
    for workload in workloads:
        side = {
            "base": [r for r in base if r["provenance"]["workload"] == workload],
            "new": [r for r in new if r["provenance"]["workload"] == workload],
        }
        if not side["base"] or not side["new"]:
            print(f"{workload}: missing on one side, skipped")
            continue
        print(f"{workload} (base n={len(side['base'])}, new n={len(side['new'])})")
        records = side["base"] + side["new"]
        names = set.intersection(*(set(r["metrics"]) for r in records))
        for name in sorted(names):
            b = _quartiles([r["metrics"][name]["value"] for r in side["base"]])
            n = _quartiles([r["metrics"][name]["value"] for r in side["new"]])
            change = (n[1] - b[1]) / b[1] if b[1] else 0.0
            line = (f"  {name:28s} base {b[1]:10.4g} [{b[0]:.4g}, {b[2]:.4g}]  "
                    f"new {n[1]:10.4g} [{n[0]:.4g}, {n[2]:.4g}]  {change:+7.1%}")
            meta = bounds.get(name)
            if meta is not None:
                worse = change if meta["better"] == "lower" else -change
                if worse > meta["bound"]:
                    line += f"  REGRESSION (bound {meta['bound']:.0%})"
                    status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
