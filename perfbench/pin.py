"""Regenerate the pinned output digests (``perfbench/digests.json``).

Usage (from the repository root)::

    python3 perfbench/pin.py

Runs each workload's producing command once per pinned world (``repro run``
at scales 1 and 10, ``repro maintain`` at scale 3) and records the digests
the benchmark then demands on every run.  Changing a pinned digest means
the program's output changed: say why in CHANGES.md.  The scale-1 and
scale-10 exports land in the serve workload's export cache.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import workloads  # noqa: E402


def pin_world(world_seed: int) -> dict:
    out = {}
    for scale in (1.0, 10.0):
        name = f"run-s{scale:g}"
        out[name] = workloads.cached_export(scale, world_seed)[1]
        print(f"{world_seed} {name}: {out[name]}")
    tmp = common.scratch_dir("pin-")
    try:
        maint = tmp / "maintain"
        maint.mkdir()
        spec = workloads.maintain_spec(
            workloads.MaintainS3.scale, workloads.MaintainS3.months, world_seed, maint
        )
        common.run_child(spec, tmp)
        out["maintain-s3"] = common.maintain_digests(maint)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{world_seed} maintain-s3: {out['maintain-s3']}")
    return out


def main() -> int:
    table = {"worlds": {str(seed): pin_world(seed)
                        for seed in common.PINNED_WORLD_SEEDS}}
    common.DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
