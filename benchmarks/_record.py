"""Append-only ``BENCH_*.json`` trajectory recording.

Started for serve in PR 6, generalized here: with ``REPRO_BENCH_RECORD=1``
each benchmark appends one JSON line to a repo-root ``BENCH_<name>.json``
file, committing the perf trajectory alongside the code.  Every record
carries:

* ``benchmark`` — the benchmark's stable name;
* ``context`` — the knobs that must match for two records to be
  comparable (scale, jobs, client counts, ...); ``repro bench-diff`` only
  compares records with identical context, so a reduced-scale CI run
  never diffs against a full-scale workstation baseline;
* ``tracked`` — the regression-gated numbers.  Direction is inferred
  from the key: ``qps`` / ``*_per_s`` are higher-is-better, everything
  else (``*_s``, ``*_ms``) lower-is-better;
* ``recorded_at`` — UTC timestamp.

Extra keys are preserved verbatim for humans; only ``tracked`` is gated.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional

_ROOT = Path(__file__).resolve().parents[1]


def recording_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_RECORD") == "1"


#: Rounds of each runtime benchmark case (worldgen, parallel): one noisy
#: round cannot move their median.
ROUNDS = 5


def median_seconds(benchmark) -> float:
    """Median wall time of a completed pytest-benchmark measurement.

    For a single round it is that round's time.
    """
    return float(benchmark.stats.stats.median)


def append_record(
    trajectory: str,
    benchmark: str,
    tracked: Dict[str, float],
    context: Optional[Dict[str, Any]] = None,
    **extra: Any,
) -> None:
    """Append one record to ``BENCH_<trajectory>.json`` (when recording)."""
    if not recording_enabled():
        return
    record: Dict[str, Any] = {
        "benchmark": benchmark,
        "context": dict(context or {}),
        "tracked": {k: round(float(v), 6) for k, v in tracked.items()},
        **extra,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = _ROOT / f"BENCH_{trajectory}.json"
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
