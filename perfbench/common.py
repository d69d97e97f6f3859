"""Shared plumbing: paths, fresh-process repetitions, digests, provenance."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DIGESTS = HERE / "digests.json"

#: The paper's world seed: every workload runs on it unless ``--seed`` names
#: another pinned world.
DEFAULT_WORLD_SEED = 20210701
#: Held out: never used while tuning a change; a claimed gain must also
#: hold with ``--seed 20220701``.
HELD_OUT_WORLD_SEED = 20220701
PINNED_WORLD_SEEDS = (DEFAULT_WORLD_SEED, HELD_OUT_WORLD_SEED)

JOBS = 2
#: One fresh repetition may not run longer than this.
CHILD_TIMEOUT_S = 170.0


def world_seed_for(seed: int) -> int:
    """The world a benchmark seed runs on.

    Output digests are pinned per world, so only pinned worlds are
    generated; any other ``--seed`` keeps the default world and seeds only
    the benchmark's own inputs (the request mix and arrival times).
    """
    return seed if seed in PINNED_WORLD_SEEDS else DEFAULT_WORLD_SEED


def repro_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    for knob in ("REPRO_JOBS", "REPRO_BACKEND", "REPRO_TRACE", "REPRO_LOG_JSON",
                 "REPRO_FAULTS", "REPRO_ROUTING"):
        env.pop(knob, None)
    return env


def scratch_dir(prefix: str) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def run_child(spec: Dict[str, Any], tmp: Path) -> Dict[str, Any]:
    """One repetition in a fresh interpreter, from an empty cache directory.

    Returns the child's result record plus ``run_s``, the wall time of the
    whole process as the caller sees it.
    """
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=tmp))
    spec = dict(spec, cache_dir=str(cache))
    spec_path = tmp / "spec.json"
    result_path = tmp / "child-result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
        env=repro_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    run_s = time.perf_counter() - started
    shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise RuntimeError(f"{spec['mode']} child failed ({proc.returncode}): {tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["run_s"] = run_s
    return result


# -- digests ----------------------------------------------------------------
def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sqlite_rows_digest(path: Path) -> str:
    """Digest of every table's rows, in a canonical order."""
    digest = hashlib.sha256()
    with sqlite3.connect(f"file:{path}?mode=ro", uri=True) as conn:
        tables = [
            name
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' ORDER BY name"
            )
        ]
        for table in tables:
            rows = sorted(repr(row) for row in conn.execute(f'SELECT * FROM "{table}"'))
            digest.update(f"{table}\n".encode())
            for row in rows:
                digest.update(row.encode())
                digest.update(b"\n")
    return digest.hexdigest()


def _strip(obj: Any, key: str) -> Any:
    if isinstance(obj, dict):
        return {k: _strip(v, key) for k, v in obj.items() if k != key}
    if isinstance(obj, list):
        return [_strip(v, key) for v in obj]
    return obj


def manifest_digest(path: Path) -> str:
    """Digest of a MAINTAIN.json manifest with its wall times removed."""
    manifest = _strip(json.loads(Path(path).read_text(encoding="utf-8")), "wall_s")
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def export_digests(
    json_path: Path, sqlite_path: Optional[Path] = None
) -> Dict[str, str]:
    out = {
        "json": sha256_file(json_path),
        "cti": sha256_file(Path(f"{json_path}.cti.json")),
    }
    if sqlite_path is not None:
        out["sqlite_rows"] = sqlite_rows_digest(sqlite_path)
    return out


def maintain_digests(out_dir: Path) -> Dict[str, str]:
    last = sorted(Path(out_dir).glob("snapshot-*.json"))
    last = [p for p in last if not p.name.endswith(".cti.json")][-1]
    return {
        "final_snapshot": sha256_file(last),
        "final_cti": sha256_file(Path(f"{last}.cti.json")),
        "manifest": manifest_digest(Path(out_dir) / "MAINTAIN.json"),
    }


def source_fingerprint() -> str:
    """Digest of the program's sources: names and contents under ``src/``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def pinned_digests(world_seed: int, name: str) -> Optional[Dict[str, str]]:
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get("worlds", {}).get(str(world_seed), {}).get(name)


def mismatches(expected: Optional[Dict[str, str]], actual: Dict[str, str]) -> List[str]:
    if expected is None:
        return ["no pinned digests for this world"]
    keys = sorted(set(expected) | set(actual))
    return [k for k in keys if expected.get(k) != actual.get(k)]


# -- stats ------------------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), int(round(q * len(ordered) + 0.5))))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- provenance -------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_fingerprint() -> str:
    """Hardware identity: CPU model, core count, memory, machine, kernel."""
    cpu = ""
    mem = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                mem = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    parts = [cpu, str(os.cpu_count()), mem, platform.machine(), platform.release()]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def provenance(workload: str, seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
    commit = status = None
    # Only this checkout's own repository counts, not an enclosing one.
    toplevel = _git("rev-parse", "--show-toplevel")
    if toplevel and Path(toplevel).resolve() == ROOT:
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "source": source_fingerprint(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host": host_fingerprint(),
    }
