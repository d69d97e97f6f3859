"""Golden digests of the paper-facing outputs.

``tests/golden/outputs.json`` pins the sha256 of every export a run
writes for the small test world — the dataset JSON, the CTI rankings
sidecar and the canonical SQLite rows — once for a serial run and once
for a 2-job process-pool run, plus the scenario-matrix report of the tiny
world.  Any change that moves one output byte fails here.

The runs are the session fixtures every integration test shares, so the
pin costs only the exports and the hashing.  Serial and process output
are byte-identical, so both runs must match the one ``small_exports``
entry.  A change that *means* to move an output regenerates the file::

    PYTHONPATH=src python -m tests.test_golden > tests/golden/outputs.json

and says in CHANGES.md why the outputs moved.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import tempfile
from pathlib import Path

import pytest

from repro.io.jsonio import dump_cti_json, dump_json
from repro.io.sqliteio import dataset_to_sqlite

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sqlite_rows_digest(path: Path) -> str:
    """Digest of every table's rows, tables by name, rows sorted."""
    digest = hashlib.sha256()
    with sqlite3.connect(f"file:{path}?mode=ro", uri=True) as conn:
        tables = [
            name
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' ORDER BY name"
            )
        ]
        for table in tables:
            digest.update(f"{table}\n".encode())
            for row in sorted(repr(r) for r in conn.execute(f'SELECT * FROM "{table}"')):
                digest.update(row.encode() + b"\n")
    return digest.hexdigest()


def export_digests(result, out_dir: Path) -> dict:
    """Write a run's three exports, as ``repro run`` does, and hash them."""
    json_path = out_dir / "dataset.json"
    cti_path = out_dir / "dataset.json.cti.json"
    db_path = out_dir / "dataset.db"
    dump_json(result.dataset, json_path)
    dump_cti_json(result.cti_selection, cti_path)
    dataset_to_sqlite(result.dataset, db_path)
    return {
        "json": _sha256(json_path.read_bytes()),
        "cti": _sha256(cti_path.read_bytes()),
        "sqlite_rows": sqlite_rows_digest(db_path),
    }


def report_digest(report) -> str:
    return _sha256(report.to_json().encode("utf-8"))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class TestGoldenOutputs:
    def test_serial_exports(self, golden, pipeline_result, tmp_path):
        assert export_digests(pipeline_result, tmp_path) == golden["small_exports"]

    def test_process_exports(self, golden, process_pipeline_run, tmp_path):
        result, _ = process_pipeline_run
        assert export_digests(result, tmp_path) == golden["small_exports"]

    def test_scenario_report(self, golden, scenario_report):
        assert report_digest(scenario_report) == golden["tiny_scenario_report"]


def _regenerate() -> dict:
    """Recompute every golden digest from scratch (same runs as the
    fixtures in ``conftest.py``)."""
    from repro.config import WorldConfig
    from repro.core import PipelineInputs, StateOwnershipPipeline
    from repro.world.generator import WorldGenerator
    from repro.world.scenarios import run_scenario_packs

    inputs = PipelineInputs.from_world(WorldGenerator(WorldConfig.small()).generate())
    serial = StateOwnershipPipeline(inputs).run()
    report = run_scenario_packs(WorldGenerator(WorldConfig.tiny()).generate())
    with tempfile.TemporaryDirectory() as tmp:
        return {
            "small_exports": export_digests(serial, Path(tmp)),
            "tiny_scenario_report": report_digest(report),
        }


if __name__ == "__main__":
    print(json.dumps(_regenerate(), indent=2, sort_keys=True))
