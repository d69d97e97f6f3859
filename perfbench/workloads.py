"""The workloads: each returns a :class:`Result` with end-to-end metrics
(untraced) or per-layer metrics (traced), plus operation counts."""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

import common
from common import JOBS, median
import serving
import tracer

#: Parallel-map labels whose efficiency the traced run reports.
MAP_LABELS = ("cti.terms", "confirmation", "world.countries", "world.expansion",
              "world.wiring")
#: Traced runs fail when the layer rows cover less of ``run_s`` than this.
MIN_COVERAGE = 0.95
#: Where a command's child records the ASNs of its world, in its output dir.
ASNS_FILE = "world-asns.json"


@dataclass
class Result:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Shown in the summary only (not part of the JSON result line).
    info: Dict[str, float] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)

    def op(self, ok: bool, error: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(error)

    def check_digests(self, world_seed: int, name: str, actual: Dict[str, str],
                      what: str, skip=()) -> None:
        expected = common.pinned_digests(world_seed, name)
        if expected is not None:
            expected = {k: v for k, v in expected.items() if k not in skip}
        actual = {k: v for k, v in actual.items() if k not in skip}
        bad = common.mismatches(expected, actual)
        self.op(not bad, f"{what} differs from the pinned digests: {bad}")

    def absorb(self, session: serving.Session) -> None:
        self.attempted += session.attempted
        self.failed += session.failed
        self.errors.extend(session.errors[:5])
        if not session.valid:
            self.failed += 1
            self.errors.append(
                f"load generator ran {session.gen_lag_p99_ms():.2f} ms late at "
                f"p99 (limit {serving.GEN_LAG_LIMIT_MS} ms): run invalid"
            )


# -- pipeline commands ------------------------------------------------------
def run_spec(scale: float, world_seed: int, out: Path, jobs: int = JOBS,
             trace: bool = False) -> Dict[str, Any]:
    json_path = out / "export.json"
    return {
        "mode": "run", "seed": world_seed, "scale": scale, "jobs": jobs,
        "trace": trace,
        "argv": ["run", "--scale", f"{scale:g}", "--seed", str(world_seed),
                 "-j", str(jobs), "--json", str(json_path),
                 "--sqlite", str(out / "export.db")],
        "asns_path": str(out / ASNS_FILE),
    }


def maintain_spec(scale: float, months: int, world_seed: int, out: Path,
                  jobs: int = JOBS, trace: bool = False) -> Dict[str, Any]:
    return {
        "mode": "maintain", "seed": world_seed, "scale": scale, "jobs": jobs,
        "trace": trace,
        "argv": ["maintain", "--scale", f"{scale:g}", "--seed", str(world_seed),
                 "--months", str(months), "-j", str(jobs), "--out", str(out)],
        "asns_path": str(out / ASNS_FILE),
    }


def setup_spec(scale: float, world_seed: int) -> Dict[str, Any]:
    return {"mode": "setup", "seed": world_seed, "scale": scale, "jobs": JOBS}


def run_digests(out: Path) -> Dict[str, str]:
    return common.export_digests(out / "export.json", out / "export.db")


def world_asns(out: Path) -> List[int]:
    return json.loads((out / ASNS_FILE).read_text(encoding="utf-8"))


def cached_export(scale: float, world_seed: int):
    """A ``repro run`` export for serving: (its directory, its digests).

    Built once per state of the program's sources (the cache is keyed on
    their fingerprint), so a changed program is always served, and checked,
    with its own output.
    """
    name = f"run-s{scale:g}"
    prefix = f"{world_seed}-{name}-"
    exports = common.WORK / "exports"
    out = exports / (prefix + common.source_fingerprint())
    if not (out / "digests.json").exists():
        exports.mkdir(parents=True, exist_ok=True)
        for stale in exports.glob(prefix + "*"):
            shutil.rmtree(stale, ignore_errors=True)
        tmp = common.scratch_dir("build-")
        try:
            built = tmp / "export"
            built.mkdir()
            common.run_child(run_spec(scale, world_seed, built), tmp)
            (built / "digests.json").write_text(json.dumps(run_digests(built)),
                                                encoding="utf-8")
            built.rename(out)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return out, json.loads((out / "digests.json").read_text(encoding="utf-8"))


# -- per-layer assembly -------------------------------------------------------
def _rows(child: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return child["trace"]["rows"]


def _sec(child, name: str) -> float:
    return _rows(child).get(name, {}).get("seconds", 0.0)


def _calls(child, name: str) -> int:
    return _rows(child).get(name, {}).get("calls", 0)


def _hits(child, name: str) -> float:
    return _rows(child).get(name, {}).get("hits", 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pipeline_layers(par: Dict[str, Any], ser: Dict[str, Any],
                    out: Path) -> Dict[str, float]:
    """Per-layer rows from the traced ``-j 2`` pass (``par``: coordinator-side
    layers, map walls, coverage) and the traced ``-j 1`` pass (``ser``: the
    layers that run inside pool workers at ``-j 2``, as serial self time)."""
    m: Dict[str, float] = {}
    m["world.generate_s"] = _sec(par, "world.generate")
    m["world.ases"] = par["trace"]["extra"].get("world_ases", 0)
    m["sources.from_world_s"] = _sec(par, "sources.from_world")
    m["sources.find_documents_s"] = _sec(ser, "sources.find_documents")
    m["sources.find_documents_calls"] = _calls(ser, "sources.find_documents")
    m["sources.find_documents.hit_ratio"] = _ratio(
        _hits(ser, "sources.find_documents"), _calls(ser, "sources.find_documents"))
    m["text.name_similarity_calls"] = _calls(ser, "text.name_similarity")
    m["text.name_similarity_s"] = _sec(ser, "text.name_similarity")
    for row in ("candidates", "map_asn", "explore", "expand"):
        m[f"core.{row}_s"] = _sec(par, f"core.{row}")
    m["core.map_asn_calls"] = _calls(par, "core.map_asn")
    m["core.investigate_s"] = _sec(ser, "core.investigate")
    m["core.investigate_calls"] = _calls(ser, "core.investigate")
    m["cti.stage_s"] = _sec(par, "cti.stage")
    m["cti.index_s"] = _sec(ser, "cti.index")
    m["cti.score_s"] = _sec(ser, "cti.score")
    m["cti.origins_walked"] = ser["counters"].get("cti.origins_walked", 0)
    m["cti.transit_terms"] = _hits(ser, "cti.walk")
    m["net.propagate_s"] = _sec(ser, "net.propagate")
    m["net.propagate_calls"] = _calls(ser, "net.propagate")
    m["net.path_calls"] = _calls(ser, "net.path")
    m["net.walk_s"] = max(0.0, _sec(ser, "net.path") - _sec(ser, "net.propagate"))
    m["net.paths_per_tree"] = _ratio(m["net.path_calls"], m["net.propagate_calls"])
    par_maps = par["trace"]["extra"]["map_s"]
    ser_maps = dict(ser["trace"]["extra"]["map_s"])
    # The serial path walks CTI origins inline rather than through a map.
    ser_maps["cti.terms"] = _sec(ser, "cti.precompute")
    for label in MAP_LABELS:
        wall = par_maps.get(label, 0.0)
        m[f"parallel.map_s.{label}"] = wall
        serial = ser_maps.get(label, 0.0)
        m[f"parallel.efficiency.{label}"] = _ratio(serial, JOBS * wall)
    m["parallel.pool_spawns"] = par["counters"].get("parallel.pool_spawns", 0)
    m["parallel.worker_rss_peak_mb"] = par["worker_rss_mb"]
    m["io.dump_json_s"] = _sec(par, "io.dump_json")
    m["io.dump_cti_json_s"] = _sec(par, "io.dump_cti_json")
    m["io.sqlite_s"] = _sec(par, "io.sqlite")
    m["io.bytes_written"] = sum(p.stat().st_size for p in out.rglob("*")
                                if p.is_file() and p.name != ASNS_FILE)
    samples = _rows(par).get("incremental.snapshot", {}).get("samples", [])
    m["incremental.snapshot_s.cold"] = samples[0] if samples else 0.0
    m["incremental.snapshot_s.warm"] = (
        sum(samples[1:]) / len(samples[1:]) if len(samples) > 1 else 0.0)
    warm_reuse = par["trace"]["extra"]["reused_fraction"][1:]
    m["incremental.reused_fraction"] = (
        sum(warm_reuse) / len(warm_reuse) if warm_reuse else 0.0)
    m["cache.get_s"] = _sec(par, "cache.get")
    m["cache.put_s"] = _sec(par, "cache.put")
    m["cache.hits"] = _hits(par, "cache.get")
    m["cache.misses"] = _calls(par, "cache.get") - _hits(par, "cache.get")
    covered = par["import_s"] + par["trace"]["covered_s"]
    m["coverage.frac"] = _ratio(covered, par["run_s"])
    m["untraced_s"] = max(0.0, par["run_s"] - covered)
    # What the wrappers add: every pass through one (all of them happen in
    # the -j 1 pass's single process) times the cost of a pass, measured
    # here.  Differencing a traced and an untraced run would bury this
    # under the host's run-to-run drift.
    m["trace_overhead_s"] = ser["trace"]["entries"] * tracer.wrapper_cost_s()
    return m


# -- workloads ----------------------------------------------------------------
class Workload:
    name = ""

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.world_seed = common.world_seed_for(seed)
        self.rng = random.Random(seed)

    def run(self, trace: bool, tmp: Path) -> Result:
        raise NotImplementedError


class PipelineWorkload(Workload):
    """A cold pipeline command, then a short serve session on its output."""

    scale = 1.0
    #: Set-up samples taken alone, besides the one inside the command.
    extra_setups = 4
    check_coverage = False
    plan = serving.Plan(rounds=5, open_n=2000, closed_n=3000)

    def spec(self, out: Path, jobs: int = JOBS, trace: bool = False):
        raise NotImplementedError

    def digests(self, out: Path) -> Dict[str, str]:
        raise NotImplementedError

    def served(self, out: Path):
        """(primary export, hot-swap export or None) for the serve session."""
        raise NotImplementedError

    def command(self, res: Result, tmp: Path, jobs: int = JOBS,
                trace: bool = False) -> Dict[str, Any]:
        out = tmp / f"out-j{jobs}-{'t' if trace else 'u'}"
        out.mkdir()
        child = common.run_child(self.spec(out, jobs, trace), tmp)
        child["out"] = out
        # Exports are backend-independent; the maintain manifest's reuse
        # accounting is not, so a -j 1 pass leaves it out.
        res.check_digests(self.world_seed, self.name, self.digests(out),
                          f"{self.name} -j {jobs} output",
                          skip=("manifest",) if jobs != JOBS else ())
        return child

    def run(self, trace: bool, tmp: Path) -> Result:
        res = Result(params={"scale": self.scale, "jobs": JOBS,
                             "world_seed": self.world_seed})
        if not trace:
            spec = setup_spec(self.scale, self.world_seed)

            def setups(n: int) -> List[float]:
                return [common.run_child(spec, tmp)["setup_s"] for _ in range(n)]

            # Half the set-up samples come before the command and half after
            # its serve session: the host's speed shifts for seconds at a
            # time, and samples spread over the run see the shifts the run
            # sees.
            before = setups(self.extra_setups // 2)
            child = self.command(res, tmp)
            session = serving.run_session(*self.served(child["out"]),
                                          world_asns(child["out"]), self.plan,
                                          self.rng, tmp)
            setup_samples = (before + [child["setup_s"]]
                             + setups(self.extra_setups - len(before)))
            res.absorb(session)
            res.metrics = {
                "run_s": child["run_s"],
                "setup_s": median(setup_samples),
                "rss_peak_mb": child["rss_mb"],
                "serve_qps": session.qps(),
                "serve_p50_ms": session.open_latency_ms(0.50),
            }
            res.info = {
                "serve_p99_ms": session.open_latency_ms(0.99),
                "worker_rss_peak_mb": child["worker_rss_mb"],
                "setup_samples": len(setup_samples),
                "serve_gen_lag_p99_ms": session.gen_lag_p99_ms(),
            }
            return res
        par = self.command(res, tmp, trace=True)
        ser = self.command(res, tmp, jobs=1, trace=True)
        res.metrics = pipeline_layers(par, ser, par["out"])
        if self.check_coverage and res.metrics["coverage.frac"] < MIN_COVERAGE:
            res.op(False, f"layer rows cover {res.metrics['coverage.frac']:.1%} "
                          f"of run_s (< {MIN_COVERAGE:.0%})")
        # The serve rows come from serve-s10; three passes of the command
        # already take most of a run's time limit here.
        return res


class RunS1(PipelineWorkload):
    name = "run-s1"
    check_coverage = True

    def spec(self, out, jobs=JOBS, trace=False):
        return run_spec(self.scale, self.world_seed, out, jobs, trace)

    def digests(self, out):
        return run_digests(out)

    def served(self, out):
        return out / "export.json", None


class MaintainS3(PipelineWorkload):
    name = "maintain-s3"
    scale = 3.0
    months = 4
    extra_setups = 2

    def spec(self, out, jobs=JOBS, trace=False):
        return maintain_spec(self.scale, self.months, self.world_seed, out, jobs, trace)

    def digests(self, out):
        return common.maintain_digests(out)

    def served(self, out):
        # The publish flow: serve the previous month, hot-swap to the last.
        snapshots = sorted(p for p in out.glob("snapshot-*.json")
                           if not p.name.endswith(".cti.json"))
        return snapshots[-2], snapshots[-1]


class ServeS10(Workload):
    """``repro serve`` on the scale-10 export, hot-swapping to scale 1."""

    name = "serve-s10"

    def run(self, trace: bool, tmp: Path) -> Result:
        primary_dir, primary_digests = cached_export(10.0, self.world_seed)
        swap_dir, swap_digests = cached_export(1.0, self.world_seed)
        primary = primary_dir / "export.json"
        swap_to = swap_dir / "export.json"
        # Short rounds of load on fresh servers fill about --seconds; the
        # median over rounds keeps a burst of host interference from
        # moving the result.
        plan = serving.Plan(rounds=max(3, round(self.seconds * 1.1)),
                            open_n=2000, closed_n=3000)
        res = Result(params={"open_rate": serving.OPEN_RATE, "rounds": plan.rounds,
                             "open_n": plan.open_n, "closed_n": plan.closed_n,
                             "world_seed": self.world_seed})
        res.check_digests(self.world_seed, "run-s10", primary_digests,
                          "served scale-10 export")
        res.check_digests(self.world_seed, "run-s1", swap_digests,
                          "hot-swapped scale-1 export")
        session = serving.run_session(primary, swap_to, world_asns(primary_dir),
                                      plan, self.rng, tmp)
        res.absorb(session)
        if not trace:
            res.metrics = {
                "run_s": session.closed_wall_s(),
                "setup_s": session.setup_s(),
                "rss_peak_mb": session.rss_peak_mb(),
                "serve_qps": session.qps(),
                "serve_p50_ms": session.open_latency_ms(0.50),
            }
            res.info = {
                "serve_p99_ms": session.open_latency_ms(0.99),
                "serve_gen_lag_p99_ms": session.gen_lag_p99_ms(),
            }
            return res
        # The pipeline layers stay idle (run.py reports their rows as 0).
        # The server carries no layer wrappers: none of its time is covered,
        # and tracing adds nothing to it.
        res.metrics = serving.layer_metrics(session, primary, swap_to, tmp)
        res.metrics["untraced_s"] = session.closed_wall_s()
        return res


WORKLOADS = {cls.name: cls for cls in (RunS1, ServeS10, MaintainS3)}
