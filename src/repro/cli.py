"""Command-line interface: ``python -m repro`` / ``state-owned-ases``.

Subcommands::

    generate   synthesize a world and print its ground-truth summary
    run        run the full pipeline and export the dataset (JSON/SQLite)
    report     run the pipeline and print the full evaluation report
    validate   run the pipeline and score it against the ground truth
    show       pretty-print organizations from a dataset file
    maintain   walk a monthly churn/snapshot sequence incrementally
    scenario   run adversarial scenario packs and assert expected shifts
    bench-diff compare committed BENCH_*.json trajectories for regressions

Examples::

    state-owned-ases run --scale 0.3 --json out.json --sqlite out.db
    state-owned-ases report --scale 0.3 > report.txt
    state-owned-ases show out.json --country NO
"""

from __future__ import annotations

import argparse
import sqlite3
import sys
from typing import List, Optional

from repro.config import ParallelConfig, WorldConfig
from repro.errors import ConfigError, DatasetError, ReproError
from repro.core import (
    PipelineInputs,
    StateOwnershipPipeline,
    validate_against_world,
)
from repro.parallel import (
    ExecutionContext,
    ResultCache,
    resolve_cache_dir,
)
from repro.resilience import FaultPlan, fault_plan_installed
from repro.world.worldcache import load_or_generate

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="state-owned-ases",
        description="Identify ASes of state-owned Internet operators "
        "(IMC 2021 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--seed", type=int, default=20210701, help="world seed (default: 20210701)"
        )
        p.add_argument(
            "--scale",
            type=float,
            default=0.3,
            help="world size multiplier (default: 0.3)",
        )

    def add_obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            action="store_true",
            help="print per-stage wall time and counters to stderr",
        )
        p.add_argument(
            "--log-json",
            metavar="PATH",
            help="append structured trace events as JSON-lines",
        )

    def add_resilience_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--inject-faults",
            metavar="SPEC",
            default=None,
            help="deterministic fault plan, e.g. "
            "'seed=42;source.orbis=fatal;cache.get=corrupt' "
            "(default: $REPRO_FAULTS)",
        )
        p.add_argument(
            "--fail-fast",
            action="store_true",
            help="abort on the first source failure instead of " "degrading the run",
        )

    def add_parallel_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            "-j",
            type=int,
            default=None,
            metavar="N",
            help="worker count: 1 runs serially, more on a process pool "
            "(0 = all cores; default: $REPRO_JOBS or 1)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the persistent result cache "
            "($REPRO_CACHE_DIR, default ~/.cache/repro)",
        )

    p_generate = sub.add_parser(
        "generate", help="synthesize a world and summarize its ground truth"
    )
    add_world_args(p_generate)

    p_run = sub.add_parser("run", help="run the pipeline and export the dataset")
    add_world_args(p_run)
    add_obs_args(p_run)
    add_parallel_args(p_run)
    add_resilience_args(p_run)
    p_run.add_argument("--json", metavar="PATH", help="write dataset JSON")
    p_run.add_argument("--sqlite", metavar="PATH", help="write dataset SQLite")
    p_run.add_argument(
        "--cti-json",
        metavar="PATH",
        help="write the CTI rankings sidecar (default with " "--json: <PATH>.cti.json)",
    )

    p_report = sub.add_parser(
        "report", help="run the pipeline and print the evaluation report"
    )
    add_world_args(p_report)
    add_obs_args(p_report)
    add_parallel_args(p_report)
    add_resilience_args(p_report)

    p_validate = sub.add_parser(
        "validate", help="run the pipeline and score against ground truth"
    )
    add_world_args(p_validate)
    add_obs_args(p_validate)
    add_parallel_args(p_validate)
    add_resilience_args(p_validate)

    p_show = sub.add_parser("show", help="print organizations from a dataset")
    p_show.add_argument("path", help="dataset .json or .db/.sqlite file")
    p_show.add_argument(
        "--country", metavar="CC", help="filter by operating country code"
    )

    p_churn = sub.add_parser(
        "churn", help="simulate ownership churn and measure dataset ageing"
    )
    add_world_args(p_churn)
    p_churn.add_argument(
        "--years", type=int, default=5, help="years of churn to simulate (default: 5)"
    )

    p_plan = sub.add_parser(
        "plan", help="run the pipeline and print a re-verification plan"
    )
    add_world_args(p_plan)
    p_plan.add_argument(
        "--top",
        type=int,
        default=15,
        help="number of organizations to list (default: 15)",
    )

    p_profile = sub.add_parser(
        "profile", help="run the pipeline and print one country's dossier"
    )
    add_world_args(p_profile)
    p_profile.add_argument("cc", help="ISO-3166 country code, e.g. NO")

    p_serve = sub.add_parser(
        "serve",
        help="serve a dataset over HTTP/JSON with hot-swap snapshot reload",
    )
    p_serve.add_argument("path", help="dataset .json file (a --json export)")
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8645, help="TCP port (default: 8645; 0 = ephemeral)"
    )
    p_serve.add_argument(
        "--cti",
        metavar="PATH",
        default=None,
        help="CTI rankings sidecar (default: " "<dataset>.cti.json when present)",
    )
    p_serve.add_argument(
        "--poll-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="snapshot change-poll interval (default: 2.0)",
    )

    p_maintain = sub.add_parser(
        "maintain",
        help="walk a monthly churn/snapshot sequence with incremental "
        "recompute, exporting one dataset per month",
    )
    add_world_args(p_maintain)
    add_obs_args(p_maintain)
    add_parallel_args(p_maintain)
    add_resilience_args(p_maintain)
    p_maintain.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="directory for snapshot exports and the " "MAINTAIN.json manifest",
    )
    p_maintain.add_argument(
        "--months", type=int, default=6, help="number of monthly snapshots (default: 6)"
    )
    p_maintain.add_argument(
        "--start-year",
        type=int,
        default=2021,
        help="calendar year of the first snapshot " "(default: 2021)",
    )
    p_maintain.add_argument(
        "--start-month",
        type=int,
        default=7,
        help="calendar month of the first snapshot, " "1-12 (default: 7)",
    )
    p_maintain.add_argument(
        "--cold",
        action="store_true",
        help="recompute every snapshot from scratch "
        "(the incremental engine's baseline)",
    )
    p_maintain.add_argument(
        "--verify",
        action="store_true",
        help="cold-recompute each snapshot and fail "
        "unless the exports are byte-identical",
    )
    p_maintain.add_argument(
        "--publish",
        metavar="PATH",
        default=None,
        help="atomically install the newest snapshot "
        "(and sidecar) at PATH for `repro serve` "
        "hot swap",
    )

    p_scenario = sub.add_parser(
        "scenario",
        help="run adversarial scenario packs (depeering, leaks, hijacks, "
        "re-homing, privatization) and assert their expected shifts",
    )
    add_world_args(p_scenario)
    add_obs_args(p_scenario)
    add_parallel_args(p_scenario)
    p_scenario.add_argument(
        "packs", nargs="*", metavar="PACK", help="pack names to run (default: all)"
    )
    p_scenario.add_argument(
        "--list",
        action="store_true",
        dest="list_packs",
        help="list available packs and exit",
    )
    p_scenario.add_argument(
        "--json", metavar="PATH", help="write the canonical scenario report JSON"
    )

    p_bench_diff = sub.add_parser(
        "bench-diff",
        help="compare the last two records of each BENCH_*.json trajectory "
        "and fail on perf regressions",
    )
    p_bench_diff.add_argument(
        "--dir",
        default=".",
        metavar="PATH",
        help="directory holding BENCH_*.json files (default: .)",
    )
    p_bench_diff.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="FRACTION",
        help="relative regression gate on tracked metrics (default: 0.20)",
    )
    p_bench_diff.add_argument(
        "--trend",
        action="store_true",
        help="report full multi-point trajectories (first/last/best/worst, "
        "slope, sparkline) instead of gating the last pair",
    )
    p_bench_diff.add_argument(
        "--pattern",
        default=None,
        metavar="GLOB",
        help="trajectory file glob relative to --dir "
        "(default: BENCH_*.json); lets a CI job gate one suite",
    )
    return parser


def _make_world(args: argparse.Namespace, cache: Optional[ResultCache] = None):
    """Generate (or load from the blob cache) the configured world.

    Delegates to :func:`repro.world.worldcache.load_or_generate`, the
    shared load-or-generate path also used by the test fixtures and CI.
    """
    config = WorldConfig(seed=args.seed, scale=args.scale)
    return load_or_generate(config, cache=cache)


def _run_pipeline(
    world,
    parallel: Optional[ParallelConfig] = None,
    fail_fast: bool = False,
    context: Optional[ExecutionContext] = None,
):
    inputs = PipelineInputs.from_world(world, fail_fast=fail_fast)
    result = StateOwnershipPipeline(
        inputs, parallel=parallel, fail_fast=fail_fast, context=context
    ).run()
    return inputs, result


#: Counters surfaced in the ``--trace`` end-of-run summary.
_SUMMARY_COUNTERS = (
    "cache.hits",
    "cache.misses",
    "cache.writes",
    "cache.corrupt",
    "cache.bytes_read",
    "cache.bytes_written",
    "parallel.pool_spawns",
    "parallel.pool_reuse",
    "parallel.state_ships",
    "parallel.pool_restarts",
    "parallel.requeued_tasks",
    "world.gen.renames",
    "runtime.state_bytes",
    "runtime.shm_bytes",
    "runtime.shm_segments",
    "runtime.attach",
    "cti.country_shards",
    "cti.terms_released",
)


def _peak_rss_gauges() -> dict:
    """Coordinator and reaped-children peak RSS, in bytes (Linux/mac)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return {}
    # ru_maxrss is KB on Linux, bytes on macOS; normalize to bytes.
    unit = 1 if sys.platform == "darwin" else 1024
    return {
        "runtime.peak_rss_bytes":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit,
        "runtime.peak_child_rss_bytes":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * unit,
    }


def _emit_run_summary() -> None:
    """Emit cache, worker-pool, and state-plane telemetry to the trace sink."""
    from repro.obs import get_metrics, get_sink

    sink = get_sink()
    if not getattr(sink, "enabled", False):
        return
    metrics = get_metrics()
    counters = {
        name: metrics.counter(name)
        for name in _SUMMARY_COUNTERS
        if metrics.counter(name)
    }
    gauges = _peak_rss_gauges()
    shm_live = metrics.gauge_value("runtime.shm_bytes_live")
    if shm_live:
        gauges["runtime.shm_bytes_live"] = shm_live
    sink.emit(
        {
            "event": "summary",
            "name": "run.summary",
            "depth": 0,
            "counters": counters,
            "gauges": gauges,
        }
    )


def _make_parallel_config(args: argparse.Namespace) -> ParallelConfig:
    """Resolve --jobs/--no-cache plus REPRO_* env fallbacks."""
    context = ExecutionContext.resolve(jobs=getattr(args, "jobs", None))
    cache_dir = None if getattr(args, "no_cache", False) else resolve_cache_dir()
    return ParallelConfig(
        jobs=context.jobs,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # A plan given with --inject-faults is active (and exported to pool
    # workers through REPRO_FAULTS) for this command only.
    spec = getattr(args, "inject_faults", None)
    try:
        plan = FaultPlan.parse(spec) if spec else None
    except ConfigError as exc:
        print(f"error: bad fault plan: {exc}", file=sys.stderr)
        return 2

    configured = bool(getattr(args, "trace", False) or getattr(args, "log_json", None))
    if configured:
        from repro.obs import configure
        try:
            configure(trace=bool(args.trace), log_json=args.log_json)
        except OSError as exc:
            print(
                f"error: cannot open trace log {args.log_json}: {exc}",
                file=sys.stderr,
            )
            return 2
    try:
        with fault_plan_installed(plan):
            return _dispatch(args)
    finally:
        if configured:
            from repro.obs import set_sink
            # Restore the no-op sink and flush/close any JSON-lines file.
            set_sink(None).close()


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        world = _make_world(args)
        truth = world.ground_truth()
        foreign = sum(1 for g in truth if g.is_foreign_subsidiary)
        print(f"ASes in topology:        {len(world.graph)}")
        print(f"state-owned operators:   {len(truth)} ({foreign} foreign)")
        print(f"state-owned ASNs:        {len(world.ground_truth_asns())}")
        print(f"owner countries:         {len(world.state_owned_countries())}")
        print(f"transit-dominant ccs:    {len(world.transit_dominant_ccs)}")
        return 0

    if args.command in ("run", "report", "validate"):
        try:
            parallel = _make_parallel_config(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cache = ResultCache(parallel.cache_dir) if parallel.cache_dir else None
        # One execution context (and therefore one worker pool) serves
        # every pipeline stage; world generation runs serially.
        with ExecutionContext(jobs=parallel.jobs) as context:
            world = _make_world(args, cache=cache)
            try:
                inputs, result = _run_pipeline(
                    world, parallel, args.fail_fast, context
                )
            except ReproError as exc:
                # fail-fast aborts (and genuinely unrecoverable source
                # failures) land here; degraded runs never do.
                print(f"error: pipeline aborted: {exc}", file=sys.stderr)
                return 3
        if result.degraded_sources:
            names = ", ".join(sorted(s.name for s in result.degraded_sources))
            print(
                f"warning: degraded run — quarantined sources: {names}",
                file=sys.stderr,
            )
        if args.command == "run":
            print(
                f"confirmed {result.stats['confirmed_companies']:.0f} "
                f"companies owning "
                f"{result.stats['state_owned_asns']:.0f} ASNs "
                f"({result.stats['foreign_subsidiary_asns']:.0f} foreign)"
            )
            if args.json:
                from repro.io.jsonio import dump_json
                dump_json(result.dataset, args.json)
                print(f"wrote {args.json}")
            cti_json = args.cti_json
            if cti_json is None and args.json:
                # The serve reloader looks for this sidecar by convention.
                cti_json = f"{args.json}.cti.json"
            if cti_json and result.cti_selection is not None:
                from repro.io.jsonio import dump_cti_json
                dump_cti_json(result.cti_selection, cti_json)
                print(f"wrote {cti_json}")
            if args.sqlite:
                from repro.io.sqliteio import dataset_to_sqlite
                dataset_to_sqlite(result.dataset, args.sqlite)
                print(f"wrote {args.sqlite}")
        elif args.command == "report":
            from repro.analysis.report import full_report
            validation = validate_against_world(result, world)
            print(full_report(result, inputs, validation))
        else:
            print(validate_against_world(result, world).as_text())
        # Last, so the counters include export byte counts.
        _emit_run_summary()
        return 0

    if args.command == "churn":
        from repro.io.tables import render_table
        from repro.world.events import ageing_study

        world = _make_world(args)
        frozen = world.ground_truth_asns()
        rows = ageing_study(world, frozen, start_year=2021, years=args.years)
        print(
            render_table(
                (
                    "year",
                    "events",
                    "privatizations",
                    "nationalizations",
                    "new subsidiaries",
                    "precision",
                    "recall",
                ),
                [
                    (
                        r["year"],
                        r["events"],
                        r["privatizations"],
                        r["nationalizations"],
                        r["new_subsidiaries"],
                        r["precision"],
                        r["recall"],
                    )
                    for r in rows
                ],
                title="Frozen-snapshot decay under ownership churn",
            )
        )
        from repro.core.diffing import asn_churn_fraction
        evolved = world.ground_truth_asns()
        print(
            f"ASN churn after {args.years} years: "
            f"{asn_churn_fraction(frozen, evolved):.1%} of the frozen "
            f"snapshot's {len(frozen)} ASNs"
        )
        return 0

    if args.command == "plan":
        from repro.core.maintenance import plan_reverification
        from repro.io.tables import render_table

        world = _make_world(args)
        _inputs, result = _run_pipeline(world)
        plan = plan_reverification(result, limit=args.top)
        print(
            render_table(
                ("organization", "fragility", "reasons"),
                [
                    (
                        item.org_name[:40],
                        f"{item.fragility:.2f}",
                        "; ".join(item.reasons)[:70],
                    )
                    for item in plan
                ],
                title=f"Re-verification plan (top {args.top})",
            )
        )
        return 0

    if args.command == "profile":
        from repro.analysis.country_profile import (
            build_country_profile,
            profile_text,
        )

        world = _make_world(args)
        inputs, result = _run_pipeline(world)
        profile = build_country_profile(args.cc.upper(), result, inputs)
        print(profile_text(profile))
        return 0

    if args.command == "serve":
        from repro.serve import SnapshotStore, run_server

        store = SnapshotStore(args.path, cti_path=args.cti)
        try:
            store.load_initial()
        except ReproError as exc:
            print(
                f"error: cannot load dataset {args.path}: {exc}",
                file=sys.stderr,
            )
            return 2
        try:
            run_server(
                store,
                host=args.host,
                port=args.port,
                poll_interval=args.poll_interval,
                announce=print,
            )
        except KeyboardInterrupt:
            pass
        except OSError as exc:
            print(
                f"error: cannot bind {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 2
        return 0

    if args.command == "maintain":
        from repro.core.maintenance import run_maintenance

        try:
            parallel = _make_parallel_config(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cache = ResultCache(parallel.cache_dir) if parallel.cache_dir else None
        with ExecutionContext(jobs=parallel.jobs) as context:
            world = _make_world(args, cache=cache)
            try:
                report = run_maintenance(
                    world,
                    out_dir=args.out,
                    months=args.months,
                    start_year=args.start_year,
                    start_month=args.start_month,
                    parallel=parallel,
                    fail_fast=args.fail_fast,
                    context=context,
                    cache=cache,
                    cold=args.cold,
                    verify=args.verify,
                    publish=args.publish,
                )
            except ReproError as exc:
                print(f"error: maintain aborted: {exc}", file=sys.stderr)
                return 3
        print(report.as_text())
        print(f"wrote {report.manifest_path}")
        if report.published:
            print(f"published {report.published}")
        _emit_run_summary()
        return 0

    if args.command == "scenario":
        from repro.world.scenarios import all_pack_names, run_scenario_packs

        if args.list_packs:
            from repro.world.scenarios import SCENARIO_PACKS

            for pack in SCENARIO_PACKS:
                print(f"{pack.name:24s} {pack.description}")
            return 0
        try:
            parallel = _make_parallel_config(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cache = ResultCache(parallel.cache_dir) if parallel.cache_dir else None
        with ExecutionContext(jobs=parallel.jobs) as context:
            world = load_or_generate(
                WorldConfig(seed=args.seed, scale=args.scale), cache=cache
            )
            try:
                report = run_scenario_packs(
                    world, names=args.packs or None, context=context
                )
            except ReproError as exc:
                print(f"error: scenario run aborted: {exc}", file=sys.stderr)
                return 3
        print(report.as_text())
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
            print(f"wrote {args.json}")
        _emit_run_summary()
        return 0 if report.passed else 1

    if args.command == "bench-diff":
        from pathlib import Path

        from repro.bench.diff import DEFAULT_THRESHOLD, run_diff, run_trend

        threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
        root = Path(args.dir)
        if not root.is_dir():
            print(f"error: not a directory: {args.dir}", file=sys.stderr)
            return 2
        if args.trend:
            exit_code, report = run_trend(root, pattern=args.pattern)
        else:
            exit_code, report = run_diff(root, threshold=threshold, pattern=args.pattern)
        print(report)
        return exit_code

    if args.command == "show":
        try:
            if args.path.endswith(".json"):
                from repro.io.jsonio import load_json
                dataset = load_json(args.path)
            else:
                from repro.io.sqliteio import dataset_from_sqlite
                dataset = dataset_from_sqlite(args.path)
        except (DatasetError, OSError, sqlite3.Error) as exc:
            print(
                f"error: cannot read dataset {args.path}: {exc}",
                file=sys.stderr,
            )
            return 2
        for org in dataset.organizations():
            if args.country and org.operating_cc != args.country.upper():
                continue
            asns = ", ".join(str(a) for a in dataset.asns_of(org.org_id))
            marker = " [foreign]" if org.is_foreign_subsidiary else ""
            print(f"{org.org_name} ({org.ownership_cc}){marker}")
            print(f"  org_id:  {org.org_id}   rir: {org.rir}")
            print(f"  source:  {org.source}")
            print(f"  quote:   {org.quote}")
            print(f"  ASNs:    {asns or '(none)'}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
