"""The resilience layer: deterministic fault injection, scoped fault
plans, source quarantine, cache corruption, worker-crash requeue and
graceful source degradation."""

from __future__ import annotations

import copy
import json
import os
import pickle

import pytest

from repro.cli import main
from repro.config import WorldConfig
from repro.core.pipeline import PipelineInputs, StateOwnershipPipeline
from repro.errors import (
    ConfigError,
    InjectedFaultError,
    PipelineError,
    QuarantinedSourceError,
    ReproError,
    SourceError,
    WorkerCrashError,
)
from repro.io.jsonio import dataset_from_json, dataset_to_json
from repro.io.sqliteio import dataset_from_sqlite, dataset_to_sqlite
from repro.obs import get_metrics
from repro.parallel import ExecutionContext, ResultCache
from repro.resilience import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    QuarantinedSource,
    clear_fault_plan,
    fault_plan_installed,
    fault_point,
    get_fault_plan,
    install_fault_plan,
    mangle_text,
    worker_fault_point,
)
from repro.sources.base import InputSource
from repro.world.generator import WorldGenerator


@pytest.fixture(autouse=True)
def _no_fault_leakage():
    """Every test starts and ends without an active fault plan."""
    clear_fault_plan()
    yield
    clear_fault_plan()


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "seed=42;source.orbis=fatal;cache.get=corrupt:0.5;"
            "worker.confirmation=crash"
        )
        assert plan.seed == 42
        assert FaultPlan.parse(plan.as_text()).as_text() == plan.as_text()

    def test_parse_accepts_commas(self):
        plan = FaultPlan.parse("seed=1,source.a=fatal,source.b=corrupt:0.1")
        assert len(plan.specs) == 2

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("source.a=explode")
        with pytest.raises(ConfigError):
            FaultPlan.parse("just-a-word")
        with pytest.raises(ConfigError):
            FaultPlan.parse("seed=abc")
        with pytest.raises(ConfigError):
            FaultPlan.parse("source.a=corrupt:fast")
        assert FAULT_KINDS == ("fatal", "corrupt", "crash")
        # Unknown kinds are rejected with a message naming the valid ones.
        for kind in ("transient", "slow", "truncate"):
            with pytest.raises(ConfigError) as info:
                FaultPlan.parse(f"source.x={kind}")
            assert all(k in str(info.value) for k in FAULT_KINDS)
        assert main(["run", "--inject-faults", "source.x=transient"]) == 2

    def test_fatal_always_fires(self):
        plan = FaultPlan.parse("source.x=fatal")
        for _ in range(5):
            with pytest.raises(InjectedFaultError):
                plan.before("source.x")

    def test_site_globs(self):
        plan = FaultPlan.parse("source.*=fatal")
        with pytest.raises(InjectedFaultError):
            plan.before("source.orbis")
        plan.before("cache.get")  # unaffected

    def test_mangle_is_deterministic(self):
        text = json.dumps({"k": list(range(50))})
        a = FaultPlan.parse("seed=5;cache.get=corrupt")
        b = FaultPlan.parse("seed=5;cache.get=corrupt")
        assert a.mangle("cache.get", text) == b.mangle("cache.get", text)
        assert a.mangle("cache.get", text) != text

    def test_zero_probability_never_mangles(self):
        plan = FaultPlan.parse("seed=5;cache.get=corrupt:0")
        assert plan.mangle("cache.get", "payload") == "payload"

    def test_crash_only_on_first_delivery(self):
        plan = FaultPlan.parse("worker.x=crash:1")
        assert not plan.crash_due("worker.x", attempt=1)
        assert plan.crash_due("worker.x", attempt=0)
        assert not plan.crash_due("worker.x", attempt=0)  # budget spent

    def test_worker_fault_point_is_noop_in_parent(self):
        # A crash fault must never _exit the coordinating process.
        install_fault_plan(FaultPlan.parse("worker.x=crash"))
        worker_fault_point("worker.x", 0)  # would os._exit in a worker

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=9;source.x=fatal")
        clear_fault_plan()
        plan = get_fault_plan()
        assert plan is not None and plan.seed == 9

    def test_installed_plan_is_scoped(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=9;source.x=fatal")
        clear_fault_plan()
        env_plan = get_fault_plan()
        scoped = FaultPlan.parse("seed=3;source.y=fatal")
        with fault_plan_installed(scoped):
            assert get_fault_plan() is scoped
            assert os.environ["REPRO_FAULTS"] == scoped.as_text()
        assert get_fault_plan() is env_plan
        assert os.environ["REPRO_FAULTS"] == "seed=9;source.x=fatal"
        # No plan leaves the active one alone (a pack without faults must
        # not drop the environment's plan for the rest of the process).
        with fault_plan_installed(None):
            assert get_fault_plan() is env_plan
        assert get_fault_plan() is env_plan

    def test_cli_plan_does_not_leak_into_next_command(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        run = ["run", "--scale", "0.05", "--seed", "5", "--no-cache"]
        faulted, clean = tmp_path / "faulted.json", tmp_path / "clean.json"
        plan = ["--inject-faults", "seed=9;source.orbis=fatal"]
        assert main([*run, *plan, "--json", str(faulted)]) == 0
        assert "REPRO_FAULTS" not in os.environ
        assert main([*run, "--json", str(clean)]) == 0
        assert json.loads(faulted.read_text())["degraded_sources"] == ["O"]
        assert json.loads(clean.read_text())["degraded_sources"] == []


    def test_as_text_fills_default_params(self):
        plan = FaultPlan.parse("source.a=fatal;cache.get=corrupt;worker.x=crash")
        assert plan.as_text() == (
            "seed=0;source.a=fatal:0;cache.get=corrupt:1;worker.x=crash:1"
        )

    def test_parse_skips_blank_entries_and_whitespace(self):
        plan = FaultPlan.parse(" ;seed=3;; source.a = fatal ;")
        assert plan.seed == 3
        assert plan.specs == (FaultSpec(site="source.a", kind="fatal", param=0.0),)

    def test_empty_plan_is_inert(self):
        plan = FaultPlan.parse("")
        assert plan.specs == () and plan.seed == 0
        plan.before("source.x")
        assert plan.mangle("cache.get", "payload") == "payload"
        assert not plan.crash_due("worker.x", attempt=0)

    def test_negative_param_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("cache.get=corrupt:-0.5")
        with pytest.raises(ConfigError):
            FaultSpec(site="worker.x", kind="crash", param=-1)

    @pytest.mark.parametrize("kind", ["transient", "slow", "truncate", "Fatal"])
    def test_spec_rejects_unknown_kind(self, kind):
        with pytest.raises(ConfigError) as info:
            FaultSpec(site="source.x", kind=kind, param=0)
        assert all(k in str(info.value) for k in FAULT_KINDS)

    def test_fatal_counts_calls_per_site(self):
        plan = FaultPlan.parse("source.*=fatal")
        before = get_metrics().counter("resilience.faults.injected")
        messages = []
        for site in ("source.a", "source.a", "source.b"):
            with pytest.raises(InjectedFaultError) as info:
                plan.before(site)
            messages.append(str(info.value))
        assert messages == [
            "injected fatal fault at source.a (call #0)",
            "injected fatal fault at source.a (call #1)",
            "injected fatal fault at source.b (call #0)",
        ]
        assert get_metrics().counter("resilience.faults.injected") == before + 3

    def test_before_ignores_other_kinds(self):
        plan = FaultPlan.parse("source.x=corrupt;source.x=crash")
        plan.before("source.x")  # only fatal raises

    def test_site_globs_are_case_sensitive(self):
        plan = FaultPlan.parse("worker.*=crash;source.orbis=fatal")
        assert plan.crash_due("worker.cti.terms", attempt=0)
        plan.before("source.ORBIS")  # no match
        plan.before("source.orbis2")  # a plain name is not a prefix
        with pytest.raises(InjectedFaultError):
            plan.before("source.orbis")

    def test_mangle_garbles_one_character(self):
        text = json.dumps({"k": list(range(50))})
        mangled = FaultPlan.parse("seed=5;cache.get=corrupt").mangle("cache.get", text)
        assert "\x00garbage\x00" in mangled
        assert len(mangled) == len(text) - 1 + len("\x00garbage\x00")
        with pytest.raises(ValueError):
            json.loads(mangled)

    def test_mangle_leaves_other_sites_and_empty_text_alone(self):
        plan = FaultPlan.parse("seed=5;cache.get=corrupt")
        before = get_metrics().counter("resilience.faults.mangled")
        assert plan.mangle("cache.put", "payload") == "payload"
        assert plan.mangle("cache.get", "") == ""
        assert get_metrics().counter("resilience.faults.mangled") == before
        plan.mangle("cache.get", "payload")
        assert get_metrics().counter("resilience.faults.mangled") == before + 1

    def test_partial_corruption_replays_per_seed(self):
        def pattern(seed):
            plan = FaultPlan.parse(f"seed={seed};cache.get=corrupt:0.5")
            return [
                plan.mangle("cache.get", "payload-text") != "payload-text"
                for _ in range(40)
            ]

        first = pattern(5)
        assert first == pattern(5)
        assert 0 < sum(first) < len(first)
        assert first != pattern(6)

    def test_crash_budget_counts_first_deliveries(self):
        plan = FaultPlan.parse("worker.x=crash:2")
        due = [plan.crash_due("worker.x", attempt=0) for _ in range(4)]
        assert due == [True, True, False, False]

    def test_requeued_delivery_spends_no_budget(self):
        plan = FaultPlan.parse("worker.x=crash:1")
        assert not plan.crash_due("worker.x", attempt=1)
        assert not plan.crash_due("worker.x", attempt=2)
        assert plan.crash_due("worker.x", attempt=0)

    def test_zero_crash_budget_never_fires(self):
        plan = FaultPlan.parse("worker.x=crash:0")
        assert not plan.crash_due("worker.x", attempt=0)
        assert not FaultPlan.parse("worker.y=crash").crash_due("worker.x", attempt=0)


class TestFaultHooks:
    def test_hooks_are_inert_without_a_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        clear_fault_plan()
        assert get_fault_plan() is None
        fault_point("source.orbis")
        assert mangle_text("cache.get", "payload") == "payload"
        worker_fault_point("worker.x", 0)

    def test_fault_point_raises_a_source_error(self):
        install_fault_plan(FaultPlan.parse("source.orbis=fatal"))
        with pytest.raises(SourceError):
            fault_point("source.orbis")
        fault_point("source.whois")  # unmatched site
        assert mangle_text("cache.get", "payload") == "payload"

    def test_environment_is_read_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=9;source.x=fatal")
        clear_fault_plan()
        plan = get_fault_plan()
        monkeypatch.setenv("REPRO_FAULTS", "seed=10;source.x=fatal")
        assert get_fault_plan() is plan
        clear_fault_plan()
        assert get_fault_plan().seed == 10

    def test_installing_none_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=9;source.x=fatal")
        install_fault_plan(None)
        assert get_fault_plan() is None
        fault_point("source.x")
        clear_fault_plan()
        assert get_fault_plan().seed == 9

    def test_installed_plan_restored_after_an_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        install_fault_plan(None)
        with pytest.raises(InjectedFaultError):
            with fault_plan_installed(FaultPlan.parse("source.x=fatal")):
                fault_point("source.x")
        assert get_fault_plan() is None
        assert "REPRO_FAULTS" not in os.environ

    def test_nested_installed_plans_unwind_in_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        outer = FaultPlan.parse("seed=1;source.a=fatal")
        inner = FaultPlan.parse("seed=2;source.b=fatal")
        with fault_plan_installed(outer):
            with fault_plan_installed(inner):
                assert get_fault_plan() is inner
                assert os.environ["REPRO_FAULTS"] == inner.as_text()
            assert get_fault_plan() is outer
            assert os.environ["REPRO_FAULTS"] == outer.as_text()
        assert "REPRO_FAULTS" not in os.environ


class TestQuarantinedSource:
    def test_quarantined_source_fails_loudly(self):
        stub = QuarantinedSource("source.orbis")
        with pytest.raises(QuarantinedSourceError):
            stub.state_owned_telcos()
        # Dunder protocol must stay intact (pickle/copy/introspection).
        assert isinstance(pickle.loads(pickle.dumps(stub)), QuarantinedSource)

    def test_error_names_site_and_query(self):
        stub = QuarantinedSource("source.orbis")
        with pytest.raises(SourceError) as info:
            stub.state_owned_telcos
        assert "'source.orbis'" in str(info.value)
        assert "'state_owned_telcos'" in str(info.value)
        assert repr(stub) == "QuarantinedSource('source.orbis')"

    def test_dunder_lookups_stay_attribute_errors(self):
        stub = QuarantinedSource("source.eyeballs")
        assert not hasattr(stub, "__len__")
        assert isinstance(copy.copy(stub), QuarantinedSource)
        assert isinstance(copy.deepcopy(stub), QuarantinedSource)

    def test_error_hierarchy(self):
        # Pipeline code catches SourceError alone: injected faults and
        # quarantined queries must both be caught by it.
        assert issubclass(InjectedFaultError, SourceError)
        assert issubclass(QuarantinedSourceError, SourceError)
        assert issubclass(WorkerCrashError, ReproError)
        assert not issubclass(WorkerCrashError, SourceError)


class TestCacheCorruption:
    def test_corrupt_entry_evicted_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cti", "k1", {"x": 1.5})
        path = tmp_path / "cti" / "k1.json"
        path.write_text("{\"x\": 1.5")  # truncated mid-write
        before = get_metrics().counter("cache.corrupt")
        assert cache.get("cti", "k1") is None
        assert not path.exists()
        assert get_metrics().counter("cache.corrupt") == before + 1
        # The eviction makes the next put/get cycle clean again.
        cache.put("cti", "k1", {"x": 2.5})
        assert cache.get("cti", "k1") == {"x": 2.5}

    def test_injected_corruption_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cti", "k1", {"x": list(range(40))})
        install_fault_plan(FaultPlan.parse("seed=3;cache.get=corrupt"))
        assert cache.get("cti", "k1") is None

    def test_persistent_read_failure_bypasses(self, tmp_path):
        # An unreadable entry is an evicted miss, read once, not retried.
        cache = ResultCache(tmp_path)
        cache.put("cti", "k1", {"x": 1})
        cache.put_blob("world", "k2", b"payload")
        install_fault_plan(FaultPlan.parse("cache.get=fatal"))
        metrics = get_metrics()
        corrupt = metrics.counter("cache.corrupt")
        misses = metrics.counter("cache.misses")
        assert cache.get("cti", "k1") is None
        assert cache.get_blob("world", "k2") is None
        assert metrics.counter("cache.misses") == misses + 2
        assert metrics.counter("cache.corrupt") == corrupt + 2
        assert cache.stats()["cti"]["entries"] == 0
        assert cache.stats()["world"]["blobs"] == 0
        clear_fault_plan()
        # Bytes that are not UTF-8 are unreadable too.
        (tmp_path / "cti" / "k3.json").write_bytes(b"\xff\xfe{")
        assert cache.get("cti", "k3") is None
        assert not (tmp_path / "cti" / "k3.json").exists()
        # A failed write is swallowed and counted.
        install_fault_plan(FaultPlan.parse("cache.put=fatal"))
        errors = metrics.counter("cache.write_errors")
        cache.put("cti", "k4", {"x": 4})
        cache.put_blob("world", "k5", b"payload")
        assert metrics.counter("cache.write_errors") == errors + 2


    def test_non_object_payload_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cti", "k1", {"x": 1})
        path = tmp_path / "cti" / "k1.json"
        path.write_text("[1, 2, 3]")
        before = get_metrics().counter("cache.corrupt")
        assert cache.get("cti", "k1") is None
        assert not path.exists()
        assert get_metrics().counter("cache.corrupt") == before + 1

    def test_absent_entry_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        metrics = get_metrics()
        corrupt = metrics.counter("cache.corrupt")
        misses = metrics.counter("cache.misses")
        assert cache.get("cti", "nope") is None
        assert cache.get_blob("world", "nope") is None
        assert metrics.counter("cache.misses") == misses + 2
        assert metrics.counter("cache.corrupt") == corrupt

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[:-1],  # truncated payload
            lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]),  # flipped bit
            lambda raw: b"XXXX" + raw[4:],  # bad magic
            lambda raw: raw[:10],  # truncated header
        ],
        ids=["truncated", "bit-flip", "bad-magic", "short-header"],
    )
    def test_damaged_blob_evicted_and_counted(self, tmp_path, damage):
        cache = ResultCache(tmp_path)
        cache.put_blob("world", "k1", b"payload" * 10)
        path = tmp_path / "world" / "k1.bin"
        path.write_bytes(damage(path.read_bytes()))
        before = get_metrics().counter("cache.corrupt")
        assert cache.get_blob("world", "k1") is None
        assert not path.exists()
        assert get_metrics().counter("cache.corrupt") == before + 1
        cache.put_blob("world", "k1", b"fresh")
        assert cache.get_blob("world", "k1") == b"fresh"

    def test_failed_write_keeps_the_previous_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cti", "k1", {"x": 1})
        cache.put_blob("world", "k2", b"old")
        with fault_plan_installed(FaultPlan.parse("cache.put=fatal")):
            cache.put("cti", "k1", {"x": 2})
            cache.put_blob("world", "k2", b"new")
        assert cache.get("cti", "k1") == {"x": 1}
        assert cache.get_blob("world", "k2") == b"old"
        assert not list(tmp_path.rglob("*.tmp"))


def _square(state, item):
    """Module-level so the process backend can address it."""
    return item * item


class TestWorkerCrashRequeue:
    def test_crashed_chunks_are_requeued(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.square=crash:1")
        clear_fault_plan()  # workers (and we) re-read the environment
        items = list(range(12))
        before = get_metrics().counter("parallel.pool_restarts")
        with ExecutionContext(jobs=2) as context:
            results = context.map_ordered(_square, items, label="square", chunksize=3)
        assert results == [i * i for i in items]
        assert get_metrics().counter("parallel.pool_restarts") > before


class _DegradedRuns:
    """Shared world + clean baselines, built once per test session."""

    world = None
    clean = None


@pytest.fixture(scope="module")
def resilience_world():
    if _DegradedRuns.world is None:
        _DegradedRuns.world = WorldGenerator(WorldConfig.tiny()).generate()
    return _DegradedRuns.world


def _run(world, plan=None, skip=(), fail_fast=False):
    if plan is not None:
        install_fault_plan(FaultPlan.parse(plan))
    else:
        clear_fault_plan()
    try:
        inputs = PipelineInputs.from_world(world, fail_fast=fail_fast)
        pipeline = StateOwnershipPipeline(inputs, fail_fast=fail_fast)
        return pipeline.run(skip_sources=skip)
    finally:
        clear_fault_plan()


def _payload_without_provenance(result):
    payload = json.loads(dataset_to_json(result.dataset))
    payload.pop("degraded_sources")
    return payload


class TestGracefulDegradation:
    def test_clean_run_is_not_degraded(self, resilience_world):
        result = _run(resilience_world)
        assert result.degraded_sources == frozenset()
        assert not result.dataset.is_degraded
        assert result.stats["degraded_sources"] == 0

    def test_fatal_source_degrades_instead_of_failing(self, resilience_world):
        result = _run(resilience_world, plan="seed=42;source.orbis=fatal")
        assert result.degraded_sources == frozenset({InputSource.ORBIS})
        assert result.dataset.degraded_sources == ("O",)
        assert result.stats["degraded_sources"] == 1

    def test_degraded_equals_skip_run(self, resilience_world):
        degraded = _run(resilience_world, plan="seed=42;source.orbis=fatal")
        skipped = _run(resilience_world, skip=[InputSource.ORBIS])
        assert _payload_without_provenance(
            degraded
        ) == _payload_without_provenance(skipped)

    def test_degraded_run_replays_identically(self, resilience_world):
        first = _run(resilience_world, plan="seed=42;source.orbis=fatal")
        second = _run(resilience_world, plan="seed=42;source.orbis=fatal")
        assert dataset_to_json(first.dataset) == dataset_to_json(second.dataset)

    def test_geolocation_failure_cascades_to_cti(self, resilience_world):
        install_fault_plan(FaultPlan.parse("seed=1;source.geolocation=fatal"))
        try:
            inputs = PipelineInputs.from_world(resilience_world)
        finally:
            clear_fault_plan()
        assert inputs.degraded == frozenset({InputSource.GEOLOCATION, InputSource.CTI})
        assert inputs.degraded_sites == ("source.geolocation",)
        result = StateOwnershipPipeline(inputs).run()
        assert result.dataset.degraded_sources == ("C", "G")

    def test_fail_fast_aborts(self, resilience_world):
        with pytest.raises((InjectedFaultError, PipelineError)):
            _run(
                resilience_world,
                plan="seed=42;source.orbis=fatal",
                fail_fast=True,
            )

    def test_cli_fail_fast_exits_3(self, tmp_path):
        argv = ["run", "--scale", "0.05", "--seed", "5", "--no-cache"]
        plan = ["--inject-faults", "seed=9;source.orbis=fatal", "--fail-fast"]
        assert main([*argv, *plan, "--json", str(tmp_path / "x.json")]) == 3
        assert not (tmp_path / "x.json").exists()


    @pytest.mark.parametrize(
        "site, flags",
        [
            ("geolocation", ("C", "G")),
            ("eyeballs", ("E",)),
            ("orbis", ("O",)),
            ("wikipedia", ("W",)),
            ("cti", ("C",)),
        ],
    )
    def test_each_candidate_failure_equals_skip_run(
        self, resilience_world, site, flags
    ):
        degraded = _run(resilience_world, plan=f"seed=1;source.{site}=fatal")
        assert degraded.dataset.degraded_sources == flags
        skipped = _run(
            resilience_world, skip=[InputSource(code) for code in flags]
        )
        assert _payload_without_provenance(
            degraded
        ) == _payload_without_provenance(skipped)

    def test_freedomhouse_failure_thins_the_corpus(self, resilience_world):
        clean = PipelineInputs.from_world(resilience_world)
        install_fault_plan(FaultPlan.parse("seed=1;source.freedomhouse=fatal"))
        try:
            inputs = PipelineInputs.from_world(resilience_world)
        finally:
            clear_fault_plan()
        assert inputs.degraded == frozenset({InputSource.WIKIPEDIA_FH})
        assert isinstance(inputs.freedomhouse, QuarantinedSource)
        # Confirmation keeps running on the documents that remain.
        assert 0 < len(inputs.corpus) < len(clean.corpus)
        result = StateOwnershipPipeline(inputs).run()
        assert result.dataset.degraded_sources == ("W",)

    @pytest.mark.parametrize(
        "site", ["prefix2as", "whois", "peeringdb", "as2org", "corpus", "asrank"]
    )
    def test_infrastructure_failure_is_fatal(self, resilience_world, site):
        install_fault_plan(FaultPlan.parse(f"source.{site}=fatal"))
        try:
            with pytest.raises(InjectedFaultError, match=f"source.{site}"):
                PipelineInputs.from_world(resilience_world)
        finally:
            clear_fault_plan()

    def test_run_time_failure_with_fail_fast_aborts(self, resilience_world):
        inputs = PipelineInputs.from_world(resilience_world)
        install_fault_plan(FaultPlan.parse("seed=1;source.cti=fatal"))
        try:
            with pytest.raises(PipelineError, match="CTI"):
                StateOwnershipPipeline(inputs, fail_fast=True).run()
        finally:
            clear_fault_plan()

    def test_degraded_inputs_with_fail_fast_abort(self, resilience_world):
        install_fault_plan(FaultPlan.parse("seed=1;source.eyeballs=fatal"))
        try:
            inputs = PipelineInputs.from_world(resilience_world)
        finally:
            clear_fault_plan()
        with pytest.raises(PipelineError, match="EYEBALLS"):
            StateOwnershipPipeline(inputs, fail_fast=True).run()

    def test_required_source_failure_is_fatal(self, resilience_world):
        with pytest.raises(InjectedFaultError):
            _run(resilience_world, plan="seed=42;source.whois=fatal")

    def test_provenance_survives_json_round_trip(self, resilience_world):
        result = _run(resilience_world, plan="seed=42;source.orbis=fatal")
        loaded = dataset_from_json(dataset_to_json(result.dataset))
        assert loaded.degraded_sources == ("O",)
        assert loaded.is_degraded

    def test_provenance_survives_sqlite_round_trip(self, resilience_world, tmp_path):
        result = _run(resilience_world, plan="seed=42;source.orbis=fatal")
        path = tmp_path / "degraded.db"
        dataset_to_sqlite(result.dataset, path)
        assert dataset_from_sqlite(path).degraded_sources == ("O",)

    def test_quarantine_metrics_flow(self, resilience_world):
        before = get_metrics().counter("resilience.quarantined")
        _run(resilience_world, plan="seed=42;source.orbis=fatal")
        assert get_metrics().counter("resilience.quarantined") > before

    def test_report_renders_for_degraded_run(self, resilience_world):
        from repro.analysis.report import full_report

        install_fault_plan(FaultPlan.parse("seed=2;source.eyeballs=fatal"))
        try:
            inputs = PipelineInputs.from_world(resilience_world)
            result = StateOwnershipPipeline(inputs).run()
        finally:
            clear_fault_plan()
        text = full_report(result, inputs)
        assert text.startswith("DEGRADED RUN")
        assert "Table 8 — skipped" in text
