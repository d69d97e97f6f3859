"""The resilience layer: retry/backoff determinism, circuit breaking,
deterministic fault injection, and graceful source degradation."""

from __future__ import annotations

import json

import pytest

from repro.config import ResilienceConfig, WorldConfig
from repro.core.pipeline import PipelineInputs, StateOwnershipPipeline
from repro.errors import (
    AttemptTimeoutError,
    CircuitOpenError,
    ConfigError,
    InjectedFaultError,
    PipelineError,
    QuarantinedSourceError,
    RetryExhaustedError,
    TransientSourceError,
)
from repro.io.jsonio import dataset_from_json, dataset_to_json
from repro.io.sqliteio import dataset_from_sqlite, dataset_to_sqlite
from repro.obs import get_metrics
from repro.parallel import ExecutionContext, ResultCache
from repro.resilience import (
    CircuitBreaker,
    FaultPlan,
    QuarantinedSource,
    RetryPolicy,
    SourceGuard,
    clear_fault_plan,
    install_fault_plan,
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


def _flaky(failures, exc=TransientSourceError):
    """A callable failing ``failures`` times, then returning 'ok'."""
    calls = {"n": 0}

    def fn():
        calls["n"] += 1
        if calls["n"] <= failures:
            raise exc(f"boom #{calls['n']}")
        return "ok"

    fn.calls = calls
    return fn


class TestRetryPolicy:
    def test_success_first_try(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.call(_flaky(0), sleep=lambda _s: None) == "ok"

    def test_recovers_from_transient_failures(self):
        policy = RetryPolicy(max_attempts=3)
        fn = _flaky(2)
        assert policy.call(fn, sleep=lambda _s: None) == "ok"
        assert fn.calls["n"] == 3

    def test_exhaustion_raises_with_context(self):
        policy = RetryPolicy(max_attempts=2)
        with pytest.raises(RetryExhaustedError) as err:
            policy.call(_flaky(5), site="source.x", sleep=lambda _s: None)
        assert err.value.site == "source.x"
        assert err.value.attempts == 2
        assert isinstance(err.value.cause, TransientSourceError)

    def test_non_retryable_exception_propagates(self):
        policy = RetryPolicy(max_attempts=3)
        fn = _flaky(5, exc=ValueError)
        with pytest.raises(ValueError):
            policy.call(fn, sleep=lambda _s: None)
        assert fn.calls["n"] == 1

    def test_backoff_is_deterministic_per_seed(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        c = RetryPolicy(seed=8)
        delays_a = [a.backoff_delay("source.x", n) for n in (1, 2, 3)]
        delays_b = [b.backoff_delay("source.x", n) for n in (1, 2, 3)]
        delays_c = [c.backoff_delay("source.x", n) for n in (1, 2, 3)]
        assert delays_a == delays_b
        assert delays_a != delays_c

    def test_backoff_distinguishes_sites(self):
        policy = RetryPolicy(seed=7)
        assert policy.backoff_delay("source.x", 1) != policy.backoff_delay(
            "source.y", 1
        )

    def test_sleep_sequence_replays_identically(self):
        def run():
            slept = []
            RetryPolicy(max_attempts=4, seed=3).call(
                _flaky(3), site="source.x", sleep=slept.append
            )
            return slept

        first, second = run(), run()
        assert first == second
        assert len(first) == 3

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.25, jitter=0.0)
        delays = [policy.backoff_delay("s", n) for n in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.25, 0.25]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.25, max_delay=10.0)
        for attempt in range(1, 6):
            base = min(10.0, 0.1 * 2.0 ** (attempt - 1))
            delay = policy.backoff_delay("s", attempt)
            assert base * 0.75 <= delay <= base * 1.25

    def test_attempt_timeout_raises_and_retries(self):
        import time as _time

        policy = RetryPolicy(max_attempts=2, attempt_timeout=0.05)
        with pytest.raises(RetryExhaustedError) as err:
            policy.call(lambda: _time.sleep(5), sleep=lambda _s: None)
        assert isinstance(err.value.cause, AttemptTimeoutError)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)


class TestCircuitBreaker:
    def _breaker(self, clock, threshold=3, reset=10.0):
        return CircuitBreaker(
            name="test",
            failure_threshold=threshold,
            reset_timeout=reset,
            clock=lambda: clock["t"],
        )

    def test_opens_after_threshold(self):
        clock = {"t": 0.0}
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_half_open_after_cooldown_then_closes(self):
        clock = {"t": 0.0}
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock["t"] = 10.0
        assert breaker.state == "half-open"
        breaker.allow()  # probe allowed
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failed_probe_reopens(self):
        clock = {"t": 0.0}
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock["t"] = 10.0
        assert breaker.state == "half-open"
        breaker.record_failure()
        assert breaker.state == "open"
        clock["t"] = 15.0
        assert breaker.state == "open"  # cooldown counted from reopen
        clock["t"] = 20.0
        assert breaker.state == "half-open"

    def test_success_resets_failure_streak(self):
        clock = {"t": 0.0}
        breaker = self._breaker(clock)
        for _ in range(2):
            breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_policy_trips_breaker_and_short_circuits(self):
        clock = {"t": 0.0}
        breaker = self._breaker(clock, threshold=2)
        policy = RetryPolicy(max_attempts=2)
        with pytest.raises(RetryExhaustedError):
            policy.call(_flaky(9), breaker=breaker, sleep=lambda _s: None)
        assert breaker.state == "open"
        fn = _flaky(0)
        with pytest.raises(CircuitOpenError):
            policy.call(fn, breaker=breaker, sleep=lambda _s: None)
        assert fn.calls["n"] == 0  # never reached the function

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(reset_timeout=-1)


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "seed=42;source.orbis=fatal;cache.get=corrupt:0.5;"
            "worker.confirmation=crash"
        )
        assert plan.seed == 42
        assert FaultPlan.parse(plan.as_text()).as_text() == plan.as_text()

    def test_parse_accepts_commas(self):
        plan = FaultPlan.parse("seed=1,source.a=fatal,source.b=slow:0.1")
        assert len(plan.specs) == 2

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("source.a=explode")
        with pytest.raises(ConfigError):
            FaultPlan.parse("just-a-word")
        with pytest.raises(ConfigError):
            FaultPlan.parse("seed=abc")
        with pytest.raises(ConfigError):
            FaultPlan.parse("source.a=slow:fast")

    def test_transient_fires_then_clears(self):
        plan = FaultPlan.parse("source.x=transient:2")
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                plan.before("source.x")
        plan.before("source.x")  # third call passes

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

    def test_slow_uses_injected_sleep(self):
        plan = FaultPlan.parse("source.x=slow:0.25")
        slept = []
        plan.before("source.x", sleep=slept.append)
        assert slept == [0.25]

    def test_mangle_is_deterministic(self):
        text = json.dumps({"k": list(range(50))})
        a = FaultPlan.parse("seed=5;cache.get=corrupt")
        b = FaultPlan.parse("seed=5;cache.get=corrupt")
        assert a.mangle("cache.get", text) == b.mangle("cache.get", text)
        assert a.mangle("cache.get", text) != text

    def test_truncate_shortens(self):
        text = "x" * 100
        plan = FaultPlan.parse("seed=5;cache.get=truncate")
        assert len(plan.mangle("cache.get", text)) < 100

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
        from repro.resilience import get_fault_plan

        plan = get_fault_plan()
        assert plan is not None and plan.seed == 9


class TestSourceGuard:
    def test_guard_retries_through_injected_faults(self):
        install_fault_plan(FaultPlan.parse("source.x=transient:2"))
        guard = SourceGuard(policy=RetryPolicy(max_attempts=3), sleep=lambda _s: None)
        assert guard.call("source.x", lambda: "ok") == "ok"

    def test_guard_exhausts_on_fatal(self):
        install_fault_plan(FaultPlan.parse("source.x=fatal"))
        guard = SourceGuard(policy=RetryPolicy(max_attempts=2), sleep=lambda _s: None)
        with pytest.raises(RetryExhaustedError):
            guard.call("source.x", lambda: "ok")

    def test_breakers_are_per_site(self):
        guard = SourceGuard()
        assert guard.breaker("source.a") is guard.breaker("source.a")
        assert guard.breaker("source.a") is not guard.breaker("source.b")

    def test_quarantined_source_fails_loudly(self):
        stub = QuarantinedSource("source.orbis")
        with pytest.raises(QuarantinedSourceError):
            stub.state_owned_telcos()
        # Dunder protocol must stay intact (pickle/copy/introspection).
        import pickle

        assert isinstance(pickle.loads(pickle.dumps(stub)), QuarantinedSource)

    def test_from_config(self):
        guard = SourceGuard.from_config(
            ResilienceConfig(max_attempts=7, breaker_threshold=2)
        )
        assert guard.policy.max_attempts == 7
        assert guard.breaker("s").failure_threshold == 2


class TestResilienceConfig:
    def test_defaults_valid(self):
        config = ResilienceConfig()
        assert config.max_attempts == 3 and not config.fail_fast

    def test_validation(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(max_attempts=0)
        with pytest.raises(ConfigError):
            ResilienceConfig(jitter=2.0)


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
        cache = ResultCache(tmp_path)
        cache.put("cti", "k1", {"x": 1})
        install_fault_plan(FaultPlan.parse("cache.get=fatal"))
        before = get_metrics().counter("cache.bypass")
        assert cache.get("cti", "k1") is None
        assert get_metrics().counter("cache.bypass") == before + 1


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
        resilience = ResilienceConfig(fail_fast=fail_fast)
        inputs = PipelineInputs.from_world(world, resilience=resilience)
        pipeline = StateOwnershipPipeline(inputs, resilience=resilience)
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

    def test_transient_faults_recover_cleanly(self, resilience_world):
        result = _run(resilience_world, plan="seed=1;source.orbis=transient:2")
        assert result.degraded_sources == frozenset()

    def test_fail_fast_aborts(self, resilience_world):
        with pytest.raises((RetryExhaustedError, PipelineError)):
            _run(
                resilience_world,
                plan="seed=42;source.orbis=fatal",
                fail_fast=True,
            )

    def test_required_source_failure_is_fatal(self, resilience_world):
        with pytest.raises(RetryExhaustedError):
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
