"""Parallel campaign execution: determinism, crash isolation, pickling.

The campaign's determinism contract: for a fixed config seed, outcomes —
and the computed ``CampaignMetrics`` — are bit-for-bit identical whether
the runs execute serially or across any number of worker processes.
"""

import concurrent.futures
import dataclasses
import json
import os
import pickle
import time

import pytest

from repro.evaluation.campaign import (
    Campaign,
    CampaignConfig,
    ReportSummary,
    RunOutcome,
    RunSpec,
    run_single,
)
from repro.evaluation.metrics import compute_metrics
from repro.evaluation.parallel import (
    CHUNKS_PER_WORKER,
    IPC_COST_PER_RUN,
    POOL_STARTUP_COST,
    ExecutionPlan,
    ParallelCampaign,
    chunk_size_for,
    execute_chunk,
    execute_run,
    execute_specs,
    plan_execution,
    resolve_workers,
    warm_worker,
)
from repro.operations.interference import InterferencePlan

#: Reduced campaign for the regression tests: 2 fault types x 3 runs.
SMALL_CONFIG = CampaignConfig(
    runs_per_fault=3,
    large_cluster_runs=0,
    seed=424,
    fault_types=("AMI_UNAVAILABLE", "SG_WRONG"),
)


def _run(config: CampaignConfig, max_workers: int | None) -> tuple[list[RunOutcome], bytes]:
    # force_pool: the determinism contract is serial ≡ pool, so the pool
    # must actually spin up even on hosts where the adaptive planner
    # would (correctly) fall back to in-process execution.
    campaign = Campaign(config)
    campaign.run(max_workers=max_workers, force_pool=bool(max_workers and max_workers > 1))
    return campaign.outcomes, pickle.dumps(compute_metrics(campaign.outcomes))


def _explode_on_second(spec: RunSpec) -> RunOutcome:
    """Picklable runner that crashes for exactly one spec."""
    if spec.run_id.endswith("-02"):
        raise RuntimeError("injected worker crash")
    return run_single(spec)


def _stub_runner(spec: RunSpec) -> RunOutcome:
    """Picklable runner that returns at once: pool mechanics only."""
    return RunOutcome.failure(spec, "stub")


class CountingPool(concurrent.futures.ProcessPoolExecutor):
    """The real pool, counting instances and submissions."""

    created = 0
    submitted = 0

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        super().__init__(*args, **kwargs)

    def submit(self, *args, **kwargs):
        type(self).submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def counting_pool(monkeypatch):
    monkeypatch.setattr(CountingPool, "created", 0)
    monkeypatch.setattr(CountingPool, "submitted", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return CountingPool


class TestDeterminism:
    def test_worker_count_invisible_in_outcomes(self):
        serial, serial_metrics = _run(SMALL_CONFIG, None)
        two, two_metrics = _run(SMALL_CONFIG, 2)
        four, four_metrics = _run(SMALL_CONFIG, 4)
        for parallel in (two, four):
            assert [o.truth for o in parallel] == [o.truth for o in serial]
            assert [[r.causes for r in o.reports] for o in parallel] == [
                [r.causes for r in o.reports] for o in serial
            ]
            assert parallel == serial  # full dataclass equality, spec order
        # Byte-identical Table I metrics at any parallelism.
        assert serial_metrics == two_metrics == four_metrics

    @pytest.mark.slow
    def test_full_fault_mix_deterministic(self):
        config = CampaignConfig(runs_per_fault=1, large_cluster_runs=0, seed=77)
        serial, serial_metrics = _run(config, None)
        four, four_metrics = _run(config, 4)
        assert four == serial
        assert serial_metrics == four_metrics

    def test_parallel_campaign_class_matches_serial(self):
        # No force_pool here: this exercises the default adaptive path —
        # whatever the planner picks on this host must match serial.
        serial, serial_metrics = _run(SMALL_CONFIG, None)
        campaign = ParallelCampaign(SMALL_CONFIG, max_workers=2)
        outcomes = campaign.run()
        assert outcomes == serial
        assert pickle.dumps(compute_metrics(outcomes)) == serial_metrics


def _trace_bytes(outcome: RunOutcome) -> tuple[bytes, bytes]:
    """Canonical serialisation of the exported trace + metrics.

    JSON with sorted keys, not ``pickle.dumps``: pickle encodes object
    *identity* (an interned string shared inside one process pickles as a
    memo back-reference, a round-tripped copy pickles literally), so its
    bytes differ across equal graphs.  The exported artifact is JSON, and
    that is what must be bit-for-bit identical.
    """
    return (
        json.dumps(outcome.trace, sort_keys=True).encode(),
        json.dumps(outcome.metrics, sort_keys=True).encode(),
    )


class TestTracedDeterminism:
    """Tracing adds no engine events or RNG draws: traced outcomes —
    spans and metric snapshots included — stay bit-for-bit identical at
    any worker count."""

    TRACED_CONFIG = dataclasses.replace(SMALL_CONFIG, trace=True)

    def test_traced_small_campaign_identical(self):
        serial, serial_metrics = _run(self.TRACED_CONFIG, None)
        parallel, parallel_metrics = _run(self.TRACED_CONFIG, 2)
        assert parallel == serial
        assert [_trace_bytes(o) for o in parallel] == [_trace_bytes(o) for o in serial]
        assert parallel_metrics == serial_metrics
        for outcome in serial:
            assert outcome.trace, "traced run exported no spans"
            counters = outcome.metrics["counters"]
            assert counters, "traced run has no counters"
            # Classify-once reuse and the diagnosis memo cache are both
            # visible in every traced run (hits may legitimately be 0).
            assert counters["classify.memo.hits"] > 0
            assert counters["classify.memo.misses"] > 0
            assert "diagnosis.cache.misses" in counters

    @pytest.mark.slow
    def test_traced_full_fault_mix_identical(self):
        # 8 fault types x 3 runs = 24 traced runs, serial vs 4 workers.
        config = CampaignConfig(
            runs_per_fault=3, large_cluster_runs=0, seed=909, trace=True
        )
        serial, serial_metrics = _run(config, None)
        parallel, parallel_metrics = _run(config, 4)
        assert parallel == serial
        assert [_trace_bytes(o) for o in parallel] == [_trace_bytes(o) for o in serial]
        assert parallel_metrics == serial_metrics
        stages = {s["stage"] for o in serial for s in o.trace}
        assert {"ingest", "conformance", "assertion", "diagnosis"} <= stages

    def test_tracing_does_not_change_untraced_results(self):
        traced, _ = _run(self.TRACED_CONFIG, None)
        plain, _ = _run(SMALL_CONFIG, None)
        for with_trace, without in zip(traced, plain):
            stripped = dataclasses.replace(
                with_trace,
                spec=dataclasses.replace(with_trace.spec, trace=False),
                trace=None,
                metrics={},
            )
            assert stripped == without

    def test_untraced_outcomes_carry_no_payload(self):
        plain, _ = _run(SMALL_CONFIG, None)
        assert all(o.trace is None and o.metrics == {} for o in plain)


class TestCrashIsolation:
    def _specs(self):
        return Campaign(SMALL_CONFIG).build_specs()

    @pytest.mark.parametrize("max_workers", [None, 2])
    def test_one_crashing_run_does_not_kill_campaign(self, max_workers):
        specs = self._specs()
        outcomes = execute_specs(
            specs,
            max_workers=max_workers,
            runner=_explode_on_second,
            force_pool=max_workers is not None,
        )
        assert len(outcomes) == len(specs)
        failed = [o for o in outcomes if o.failed]
        assert [o.spec.run_id for o in failed] == [
            s.run_id for s in specs if s.run_id.endswith("-02")
        ]
        for outcome in failed:
            assert "injected worker crash" in outcome.error
            assert outcome.operation_status == "crashed"
            assert outcome.detections == [] and outcome.reports == []
            # Failure records must not score as anything.
            assert not outcome.fault_detected
            assert outcome.false_positive_reports() == []

    def test_metrics_exclude_failed_runs(self):
        specs = self._specs()
        outcomes = execute_specs(specs, runner=_explode_on_second)
        clean = [o for o in outcomes if not o.failed]
        metrics = compute_metrics(outcomes)
        assert metrics.failed_runs == len(outcomes) - len(clean)
        assert metrics.failed_runs > 0
        # Rates computed over the clean runs only: a crash is neither a
        # missed detection nor a false positive.
        assert metrics.total_runs == len(outcomes)
        assert metrics.faults_injected == len(clean)
        clean_metrics = compute_metrics(clean)
        assert metrics.recall == clean_metrics.recall
        assert metrics.precision == clean_metrics.precision
        assert metrics.accuracy_rate == clean_metrics.accuracy_rate

    def test_monkeypatched_run_single_serial(self, monkeypatch):
        calls = {"n": 0}

        def flaky(spec):
            calls["n"] += 1
            raise ValueError("kaboom")

        import repro.evaluation.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "run_single", flaky)
        campaign = Campaign(SMALL_CONFIG)
        outcomes = campaign.run()
        assert calls["n"] == len(outcomes)
        assert all(o.failed and "kaboom" in o.error for o in outcomes)
        assert compute_metrics(outcomes).failed_runs == len(outcomes)


class TestProgressBridge:
    def test_progress_fires_in_parent_for_every_run(self):
        specs = Campaign(SMALL_CONFIG).build_specs()
        seen: list[tuple[int, int, str]] = []
        outcomes = execute_specs(
            specs,
            max_workers=2,
            force_pool=True,
            progress=lambda done, total, outcome: seen.append(
                (done, total, outcome.spec.run_id)
            ),
        )
        assert [done for done, _t, _r in seen] == list(range(1, len(specs) + 1))
        assert all(total == len(specs) for _d, total, _r in seen)
        # Completion order may differ from spec order, but every run
        # reports exactly once and the result list is in spec order.
        assert sorted(run_id for _d, _t, run_id in seen) == sorted(s.run_id for s in specs)
        assert [o.spec.run_id for o in outcomes] == [s.run_id for s in specs]

    def test_serial_progress_in_spec_order(self):
        specs = Campaign(SMALL_CONFIG).build_specs()[:2]
        seen = []
        execute_specs(specs, progress=lambda d, t, o: seen.append(o.spec.run_id))
        assert seen == [s.run_id for s in specs]


class TestPicklability:
    def test_run_spec_round_trips(self):
        spec = RunSpec(
            run_id="p-1",
            fault_type="AMI_CHANGED",
            seed=3,
            cluster_size=20,
            inject_at=55.5,
            transient=True,
            interference=InterferencePlan(scale_in_at=80.0, second_team_pressure_at=10.0),
        )
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_interference_plan_round_trips(self):
        plan = InterferencePlan(
            scale_in_at=1.0,
            scale_in_by=2,
            random_termination_at=3.0,
            second_team_pressure_at=4.0,
            second_team_target_headroom=-6,
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_run_outcome_round_trips(self):
        spec = RunSpec(run_id="p-2", fault_type="AMI_UNAVAILABLE", seed=902, inject_at=40.0)
        outcome = execute_run(spec)
        restored = pickle.loads(pickle.dumps(outcome))
        assert restored == outcome
        assert isinstance(restored.reports[0], ReportSummary) if restored.reports else True
        # Scoring still works on the restored object.
        assert restored.fault_detected == outcome.fault_detected
        assert restored.fault_diagnosed_correctly() == outcome.fault_diagnosed_correctly()

    def test_failure_record_round_trips(self):
        spec = RunSpec(run_id="p-3", fault_type="SG_WRONG", seed=7, inject_at=30.0)
        outcome = RunOutcome.failure(spec, "Traceback: boom")
        restored = pickle.loads(pickle.dumps(outcome))
        assert restored == outcome
        assert restored.failed

    def test_no_unpicklable_defaults_in_spec_fields(self):
        # A default_factory returning an unpicklable object (lambda, open
        # handle) would only explode inside a pool; catch it here.
        for cls in (RunSpec, InterferencePlan):
            for field in dataclasses.fields(cls):
                if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                    pickle.dumps(field.default_factory())


class TestChunking:
    """Chunked submission is a transport detail: outcomes must be
    identical at every chunk size, including degenerate ones."""

    def _specs(self):
        return Campaign(SMALL_CONFIG).build_specs()

    def test_chunk_size_invisible_in_outcomes(self):
        specs = self._specs()
        serial = execute_specs(specs, max_workers=None)
        for chunk_size in (1, 2, len(specs), len(specs) * 3):
            chunked = execute_specs(
                specs, max_workers=2, chunk_size=chunk_size, force_pool=True
            )
            assert chunked == serial, f"chunk_size={chunk_size} changed outcomes"

    def test_default_chunk_sizing(self):
        assert chunk_size_for(32, workers=4) == 32 // (4 * CHUNKS_PER_WORKER)
        assert chunk_size_for(3, workers=8) == 1  # never zero
        assert chunk_size_for(100, workers=2, chunk_size=7) == 7
        assert chunk_size_for(100, workers=2, chunk_size=0) == 1  # clamped

    def test_execute_chunk_preserves_spec_order(self):
        specs = self._specs()[:3]
        outcomes = execute_chunk(specs)
        assert [o.spec.run_id for o in outcomes] == [s.run_id for s in specs]

    def test_chunked_crash_isolation(self):
        # A runner crash inside a chunk fails that run only, not the chunk.
        specs = self._specs()
        outcomes = execute_specs(
            specs, max_workers=2, chunk_size=3, runner=_explode_on_second, force_pool=True
        )
        failed = [o.spec.run_id for o in outcomes if o.failed]
        assert failed == [s.run_id for s in specs if s.run_id.endswith("-02")]

    def test_chunked_progress_reports_every_run_once(self):
        specs = self._specs()
        seen = []
        execute_specs(
            specs,
            max_workers=2,
            chunk_size=2,
            force_pool=True,
            progress=lambda done, total, o: seen.append((done, o.spec.run_id)),
        )
        assert [done for done, _r in seen] == list(range(1, len(specs) + 1))
        assert sorted(r for _d, r in seen) == sorted(s.run_id for s in specs)

    def test_warm_worker_is_idempotent_and_primes_caches(self):
        from repro.faulttree.library import shared_standard_fault_trees
        from repro.operations.profile import shared_rolling_upgrade_profile

        warm_worker()
        profile = shared_rolling_upgrade_profile()
        trees = shared_standard_fault_trees()
        warm_worker()
        # lru_cache(1): the warm objects are process-wide singletons.
        assert shared_rolling_upgrade_profile() is profile
        assert shared_standard_fault_trees() is trees

    def test_shared_registries_are_not_mutated_by_runs(self):
        from repro.faulttree.library import shared_standard_fault_trees

        trees = shared_standard_fault_trees()
        before = {tree_id: info["nodes"] for tree_id, info in trees.stats().items()}
        execute_specs(self._specs()[:2], max_workers=None)
        assert {t: i["nodes"] for t, i in trees.stats().items()} == before


class TestResolveWorkers:
    def test_serial_values(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_capped_at_total(self):
        assert resolve_workers(8, total=3, cpu_count=8) == 3

    def test_negative_means_all_cores(self):
        assert resolve_workers(-1, total=1000) >= 1
        assert resolve_workers(-1, total=1000, cpu_count=6) == 6

    @pytest.mark.parametrize(
        "max_workers, total, cpu_count, expected",
        [
            # One-core host: every request resolves to in-process.
            (2, 100, 1, 1),
            (8, 100, 1, 1),
            (-1, 100, 1, 1),
            # Requests beyond the core count are clamped to it.
            (8, 100, 4, 4),
            (3, 100, 4, 3),
            # ...and beyond the spec count, to that.
            (4, 2, 8, 2),
            (-1, 3, 16, 3),
            # total=0 means "unknown": no spec cap applies.
            (4, 0, 8, 4),
        ],
    )
    def test_matrix(self, max_workers, total, cpu_count, expected):
        assert resolve_workers(max_workers, total=total, cpu_count=cpu_count) == expected

    def test_retry_uses_earlier_injection(self):
        # A spec whose injection point lands after the upgrade finishes
        # must be retried earlier — same policy as the old serial loop.
        spec = RunSpec(run_id="late", fault_type="AMI_UNAVAILABLE", seed=31, inject_at=900.0)
        outcome = execute_run(spec)
        assert outcome.injected_at is not None
        assert outcome.spec.inject_at == 300.0


class TestExecutionPlan:
    """The cost model: pool only when startup+IPC can actually be repaid."""

    def test_single_worker_never_pools(self):
        plan = plan_execution(100, workers=1, cost_per_run=10.0)
        assert not plan.use_pool
        assert plan.workers == 1

    def test_small_cheap_batch_stays_in_process(self):
        # 8 runs x 1ms: serial ~8ms, pool pays >0.75s startup. No contest.
        plan = plan_execution(8, workers=4, cost_per_run=0.001)
        assert not plan.use_pool
        assert "amortise" in plan.reason

    def test_large_expensive_batch_pools(self):
        # 200 runs x 0.5s: serial 100s vs ~26s across 4 workers.
        plan = plan_execution(200, workers=4, cost_per_run=0.5)
        assert plan.use_pool
        assert plan.workers == 4
        assert plan.projected_pool < plan.projected_serial

    def test_breakeven_exactly_prefers_serial(self):
        # projected_pool == projected_serial must NOT pool: the fallback
        # is free, the pool is a gamble.
        total, workers, startup = 10, 2, 0.0
        # serial = c*10, pool = ipc*10 + c*5  ->  equal when c = 2*ipc.
        cost = 2 * IPC_COST_PER_RUN
        plan = plan_execution(total, workers, cost, startup_cost=startup)
        assert not plan.use_pool

    def test_chunks_sized_from_measured_cost(self):
        # 0.1s/run against a 1.0s chunk target -> 10 specs per chunk.
        plan = plan_execution(400, workers=4, cost_per_run=0.1)
        assert plan.use_pool
        assert plan.chunk_size == 10

    def test_expensive_runs_get_minimal_chunks(self):
        # 30s/run dwarfs the 1s chunk target: one spec per future.
        plan = plan_execution(8, workers=4, cost_per_run=30.0)
        assert plan.use_pool
        assert plan.chunk_size == 1

    def test_cheap_run_chunks_capped_so_every_worker_gets_one(self):
        # 1ms runs would want 1000-spec chunks; the cap keeps all four
        # workers fed.  (Zero overheads so the tiny batch still pools.)
        plan = plan_execution(8, workers=4, cost_per_run=0.001,
                              startup_cost=0.0, ipc_cost=0.0)
        assert plan.use_pool
        assert plan.chunk_size == 2  # ceil(8/4)

    def test_explicit_chunk_size_wins(self):
        plan = plan_execution(400, workers=4, cost_per_run=0.1, chunk_size=7)
        assert plan.chunk_size == 7

    def test_plan_fields_record_projections(self):
        plan = plan_execution(100, workers=4, cost_per_run=1.0)
        assert plan.projected_serial == pytest.approx(100.0)
        assert plan.projected_pool == pytest.approx(
            POOL_STARTUP_COST + IPC_COST_PER_RUN * 100 + 25.0
        )


class TestAdaptiveFallback:
    """On a one-core host (or an unamortisable batch) execute_specs must
    run in-process — and say so via plan_out."""

    def _specs(self):
        return Campaign(SMALL_CONFIG).build_specs()

    def test_cpu_count_one_runs_in_process(self):
        specs = self._specs()
        plans: list[ExecutionPlan] = []
        outcomes = execute_specs(specs, max_workers=4, cpu_count=1, plan_out=plans)
        assert len(outcomes) == len(specs)
        assert [o.spec.run_id for o in outcomes] == [s.run_id for s in specs]
        assert len(plans) == 1 and not plans[0].use_pool

    def test_small_batch_falls_back_even_with_cores(self):
        # Plenty of "cores", but six sub-second runs cannot repay pool
        # startup: the probe-fed plan must reject the pool.
        specs = self._specs()
        plans: list[ExecutionPlan] = []
        outcomes = execute_specs(specs, max_workers=4, cpu_count=8, plan_out=plans)
        assert len(outcomes) == len(specs)
        assert len(plans) == 1
        assert not plans[0].use_pool
        assert plans[0].cost_per_run > 0  # fed by the measured probe

    def test_fallback_outcomes_match_serial_exactly(self):
        specs = self._specs()
        serial = execute_specs(specs, max_workers=None)
        adaptive = execute_specs(specs, max_workers=4, cpu_count=1)
        assert adaptive == serial

    def test_fallback_progress_covers_every_run(self):
        specs = self._specs()
        seen = []
        execute_specs(
            specs,
            max_workers=4,
            cpu_count=8,
            progress=lambda done, total, o: seen.append((done, total, o.spec.run_id)),
        )
        assert [done for done, _t, _r in seen] == list(range(1, len(specs) + 1))
        assert all(total == len(specs) for _d, total, _r in seen)
        assert [r for _d, _t, r in seen] == [s.run_id for s in specs]

    def test_forced_pool_still_matches_serial(self):
        specs = self._specs()
        plans: list[ExecutionPlan] = []
        serial = execute_specs(specs, max_workers=None)
        forced = execute_specs(
            specs, max_workers=2, cpu_count=1, force_pool=True, plan_out=plans
        )
        assert forced == serial
        assert len(plans) == 1 and plans[0].use_pool
        assert plans[0].reason == "pool forced"


#: The 32-run campaign the executor's speed guarantees are held on.
FLOOR_CONFIG = CampaignConfig(runs_per_fault=4, large_cluster_runs=0, seed=2014)


class TestParallelSpeedupFloor:
    """``parallel_speedup >= 1.0``: the adaptive executor is never slower
    than serial.  Serial and adaptive (4 workers requested) alternate
    for three rounds, each keeping its best time.  Where the planner
    chose a pool, the measured ratio must clear 1.0; where it did not,
    the batch must have run in-process, with no pool created at all."""

    def test_adaptive_never_slower_than_serial(self, counting_pool):
        specs = Campaign(FLOOR_CONFIG).build_specs()
        assert len(specs) == 32
        plans: list[ExecutionPlan] = []
        serial_s = adaptive_s = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            serial = execute_specs(specs, max_workers=1)
            serial_s = min(serial_s, time.perf_counter() - started)
            started = time.perf_counter()
            adaptive = execute_specs(specs, max_workers=4, plan_out=plans)
            adaptive_s = min(adaptive_s, time.perf_counter() - started)
            assert not any(o.failed for o in serial)
            assert adaptive == serial
        assert len(plans) == 3
        if any(plan.use_pool for plan in plans):
            assert serial_s / adaptive_s >= 1.0, (
                f"pooled campaign slower than serial: {serial_s:.3f}s serial,"
                f" {adaptive_s:.3f}s adaptive"
            )
        else:
            assert all(plan.workers == 1 for plan in plans)
            assert counting_pool.created == 0


#: 8 fault types x 6 runs: the campaign the multi-core scaling floor uses.
SCALING_CONFIG = CampaignConfig(runs_per_fault=6, large_cluster_runs=0, seed=4242)


@pytest.mark.slow
class TestMultiCoreScaling:
    """On a host with 4 or more cores, a 48-run campaign on 4 workers
    finishes at least 2x faster than serial, with identical outcomes.
    Fewer cores: only the serial ≡ 4-worker determinism is checked."""

    def test_four_workers_at_least_twice_as_fast(self):
        started = time.perf_counter()
        serial = Campaign(SCALING_CONFIG)
        serial.run()
        serial_s = time.perf_counter() - started
        started = time.perf_counter()
        parallel = Campaign(SCALING_CONFIG)
        parallel.run(max_workers=4)
        parallel_s = time.perf_counter() - started

        assert len(serial.outcomes) == 48
        assert parallel.outcomes == serial.outcomes
        serial_metrics = compute_metrics(serial.outcomes)
        assert pickle.dumps(compute_metrics(parallel.outcomes)) == pickle.dumps(serial_metrics)
        assert serial_metrics.failed_runs == 0
        if (os.cpu_count() or 1) >= 4:
            assert serial_s / parallel_s >= 2.0, (
                f"expected >=2x speedup with 4 workers on {os.cpu_count()} cores:"
                f" {serial_s:.3f}s serial, {parallel_s:.3f}s parallel"
            )


class TestPoolSubmissions:
    """Chunked submission, counted: after the in-parent probe run, the
    n = 31 remaining specs of the 32-run campaign reach a two-worker
    pool in ceil(n / chunk) futures, against n with one spec each."""

    def _submit(self, chunk_size):
        specs = Campaign(FLOOR_CONFIG).build_specs()
        outcomes = execute_specs(
            specs, max_workers=2, chunk_size=chunk_size, force_pool=True,
            runner=_stub_runner,
        )
        assert [o.spec.run_id for o in outcomes] == [s.run_id for s in specs]

    def test_default_chunks(self, counting_pool):
        self._submit(None)
        assert chunk_size_for(31, 2) == 4
        assert counting_pool.submitted == 8  # ceil(31 / 4)

    def test_one_spec_per_future(self, counting_pool):
        self._submit(1)
        assert counting_pool.submitted == 31
