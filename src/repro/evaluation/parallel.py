"""Parallel campaign execution: fan runs out to worker processes.

Every campaign run provisions its own in-process testbed and is seeded
exclusively from its :class:`~repro.evaluation.campaign.RunSpec`, so the
campaign is embarrassingly parallel: outcomes depend only on the spec,
never on which worker executed them or in what order they finished.
This module exploits that:

- :func:`execute_run` — one spec, with the inject-earlier retry and
  crash isolation (a raising run becomes a structured failure
  :class:`~repro.evaluation.campaign.RunOutcome`, never a dead campaign);
- :func:`execute_specs` — a batch of specs, serially or across a
  :class:`~concurrent.futures.ProcessPoolExecutor`, results re-sorted
  into spec order so worker count and completion order are invisible;
- :class:`ParallelCampaign` — a :class:`~repro.evaluation.campaign.Campaign`
  that defaults to using every core.

**Cost model:** a process pool is not free — workers fork and re-import,
chunks pickle across pipes — and on hosts where that overhead cannot be
repaid (one core, or a campaign too small to amortise startup) the pool
makes campaigns *slower* than serial.  :func:`execute_specs` therefore
plans before it pools: workers are clamped to ``os.cpu_count()``
(:func:`resolve_workers`), the first spec runs in-parent as a timing
probe, and :func:`plan_execution` compares projected pool cost
(:data:`POOL_STARTUP_COST` + :data:`IPC_COST_PER_RUN`·n + serial/workers)
against projected serial cost.  When the pool cannot win, the remaining
specs run in-process — same plan as serial, so ``parallel_speedup`` is
1.0 by construction on every host class.  When it can, chunk sizes are
derived from the measured per-run cost (target
:data:`CHUNK_TARGET_SECONDS` of work per future).

**Throughput:** specs are submitted in *chunks* (several specs per
future) so pickle/IPC round trips amortise across runs instead of being
paid per run, and each worker is started with :func:`warm_worker`, a pool
initializer that pre-builds the heavyweight immutable state every run
needs (compiled pattern library, process model, fault-tree and probe
registries) once per worker instead of once per run.  Records that ride
back through ``RunOutcome`` chunks shed their classify-once memos at the
pickle boundary (see ``LogRecord.__getstate__``): the memo holds a dead
cross-process library identity and would bloat every IPC payload.

**Determinism guarantee:** for a fixed :class:`CampaignConfig` seed, the
outcome list — and therefore the computed
:class:`~repro.evaluation.metrics.CampaignMetrics` — is bit-for-bit
identical whether the campaign runs serially, in-process after a planner
fallback, or with any number of workers.

**Progress bridge:** callbacks cannot cross process boundaries (they are
not picklable, and the child's prints would interleave).  Instead each
worker returns its finished outcomes through the future and the *parent*
invokes ``progress(completed, total, outcome)`` as results arrive — in
chunk-completion order for the pool path (each chunk's outcomes reported
in spec order), in spec order for the serial path.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import math
import os
import time as _time
import traceback
import typing as _t

from repro.evaluation.campaign import Campaign, CampaignConfig, RunOutcome, RunSpec, run_single

#: A callable executing one spec; must be a picklable top-level function
#: when used with worker processes.
Runner = _t.Callable[[RunSpec], RunOutcome]

#: Progress callback: (completed runs, total runs, the outcome that just
#: finished).  Invoked in the parent process only.
ProgressFn = _t.Callable[[int, int, RunOutcome], None]


def execute_run(spec: RunSpec, runner: Runner | None = None) -> RunOutcome:
    """Execute one campaign run, isolated against crashes.

    If the upgrade finishes before the sampled injection point, the run
    is retried with an earlier injection so every outcome truly injects
    mid-operation (same policy as the original serial loop).  Any
    exception out of the run becomes a structured failure record carrying
    the traceback, so one broken run cannot kill a whole campaign.
    """
    run = runner if runner is not None else run_single
    try:
        outcome = run(spec)
        if outcome.injected_at is None:
            retry = dataclasses.replace(spec, inject_at=max(10.0, spec.inject_at / 3))
            outcome = run(retry)
        return outcome
    except Exception:
        return RunOutcome.failure(spec, traceback.format_exc())


#: Target chunks per worker when no per-run cost is known: small enough
#: to amortise pickle/IPC, large enough that one slow chunk cannot leave
#: the pool idle at the tail.
CHUNKS_PER_WORKER = 4

#: Projected one-off cost of standing a pool up: fork + re-import + the
#: :func:`warm_worker` cache builds, in seconds.  Deliberately on the
#: conservative (high) side — the fallback it triggers is exactly serial,
#: so a false "don't pool" costs nothing while a false "pool" costs the
#: regression this model exists to prevent.
POOL_STARTUP_COST = 0.75

#: Projected per-run IPC cost: pickling the spec out and the outcome back.
IPC_COST_PER_RUN = 0.002

#: Target seconds of measured work per submitted chunk.
CHUNK_TARGET_SECONDS = 1.0


def warm_worker() -> None:
    """Pool initializer: pre-build heavyweight immutable state per worker.

    Every campaign run needs the operation profile (compiled pattern
    library + process model), the standard fault trees and the probe
    registry.  All three are immutable during runs and cached
    process-wide, so building them once in the initializer means no run
    in this worker ever pays the build again.
    """
    from repro.diagnosis.tests import shared_standard_probes
    from repro.faulttree.library import shared_standard_fault_trees
    from repro.operations.profile import shared_rolling_upgrade_profile
    from repro.process.compiled import compile_model

    profile = shared_rolling_upgrade_profile()
    # Pre-compile the replay transition table too: it is cached on the
    # shared model, so no run in this worker ever compiles it again.
    compile_model(profile.model)
    shared_standard_fault_trees()
    shared_standard_probes()


def execute_chunk(specs: _t.Sequence[RunSpec], runner: Runner | None = None) -> list[RunOutcome]:
    """Execute a chunk of specs in order; the unit of pool submission."""
    return [execute_run(spec, runner) for spec in specs]


def chunk_size_for(total: int, workers: int, chunk_size: int | None = None) -> int:
    """Specs per future: explicit override, else ~CHUNKS_PER_WORKER each."""
    if chunk_size is not None:
        return max(1, chunk_size)
    return max(1, -(-total // (workers * CHUNKS_PER_WORKER)))


def resolve_workers(
    max_workers: int | None, total: int = 0, cpu_count: int | None = None
) -> int:
    """Normalise a worker-count knob to an effective pool size.

    ``None``, ``0`` and ``1`` mean serial; any negative value means "all
    cores".  Positive values are capped at the core count (``cpu_count``
    override, else ``os.cpu_count()``) — on a one-core host *every* value
    resolves to 1, because extra processes only time-slice the same core
    while still paying fork and IPC — and at the number of specs
    (spawning idle workers is pure overhead).
    """
    if max_workers is None or max_workers in (0, 1):
        return 1
    cores = cpu_count if cpu_count is not None else os.cpu_count() or 1
    workers = cores if max_workers < 0 else min(max_workers, cores)
    return max(1, min(workers, total) if total else workers)


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """What the executor decided for one batch, and why.

    ``use_pool=False`` means the batch runs in the parent process — the
    exact serial plan — so any serial-vs-"parallel" comparison of such a
    batch is a comparison of identical executions.
    """

    total: int
    workers: int
    chunk_size: int
    use_pool: bool
    cost_per_run: float
    projected_serial: float
    projected_pool: float
    reason: str


def plan_execution(
    total: int,
    workers: int,
    cost_per_run: float,
    chunk_size: int | None = None,
    startup_cost: float = POOL_STARTUP_COST,
    ipc_cost: float = IPC_COST_PER_RUN,
) -> ExecutionPlan:
    """Decide pool-vs-in-process and the chunk size from measured cost.

    The pool wins only when ``startup + ipc·n + serial/workers`` beats
    plain ``serial = cost_per_run · n`` — impossible with one worker and
    not worth it for small or cheap batches.  Chunks are sized to carry
    about :data:`CHUNK_TARGET_SECONDS` of measured work each, capped so
    every worker still gets at least one chunk.
    """
    projected_serial = cost_per_run * total
    if workers <= 1 or total <= 1:
        return ExecutionPlan(
            total=total,
            workers=1,
            chunk_size=max(1, total),
            use_pool=False,
            cost_per_run=cost_per_run,
            projected_serial=projected_serial,
            projected_pool=projected_serial,
            reason="single worker" if workers <= 1 else "single spec",
        )
    projected_pool = startup_cost + ipc_cost * total + projected_serial / workers
    if projected_pool >= projected_serial:
        return ExecutionPlan(
            total=total,
            workers=1,
            chunk_size=max(1, total),
            use_pool=False,
            cost_per_run=cost_per_run,
            projected_serial=projected_serial,
            projected_pool=projected_pool,
            reason="pool cannot amortise startup+IPC over this batch",
        )
    if chunk_size is not None:
        size = max(1, chunk_size)
    elif cost_per_run > 0:
        per_worker = -(-total // workers)
        size = max(1, min(math.ceil(CHUNK_TARGET_SECONDS / cost_per_run), per_worker))
    else:
        size = chunk_size_for(total, workers)
    return ExecutionPlan(
        total=total,
        workers=workers,
        chunk_size=size,
        use_pool=True,
        cost_per_run=cost_per_run,
        projected_serial=projected_serial,
        projected_pool=projected_pool,
        reason="pool projected faster",
    )


def _execute_serial(
    specs: _t.Sequence[RunSpec],
    total: int,
    progress: ProgressFn | None,
    runner: Runner | None,
    done: int = 0,
) -> list[RunOutcome]:
    outcomes = []
    for spec in specs:
        outcome = execute_run(spec, runner)
        outcomes.append(outcome)
        done += 1
        if progress is not None:
            progress(done, total, outcome)
    return outcomes


def execute_specs(
    specs: _t.Sequence[RunSpec],
    max_workers: int | None = None,
    progress: ProgressFn | None = None,
    runner: Runner | None = None,
    chunk_size: int | None = None,
    cpu_count: int | None = None,
    force_pool: bool = False,
    plan_out: list | None = None,
) -> list[RunOutcome]:
    """Execute a batch of specs, serially or across a process pool.

    The returned list is always in spec order, independent of worker
    count, chunking and completion order.  When more than one worker is
    requested *and* available, the first spec runs in-parent as a timing
    probe and :func:`plan_execution` decides — from the measured cost —
    whether a pool can actually win; if not, the batch runs in-process
    (so "parallel" execution is never slower than serial).

    ``runner`` substitutes the per-run function (testing hook); with
    workers it must be picklable.  ``chunk_size`` pins the number of
    specs per submitted future (default: derived from the probe cost).
    ``cpu_count`` overrides the detected core count and ``force_pool``
    skips both the core clamp and the cost-model fallback — testing
    hooks for exercising the pool on any host.
    ``plan_out``, if given, receives the chosen :class:`ExecutionPlan`.
    """
    specs = list(specs)
    total = len(specs)
    if total == 0:
        return []
    if force_pool and max_workers is not None and max_workers not in (0, 1):
        requested = max_workers if max_workers > 0 else (
            cpu_count if cpu_count is not None else os.cpu_count() or 1
        )
        workers = max(1, min(requested, total))
    else:
        workers = resolve_workers(max_workers, total, cpu_count)
    if workers <= 1 or total <= 1:
        plan = plan_execution(total, workers, 0.0, chunk_size)
        if plan_out is not None:
            plan_out.append(plan)
        return _execute_serial(specs, total, progress, runner)

    # Timing probe: the first spec runs in-parent, its measured cost
    # feeds the plan.  Probe work is never wasted — its outcome is the
    # first result either way.
    started = _time.perf_counter()
    first = execute_run(specs[0], runner)
    cost_per_run = _time.perf_counter() - started
    if progress is not None:
        progress(1, total, first)
    rest = specs[1:]
    plan = plan_execution(len(rest), workers, cost_per_run, chunk_size)
    if force_pool:
        plan = dataclasses.replace(
            plan,
            workers=workers,
            chunk_size=chunk_size_for(len(rest), workers, chunk_size),
            use_pool=len(rest) > 0,
            reason="pool forced",
        )
    if plan_out is not None:
        plan_out.append(plan)
    if not plan.use_pool:
        return [first] + _execute_serial(rest, total, progress, runner, done=1)

    task: _t.Callable[[_t.Sequence[RunSpec]], list[RunOutcome]] = (
        execute_chunk if runner is None else functools.partial(execute_chunk, runner=runner)
    )
    size = plan.chunk_size
    results: list[RunOutcome | None] = [None] * len(rest)
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=plan.workers, initializer=warm_worker
    ) as pool:
        futures = {
            pool.submit(task, rest[start:start + size]): start
            for start in range(0, len(rest), size)
        }
        completed = 1
        for future in concurrent.futures.as_completed(futures):
            start = futures[future]
            chunk = rest[start:start + size]
            try:
                outcomes = future.result()
            except Exception as exc:
                # execute_run already catches run exceptions inside the
                # worker; reaching here means the worker itself died
                # (killed, OOM, unpicklable result) mid-chunk.  Every run
                # in the chunk is reported failed — still not fatal.
                outcomes = [
                    RunOutcome.failure(
                        spec, f"worker failed: {type(exc).__name__}: {exc}"
                    )
                    for spec in chunk
                ]
            for offset, outcome in enumerate(outcomes):
                results[start + offset] = outcome
                completed += 1
                if progress is not None:
                    progress(completed, total, outcome)
    return [first] + _t.cast("list[RunOutcome]", results)


class ParallelCampaign(Campaign):
    """A :class:`Campaign` that fans runs out across worker processes.

    ``max_workers=-1`` (the default) uses every core; results are
    identical to the serial :class:`Campaign` for the same config — and
    on hosts where a pool cannot win, execution *is* serial.
    """

    def __init__(self, config: CampaignConfig | None = None, max_workers: int = -1) -> None:
        super().__init__(config)
        self.max_workers = max_workers

    def run(
        self,
        progress: ProgressFn | None = None,
        max_workers: int | None = None,
        chunk_size: int | None = None,
    ) -> list[RunOutcome]:
        effective = self.max_workers if max_workers is None else max_workers
        return super().run(progress=progress, max_workers=effective, chunk_size=chunk_size)
