"""The error-diagnosis engine (§III.B.4).

Walks instantiated, context-pruned fault trees top-down:

- a node's diagnostic test *confirms* the fault → visit its children
  (ordered by prior probability); a confirmed **leaf** is a root cause;
- the test *excludes* the fault → prune the subtree;
- the test is *inconclusive* (missing context, CloudTrail delay, API
  timeout) → diagnosis cannot proceed below that node;
- a confirmed node none of whose children confirm is reported as an
  **undetermined** root cause ("diagnosis stops at the point where no
  further child nodes can be checked").

Test results are cached per run and reused across nodes.  Every step is
logged in the paper's diagnosis-log style.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from repro.assertions.consistent_api import ConsistentCallError
from repro.assertions.evaluation import AssertionEvaluationService
from repro.diagnosis.cache import DiagnosisCache
from repro.diagnosis.report import (
    CONFIRMED,
    EXCLUDED,
    INCONCLUSIVE,
    DiagnosisReport,
    RootCause,
    TestExecution,
)
from repro.diagnosis.tests import CustomTestRegistry
from repro.faulttree.builder import FaultTreeRegistry
from repro.faulttree.instantiate import instantiate_tree
from repro.faulttree.tree import DiagnosticTest, FaultNode
from repro.logsys.record import LogRecord
from repro.process.context import ProcessContext


@dataclasses.dataclass
class DiagnosisRequest:
    """One diagnosis invocation."""

    request_id: str
    trigger: str  # "assertion" | "conformance" | "external"
    trigger_detail: str
    tree_ids: list[str]
    params: dict
    context: ProcessContext | None = None
    since: float = 0.0


class DiagnosisEngine:
    """Fault-tree walking diagnosis service."""

    #: Diagnosis runs as a RESTful service in the paper (§IV): selecting
    #: and instantiating trees costs one service round trip, and every
    #: diagnostic test is one more.  These latencies reproduce that cost
    #: structure (and hence the Fig. 6 distribution's scale).
    STARTUP_LATENCY_MEDIAN = 0.55
    TEST_OVERHEAD_MEDIAN = 0.06

    def __init__(
        self,
        engine,
        trees: FaultTreeRegistry,
        assertions: AssertionEvaluationService,
        probes: CustomTestRegistry,
        storage=None,
        seed: int = 0,
        enable_pruning: bool = True,
        enable_cache: bool = True,
        step_aliases: dict[str, str] | None = None,
        obs=None,
    ) -> None:
        from repro.obs import NULL_OBS

        obs = obs or NULL_OBS
        self._tracer = obs.tracer if obs.enabled else None
        self._metrics = obs.metrics if obs.enabled else None
        self.engine = engine
        self.trees = trees
        self.assertions = assertions
        self.probes = probes
        self.storage = storage
        #: Ablation switches: context pruning (the paper's subtree pruning
        #: by process context) and per-run diagnostic-test result reuse.
        #: Production keeps both on; the ablation tests check what each
        #: buys.
        self.enable_pruning = enable_pruning
        self.enable_cache = enable_cache
        #: Operation-specific activity -> canonical tree step translation
        #: (see OperationProfile.step_aliases).
        self.step_aliases = dict(step_aliases or {})
        from repro.sim.latency import LogNormalLatency

        self._startup_latency = LogNormalLatency(
            median=self.STARTUP_LATENCY_MEDIAN, sigma=0.30, seed=seed + 311, cap=4.0
        )
        self._test_overhead = LogNormalLatency(
            median=self.TEST_OVERHEAD_MEDIAN, sigma=0.35, seed=seed + 313, cap=2.0
        )
        self.reports: list[DiagnosisReport] = []
        self.completed: list[DiagnosisReport] = []
        self._ids = itertools.count(1)
        self._done_callbacks: list[_t.Callable[[DiagnosisReport], None]] = []

    def on_report(self, callback: _t.Callable[[DiagnosisReport], None]) -> None:
        self._done_callbacks.append(callback)

    # -- trigger entry points ---------------------------------------------------

    def diagnose_assertion_failure(self, result) -> DiagnosisRequest | None:
        """Entry point wired to AssertionEvaluationService.on_failure."""
        assertion = self.assertions.assertions.get(result.assertion_id)
        tree_id = getattr(assertion, "fault_tree_id", None)
        if tree_id is None or tree_id not in self.trees:
            return None
        params = self._merge_params(result.params, result.context)
        request = DiagnosisRequest(
            request_id=f"diag-{next(self._ids)}",
            trigger="assertion",
            trigger_detail=result.assertion_id,
            tree_ids=[tree_id],
            params=params,
            context=result.context,
            since=float(params.get("since", 0.0) or 0.0),
        )
        self._start(request)
        return request

    def diagnose_conformance_error(self, result) -> DiagnosisRequest:
        """Entry point wired to ConformanceChecker.on_error.

        For unknown/error lines the observed "step" is a pseudo-activity
        (``operation_error`` / ``unclassified``); prune by the *last valid*
        activity instead — that is where the process actually was.
        """
        context = result.context
        if result.status in ("unclassified", "error") and context is not None:
            context = context.merged_with(step=context.last_valid_activity)
        params = self._merge_params({}, context)
        request = DiagnosisRequest(
            request_id=f"diag-{next(self._ids)}",
            trigger="conformance",
            trigger_detail=f"{result.status}:{result.activity or 'unknown-line'}",
            tree_ids=["process-deviation"],
            params=params,
            context=context,
            since=float(params.get("since", 0.0) or 0.0),
        )
        self._start(request)
        return request

    def diagnose(
        self,
        tree_ids: list[str],
        params: dict | None = None,
        context: ProcessContext | None = None,
        trigger_detail: str = "manual",
    ) -> DiagnosisRequest:
        """Run a diagnosis over an explicit set of fault trees.

        The programmatic entry point: operators (and the ablation tests)
        can ask for any tree combination — e.g. a timer-triggered failure
        with weak context may warrant consulting both the instance-count
        tree and the resource-integrity tree.
        """
        merged = self._merge_params(params or {}, context)
        request = DiagnosisRequest(
            request_id=f"diag-{next(self._ids)}",
            trigger="external",
            trigger_detail=trigger_detail,
            tree_ids=list(tree_ids),
            params=merged,
            context=context,
            since=float(merged.get("since", 0.0) or 0.0),
        )
        self._start(request)
        return request

    def diagnose_external(self, record: LogRecord) -> DiagnosisRequest:
        """Entry point for the central log processor (third-party failure
        lines)."""
        context = ProcessContext.from_record(record)
        params = self._merge_params(dict(record.fields), context)
        request = DiagnosisRequest(
            request_id=f"diag-{next(self._ids)}",
            trigger="external",
            trigger_detail=record.source,
            tree_ids=["process-deviation"],
            params=params,
            context=context,
            since=float(params.get("since", 0.0) or 0.0),
        )
        self._start(request)
        return request

    # -- request construction ------------------------------------------------------

    def _merge_params(self, params: dict, context) -> dict:
        """Request params: env config ∪ trigger params ∪ context fields.

        The configuration repository supplies the stable variables
        (asg_name, expected ids, N); the trigger adds specifics
        (instanceid of the new instance, counts).
        """
        merged: dict = {}
        config = self.assertions.env.config
        merged.update(config)
        if "desired_capacity" in config and "N" not in merged:
            merged["N"] = config["desired_capacity"]
        groups = config.get("expected_security_groups")
        if groups and "expected_security_group" not in merged:
            merged["expected_security_group"] = groups[0]
        if context is not None:
            merged.update({k: v for k, v in context.fields.items() if v is not None})
        merged.update({k: v for k, v in params.items() if v is not None})
        return merged

    # -- execution -------------------------------------------------------------------

    def _start(self, request: DiagnosisRequest) -> None:
        span = None
        if self._tracer is not None:
            # Opened at the trigger site (inside the assertion/conformance
            # span that detected the anomaly); the walk itself runs as its
            # own engine process and closes the span when it completes.
            span = self._tracer.start_span(
                "walk",
                "diagnosis",
                trigger=request.trigger,
                trigger_detail=request.trigger_detail,
                tree_ids=list(request.tree_ids),
            )
            self._metrics.inc("diagnosis.requests")
            self._metrics.inc(f"diagnosis.requests.{request.trigger}")
        self.engine.process(self._run(request, span), name=request.request_id)

    def _run(self, request: DiagnosisRequest, span=None) -> _t.Generator:
        report = DiagnosisReport(
            request_id=request.request_id,
            trigger=request.trigger,
            trigger_detail=request.trigger_detail,
            trace_id=request.context.trace_id if request.context else "unknown",
            step=request.context.step if request.context else None,
            started_at=self.engine.now,
            tree_ids=list(request.tree_ids),
        )
        self.reports.append(report)
        # Service round trip: receive the request, select the tree(s),
        # instantiate variables, prune by context.
        yield self.engine.timeout(self._startup_latency.sample())
        cache = DiagnosisCache()
        step = request.context.step if request.context else None
        if step is not None:
            step = self.step_aliases.get(step, step)
        if not self.enable_pruning:
            step = None
        roots: list[FaultNode] = []
        for tree_id in request.tree_ids:
            tree = self.trees.get(tree_id)
            roots.append(instantiate_tree(tree, request.params, step=step))
        report.potential_fault_count = sum(len([n for n in r.iter_nodes() if n.is_leaf]) for r in roots)
        self._log(
            request,
            f"Performing on demand assertion checking: {request.trigger_detail}."
            f" {report.potential_fault_count} potential faults in total...",
        )
        for root in roots:
            causes = yield from self._visit(root, request, report, cache, is_root=True, span=span)
            report.root_causes.extend(causes)
        report.finished_at = self.engine.now
        if report.no_root_cause:
            self._log(request, "No root cause identified")
        else:
            count = len(report.root_causes)
            noun = "root cause is" if count == 1 else "root causes are"
            self._log(request, f"{count} {noun} identified")
        self.completed.append(report)
        if self._tracer is not None:
            self._tracer.finish(
                span,
                root_causes=len(report.root_causes),
                no_root_cause=report.no_root_cause,
                tests=len(report.tests),
            )
            self._metrics.observe("diagnosis.walk.duration", report.finished_at - report.started_at)
            # Per-walk reuse of diagnostic-test results (§III.B.4): the
            # cache is scoped to this diagnosis, counters aggregate into
            # the run's registry so trace-export shows the reuse rate.
            self._metrics.inc("diagnosis.cache.hits", cache.hits)
            self._metrics.inc("diagnosis.cache.misses", cache.misses)
        for callback in self._done_callbacks:
            callback(report)
        return report

    def _visit(
        self,
        node: FaultNode,
        request: DiagnosisRequest,
        report: DiagnosisReport,
        cache: DiagnosisCache,
        is_root: bool = False,
        span=None,
    ) -> _t.Generator:
        verdict = CONFIRMED if node.test is None else None
        if node.test is not None:
            verdict = yield from self._run_test(node, node.test, request, report, cache, span)
        if verdict == EXCLUDED:
            report.excluded_count += 1
            self._log(
                request,
                f"Verified {node.node_id}: fault excluded."
                f" {report.excluded_count}/{report.potential_fault_count} checks excluded",
            )
            return []
        if verdict == INCONCLUSIVE:
            self._log(request, f"Check for {node.node_id} inconclusive; cannot proceed below")
            return []
        # Confirmed (or structural).
        if node.test is not None:
            self._log(request, f"Failed verification at {node.node_id}: {node.description}")
        if node.is_leaf:
            if node.test is None:
                # An untestable leaf can never be confirmed on evidence.
                return []
            return [RootCause(node.node_id, node.description, "confirmed", node.probability)]
        causes: list[RootCause] = []
        for child in node.ordered_children():
            causes.extend((yield from self._visit(child, request, report, cache, span=span)))
        if not causes and node.test is not None:
            # Evidence of a fault here, but nothing below could be pinned
            # down: the paper's "cannot determine why" terminal.
            return [RootCause(node.node_id, node.description, "undetermined", node.probability)]
        return causes

    def _run_test(
        self,
        node: FaultNode,
        test: DiagnosticTest,
        request: DiagnosisRequest,
        report: DiagnosisReport,
        cache: DiagnosisCache,
        walk_span=None,
    ) -> _t.Generator:
        params = dict(test.params)
        params.setdefault("since", request.since)
        key = (test.kind, test.name, tuple(sorted((k, str(v)) for k, v in params.items())))
        cached = cache.get(key) if self.enable_cache else None
        if cached is not None:
            report.tests.append(
                TestExecution(
                    node_id=node.node_id,
                    test_kind=test.kind,
                    test_name=test.name,
                    verdict=cached[0],
                    evidence=cached[1],
                    cached=True,
                    degraded=cached[2] if len(cached) > 2 else False,
                )
            )
            if self._tracer is not None:
                hit = self._tracer.start_span(
                    "test", "diagnosis", parent=walk_span,
                    node=node.node_id, test=test.name, cached=True,
                )
                self._tracer.finish(hit, verdict=cached[0])
                self._metrics.inc("diagnosis.tests_cached")
            return cached[0]
        # Unresolved variables mean the trigger context was too weak for
        # this test (e.g. purely timer-based detection with no instance
        # id): inconclusive without execution.
        unresolved = [
            k for k, v in params.items() if isinstance(v, str) and v.startswith("$")
        ]
        test_span = None
        if self._tracer is not None:
            test_span = self._tracer.start_span(
                "test", "diagnosis", parent=walk_span,
                node=node.node_id, test=test.name, kind=test.kind,
            )
        started = self.engine.now
        degraded = False
        if unresolved:
            verdict, evidence = INCONCLUSIVE, {"unresolved": unresolved}
        elif test.kind == "assertion":
            yield self.engine.timeout(self._test_overhead.sample())
            self._log(request, f"Verifying {node.node_id}: {test.name} {params}")
            try:
                result = yield from self.assertions.evaluate_on_demand(test.name, params)
            except KeyError:
                verdict, evidence = INCONCLUSIVE, {"reason": f"unknown assertion {test.name}"}
            except ConsistentCallError as exc:
                # Degraded API plane during an on-demand check: the
                # verdict is inconclusive, never a crashed diagnosis.
                verdict, evidence = INCONCLUSIVE, {"reason": f"API failure: {exc}"}
                degraded = exc.degraded
            else:
                if result.timed_out or result.degraded:
                    degraded = result.degraded
                    reason = "degraded API plane" if result.degraded else "assertion timed out"
                    verdict, evidence = INCONCLUSIVE, {"reason": reason}
                else:
                    failed_means_fault = test.confirm_on == "fail"
                    present = result.failed if failed_means_fault else result.passed
                    verdict = CONFIRMED if present else EXCLUDED
                    evidence = {"message": result.message, **result.observed}
        else:
            yield self.engine.timeout(self._test_overhead.sample())
            self._log(request, f"Verifying {node.node_id}: probe {test.name}")
            try:
                verdict, evidence = yield from self.probes.run(
                    test.name, self.assertions.env, params
                )
            except ConsistentCallError as exc:
                verdict, evidence = INCONCLUSIVE, {"reason": f"API failure: {exc}"}
                degraded = exc.degraded
            else:
                if evidence.get("degraded"):
                    degraded = True
        execution = TestExecution(
            node_id=node.node_id,
            test_kind=test.kind,
            test_name=test.name,
            verdict=verdict,
            evidence=evidence,
            duration=self.engine.now - started,
            degraded=degraded,
        )
        report.tests.append(execution)
        cache.put(key, (verdict, evidence, degraded))
        if self._tracer is not None:
            self._tracer.finish(test_span, verdict=verdict, degraded=degraded)
            self._metrics.inc(f"diagnosis.tests.{verdict}")
            self._metrics.observe("diagnosis.test.duration", execution.duration)
        return verdict

    # -- logging -------------------------------------------------------------------

    def _log(self, request: DiagnosisRequest, message: str) -> None:
        if self.storage is None:
            return
        clock = self.engine.clock
        trace = request.context.trace_id if request.context else "unknown"
        step = request.context.step if request.context else "-"
        record = LogRecord(
            time=self.engine.now,
            source="diagnosis.log",
            message=f"[diagnosis] [{trace}] [{step}] {message}",
            type="diagnosis",
            timestamp=clock.render(),
        )
        record.add_tag(f"trace:{trace}")
        record.add_tag(f"diagnosis:{request.request_id}")
        self.storage.append(record)
