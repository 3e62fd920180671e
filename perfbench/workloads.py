"""The benchmark's three workloads, driven through production entry points.

- ``paper-campaign``: the Table I campaign, 8 faults x 20 runs with four
  20-instance runs per fault, no chaos, no recovery - ROADMAP's unit of
  performance.
- ``chaos-recovery``: the same campaign shape on a severely degraded API
  plane, with closed-loop recovery after every run.
- ``log-replay``: the recorded Asgard logs of the same 160-run campaign,
  parsed with ``read_log`` and pushed, interleaved by time, through one
  ``LocalLogProcessor`` per operation node sharing one
  ``ConformanceChecker`` - conformance monitoring with no cloud
  simulation in the loop.

Campaign runs execute one at a time through ``execute_specs`` with one
worker; each is timed on the host clock.  A workload repeats its runs
(campaigns) or repetitions (log replay) until the measuring time is up
and reports medians, so one slow sample moves no metric.

The host is a shared VM whose speed drifts by tens of percent within
minutes.  So every timed sample is followed by a fixed reference work and
reported at the tuning host's speed: ``host seconds x REFERENCE_S /
reference seconds`` (see ``host_scale``).  A change to the program moves
the sample, not the reference.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import heapq
import json
import math
import statistics
import time

from repro.evaluation import Campaign, CampaignConfig, compute_metrics, execute_specs
from repro.evaluation.faults import FAULT_TYPES
from repro.logsys.annotator import ProcessAnnotator
from repro.logsys.filters import NoiseFilter
from repro.logsys.ingest import read_log, write_log_file
from repro.logsys.pipeline import LocalLogProcessor
from repro.logsys.storage import CentralLogStorage
from repro.logsys.trigger import Trigger
from repro.operations.profile import shared_rolling_upgrade_profile
from repro.process.conformance import ConformanceChecker
from repro.recovery.plan import ESCALATED, RECOVERED
from repro.testbed import Testbed

from tracing import PRINCIPALS, Tracer

CAMPAIGNS = {
    "paper-campaign": {},
    "chaos-recovery": {"chaos_profile": "severe", "recover": True},
}
WORKLOADS = (*CAMPAIGNS, "log-replay")

VERDICTS = ("fit", "unfit", "error", "unclassified")

#: Median time of ``reference_work`` on the host the benchmark was tuned
#: on (a shared 2-vCPU Intel Xeon VM, CPython 3); reported times are host
#: times scaled to that host's speed.
REFERENCE_S = 0.0044
REFERENCE_CHECKSUM = 13699
#: A scaled log-replay repetition is timed in laps of this many parsed
#: logs or processed records (~30 ms each), each lap scaled on its own.
LAP_LOGS = 20
LAP_RECORDS = 1000


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def reference_work() -> int:
    """Fixed interpreter work like the program's: objects, dicts, strings, a sort."""
    table: dict[str, int] = {}
    cells = []
    for i in range(4000):
        key = f"k{i % 509}"
        cell = _Cell(key, i)
        cells.append(cell)
        table[key] = table.get(key, 0) + cell.value
    cells.sort(key=lambda c: (c.key, -c.value))
    return len(table) + cells[0].value + sum(table.values()) % 9973


def host_scale() -> float:
    """``REFERENCE_S`` over the reference work's time now.

    A host time measured just before, multiplied by this, is that time at
    the tuning host's speed.  The collector is off meanwhile, so the
    garbage the measured work left is collected in later measured work,
    not charged to the reference.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        checksum = reference_work()
        elapsed = time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()
    if checksum != REFERENCE_CHECKSUM:
        raise RuntimeError(f"reference work returned {checksum}")
    return REFERENCE_S / elapsed


class LapClock:
    """Host time of one sample taken in laps.

    With ``scaled`` each lap is scaled by a reference timed right after
    it, with the clock stopped; otherwise laps are raw host time.
    """

    def __init__(self, scaled: bool) -> None:
        self.scaled = scaled
        self.total = 0.0
        self.started = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self.started
        self.total += elapsed * host_scale() if self.scaled else elapsed
        self.started = time.perf_counter()


class Checks:
    """Output checks; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition and len(self.failures) < 20:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


class TestbedLog:
    """Keeps the testbeds a campaign run builds, so their logs and
    counters can be read once the run has returned."""

    def __init__(self) -> None:
        self.testbeds: list[Testbed] = []
        self._original = None

    def __enter__(self) -> "TestbedLog":
        original = self._original = Testbed.__dict__["__init__"]
        made = self.testbeds

        def init(testbed, *args, **kwargs):
            original(testbed, *args, **kwargs)
            made.append(testbed)

        Testbed.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        Testbed.__init__ = self._original

    def take(self) -> list[Testbed]:
        testbeds = list(self.testbeds)
        self.testbeds.clear()
        return testbeds


def digest(outcome) -> str:
    """Canonical digest of one run outcome (equal outcomes, equal digest)."""
    payload = json.dumps(dataclasses.asdict(outcome), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def pipeline_counts(processors, checker) -> collections.Counter:
    """Ingest and conformance work, from the processors' and checker's own records."""
    counts = collections.Counter({key: 0 for key in (
        "logsys.records", "logsys.filtered", "logsys.shipped",
        *(f"process.{verdict}" for verdict in VERDICTS))})
    for processor in processors:
        counts["logsys.records"] += processor.noise_filter.seen_count
        counts["logsys.filtered"] += processor.noise_filter.dropped_count
        counts["logsys.shipped"] += processor.shipped_count
    for result in checker.results:
        counts["process." + result.status] += 1
    return counts


def testbed_counts(testbeds) -> collections.Counter:
    counts: collections.Counter = collections.Counter()
    for testbed in testbeds:
        counts.update(pipeline_counts(testbed.pod.processors, testbed.pod.conformance))
    return counts


def percentile_ms(values: list[float], fraction: float) -> float:
    """Harrell-Davis estimate of a percentile of seconds, in milliseconds.

    A mean of all order statistics weighted by the Beta((n+1)p, (n+1)(1-p))
    mass over each one's slot.  Campaign run times form two clusters
    (upgrades a fault stopped early, and upgrades that finished) that
    meet near the median; a single order statistic jumps between them
    from seed to seed, this estimate moves by the share of each.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return 1e3 * ordered[0]
    a, b = fraction * (n + 1), (1 - fraction) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule within each order statistic's slot
    weights = []
    for i in range(n):
        points = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                           for x in points))
    return 1e3 * sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def table_one(metrics) -> dict[str, float]:
    return {
        "precision": metrics.precision,
        "recall": metrics.recall,
        "diagnosis_accuracy": metrics.accuracy_rate,
        "false_positives": metrics.false_positives,
        # compute_metrics reports 1.0 when no recovery was attempted.
        "recovery_success": metrics.recovery_success_rate,
    }


def api_counts(health: dict) -> dict[str, float]:
    """Per-layer counts read from the outcomes' summed API-health counters."""
    attempts = health.get("calls", 0)
    wasted = (health.get("retries", 0) + health.get("blackholes", 0)
              + health.get("retry_exhaustions", 0) + health.get("budget_denials", 0))
    return {
        "cloud.state.stale_reads": health.get("cloud.reads.stale", 0),
        "cloud.state.fresh_reads": health.get("cloud.reads.fresh", 0),
        "cloud.chaos.injected": health.get("chaos_errors", 0) + health.get("chaos_blackholes", 0),
        "assertions.api_attempts": attempts,
        "assertions.api_useful_ratio": (attempts - wasted) / attempts if attempts else 1.0,
    }


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer counts and self times of a traced run, per workload pass."""
    counts = tracer.counts
    self_s = tracer.self_times()
    reconciles = counts.get("cloud.controller.reconciles", 0)
    api_calls = {p: counts.get("cloud.api.calls." + p, 0) for p in (*PRINCIPALS, "other")}
    times = {
        "cloud.controller.self_s": self_s["cloud.controller"],
        "cloud.state.write_s": self_s["cloud.state"],
        "testbed.provision_s": tracer.inclusive_s[tracer.layer_ids["testbed"]],
        "testbed.self_s": self_s["testbed"],
        "sim.self_s": self_s["sim"],
        "cloud.api.self_s": self_s["cloud.api"],
        "assertions.self_s": self_s["assertions"],
        "logsys.parse_s": self_s["logsys.parse"],
        "logsys.process_s": self_s["logsys.process"],
        "process.check_s": self_s["process"],
        "diagnosis.self_s": self_s["diagnosis"],
        "recovery.self_s": self_s["recovery"],
        "evaluation.self_s": self_s["evaluation"],
        "unattributed_s": self_s["root"],
        "traced_wall_s": tracer.inclusive_s[tracer.layer_ids["root"]],
    }
    work = {
        "cloud.controller.reconciles": reconciles,
        "cloud.state.writes": counts.get("cloud.state.writes", 0),
        "sim.events": counts.get("sim.events", 0),
        "cloud.api.calls": sum(api_calls.values()),
        **{f"cloud.api.calls.{p}": n for p, n in api_calls.items()},
        "assertions.evaluations": counts.get("assertions.evaluations", 0),
        "process.checks": counts.get("process.checks", 0),
    }
    return {
        "cloud.controller.useful_ratio":
            counts.get("cloud.controller.useful", 0) / reconciles if reconciles else 0.0,
        **{key: value / passes for key, value in times.items()},
        **{key: value // passes for key, value in work.items()},
    }


# -- campaigns ---------------------------------------------------------------


class CampaignWorkload:
    """A seeded campaign, run by spec through ``execute_specs``."""

    def __init__(self, name: str, seed: int, clock: LapClock) -> None:
        self.name = name
        self.specs = Campaign(CampaignConfig(seed=seed, **CAMPAIGNS[name])).build_specs()
        clock.lap()
        self.log = TestbedLog()
        self.checks = Checks()
        # Warm-up: the first run fills the process-wide caches (profile,
        # fault trees, probes, compiled replay table) that every later
        # run reuses; users pay that once per process, not per run.
        with self.log:
            _, outcome = self._run(0)
            self.log.take()
        clock.lap()
        self.warm_digest = digest(outcome)

    def _run(self, index: int):
        """(host seconds, outcome) of one run; its testbeds go to ``self.log``."""
        started = time.perf_counter()
        outcome = execute_specs([self.specs[index]], max_workers=1)[0]
        return time.perf_counter() - started, outcome

    def _check_outcome(self, index: int, outcome, first_digest: str | None) -> str:
        run_id = self.specs[index].run_id
        self.checks.expect(not outcome.failed, f"{run_id} crashed: {outcome.error}")
        recovery = outcome.recovery_class
        self.checks.expect(recovery in (None, RECOVERED, ESCALATED),
                           f"{run_id} recovery ended {recovery}")
        value = digest(outcome)
        if first_digest is not None:
            self.checks.expect(value == first_digest, f"{run_id} outcome differs on repetition")
        return value

    def _first_pass_checks(self, outcomes) -> None:
        self.checks.expect(self._digests[0] == self.warm_digest,
                           "first run differs from its warm-up run")
        if CAMPAIGNS[self.name].get("recover"):
            attempted = sum(o.recovery is not None for o in outcomes)
            self.checks.expect(attempted > 0, "no run attempted recovery")

    def measure(self, seconds: float) -> dict:
        """Untraced: every run at least once, then repeat until time is up."""
        count = len(self.specs)
        samples: list[list[float]] = [[] for _ in range(count)]
        outcomes = []
        self._digests: list[str] = []
        records = 0
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        with self.log:
            while attempted < count or time.perf_counter() < deadline:
                index = attempted % count
                elapsed, outcome = self._run(index)
                elapsed *= host_scale()
                counts = testbed_counts(self.log.take())
                attempted += 1
                failed += outcome.failed
                samples[index].append(elapsed)
                if attempted <= count:
                    outcomes.append(outcome)
                    records += counts["logsys.records"]
                    self._digests.append(self._check_outcome(index, outcome, None))
                else:
                    self._check_outcome(index, outcome, self._digests[index])
        self._first_pass_checks(outcomes)
        per_run = [statistics.median(s) for s in samples]
        total = sum(per_run)
        metrics = {
            "runs_per_s": count / total,
            "run_ms_p50": percentile_ms(per_run, 0.5),
            "run_ms_p90": percentile_ms(per_run, 0.9),
            "records_per_s": records / total,
            **table_one(compute_metrics(outcomes)),
        }
        return {"attempted": attempted, "failed": failed, "metrics": metrics}

    def traced(self, seconds: float, spans_path) -> dict:
        """One pass, whatever ``seconds`` says: each run once untraced and
        once traced (order alternating); per-layer numbers come from the
        traced runs."""
        tracer = Tracer()
        root = tracer.layer_ids["root"]
        evaluation = tracer.layer_ids["evaluation"]
        count = len(self.specs)
        outcomes = []
        self._digests = []
        counts: collections.Counter = collections.Counter()
        seconds_by_mode = {False: 0.0, True: 0.0}
        failed = 0
        with self.log:
            for index in range(count):
                digests = {}
                for traced in ((False, True) if index % 2 == 0 else (True, False)):
                    if traced:
                        tracer.run = index
                        tracer.install()
                        try:
                            tracer.enter(root)
                            tracer.enter(evaluation)
                            elapsed, outcome = self._run(index)
                            tracer.exit()
                            tracer.exit()
                        finally:
                            tracer.restore()
                        outcomes.append(outcome)
                        counts.update(testbed_counts(self.log.take()))
                    else:
                        elapsed, outcome = self._run(index)
                        self.log.take()
                    seconds_by_mode[traced] += elapsed
                    failed += outcome.failed
                    digests[traced] = self._check_outcome(index, outcome, None)
                self._digests.append(digests[False])
                self.checks.expect(digests[True] == digests[False],
                                   f"{self.specs[index].run_id} traced outcome differs")
        self._first_pass_checks(outcomes)
        tracer.run = -1
        tracer.enter(root)
        tracer.enter(evaluation)
        metrics = compute_metrics(outcomes)
        tracer.exit()
        tracer.exit()
        tracer.write(spans_path)

        layers = layer_metrics(tracer, passes=1)
        check_attribution(self.checks, tracer)
        reports = [r for o in outcomes for r in o.reports]
        layers.update(api_counts(metrics.api_health))
        layers.update(counts)
        layers.update({
            "diagnosis.reports": len(reports),
            "diagnosis.tests": sum(r.test_count for r in reports),
            "diagnosis.no_root_cause": sum(r.no_root_cause for r in reports),
            "diagnosis.virtual_s_mean": metrics.diagnosis_time_stats()["mean"],
            "recovery.attempted": metrics.recovery_attempted,
            "recovery.mttr_mean_s": metrics.mttr_stats()["mean"],
            "trace_overhead": seconds_by_mode[True] / seconds_by_mode[False] - 1.0,
        })
        return {"attempted": 2 * count, "failed": failed, "metrics": layers}


def check_attribution(checks: Checks, tracer: Tracer) -> None:
    """Self times plus unattributed time must add up to the traced wall time."""
    wall = tracer.inclusive_s[tracer.layer_ids["root"]]
    total = sum(tracer.self_s)
    checks.expect(abs(total - wall) <= 1e-9 * max(1, tracer.span_count()) + 1e-9 * wall,
                  f"self times sum to {total:.6f}s, traced wall time is {wall:.6f}s")


# -- log replay --------------------------------------------------------------


@dataclasses.dataclass
class Node:
    """One recorded operation node: its log and the verdicts seen live."""

    run_id: str
    lines: list[str]
    verdicts: list[str]


class ReplayWorkload:
    """Recorded campaign logs replayed through the monitoring pipeline."""

    def __init__(self, seed: int, workdir, clock: LapClock) -> None:
        self.checks = Checks()
        self.profile = shared_rolling_upgrade_profile()
        # The paper campaign's logs: every fault, both cluster sizes,
        # interference, and 160 runs so its Table I numbers vary by seed
        # no more than the campaign's own.
        specs = Campaign(CampaignConfig(seed=seed)).build_specs()
        outcomes = []
        self.nodes: list[Node] = []
        with TestbedLog() as log:
            for spec in specs:
                outcome = execute_specs([spec], max_workers=1)[0]
                self.checks.expect(not outcome.failed, f"recording {spec.run_id} crashed")
                outcomes.append(outcome)
                testbed = log.take()[-1]
                live = testbed.pod.conformance.results
                self.checks.expect(all(r.trace_id == spec.run_id for r in live),
                                   f"{spec.run_id}: live verdicts for another trace")
                path = workdir / f"{spec.run_id}.log"
                write_log_file(testbed.stream.records, path)
                with open(path) as handle:
                    lines = handle.readlines()
                self.nodes.append(Node(spec.run_id, lines, [r.status for r in live]))
                clock.lap()
        self.checks.expect({s.fault_type for s in specs} == set(FAULT_TYPES),
                           "recorded mix misses a fault type")
        self.checks.expect(len({s.cluster_size for s in specs}) == 2,
                           "recorded mix misses a cluster size")
        self.checks.expect(any(len(o.truth) > 1 for o in outcomes),
                           "recorded mix has no interference")
        self.table_one = table_one(compute_metrics(outcomes))
        self.line_count = sum(len(node.lines) for node in self.nodes)

    def repetition(self, tracer: Tracer | None = None, scaled: bool = False):
        """Parse every log, interleave by time, push through the pipeline.

        Returns (seconds, failed records, counts); the seconds are scaled
        lap by lap to the tuning host's speed if ``scaled``.  The replayed
        verdicts are checked once the clock has stopped.
        """
        profile = self.profile
        library = profile.library
        parse = read_log if tracer is None else tracer.sync("logsys.parse", read_log)
        failed = 0
        clock = LapClock(scaled)
        storage = CentralLogStorage()
        checker = ConformanceChecker(profile.model, library, storage=storage)
        processors = []
        streams = []
        for index, node in enumerate(self.nodes):
            records = parse(node.lines, source=f"{node.run_id}.log")
            processors.append(LocalLogProcessor(
                noise_filter=NoiseFilter(library, passthrough_unmatched=True),
                process_annotator=ProcessAnnotator(library, profile.model.model_id, node.run_id),
                assertion_annotator=profile.bindings_factory(),
                trigger=Trigger(conformance=checker.check),
                storage=storage,
            ))
            streams.append([(r.time, index, j, r) for j, r in enumerate(records)])
            if index % LAP_LOGS == LAP_LOGS - 1:
                clock.lap()
        for count, (_time, index, _j, record) in enumerate(heapq.merge(*streams), 1):
            try:
                processors[index].process(record)
            except Exception as exc:  # a failed operation, reported, not fatal
                failed += 1
                self.checks.expect(False, f"{self.nodes[index].run_id}: record raised {exc!r}")
            if count % LAP_RECORDS == 0:
                clock.lap()
        clock.lap()
        elapsed = clock.total

        seen = collections.defaultdict(list)
        for result in checker.results:
            seen[result.trace_id].append(result.status)
        for node in self.nodes:
            self.checks.expect(seen[node.run_id] == node.verdicts,
                               f"{node.run_id}: replayed verdicts differ from live")
        return elapsed, failed, pipeline_counts(processors, checker)

    def measure(self, seconds: float) -> dict:
        """Repetitions until time is up; a run here is one repetition."""
        rep_s: list[float] = []
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        while not rep_s or time.perf_counter() < deadline:
            elapsed, rep_failed, _ = self.repetition(scaled=True)
            rep_s.append(elapsed)
            attempted += self.line_count
            failed += rep_failed
        rep = statistics.median(rep_s)
        metrics = {
            "runs_per_s": 1.0 / rep,
            "run_ms_p50": percentile_ms(rep_s, 0.5),
            "run_ms_p90": percentile_ms(rep_s, 0.9),
            "records_per_s": self.line_count / rep,
            **self.table_one,
        }
        return {"attempted": attempted, "failed": failed, "metrics": metrics}

    def traced(self, seconds: float, spans_path) -> dict:
        """Alternate untraced and traced repetitions until time is up;
        per-layer numbers are per traced repetition."""
        tracer = Tracer()
        root = tracer.layer_ids["root"]
        untraced: list[float] = []
        traced: list[float] = []
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            if len(untraced) > len(traced):
                tracer.run = len(traced)
                tracer.install()
                try:
                    tracer.enter(root)
                    elapsed, rep_failed, counts = self.repetition(tracer)
                    tracer.exit()
                finally:
                    tracer.restore()
                traced.append(elapsed)
            else:
                elapsed, rep_failed, _ = self.repetition()
                untraced.append(elapsed)
            attempted += self.line_count
            failed += rep_failed
        tracer.write(spans_path)
        check_attribution(self.checks, tracer)
        layers = layer_metrics(tracer, passes=len(traced))
        layers.update(api_counts({}))
        layers.update(counts)
        layers.update({
            "diagnosis.reports": 0,
            "diagnosis.tests": 0,
            "diagnosis.no_root_cause": 0,
            "diagnosis.virtual_s_mean": 0.0,
            "recovery.attempted": 0,
            "recovery.mttr_mean_s": 0.0,
            "trace_overhead": statistics.median(traced) / statistics.median(untraced) - 1.0,
        })
        return {"attempted": attempted, "failed": failed, "metrics": layers}


def build(name: str, seed: int, workdir, clock: LapClock):
    """The workload, set up; ``clock`` takes a lap at each set-up step."""
    if name == "log-replay":
        return ReplayWorkload(seed, workdir, clock)
    return CampaignWorkload(name, seed, clock)
