"""Ablations: what each POD-Diagnosis design choice buys.

1. process-context pruning (§III.B.4): diagnosing with vs without
   pruning by the triggering step;
2. diagnostic-test result reuse: the per-run cache;
3. probability-ordered visits: checking likely faults first;
4. watchdog calibration (§IV's 95th-percentile rule): false alarms vs
   detection latency across interval settings.
"""

import pytest

from repro.diagnosis.engine import DiagnosisEngine
from repro.faulttree.library import build_standard_fault_trees
from repro.process.context import ProcessContext
from repro.testbed import build_testbed


def diagnose_with(testbed, tree_ids, context=None, **engine_kwargs):
    """Run a fresh diagnosis engine over the given trees on a testbed."""
    engine = DiagnosisEngine(
        testbed.engine,
        build_standard_fault_trees(),
        testbed.pod.assertions,
        testbed.pod.probes,
        **engine_kwargs,
    )
    engine.diagnose(tree_ids, context=context, trigger_detail="ablation")
    testbed.engine.run(until=testbed.engine.now + 120)
    return engine.completed[0]


def executed(report):
    return sum(1 for t in report.tests if not t.cached)


@pytest.fixture(scope="module")
def wrong_ami_testbed():
    testbed = build_testbed(cluster_size=4, seed=811)

    def inject():
        yield testbed.engine.timeout(40)
        rogue = testbed.cloud.api("rogue").register_image("rogue", "v9")["ImageId"]
        testbed.cloud.injector.change_lc_ami("lc-app-v2", rogue)

    testbed.engine.process(inject())
    testbed.run_upgrade()
    assert testbed.pod.detections
    return testbed


def test_context_pruning(wrong_ami_testbed):
    """The Fig. 5 tree consulted from the *New instance ready* step: with
    pruning the update-launch-configuration subtree is never visited, and
    both variants still find the right root cause."""
    context = ProcessContext(
        process_id="rolling-upgrade", trace_id="upgrade-1", step="new_instance_ready"
    )
    with_pruning = diagnose_with(
        wrong_ami_testbed, ["asg-instance-count"], context=context, enable_pruning=True
    )
    without_pruning = diagnose_with(
        wrong_ami_testbed, ["asg-instance-count"], context=context, enable_pruning=False
    )
    assert with_pruning.potential_fault_count <= without_pruning.potential_fault_count
    assert executed(with_pruning) <= executed(without_pruning)
    for report in (with_pruning, without_pruning):
        assert any(c.node_id in ("wrong-ami", "lc-wrong-ami") for c in report.root_causes)


def test_result_reuse():
    """A timer-triggered failure with weak context consults the
    instance-count and resource-integrity trees; on an upgrade stalled by
    a deleted key pair, the key-pair check runs in both, and the cache
    collapses each duplicate into one execution."""
    stalled = build_testbed(cluster_size=4, seed=812)

    def inject():
        yield stalled.engine.timeout(30)
        stalled.cloud.injector.make_key_pair_unavailable("key-prod")

    stalled.engine.process(inject())
    stalled.run_upgrade()
    trees = ["asg-instance-count", "resource-integrity"]
    cached = diagnose_with(stalled, trees, enable_cache=True)
    uncached = diagnose_with(stalled, trees, enable_cache=False)
    assert sum(1 for t in cached.tests if t.cached) >= 1
    assert cached.duration <= uncached.duration + 0.5


def test_probability_ordering(wrong_ami_testbed):
    """Visiting likely faults first reaches the root cause sooner."""

    def tests_until_confirmed(report):
        for index, test in enumerate(report.tests, start=1):
            if test.verdict == "confirmed" and test.node_id.startswith(("wrong-", "lc-wrong-")):
                return index
        return len(report.tests)

    def inverted_trees():
        registry = build_standard_fault_trees()
        for tree_id in registry.tree_ids():
            for node in registry.get(tree_id).root.iter_nodes():
                node.probability = 1.0 - node.probability
        return registry

    first_failure = next(r for r in wrong_ami_testbed.pod.assertions.results if r.failed)

    def run(registry):
        engine = DiagnosisEngine(
            wrong_ami_testbed.engine,
            registry,
            wrong_ami_testbed.pod.assertions,
            wrong_ami_testbed.pod.probes,
        )
        engine.diagnose_assertion_failure(first_failure)
        wrong_ami_testbed.engine.run(until=wrong_ami_testbed.engine.now + 120)
        return engine.completed[0]

    ordered = run(build_standard_fault_trees())
    inverted = run(inverted_trees())
    assert tests_until_confirmed(ordered) <= tests_until_confirmed(inverted)


def test_watchdog_calibration():
    """§IV's 95th-percentile rule: tighter watchdogs detect stalls sooner
    but false-alarm on slow boots; looser ones are quiet but late."""

    def sweep(interval):
        false_alarms = 0
        for seed in range(6):
            healthy = build_testbed(cluster_size=4, seed=900 + seed, watchdog_interval=interval)
            healthy.run_upgrade()
            false_alarms += sum(1 for d in healthy.pod.detections if d.cause == "timer-timeout")
        stalled = build_testbed(cluster_size=4, seed=950, watchdog_interval=interval)
        injected_at = []

        def inject():
            yield stalled.engine.timeout(30)
            stalled.cloud.injector.make_key_pair_unavailable("key-prod")
            injected_at.append(stalled.engine.now)

        stalled.engine.process(inject())
        stalled.run_upgrade()
        latency = min(
            (d.time - injected_at[0] for d in stalled.pod.detections), default=float("inf")
        )
        return false_alarms, latency

    results = {interval: sweep(interval) for interval in (110.0, 140.0, 200.0)}
    # Tight watchdogs must not detect slower than loose ones...
    assert results[110.0][1] <= results[200.0][1] + 1e-6
    # ...and loose ones false-alarm at most as often as tight ones.
    assert results[200.0][0] <= results[110.0][0]
