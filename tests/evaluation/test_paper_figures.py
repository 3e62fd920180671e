"""Paper figures and claims read off the seed-2014 §V campaign.

Every check here reads the session campaign of ``conftest.py`` (the one
``test_fidelity.py`` pins Table I on), so none runs a campaign of its own:

- §II baseline: POD-Diagnosis against orchestrator-only detection;
- §V.D: which fault types conformance checking can see first;
- Fig. 6: the shape of the diagnosis-time distribution.
"""

import statistics

import pytest

from repro.evaluation.figures import diagnosis_time_distribution, render_fig6

pytestmark = pytest.mark.fidelity

CONFIG_FAULTS = ("AMI_CHANGED", "KEYPAIR_WRONG", "SG_WRONG", "INSTANCE_TYPE_CHANGED")
RESOURCE_FAULTS = ("AMI_UNAVAILABLE", "KEYPAIR_UNAVAILABLE", "SG_UNAVAILABLE", "ELB_UNAVAILABLE")


# -- §II: POD-Diagnosis vs orchestrator-only detection ------------------------


def _family_row(outcomes, faults):
    family = [o for o in outcomes if o.spec.fault_type in faults]
    pod_latencies = [
        o.first_detection_at - o.injected_at
        for o in family
        if o.first_detection_at is not None and o.injected_at is not None
    ]
    orchestrator_latencies = [
        o.orchestrator_detected_at - o.injected_at
        for o in family
        if o.orchestrator_detected_at is not None
        and o.injected_at is not None
        and o.orchestrator_detected_at >= o.injected_at
    ]
    return {
        "runs": len(family),
        "pod_detected": sum(1 for o in family if o.fault_detected),
        "pod_mean_latency": statistics.fmean(pod_latencies) if pod_latencies else None,
        "orch_detected": len(orchestrator_latencies),
        "orch_mean_latency": (
            statistics.fmean(orchestrator_latencies) if orchestrator_latencies else None
        ),
    }


def test_baseline_detection(paper_outcomes):
    """Paper §II: with Asgard alone a failure may surface only after 70
    minutes, or never.  Configuration faults (wrong AMI/key/SG/type) are
    invisible to the orchestrator, which completes the upgrade on the
    wrong version; for resource faults it eventually times out, while
    POD's watchdog and assertions detect several times sooner."""
    config = _family_row(paper_outcomes, CONFIG_FAULTS)
    resource = _family_row(paper_outcomes, RESOURCE_FAULTS)
    # POD detects everything in both families.
    assert config["pod_detected"] == config["runs"]
    assert resource["pod_detected"] == resource["runs"]
    # The orchestrator misses most configuration faults outright; any
    # exceptions it does log in config runs come from concurrent
    # interference breaking the run, not from the fault.
    assert config["orch_detected"] <= config["runs"] // 2
    # On resource faults the orchestrator can notice (timeouts,
    # deregister failures), but POD is decisively faster on average.
    assert resource["orch_mean_latency"] is not None
    assert resource["pod_mean_latency"] is not None
    assert resource["pod_mean_latency"] < resource["orch_mean_latency"]


def test_baseline_speedup_factor(paper_outcomes):
    """Per-run speedup where both detected: POD beats the orchestrator in
    (nearly) every run, typically by several-fold."""
    values = []
    for o in paper_outcomes:
        if (
            o.injected_at is None
            or o.first_detection_at is None
            or o.orchestrator_detected_at is None
            or o.orchestrator_detected_at <= o.injected_at
        ):
            continue
        pod = max(1e-6, o.first_detection_at - o.injected_at)
        values.append((o.orchestrator_detected_at - o.injected_at) / pod)
    assert values, "some runs must have both detection signals"
    # v == 1.0 is a tie: POD's conformance detection fires on the very
    # exception line the orchestrator logged — same instant, not later.
    wins = sum(1 for v in values if v >= 1.0)
    assert wins / len(values) >= 0.9
    assert statistics.median(values) >= 2.0


# -- §V.D: conformance-checking detectability ---------------------------------


def test_conformance_detectability(paper_outcomes):
    """Paper: the configuration faults leave the log trace unchanged, so
    conformance cannot see them; of the 80 resource-fault runs it flagged
    20 erroneous traces before assertion checking did."""

    def conformance_first(fault_types):
        # Interference-free runs only: concurrent scale-ins/terminations
        # perturb the log trace regardless of the injected fault type.
        return sum(
            1
            for o in paper_outcomes
            if o.spec.fault_type in fault_types
            and o.conformance_before_assertion
            and o.truth == [o.spec.fault_type]
        )

    assert sum(1 for o in paper_outcomes if o.spec.fault_type in RESOURCE_FAULTS) == 80
    assert conformance_first(CONFIG_FAULTS) == 0
    assert conformance_first(RESOURCE_FAULTS) == 7


# -- Fig. 6: diagnosis-time distribution --------------------------------------


def test_fig6_distribution_shape(paper_metrics):
    """Paper: range 1.29-10.44 s, mean 2.30 s, 95 % within 3.83 s.  The
    reproduction keeps the shape: a right-skewed seconds-scale
    distribution with its mass between ~1 and ~5 seconds."""
    times = paper_metrics.diagnosis_times
    assert len(times) >= 160, "every detection produces at least one diagnosis"
    assert render_fig6(paper_metrics).startswith("Figure 6")
    stats = paper_metrics.diagnosis_time_stats()
    assert 0.4 <= stats["min"] <= 2.0  # paper: 1.29 s
    assert 1.5 <= stats["mean"] <= 3.5  # paper: 2.30 s
    assert stats["p95"] <= 8.0  # paper: 3.83 s
    assert stats["max"] <= 15.0  # paper: 10.44 s
    # Right-skewed: mean above median.
    assert stats["mean"] >= statistics.median(times) * 0.95


def test_fig6_histogram_mass(paper_metrics):
    histogram = dict(diagnosis_time_distribution(paper_metrics.diagnosis_times))
    within_5s = sum(
        count for label, count in histogram.items()
        if label in ("0-1s", "1-2s", "2-3s", "3-4s", "4-5s")
    )
    assert within_5s / sum(histogram.values()) >= 0.85, "the bulk of diagnoses finish within 5 s"


def test_detection_latency(paper_metrics):
    """The paper's motivating claim: Asgard may take up to 70 minutes to
    report a provisioning failure; POD detects within the watchdog and
    assertion granularity."""
    latencies = list(paper_metrics.detection_latencies)
    assert latencies
    assert statistics.fmean(latencies) < 600.0
    assert max(latencies) < 4200.0
