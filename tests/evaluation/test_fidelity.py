"""Paper fidelity: the reproduced Table I / Fig. 6 / Fig. 7 numbers.

The full fault-injection campaign (8 fault types x 20 runs, 4 of them on
the large cluster, seed 2014) is deterministic, so its headline counts
are pinned exactly rather than bounded: any change to detection,
conformance, pruning or scoring that moves one of them fails here.

Paper (abstract, Table I): recall 100%, precision 91.95%, accuracy
96.55-97.13%, 46 detected interferences; diagnosis mean 2.30 s, 95%
within 3.83 s.
"""

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.evaluation.metrics import compute_metrics

pytestmark = pytest.mark.fidelity


@pytest.fixture(scope="module")
def metrics():
    campaign = Campaign(CampaignConfig(runs_per_fault=20, large_cluster_runs=4, seed=2014))
    campaign.run()
    return compute_metrics(campaign.outcomes)


def test_table1_detection(metrics):
    assert metrics.faults_injected == 160
    assert metrics.faults_detected == 160
    assert metrics.tp == 207
    assert metrics.false_positives == 5
    assert metrics.precision == pytest.approx(207 / 212)
    assert metrics.recall == 1.0


def test_table1_diagnosis_accuracy(metrics):
    assert metrics.accuracy_rate == 1.0


def test_interference_detections(metrics):
    assert metrics.interference_detected == 47


def test_fig6_diagnosis_time(metrics):
    # Online diagnosis at seconds scale (paper: mean 2.30 s, p95 3.83 s).
    stats = metrics.diagnosis_time_stats()
    assert stats["mean"] < 5.0
    assert stats["p95"] < 8.0


def test_fig7_per_fault_type(metrics):
    assert len(metrics.per_fault) == 8
    for fault_type, bucket in metrics.per_fault.items():
        assert bucket.runs == 20, fault_type
        assert bucket.recall == 1.0, f"{fault_type}: recall must be 100%"
        assert bucket.precision >= 0.80, f"{fault_type}: precision collapsed"
        assert bucket.accuracy_rate >= 0.75, f"{fault_type}: accuracy collapsed"
