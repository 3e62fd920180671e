"""Paper fidelity: the reproduced Table I / Fig. 6 / Fig. 7 numbers.

The full fault-injection campaign (8 fault types x 20 runs, 4 of them on
the large cluster, seed 2014; the session fixture in ``conftest.py``) is
deterministic, so its headline counts are pinned exactly rather than
bounded: any change to detection, conformance, pruning or scoring that
moves one of them fails here.

Paper (abstract, Table I): recall 100%, precision 91.95%, accuracy
96.55-97.13%, 46 detected interferences; diagnosis mean 2.30 s, 95%
within 3.83 s.
"""

import pytest

pytestmark = pytest.mark.fidelity


def test_table1_detection(paper_metrics):
    assert paper_metrics.faults_injected == 160
    assert paper_metrics.faults_detected == 160
    assert paper_metrics.tp == 207
    assert paper_metrics.false_positives == 5
    assert paper_metrics.precision == pytest.approx(207 / 212)
    assert paper_metrics.recall == 1.0


def test_table1_diagnosis_accuracy(paper_metrics):
    assert paper_metrics.accuracy_rate == 1.0


def test_interference_detections(paper_metrics):
    assert paper_metrics.interference_detected == 47


def test_fig6_diagnosis_time(paper_metrics):
    # Online diagnosis at seconds scale (paper: mean 2.30 s, p95 3.83 s).
    stats = paper_metrics.diagnosis_time_stats()
    assert stats["mean"] < 5.0
    assert stats["p95"] < 8.0


def test_fig7_per_fault_type(paper_metrics):
    assert len(paper_metrics.per_fault) == 8
    for fault_type, bucket in paper_metrics.per_fault.items():
        assert bucket.runs == 20, fault_type
        assert bucket.recall == 1.0, f"{fault_type}: recall must be 100%"
        assert bucket.precision >= 0.80, f"{fault_type}: precision collapsed"
        assert bucket.accuracy_rate >= 0.75, f"{fault_type}: accuracy collapsed"
