"""Sweep utilities, and the sensitivity sweeps beyond the paper's single
configuration: recall stays 100 % across interference intensity, cluster
size and transient-fault rate, while heavier interference and more
transients can only cost accuracy."""

import pytest

from repro.evaluation.metrics import CampaignMetrics, FaultTypeMetrics
from repro.evaluation.sweeps import (
    SweepPoint,
    render_sweep,
    sweep_cluster_size,
    sweep_interference,
    sweep_transient_rate,
)


def stub_metrics(precision_fp=0):
    return CampaignMetrics(
        per_fault={"AMI_CHANGED": FaultTypeMetrics("AMI_CHANGED", runs=1, tp=1)},
        total_runs=1,
        faults_injected=1,
        faults_detected=1,
        interference_events=0,
        interference_detected=0,
        false_positives=precision_fp,
        correct_diagnoses=1,
        diagnosis_times=[2.0],
        detection_latencies=[100.0],
        conformance_first_runs=0,
        conformance_eligible_runs=0,
    )


class TestSweepPoint:
    def test_row_shape(self):
        point = SweepPoint("interference_rate", 0.25, stub_metrics())
        row = point.row()
        assert row["parameter"] == "interference_rate"
        assert row["value"] == 0.25
        assert row["precision"] == 1.0
        assert row["diag_mean_s"] == 2.0

    def test_render_table(self):
        points = [
            SweepPoint("x", 0.0, stub_metrics()),
            SweepPoint("x", 1.0, stub_metrics(precision_fp=1)),
        ]
        text = render_sweep(points)
        assert "Sweep over x" in text
        assert "100.0%" in text and "50.0%" in text

    def test_render_empty(self):
        assert render_sweep([]) == "(empty sweep)"


class TestTinySweep:
    def test_single_point_interference_sweep(self):
        """One sweep point on a tiny campaign exercises the full path."""
        points = sweep_interference(rates=(0.0,), runs_per_fault=1, seed=7100)
        assert len(points) == 1
        assert points[0].metrics.total_runs == 8
        assert points[0].metrics.recall == 1.0


class TestSensitivitySweeps:
    def test_interference(self):
        calm, stormy = sweep_interference(rates=(0.0, 0.5), runs_per_fault=3)
        assert calm.metrics.recall == 1.0
        assert stormy.metrics.recall == 1.0
        assert calm.metrics.interference_events == 0
        assert stormy.metrics.interference_detected >= 1
        # Interference cannot improve diagnosis accuracy.
        assert stormy.metrics.accuracy_rate <= calm.metrics.accuracy_rate + 1e-9

    def test_cluster_size(self):
        for point in sweep_cluster_size(sizes=(4, 20), runs_per_fault=2):
            assert point.metrics.recall == 1.0, f"recall collapsed at n={point.value}"
            assert point.metrics.accuracy_rate >= 0.7

    def test_transient_rate(self):
        never, always = sweep_transient_rate(rates=(0.0, 1.0), runs_per_fault=3)
        assert never.metrics.recall == 1.0
        assert always.metrics.recall == 1.0, "transients must still be detected"
        # With every configuration fault transient, some flaps evade the
        # monitor: accuracy cannot exceed the no-transient baseline.
        assert always.metrics.accuracy_rate <= never.metrics.accuracy_rate + 1e-9
