"""Text renderings of the paper's figures and headline numbers.

The CLI prints these; EXPERIMENTS.md records paper-vs-measured.
"""

from __future__ import annotations

import statistics
import typing as _t

from repro.evaluation.metrics import CampaignMetrics

#: Fig. 6 histogram bin edges (seconds).
FIG6_BINS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, float("inf"))


def diagnosis_time_distribution(times: _t.Sequence[float]) -> list[tuple[str, int]]:
    """Histogram of diagnosis times over the Fig. 6 bins."""
    counts = [0] * (len(FIG6_BINS) - 1)
    for t in times:
        for i in range(len(FIG6_BINS) - 1):
            if FIG6_BINS[i] <= t < FIG6_BINS[i + 1]:
                counts[i] += 1
                break
    labels = []
    for i in range(len(FIG6_BINS) - 1):
        hi = FIG6_BINS[i + 1]
        label = f"{FIG6_BINS[i]:.0f}-{hi:.0f}s" if hi != float("inf") else f">{FIG6_BINS[i]:.0f}s"
        labels.append(label)
    return list(zip(labels, counts))


def render_fig6(metrics: CampaignMetrics) -> str:
    """Fig. 6: distribution of error diagnosis time."""
    times = sorted(metrics.diagnosis_times)
    lines = ["Figure 6 — Distribution of error diagnosis time"]
    if not times:
        return "\n".join(lines + ["(no diagnoses recorded)"])
    total = len(times)
    for label, count in diagnosis_time_distribution(times):
        bar = "#" * max(1, round(40 * count / total)) if count else ""
        lines.append(f"  {label:>7}: {count:4d} {bar}")
    stats = metrics.diagnosis_time_stats()
    lines.append(
        f"  n={total}  min={stats['min']:.2f}s  mean={stats['mean']:.2f}s"
        f"  p95={stats['p95']:.2f}s  max={stats['max']:.2f}s"
    )
    lines.append(
        "  paper: range 1.29-10.44s, mean 2.30s, 95% within 3.83s"
    )
    return "\n".join(lines)


def render_fig7(metrics: CampaignMetrics) -> str:
    """Fig. 7: precision / recall / accuracy rate per fault type."""
    lines = [
        "Figure 7 — Precision / Recall of detection, Accuracy rate of diagnosis by fault type",
        f"  {'fault type':<24} {'precision':>9} {'recall':>7} {'accuracy':>9}",
    ]
    for ft, bucket in metrics.per_fault.items():
        lines.append(
            f"  {ft:<24} {bucket.precision:>8.1%} {bucket.recall:>6.1%}"
            f" {bucket.accuracy_rate:>8.1%}"
        )
    lines.append(
        f"  {'OVERALL':<24} {metrics.precision:>8.1%} {metrics.recall:>6.1%}"
        f" {metrics.accuracy_rate:>8.1%}"
    )
    return "\n".join(lines)


def render_headline(metrics: CampaignMetrics) -> str:
    """The abstract's headline numbers, paper vs measured."""
    stats = metrics.diagnosis_time_stats()
    lines = [
        "Headline results (paper → measured)",
        f"  injected faults detected : 160/160 → {metrics.faults_detected}/{metrics.faults_injected}",
        f"  interference detections  : 46 → {metrics.interference_detected}"
        f" (of {metrics.interference_events} events)",
        f"  false positives          : ~14 → {metrics.false_positives}",
        f"  precision of detection   : 91.95% → {metrics.precision:.2%}",
        f"  recall of detection      : 100% → {metrics.recall:.2%}",
        f"  accuracy rate            : 96.55-97.13% → {metrics.accuracy_rate:.2%}",
        f"  diagnosis time mean      : 2.30s → {stats['mean']:.2f}s",
        f"  diagnosis time 95th pct  : 3.83s → {stats['p95']:.2f}s",
    ]
    if metrics.detection_latencies:
        lines.append(
            f"  detection latency mean   : (Asgard: up to 70 min) →"
            f" {statistics.fmean(metrics.detection_latencies):.1f}s"
        )
    lines.append(
        f"  conformance flagged first: 20/80 resource-fault runs →"
        f" {metrics.conformance_first_runs}/{metrics.conformance_eligible_runs}"
    )
    return "\n".join(lines)
