"""The benchmark's own tests, on a held-out seed (not the paper's 2014).

Run from the repository root::

    python -m pytest -q perfbench

Each workload runs briefly, untraced and traced, through the same command
line the benchmark is driven with, so the output checks are exercised on
inputs they were not written against.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 7
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def bench(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result_of(bench(workload, trace=0))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up(workload):
    metrics = result_of(bench(workload, trace=1))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared("per_layer")
    value = {name: m["value"] for name, m in metrics.items()}
    self_times = [
        "cloud.controller.self_s", "cloud.state.write_s", "testbed.self_s", "sim.self_s",
        "cloud.api.self_s", "assertions.self_s", "logsys.parse_s", "logsys.process_s",
        "process.check_s", "diagnosis.self_s", "recovery.self_s", "evaluation.self_s",
        "unattributed_s",
    ]
    assert sum(value[name] for name in self_times) == pytest.approx(value["traced_wall_s"])
    if workload == "log-replay":
        assert value["cloud.controller.reconciles"] == 0 and value["sim.events"] == 0
        assert value["process.checks"] > 0
    else:
        assert value["cloud.controller.reconciles"] > 0 and value["diagnosis.reports"] > 0
    assert (value["recovery.attempted"] > 0) == (workload == "chaos-recovery")


def test_table_one_matches_the_campaign():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.evaluation import Campaign, CampaignConfig, compute_metrics

    metrics = compute_metrics(Campaign(CampaignConfig(seed=SEED)).run())
    reported = result_of(bench("paper-campaign", trace=0))["metrics"]
    assert reported["precision"]["value"] == metrics.precision
    assert reported["recall"]["value"] == metrics.recall
    assert reported["diagnosis_accuracy"]["value"] == metrics.accuracy_rate
    assert reported["false_positives"]["value"] == metrics.false_positives


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("paper-campaign", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
