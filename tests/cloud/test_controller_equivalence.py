"""Quiet controller ticks ≡ a full reconcile pass on every tick.

The production ASG controller skips the full pass on ticks where the
region's write log and the instance limit have not moved since its last
pass that wrote nothing, and replays that pass's failed launches instead.
The reference below is the loop as it was before: a full ``reconcile()``
every tick.  Both run the same seeded campaign runs — every fault type, a
second team starving the upgrade at the account limit, a severely
degraded API plane with recovery — and everything the controller produces
must be identical: the scaling-activity stream (every field), the write
log with its snapshots, the tick count and the run outcome.
"""

import dataclasses
import json

import pytest

from repro.cloud import provider
from repro.cloud.controller import AsgController
from repro.evaluation.campaign import Campaign, CampaignConfig, RunSpec, run_single
from repro.evaluation.faults import FAULT_TYPES
from repro.operations.interference import InterferencePlan


class CountingController(AsgController):
    """The production controller, noting when it ran a full pass."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pass_times: list[float] = []

    def reconcile(self) -> None:
        self.pass_times.append(self.engine.now)
        super().reconcile()


class FullPassController(CountingController):
    """Reference: a full ``reconcile()`` on every tick."""

    def _loop(self):
        while self._running:
            self.reconcile()
            yield self.engine.timeout(self.interval)


def _specs() -> list[RunSpec]:
    one_per_fault = Campaign(
        CampaignConfig(runs_per_fault=1, large_cluster_runs=0, seed=2014)
    ).build_specs()
    (large,) = Campaign(
        CampaignConfig(runs_per_fault=1, large_cluster_runs=1, seed=7,
                       fault_types=("SG_UNAVAILABLE",))
    ).build_specs()
    large.run_id = "sg_unavailable-large"
    starved = RunSpec(
        run_id="second-team-starvation",
        fault_type="AMI_UNAVAILABLE",
        seed=411,
        inject_at=200.0,
        interference=InterferencePlan(
            second_team_pressure_at=15.0, second_team_target_headroom=-6
        ),
    )
    chaotic = RunSpec(
        run_id="severe-chaos",
        fault_type="KEYPAIR_UNAVAILABLE",
        seed=97,
        inject_at=90.0,
        chaos_profile="severe",
        recover=True,
    )
    return [*one_per_fault, large, starved, chaotic]


SPECS = _specs()


def _run(spec: RunSpec, controller_cls, monkeypatch):
    made = []

    def build(*args, **kwargs):
        made.append(controller_cls(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(provider, "AsgController", build)
    outcome = run_single(spec)
    (controller,) = made
    return outcome, controller


def _digest(outcome) -> str:
    return json.dumps(dataclasses.asdict(outcome), sort_keys=True, default=repr)


def _writes(state) -> list:
    log = state.writes_since(0)
    return [(key, state.history(*key)) for key in dict.fromkeys(log)] + [log]


@pytest.fixture(scope="module")
def runs():
    """spec run_id -> ((outcome, controller) quiet, (outcome, controller) reference)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {
            spec.run_id: (
                _run(spec, CountingController, monkeypatch),
                _run(spec, FullPassController, monkeypatch),
            )
            for spec in SPECS
        }


def test_specs_cover_every_fault_type():
    assert {spec.fault_type for spec in SPECS} == set(FAULT_TYPES)
    assert len({spec.run_id for spec in SPECS}) == len(SPECS)


@pytest.mark.parametrize("run_id", [spec.run_id for spec in SPECS])
def test_quiet_ticks_match_full_passes(runs, run_id):
    (outcome, quiet), (reference_outcome, reference) = runs[run_id]
    assert not outcome.failed, outcome.error
    assert quiet._tick == reference._tick == len(reference.pass_times)
    assert [dataclasses.astuple(a) for a in quiet.activities] == [
        dataclasses.astuple(a) for a in reference.activities
    ]
    assert quiet.state.scaling_activities == quiet.activities
    assert _writes(quiet.state) == _writes(reference.state)
    assert _digest(outcome) == _digest(reference_outcome)


def test_quiet_ticks_replayed_failed_launches(runs):
    """The comparison is not vacuous: most ticks were quiet, and quiet
    ticks re-recorded failed launches the reference derived afresh."""
    ticks = sum(quiet._tick for (_, quiet), _ in runs.values())
    passes = sum(len(quiet.pass_times) for (_, quiet), _ in runs.values())
    assert passes < ticks / 2
    replayed = {}
    for run_id, ((_, quiet), _) in runs.items():
        passes_at = set(quiet.pass_times)
        replayed[run_id] = [
            a for a in quiet.activities
            if a.status == "Failed" and a.instance_id is None and a.time not in passes_at
        ]
    assert replayed["second-team-starvation"]
    assert replayed["severe-chaos"]
    assert all(replayed[spec.run_id] for spec in SPECS if spec.fault_type == "SG_UNAVAILABLE")


def test_second_team_starves_at_the_account_limit(runs):
    (_, quiet), _ = runs["second-team-starvation"]
    limited = {a.asg_name for a in quiet.activities if a.error_code == "InstanceLimitExceeded"}
    assert len(quiet.state.auto_scaling_groups) == 2
    assert limited == set(quiet.state.auto_scaling_groups)
