"""Campaign-level recovery regressions (the ``make recover`` gate).

Seeded recover-enabled campaigns over all 8 fault types: confirmed
automatable causes end RECOVERED with probes green and the resumed
upgrade conformant; non-automatable causes end ESCALATED with a human
advisory; the whole loop is deterministic (serial ≡ parallel bit-for-bit)
and survives severe API chaos without a single crashed run.
"""

import dataclasses

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.evaluation.metrics import compute_metrics
from repro.recovery import ESCALATED, RECOVERED

pytestmark = pytest.mark.recovery

#: Fault types whose confirmed causes the remediation catalog automates.
AUTOMATABLE = {
    "AMI_CHANGED",
    "KEYPAIR_WRONG",
    "SG_WRONG",
    "INSTANCE_TYPE_CHANGED",
    "KEYPAIR_UNAVAILABLE",
    "SG_UNAVAILABLE",
}
#: restore-image / escalate-elb are deliberately human-only.
NON_AUTOMATABLE = {"AMI_UNAVAILABLE", "ELB_UNAVAILABLE"}


def run_campaign(seed=77, chaos="none", max_workers=None):
    config = CampaignConfig(
        runs_per_fault=1,
        large_cluster_runs=0,
        seed=seed,
        chaos_profile=chaos,
        recover=True,
    )
    campaign = Campaign(config)
    campaign.run(max_workers=max_workers)
    return campaign.outcomes


class TestTerminalClasses:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return run_campaign(seed=77, max_workers=4)

    def test_every_run_reaches_a_terminal_class(self, outcomes):
        assert len(outcomes) == 8
        for outcome in outcomes:
            assert not outcome.failed, outcome.error
            assert outcome.recovery is not None
            assert outcome.recovery_class in (RECOVERED, ESCALATED)

    def test_automatable_faults_recover(self, outcomes):
        for outcome in outcomes:
            if outcome.spec.fault_type not in AUTOMATABLE:
                continue
            rec = outcome.recovery
            assert rec["status"] == RECOVERED, (outcome.spec.run_id, rec)
            # Probes green: every executed action verified.
            assert rec["actions"], outcome.spec.run_id
            assert all(
                a["status"] in ("verified", "already-satisfied")
                for a in rec["actions"]
            )
            assert rec["verified_at"] is not None
            assert rec["mttr"] is not None and rec["mttr"] >= 0
            # The healed fleet matches the target configuration.
            assert rec["fleet_conformant"], outcome.spec.run_id
            # A resumed upgrade (if one was needed) completed and its
            # fresh trace replayed conformantly.  (Assertion detections
            # may still fire for interference that perturbed the fleet.)
            if rec["resumed"]:
                assert rec["resume_status"] == "completed"
                assert rec["resume_conformant"] is True

    def test_non_automatable_faults_escalate_with_advisory(self, outcomes):
        for outcome in outcomes:
            if outcome.spec.fault_type not in NON_AUTOMATABLE:
                continue
            rec = outcome.recovery
            assert rec["status"] == ESCALATED, (outcome.spec.run_id, rec)
            assert rec["advisory"], outcome.spec.run_id

    def test_metrics_aggregate_recovery(self, outcomes):
        metrics = compute_metrics(outcomes)
        assert metrics.recovery_attempted == 8
        assert metrics.recovered_runs == len(AUTOMATABLE)
        assert metrics.escalated_runs == len(NON_AUTOMATABLE)
        assert metrics.recovery_success_rate == pytest.approx(0.75)
        assert len(metrics.mttr_values) == metrics.recovered_runs
        stats = metrics.mttr_stats()
        assert 0 < stats["mean"] <= stats["max"]


class TestSeed2014Pins:
    """The closed loop's quality on the seed-2014 8-fault campaign,
    pinned exactly: every number is virtual-clock simulation output, so
    a change to remediation, verification or resume that moves any of
    them fails here on every host."""

    def test_recovery_outcomes_pinned(self):
        metrics = compute_metrics(run_campaign(seed=2014))
        assert metrics.failed_runs == 0
        assert metrics.recovery_attempted == 8
        assert metrics.recovered_runs == 6
        assert metrics.escalated_runs == 2
        assert metrics.resumed_runs == 5
        assert metrics.recovery_success_rate == 0.75
        stats = metrics.mttr_stats()
        assert stats["mean"] == pytest.approx(449.43866620434136, rel=1e-9)
        assert stats["p95"] == pytest.approx(997.6292268437235, rel=1e-9)


class TestDeterminism:
    def test_serial_equals_parallel_bit_for_bit(self):
        serial = run_campaign(seed=301, max_workers=1)
        parallel = run_campaign(seed=301, max_workers=4)
        assert [dataclasses.asdict(o) for o in serial] == [
            dataclasses.asdict(o) for o in parallel
        ]


@pytest.mark.chaos
class TestChaosGate:
    def test_severe_chaos_never_crashes_recovery(self):
        """Recovery under a blackholing, erroring API plane: every run
        still reaches an explicit terminal class — degradation may turn
        RECOVERED into ESCALATED, never into an exception or a hang."""
        outcomes = run_campaign(seed=99, chaos="severe", max_workers=4)
        assert len(outcomes) == 8
        for outcome in outcomes:
            assert not outcome.failed, (outcome.spec.run_id, outcome.error)
            rec = outcome.recovery
            assert rec is not None
            assert rec["status"] in (RECOVERED, ESCALATED)
            if rec["status"] == ESCALATED:
                # Exhaustion is explicit: a human-action plan is attached.
                assert rec["advisory"] or not rec["cause_ids"]
