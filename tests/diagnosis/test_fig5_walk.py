"""Figure 5: the fault tree and the paper's wrong-AMI diagnosis walk.

Reproduces the §III.B.4 example: the assertion that a new instance runs
the correct version fails because the launched instance is based on the
wrong AMI; diagnosis verifies the security group, the key pair, then the
AMI setting, excluding faults one by one until the root cause is found.
"""

import pytest

from repro.faulttree.library import build_standard_fault_trees
from repro.testbed import build_testbed


@pytest.fixture(scope="module")
def wrong_ami_run():
    testbed = build_testbed(cluster_size=4, seed=77)

    def inject():
        yield testbed.engine.timeout(40)
        rogue = testbed.cloud.api("rogue").register_image("rogue", "v9")["ImageId"]
        testbed.cloud.injector.change_lc_ami("lc-app-v2", rogue)

    testbed.engine.process(inject())
    testbed.run_upgrade()
    return testbed


def test_tree_structure():
    """The Fig. 5 tree's wrong-config subtree: '4 potential faults in total'."""
    wrong_config = build_standard_fault_trees().get("asg-instance-count").find("asg-wrong-config")
    assert len(wrong_config.children) == 4


def test_diagnosis_walk(wrong_ami_run):
    """The root cause is confirmed after the sibling faults are excluded,
    as in the paper's log excerpt, in the paper's seconds range."""
    version_reports = [
        r for r in wrong_ami_run.pod.reports
        if r.trigger_detail == "new-instance-correct-version"
    ]
    assert version_reports, "the low-level version assertion must have failed"
    report = version_reports[0]
    assert "lc-wrong-ami" in {c.node_id for c in report.root_causes}
    excluded = {t.node_id for t in report.tests if t.verdict == "excluded"}
    assert {"lc-wrong-security-group", "lc-wrong-key-pair"} <= excluded
    assert 0.5 < report.duration < 11.0


def test_context_pruning(wrong_ami_run):
    """'If the assertion after New instance ready… triggered diagnosis, we
    prune all other sub-trees': a diagnosis triggered at the READY step
    never tests the update-launch-configuration subtree."""
    ready_reports = [r for r in wrong_ami_run.pod.reports if r.step == "new_instance_ready"]
    assert ready_reports
    for report in ready_reports:
        tested = {t.node_id for t in report.tests}
        assert "create-lc-fails" not in tested
        assert "lc-ami-missing" not in tested
