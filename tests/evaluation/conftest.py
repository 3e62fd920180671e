"""The paper's full §V campaign, run once per test session.

8 fault types x 20 runs, 4 of them on the 20-instance cluster, seed 2014:
the Table I / Fig. 6 / Fig. 7 pins and the paper-figure checks all read
this one campaign, so no second campaign runs.  It runs in-process, with
the ASG controller's full passes and ticks counted on the way.
"""

import collections

import pytest

from repro.cloud.controller import AsgController
from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.evaluation.metrics import compute_metrics


@pytest.fixture(scope="session")
def paper_campaign():
    """(outcomes, controller work counts) of the seed-2014 campaign."""
    work = collections.Counter()
    reconcile, rotation = AsgController.reconcile, AsgController._rotation

    def counted_reconcile(controller):
        work["full_passes"] += 1
        return reconcile(controller)

    def counted_rotation(controller):
        # Every tick, full or quiet, takes exactly one rotation.
        work["ticks"] += 1
        return rotation(controller)

    campaign = Campaign(CampaignConfig(runs_per_fault=20, large_cluster_runs=4, seed=2014))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AsgController, "reconcile", counted_reconcile)
        patch.setattr(AsgController, "_rotation", counted_rotation)
        campaign.run(max_workers=1)
    return campaign.outcomes, dict(work)


@pytest.fixture(scope="session")
def paper_outcomes(paper_campaign):
    return paper_campaign[0]


@pytest.fixture(scope="session")
def paper_controller_work(paper_campaign):
    return paper_campaign[1]


@pytest.fixture(scope="session")
def paper_metrics(paper_outcomes):
    return compute_metrics(paper_outcomes)
