"""The paper's full §V campaign, run once per test session.

8 fault types x 20 runs, 4 of them on the 20-instance cluster, seed 2014:
the Table I / Fig. 6 / Fig. 7 pins and the paper-figure checks all read
this one campaign, so no second campaign runs.
"""

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.evaluation.metrics import compute_metrics


@pytest.fixture(scope="session")
def paper_outcomes():
    campaign = Campaign(CampaignConfig(runs_per_fault=20, large_cluster_runs=4, seed=2014))
    campaign.run()
    return campaign.outcomes


@pytest.fixture(scope="session")
def paper_metrics(paper_outcomes):
    return compute_metrics(paper_outcomes)
