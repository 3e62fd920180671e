"""Exact ASG-controller work on the seed-2014 paper campaign.

The controller ticks every 5 virtual seconds but runs a full reconcile
pass only when the region's write log or the instance limit moved since
its last pass that wrote nothing.  Both counts are deterministic, so they
are pinned exactly: a change that re-adds no-op passes (or changes the
tick schedule the §VI.A rotation depends on) fails here on any machine.
"""


def test_ticks_pinned(paper_controller_work):
    # One tick per 5 s of every run's virtual time, as before quiet ticks.
    assert paper_controller_work["ticks"] == 35513


def test_full_passes_pinned(paper_controller_work):
    # 87.5 % of the ticks are quiet: they replay a write-free pass.
    assert paper_controller_work["full_passes"] == 4453
