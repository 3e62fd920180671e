"""Observability overhead: disabled tracing must vanish into noise.

The obs layer's contract is zero cost when disabled: every hot path
resolves ``self._tracer``/``self._metrics`` to ``None`` once at
construction and pays a single ``is None`` check per record afterwards.
Two guards: a per-call ceiling on the disabled instruments themselves
(the worst case, for code that did not hoist the check), and a count of
the instrument calls an untraced campaign makes: none.
"""

import time

from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: Generous per-call ceiling for a disabled instrument (observed ~0.1 us;
#: a simulated run takes ~30 ms, so even 1000 records stay within noise).
DISABLED_CALL_CEILING_US = 3.0


def test_disabled_instruments_per_call():
    tracer = Tracer(enabled=False)
    registry = MetricsRegistry(enabled=False)
    iterations = 200_000
    started = time.perf_counter()
    for _ in range(iterations):
        span = tracer.span("record", "ingest")
        span.set(step="x")
        registry.inc("pipeline.records_ingested")
        registry.observe("assertion.duration", 0.1)
    per_call_us = (time.perf_counter() - started) / (iterations * 4) * 1e6
    assert per_call_us < DISABLED_CALL_CEILING_US, (
        f"disabled obs call costs {per_call_us:.3f} us: the disabled path is doing real work"
    )
    assert tracer.export() == []
    assert registry.snapshot()["counters"] == {}


def test_untraced_campaign_makes_no_instrument_calls(monkeypatch):
    """Counted instead of timed: an untraced 8-run campaign never reaches
    a tracer or metrics-registry method, while the same campaign traced
    does, so the counting hooks are live."""
    calls = {"untraced": 0, "traced": 0}
    mode = ["untraced"]

    def counting(method):
        def wrapper(self, *args, **kwargs):
            calls[mode[0]] += 1
            return method(self, *args, **kwargs)
        return wrapper

    for cls, names in ((Tracer, ("span", "start_span", "activate")),
                       (MetricsRegistry, ("inc", "observe"))):
        for name in names:
            monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
    for trace in (False, True):
        mode[0] = "traced" if trace else "untraced"
        campaign = Campaign(
            CampaignConfig(runs_per_fault=1, large_cluster_runs=0, seed=5005, trace=trace)
        )
        campaign.run()
        assert not any(o.failed for o in campaign.outcomes)
    assert calls["untraced"] == 0
    assert calls["traced"] > 0
