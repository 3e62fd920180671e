"""Wall-clock stage profiling for the campaign tooling.

Everything inside a run is deterministic virtual time; the *harness*
around the runs (spec building, worker fan-out, export) is real time,
and that is what the parallel runner exposed as the remaining hot path.
:class:`StageProfiler` times those host-side stages with
``time.perf_counter``.

Wall-clock numbers are inherently non-deterministic, so profiler output
never flows into :class:`~repro.evaluation.campaign.RunOutcome` (which
must stay bit-for-bit identical across worker counts) — it is reported
alongside, by the CLI.
"""

from __future__ import annotations

import contextlib
import time
import typing as _t


class StageProfiler:
    """Accumulates wall-clock seconds and hit counts per named stage."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.totals: dict[str, float] = {}
        self.hits: dict[str, int] = {}

    @contextlib.contextmanager
    def stage(self, name: str) -> _t.Iterator[None]:
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.hits[name] = self.hits.get(name, 0) + 1

    def report(self) -> dict[str, dict[str, float]]:
        """{stage: {seconds, hits}} sorted by descending cost."""
        return {
            name: {"seconds": round(self.totals[name], 6), "hits": self.hits[name]}
            for name in sorted(self.totals, key=self.totals.get, reverse=True)
        }

    def render(self) -> str:
        lines = ["stage profile (wall clock):"]
        for name, row in self.report().items():
            lines.append(f"  {name:24s} {row['seconds']:9.3f}s  x{row['hits']}")
        return "\n".join(lines)
