"""Edda-style cloud monitor.

Netflix's Edda polls AWS and keeps timestamped snapshots of every
resource, letting operators ask "what did this look like N minutes ago?".
The paper's assertion evaluation consults such a monitor alongside direct
API calls.  Our monitor is a periodic crawler process over the simulated
region: it records full-region snapshots that diagnosis tests can query
both for *current* state and for *history* (e.g. to notice a launch
configuration changed and changed back — the transient-fault class).

Snapshots are **delta-encoded**: the seed deep-copied every resource's
``describe()`` on every tick (O(region) per poll), while this monitor
consumes :class:`~repro.cloud.state.CloudState`'s write log and stores
only what changed since the previous tick — unchanged resources share
the previous tick's frozen view by reference.  Per-tick work is
proportional to writes, not region size; every ``REBASE_INTERVAL`` ticks
a snapshot materializes its full resource map so chain walks stay O(1)
amortized and retention trimming actually frees the trimmed deltas.
"""

from __future__ import annotations

import typing as _t
from bisect import bisect_right

from repro.cloud.freeze import FrozenView
from repro.cloud.state import KINDS

#: Materialize a full resource map every this many delta snapshots: keeps
#: lookup chains short and bounds how much trimmed history a retained
#: snapshot's delta chain can pin.
REBASE_INTERVAL = 32


class RegionSnapshot:
    """One crawl: time plus the described form of every resource.

    Either *full* (``_resources`` holds the complete kind -> id -> view
    map) or a *delta* over ``_base``: ``_delta`` holds only the resources
    written since the base was taken (``None`` = deleted).  ``get`` walks
    the delta chain; ``resources`` materializes on demand (and cuts the
    chain, so repeated queries are O(1)).
    """

    __slots__ = ("taken_at", "_resources", "_base", "_delta", "depth")

    def __init__(
        self,
        taken_at: float,
        resources: dict[str, dict[str, FrozenView]] | None = None,
        base: "RegionSnapshot | None" = None,
        delta: dict[str, dict[str, FrozenView | None]] | None = None,
    ) -> None:
        if (resources is None) == (base is None):
            raise ValueError("exactly one of resources/base required")
        self.taken_at = taken_at
        self._resources = resources
        self._base = base
        self._delta = delta or {}
        self.depth = 0 if base is None else base.depth + 1

    def get(self, kind: str, identifier: str) -> FrozenView | None:
        snapshot: RegionSnapshot | None = self
        while snapshot is not None:
            if snapshot._resources is not None:
                return snapshot._resources.get(kind, {}).get(identifier)
            by_kind = snapshot._delta.get(kind)
            if by_kind is not None and identifier in by_kind:
                return by_kind[identifier]  # None = tombstone
            snapshot = snapshot._base
        return None

    @property
    def resources(self) -> dict[str, dict[str, FrozenView]]:
        """The complete kind -> id -> view map (materialized lazily)."""
        if self._resources is None:
            self._materialize()
        return self._resources  # type: ignore[return-value]

    def _materialize(self) -> None:
        base = self._base
        assert base is not None
        merged = {kind: dict(views) for kind, views in base.resources.items()}
        for kind, by_kind in self._delta.items():
            target = merged.setdefault(kind, {})
            for identifier, view in by_kind.items():
                if view is None:
                    target.pop(identifier, None)
                else:
                    target[identifier] = view
        self._resources = merged
        # Cut the chain: lookups no longer walk, and the base (possibly
        # already trimmed from the monitor's list) can be collected.
        self._base = None
        self._delta = {}
        self.depth = 0


class CloudMonitor:
    """Periodic snapshotting crawler (Edda substitute)."""

    def __init__(self, engine, state, interval: float = 30.0, retention: int = 512) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.state = state
        self.interval = interval
        self.retention = retention
        self.snapshots: list[RegionSnapshot] = []
        self._times: list[float] = []  # parallel taken_at array for bisect
        self._log_position = 0
        self._running = False

    def start(self) -> None:
        """Begin crawling; takes an immediate snapshot then polls."""
        if self._running:
            return
        self._running = True
        self.engine.process(self._crawl_loop(), name="cloud-monitor")

    def stop(self) -> None:
        self._running = False

    def _crawl_loop(self) -> _t.Generator:
        while self._running:
            self.take_snapshot()
            yield self.engine.timeout(self.interval)

    def take_snapshot(self) -> RegionSnapshot:
        """Crawl the region now (also callable directly in tests).

        The first crawl records the full region; later crawls record only
        the resources the write log says changed since the previous one.
        ``cloud.monitor.refreshed`` / ``cloud.monitor.reused`` count how
        many per-resource views each tick re-captured vs shared.
        """
        state = self.state
        changed = state.writes_since(self._log_position)
        self._log_position = state.write_seq()
        if not self.snapshots:
            resources = {
                kind: {
                    identifier: state.latest_view(kind, identifier)
                    for identifier in state._registries[kind]
                }
                for kind in KINDS
            }
            snapshot = RegionSnapshot(taken_at=self.engine.now, resources=resources)
            refreshed = sum(len(views) for views in resources.values())
        else:
            delta: dict[str, dict[str, FrozenView | None]] = {}
            for kind, identifier in changed:
                delta.setdefault(kind, {})[identifier] = state.latest_view(kind, identifier)
            snapshot = RegionSnapshot(
                taken_at=self.engine.now, base=self.snapshots[-1], delta=delta
            )
            if snapshot.depth >= REBASE_INTERVAL:
                snapshot._materialize()
            refreshed = sum(len(by_kind) for by_kind in delta.values())
        region_size = sum(len(state._registries[kind]) for kind in KINDS)
        state._count_many("cloud.monitor.refreshed", refreshed)
        state._count_many("cloud.monitor.reused", max(0, region_size - refreshed))
        self.snapshots.append(snapshot)
        self._times.append(snapshot.taken_at)
        if len(self.snapshots) > self.retention:
            trim = len(self.snapshots) - self.retention
            # The new head may chain into trimmed snapshots; materialize
            # it so the trimmed deltas are actually released.
            self.snapshots[trim].resources
            del self.snapshots[:trim]
            del self._times[:trim]
        return snapshot

    # -- queries -----------------------------------------------------------

    def current(self, kind: str, identifier: str) -> FrozenView | None:
        """Most recent crawled view of a resource."""
        if not self.snapshots:
            return None
        return self.snapshots[-1].get(kind, identifier)

    def at(self, when: float, kind: str, identifier: str) -> FrozenView | None:
        """View of a resource from the last snapshot at or before ``when``."""
        index = bisect_right(self._times, when) - 1
        return self.snapshots[index].get(kind, identifier) if index >= 0 else None

    def view_at(self, when: float, kind: str, identifier: str) -> FrozenView | None:
        """Alias of :meth:`at` matching the state-layer naming."""
        return self.at(when, kind, identifier)

    def changes(self, kind: str, identifier: str) -> list[tuple[float, FrozenView | None]]:
        """Distinct successive views of a resource across all snapshots.

        Diagnosis uses this to detect flapping configuration — a value that
        changed and later reverted (the paper's transient-fault class).
        """
        result: list[tuple[float, FrozenView | None]] = []
        previous: FrozenView | None = None
        seen_any = False
        for snapshot in self.snapshots:
            view = snapshot.get(kind, identifier)
            # Shared references make the common no-change case an identity
            # check; `!=` only runs when the objects differ.
            if not seen_any or (view is not previous and view != previous):
                result.append((snapshot.taken_at, view))
                previous = view
                seen_any = True
        return result

    def resource_timeline(self, kind: str, identifier: str) -> list[tuple[float, FrozenView | None]]:
        """Alias of :meth:`changes`: the deduplicated (time, view) history."""
        return self.changes(kind, identifier)
