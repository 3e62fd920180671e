"""Tests for the copy-on-write snapshot primitives.

Covers the frozen view/list contract (reads behave like plain
structures, writes fail loudly), freeze/thaw round-trips, interning, and
the read/write aliasing regressions: against the seed's shallow
``snapshot_of`` the aliasing tests below fail, because a caller mutating
its "snapshot" silently edited authoritative region state.
"""

import copy
import json
import pickle

import pytest

from repro.cloud.freeze import (
    FrozenList,
    FrozenMutationError,
    FrozenView,
    freeze,
    thaw,
)
from repro.cloud.resources import SecurityGroup
from repro.cloud.state import CloudState, snapshot_of
from tests.helpers import build_region, flip_instance_type


def sample():
    return {
        "InstanceId": "i-1",
        "State": {"Name": "running"},
        "SecurityGroups": ["sg-1", "sg-2"],
        "Tags": [{"Key": "role", "Value": "web"}],
    }


class TestFrozenView:
    def test_reads_like_a_dict(self):
        view = freeze(sample())
        assert view["InstanceId"] == "i-1"
        assert view.get("State")["Name"] == "running"
        assert set(view) == set(sample())
        assert len(view) == 4

    def test_equal_to_plain_structures(self):
        assert freeze(sample()) == sample()
        assert sample() == freeze(sample())
        assert freeze(["a", {"b": 1}]) == ["a", {"b": 1}]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda v: v.__setitem__("InstanceId", "i-evil"),
            lambda v: v.__delitem__("InstanceId"),
            lambda v: v.clear(),
            lambda v: v.pop("InstanceId"),
            lambda v: v.popitem(),
            lambda v: v.setdefault("New", 1),
            lambda v: v.update({"New": 1}),
        ],
    )
    def test_all_dict_mutators_blocked(self, mutate):
        view = freeze(sample())
        with pytest.raises(FrozenMutationError):
            mutate(view)
        assert view == sample()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda l: l.__setitem__(0, "x"),
            lambda l: l.__delitem__(0),
            lambda l: l.append("x"),
            lambda l: l.extend(["x"]),
            lambda l: l.insert(0, "x"),
            lambda l: l.remove("sg-1"),
            lambda l: l.clear(),
            lambda l: l.sort(),
            lambda l: l.reverse(),
            lambda l: l.pop(),
        ],
    )
    def test_all_list_mutators_blocked(self, mutate):
        frozen = freeze(["sg-1", "sg-2"])
        with pytest.raises(FrozenMutationError):
            mutate(frozen)
        assert frozen == ["sg-1", "sg-2"]

    def test_nested_structures_frozen_recursively(self):
        view = freeze(sample())
        with pytest.raises(FrozenMutationError):
            view["State"]["Name"] = "terminated"
        with pytest.raises(FrozenMutationError):
            view["Tags"][0]["Value"] = "db"
        with pytest.raises(FrozenMutationError):
            view["SecurityGroups"].append("sg-evil")

    def test_frozen_mutation_error_is_a_type_error(self):
        assert issubclass(FrozenMutationError, TypeError)

    def test_json_serializable(self):
        view = freeze(sample())
        assert json.loads(json.dumps(view, sort_keys=True)) == sample()

    def test_pickle_round_trip(self):
        view = freeze(sample())
        clone = pickle.loads(pickle.dumps(view))
        assert clone == view
        assert isinstance(clone, FrozenView)
        assert isinstance(clone["SecurityGroups"], FrozenList)

    def test_deepcopy_round_trip(self):
        view = freeze(sample())
        assert copy.deepcopy(view) == view

    def test_hashable_and_stable(self):
        a, b = freeze(sample()), freeze(sample())
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestFreezeThaw:
    def test_freeze_is_idempotent(self):
        once = freeze(sample())
        assert freeze(once) is once

    def test_thaw_returns_plain_mutable_structures(self):
        scratch = thaw(freeze(sample()))
        assert type(scratch) is dict
        assert type(scratch["SecurityGroups"]) is list
        assert type(scratch["State"]) is dict
        scratch["State"]["Name"] = "terminated"  # must not raise

    def test_thaw_is_detached(self):
        view = freeze(sample())
        scratch = view.thaw()
        scratch["SecurityGroups"].append("sg-evil")
        assert view["SecurityGroups"] == ["sg-1", "sg-2"]

    def test_interning_shares_equal_substructures(self):
        pool = {}
        a = freeze({"State": {"Name": "running"}}, pool)
        b = freeze({"State": {"Name": "running"}}, pool)
        assert a is b
        assert a["State"] is b["State"]

    def test_interning_counts_shared_and_copied(self):
        counters = {}

        def count(name):
            counters[name] = counters.get(name, 0) + 1

        pool = {}
        freeze({"State": {"Name": "running"}}, pool, count)
        freeze({"State": {"Name": "running"}}, pool, count)
        assert counters["cloud.snapshot.copied"] == 2  # inner + outer, first time
        assert counters["cloud.snapshot.shared"] == 2  # both hits on replay


def make_group():
    return SecurityGroup(
        group_id="sg-web",
        group_name="web",
        description="http",
        ingress_rules=[{"IpProtocol": "tcp", "FromPort": 80, "ToPort": 80}],
    )


class TestSnapshotAliasing:
    """Read/write aliasing regressions.

    The seed's ``snapshot_of`` returned live ``describe()`` dicts: the
    security group's ``IpPermissions`` entries were the *same* dict
    objects as the resource's ``ingress_rules``, so editing a snapshot
    corrupted authoritative state.  These tests fail against that seed.
    """

    def test_snapshot_is_frozen(self):
        (snap,) = snapshot_of([make_group()])
        with pytest.raises(FrozenMutationError):
            snap["IpPermissions"][0]["FromPort"] = 22

    def test_snapshot_does_not_alias_live_ingress_rules(self):
        group = make_group()
        (snap,) = snapshot_of([group])
        assert snap["IpPermissions"][0] is not group.ingress_rules[0]

    def test_thawed_snapshot_edit_leaves_live_state_untouched(self):
        group = make_group()
        (snap,) = snapshot_of([group])
        scratch = snap.thaw()
        scratch["IpPermissions"][0]["FromPort"] = 22
        assert group.ingress_rules[0]["FromPort"] == 80

    def test_describe_output_edit_leaves_live_state_untouched(self):
        group = make_group()
        described = group.describe()
        described["IpPermissions"][0]["FromPort"] = 22
        assert group.ingress_rules[0]["FromPort"] == 80

    def test_history_view_immune_to_later_live_mutation(self):
        state = CloudState()
        group = make_group()
        state.put("security_group", "sg-web", group, now=1.0)
        group.ingress_rules[0]["FromPort"] = 22
        # The recorded history still shows the value at write time.
        assert state.view_at("security_group", "sg-web", as_of=1.5)[
            "IpPermissions"
        ][0]["FromPort"] == 80


class TestStateCounters:
    def test_stale_and_fresh_reads_counted(self):
        from repro.cloud.consistency import ConsistencyModel, EventuallyConsistentView
        from repro.cloud.resources import AmiImage
        from repro.sim.clock import SimClock

        clock = SimClock()
        state = CloudState()
        view = EventuallyConsistentView(
            state, clock, ConsistencyModel(mean_lag=5.0, seed=7)
        )
        state.put("ami", "ami-1", AmiImage("ami-1", "app", "v1"), now=0.0)
        clock.advance_to(1000.0)
        state.record_write("ami", "ami-1", now=1000.0)
        # 3s after the write with mean lag 5s: some sampled lags reach
        # behind the write (stale), some do not (fresh).
        clock.advance_to(1003.0)
        for _ in range(50):
            view.read("ami", "ami-1")
        counters = state.data_plane_counters
        assert counters.get("cloud.reads.stale", 0) > 0
        assert counters.get("cloud.reads.fresh", 0) > 0
        assert (
            counters["cloud.reads.stale"] + counters["cloud.reads.fresh"] == 50
        )

    def test_interning_counters_on_record_write(self):
        state = CloudState()
        state.put("security_group", "sg-web", make_group(), now=0.0)
        copied = state.data_plane_counters.get("cloud.snapshot.copied", 0)
        assert copied > 0
        # Re-recording the unchanged resource shares every sub-structure.
        state.record_write("security_group", "sg-web", now=1.0)
        assert state.data_plane_counters.get("cloud.snapshot.shared", 0) > 0


class TestSnapshotSharing:
    def test_shared_fraction_pinned_on_a_512_instance_region(self):
        """Of every structure frozen while building a 512-instance region
        and writing it 512 times, exactly this share resolved to an
        already-interned object (deterministic: no timing)."""
        state = build_region(512)
        for write in range(512):
            flip_instance_type(state, f"i-{write:08x}", float(write))
        shared = state.data_plane_counters["cloud.snapshot.shared"]
        copied = state.data_plane_counters["cloud.snapshot.copied"]
        assert shared / (shared + copied) == 0.666015625
