"""The ASG control loop.

AWS auto-scaling is a convergence engine: it continuously compares an
ASG's desired capacity with its live fleet and launches or terminates
instances to close the gap.  Asgard's rolling upgrade *relies* on this —
it terminates an old instance and waits for the ASG to start a new one
(Fig. 2, "Wait for ASG to start new instance").  The paper's resource
faults (AMI/key/SG/ELB unavailable) manifest precisely here: the launch
attempt fails inside the black-box control loop, producing a *scaling
activity* failure and, from Asgard's point of view, a silent stall.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cloud.errors import CloudError, LimitExceeded, ResourceNotFound, ServiceUnavailable
from repro.cloud.resources import Instance, InstanceState
from repro.cloud.state import CloudState
from repro.sim.latency import LatencyModel, instance_boot_latency


@dataclasses.dataclass
class ScalingActivity:
    """One launch/terminate attempt, mirroring DescribeScalingActivities."""

    time: float
    asg_name: str
    activity: str  # "Launch" | "Terminate"
    status: str  # "Successful" | "Failed" | "InProgress"
    description: str
    error_code: str | None = None
    instance_id: str | None = None


class AsgController:
    """Background reconciliation process for every ASG in the region.

    The loop ticks every ``interval`` virtual seconds.  A tick runs a full
    :meth:`reconcile` only when the region's write log or the instance
    limit has moved since the last full pass that wrote nothing; any other
    tick is quiet and re-records that pass's failed launches.  So every
    piece of state the controller reads must be changed through
    ``put``/``delete``/``record_write`` — a bare in-place mutation would
    go unseen until the next logged write.
    """

    #: ASG scaling process names (matching AWS) that can be suspended.
    LAUNCH = "Launch"
    TERMINATE = "Terminate"

    def __init__(
        self,
        engine,
        state: CloudState,
        interval: float = 5.0,
        boot_latency: LatencyModel | None = None,
        elb_register_delay: float = 3.0,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.state = state
        self.interval = interval
        self.boot_latency = boot_latency or instance_boot_latency()
        self.elb_register_delay = elb_register_delay
        self.activities: list[ScalingActivity] = []
        self._running = False
        self._process = None
        self._tick = 0
        #: (write-log position, instance limit) after the last full pass
        #: that wrote nothing, and that pass's failed launches by ASG.
        self._quiet_key: tuple[int, int] | None = None
        self._quiet_failures: dict[str, list[ScalingActivity]] = {}

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # A loop stopped less than one interval ago is still waiting on its
        # timer; it resumes ticking rather than running beside a second one.
        if self._process is None or not self._process.is_alive:
            self._process = self.engine.process(self._loop(), name="asg-controller")

    def stop(self) -> None:
        self._running = False

    def activities_for(self, asg_name: str) -> list[ScalingActivity]:
        return [a for a in self.activities if a.asg_name == asg_name]

    # -- internals ----------------------------------------------------------

    def _loop(self) -> _t.Generator:
        while self._running:
            key = (self.state.write_seq(), self.state.limits.max_instances)
            if key == self._quiet_key:
                self._quiet_tick()
            else:
                self._full_tick(key)
            yield self.engine.timeout(self.interval)

    def _full_tick(self, key: tuple[int, int]) -> None:
        first = len(self.activities)
        self.reconcile()
        self._quiet_failures = {}
        if self.state.write_seq() != key[0]:
            self._quiet_key = None
            return
        # Nothing written: every activity this pass recorded is a failed launch.
        self._quiet_key = key
        for activity in self.activities[first:]:
            self._quiet_failures.setdefault(activity.asg_name, []).append(activity)

    def _quiet_tick(self) -> None:
        """Replay the last pass that wrote nothing, without re-deriving it.

        Such a pass can only record failed launches: validation reads
        nothing but write-logged state and the instance limit, and neither
        has moved since, so a full pass now would fail the same launches
        for the same reasons.  Only the visit order and the time differ.
        """
        now = self.engine.now
        for asg_name in self._rotation():
            for failed in self._quiet_failures.get(asg_name, ()):
                self._record(dataclasses.replace(failed, time=now))

    def _rotation(self) -> list[str]:
        """This tick's ASG visit order; advances the tick.

        The order rotates between ticks: AWS gives no ASG priority over
        shared account capacity, so when the account is at its instance
        limit, a freed slot is won by whichever group's reconciliation
        happens to run first — which is how a second team's scale-out
        starves another team's upgrade (§VI.A).
        """
        names = sorted(self.state.auto_scaling_groups)
        if names:
            rotation = self._tick % len(names)
            names = names[rotation:] + names[:rotation]
        self._tick += 1
        return names

    def reconcile(self) -> None:
        """One full pass: converge every ASG towards its desired capacity."""
        for asg_name in self._rotation():
            self._reconcile_asg(asg_name)

    def _reconcile_asg(self, asg_name: str) -> None:
        asg = self.state.auto_scaling_groups.get(asg_name)
        if asg is None:
            return
        self._prune_dead_members(asg_name)
        asg = self.state.auto_scaling_groups.get(asg_name)
        active = [
            iid
            for iid in asg.instance_ids
            if self.state.exists("instance", iid)
            and self.state.get("instance", iid).state.is_active()
        ]
        gap = asg.desired_capacity - len(active)
        if gap > 0 and self.LAUNCH not in asg.suspended_processes:
            for _ in range(gap):
                self._try_launch(asg_name)
        elif gap < 0 and self.TERMINATE not in asg.suspended_processes:
            # Scale in: terminate the oldest instances first (AWS default-ish).
            by_age = sorted(active, key=lambda iid: self.state.get("instance", iid).launch_time)
            for iid in by_age[: abs(gap)]:
                self._terminate_member(asg_name, iid)

    def _prune_dead_members(self, asg_name: str) -> None:
        asg = self.state.auto_scaling_groups[asg_name]
        alive = []
        # Iterate a snapshot: replacing an unhealthy member mutates
        # asg.instance_ids mid-loop.
        for iid in list(asg.instance_ids):
            if not self.state.exists("instance", iid):
                continue
            instance = self.state.get("instance", iid)
            if instance.state in (InstanceState.TERMINATED, InstanceState.SHUTTING_DOWN):
                continue
            if instance.state == InstanceState.RUNNING and not instance.healthy:
                # The ASG replaces unhealthy instances (§V.B of the paper).
                self._terminate_member(asg_name, iid, cause="unhealthy")
                continue
            alive.append(iid)
        if alive != asg.instance_ids:
            asg.instance_ids = alive
            self.state.record_write("auto_scaling_group", asg_name, self.engine.now)

    def _record(self, activity: ScalingActivity) -> None:
        self.activities.append(activity)
        self.state.scaling_activities.append(activity)

    def _try_launch(self, asg_name: str) -> None:
        asg = self.state.auto_scaling_groups[asg_name]
        try:
            self._validate_launch(asg)
        except CloudError as exc:
            self._record(
                ScalingActivity(
                    time=self.engine.now,
                    asg_name=asg_name,
                    activity=self.LAUNCH,
                    status="Failed",
                    description=f"Launching a new EC2 instance failed: {exc}",
                    error_code=exc.code,
                )
            )
            return
        lc = self.state.get("launch_configuration", asg.launch_configuration_name)
        instance_id = self.state.new_id("instance")
        instance = Instance(
            instance_id=instance_id,
            image_id=lc.image_id,
            instance_type=lc.instance_type,
            key_name=lc.key_name,
            security_groups=list(lc.security_groups),
            state=InstanceState.PENDING,
            launch_time=self.engine.now,
            asg_name=asg_name,
        )
        self.state.put("instance", instance_id, instance, self.engine.now)
        asg.instance_ids.append(instance_id)
        self.state.record_write("auto_scaling_group", asg_name, self.engine.now)
        self._record(
            ScalingActivity(
                time=self.engine.now,
                asg_name=asg_name,
                activity=self.LAUNCH,
                status="InProgress",
                description=f"Launching a new EC2 instance: {instance_id}",
                instance_id=instance_id,
            )
        )
        self.engine.process(self._boot(asg_name, instance_id), name=f"boot-{instance_id}")

    def _validate_launch(self, asg) -> None:
        """Raise the CloudError a real launch attempt would surface."""
        if not self.state.exists("launch_configuration", asg.launch_configuration_name):
            raise ResourceNotFound.of("launch_configuration", asg.launch_configuration_name)
        lc = self.state.get("launch_configuration", asg.launch_configuration_name)
        if not self.state.exists("ami", lc.image_id):
            raise ResourceNotFound.of("ami", lc.image_id)
        if not self.state.get("ami", lc.image_id).available:
            raise ResourceNotFound.of("ami", lc.image_id)
        if not self.state.exists("key_pair", lc.key_name):
            raise ResourceNotFound.of("key_pair", lc.key_name)
        for group in lc.security_groups:
            if not self.state.exists("security_group", group):
                raise ResourceNotFound.of("security_group", group)
        if self.state.active_instance_count() >= self.state.limits.max_instances:
            raise LimitExceeded(
                f"account limit of {self.state.limits.max_instances} instances reached"
            )

    def _boot(self, asg_name: str, instance_id: str) -> _t.Generator:
        yield self.engine.timeout(self.boot_latency.sample())
        if not self.state.exists("instance", instance_id):
            return
        instance = self.state.get("instance", instance_id)
        if instance.state != InstanceState.PENDING:
            return
        instance.state = InstanceState.RUNNING
        self.state.record_write("instance", instance_id, self.engine.now)
        self._record(
            ScalingActivity(
                time=self.engine.now,
                asg_name=asg_name,
                activity=self.LAUNCH,
                status="Successful",
                description=f"Launched EC2 instance: {instance_id}",
                instance_id=instance_id,
            )
        )
        yield self.engine.timeout(self.elb_register_delay)
        self._register_with_elbs(asg_name, instance_id)

    def _register_with_elbs(self, asg_name: str, instance_id: str) -> None:
        asg = self.state.auto_scaling_groups.get(asg_name)
        if asg is None or not self.state.exists("instance", instance_id):
            return
        for elb_name in asg.load_balancer_names:
            if not self.state.exists("load_balancer", elb_name):
                self._record(
                    ScalingActivity(
                        time=self.engine.now,
                        asg_name=asg_name,
                        activity=self.LAUNCH,
                        status="Failed",
                        description=(
                            f"Registering {instance_id} with load balancer {elb_name} failed:"
                            " load balancer not found"
                        ),
                        error_code=ServiceUnavailable.code,
                        instance_id=instance_id,
                    )
                )
                continue
            elb = self.state.get("load_balancer", elb_name)
            if not elb.available:
                self._record(
                    ScalingActivity(
                        time=self.engine.now,
                        asg_name=asg_name,
                        activity=self.LAUNCH,
                        status="Failed",
                        description=(
                            f"Registering {instance_id} with load balancer {elb_name} failed:"
                            " load balancer unavailable"
                        ),
                        error_code=ServiceUnavailable.code,
                        instance_id=instance_id,
                    )
                )
                continue
            if instance_id not in elb.registered_instances:
                elb.registered_instances.append(instance_id)
                self.state.record_write("load_balancer", elb_name, self.engine.now)

    def _terminate_member(self, asg_name: str, instance_id: str, cause: str = "scale-in") -> None:
        asg = self.state.auto_scaling_groups[asg_name]
        if instance_id in asg.instance_ids:
            asg.instance_ids.remove(instance_id)
            self.state.record_write("auto_scaling_group", asg_name, self.engine.now)
        instance = self.state.get("instance", instance_id)
        instance.state = InstanceState.SHUTTING_DOWN
        instance.terminate_time = self.engine.now
        self.state.record_write("instance", instance_id, self.engine.now)
        self._record(
            ScalingActivity(
                time=self.engine.now,
                asg_name=asg_name,
                activity=self.TERMINATE,
                status="Successful",
                description=f"Terminating EC2 instance ({cause}): {instance_id}",
                instance_id=instance_id,
            )
        )
        self.engine.process(self._finish_termination(instance_id), name=f"asg-term-{instance_id}")

    def _finish_termination(self, instance_id: str) -> _t.Generator:
        yield self.engine.timeout(4.0)
        if not self.state.exists("instance", instance_id):
            return
        instance = self.state.get("instance", instance_id)
        instance.state = InstanceState.TERMINATED
        self.state.record_write("instance", instance_id, self.engine.now)
        for elb in self.state.load_balancers.values():
            if instance_id in elb.registered_instances:
                elb.registered_instances.remove(instance_id)
                self.state.record_write("load_balancer", elb.name, self.engine.now)
