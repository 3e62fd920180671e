"""Deterministic inputs shared by several test modules."""

from __future__ import annotations

import random

from repro.cloud.resources import Instance, InstanceState
from repro.cloud.state import CloudState

#: One realistic line per pattern of the rolling-upgrade library.
_MATCHING_TEMPLATES = (
    "Pushing ami-{i:08x} into group asg-dsn: rolling upgrade task started",
    "Updated launch configuration of group asg-dsn to lc-app-v2 with image ami-{i:08x}",
    "Sorted {n} instances of group asg-dsn for replacement",
    "Deregistered instance i-{i:08x} from load balancer elb-dsn",
    "Terminating instance i-{i:08x} in group asg-dsn",
    "Waiting for group asg-dsn to start a new instance",
    "Status info: {n} of 4 instance relaunches done",
    "Instance i-{i:08x} is ready for use in group asg-dsn. {n} of 4 instance relaunches done",
    "Rolling upgrade task completed for group asg-dsn",
    "Exception during terminate: request failed",
)

#: Chatter the noise filter sees: no pattern can match these.
_NOISE_TEMPLATES = (
    "health check ok for node-{n}",
    "cache refresh finished in {n}ms",
    "scheduler tick {i}",
    "connection pool stats: {n} idle",
)

#: Near misses: share literal fragments with real lines but never match —
#: the prefilter's worst case (literal present, regex still runs).
_NEAR_MISS_TEMPLATES = (
    "instance i-{i:08x} not found in group asg-other",
    "group asg-dsn settings unchanged, skipping launch configuration",
    "load balancer elb-dsn responded slowly",
)


def synthesize_corpus(lines: int, seed: int = 7) -> list[str]:
    """A deterministic mixed log corpus: ~45% matches, ~40% noise, ~15% near misses."""
    rng = random.Random(seed)
    corpus: list[str] = []
    for index in range(lines):
        draw = rng.random()
        if draw < 0.45:
            template = rng.choice(_MATCHING_TEMPLATES)
        elif draw < 0.85:
            template = rng.choice(_NOISE_TEMPLATES)
        else:
            template = rng.choice(_NEAR_MISS_TEMPLATES)
        corpus.append(template.format(i=index, n=rng.randrange(1, 5)))
    return corpus


def build_region(size: int, seed: int = 5) -> CloudState:
    """A cloud state holding ``size`` running instances of one ASG."""
    state = CloudState()
    rng = random.Random(seed)
    for index in range(size):
        instance = Instance(
            instance_id=f"i-{index:08x}",
            image_id=f"ami-{rng.randrange(4):08x}",
            instance_type="m1.small",
            key_name="key-prod",
            security_groups=["sg-web"],
            state=InstanceState.RUNNING,
            asg_name="asg-dsn",
        )
        state.put("instance", instance.instance_id, instance, now=0.0)
    return state


def flip_instance_type(state: CloudState, identifier: str, now: float) -> None:
    """One in-place instance write (m1.small <-> m1.large), recorded."""
    resource = state.instances[identifier]
    resource.instance_type = (
        "m1.large" if resource.instance_type == "m1.small" else "m1.small"
    )
    state.record_write("instance", identifier, now)
