"""Span tracing from outside the program, for the benchmark's traced runs.

The tracer patches production entry points at class (or module) level
while a traced run executes and restores them afterwards, so untraced
runs measure the program exactly as shipped.  Every wrapped call is one
span: layer, start, end and parent, kept in memory in flat arrays and
written out once at the end of the run.

A layer's self time is the sum of its spans' durations minus the time
their direct child spans cover; the root span's self time is the
benchmark's own overhead (``unattributed``), so the self times of all
layers plus the root add up to the traced wall time exactly.

Generator-driven layers (diagnosis walks, assertion evaluations,
recovery plans) run as simulation processes: calling the generator
function only schedules work.  They are timed per *resumption* instead -
each ``send``/``throw`` into the generator is a synchronous call and one
span - so their time lands on them, not on the engine that resumes them.
"""

from __future__ import annotations

import array
import functools
import json
import time

#: Layers in report order.  ``root`` is the benchmark itself.
LAYERS = (
    "root",
    "evaluation",
    "testbed",
    "sim",
    "cloud.controller",
    "cloud.state",
    "cloud.api",
    "assertions",
    "diagnosis",
    "recovery",
    "logsys.parse",
    "logsys.process",
    "process",
)

#: API principals the campaign uses; any other principal counts as "other".
PRINCIPALS = ("setup", "asgard", "pod-diagnosis", "recovery", "second-team", "ops-team",
              "rogue-team")


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        self.layer_ids = {name: index for index, name in enumerate(LAYERS)}
        self.self_s = [0.0] * len(LAYERS)
        self.inclusive_s = [0.0] * len(LAYERS)
        self.counts: dict[str, int] = {}
        self.run = -1
        self._depth = [0] * len(LAYERS)
        # One open frame per active span: [layer, start, child seconds, span index].
        self._stack: list[list] = []
        self._layer = array.array("B")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("l")
        self._run = array.array("l")
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, layer: int) -> None:
        stack = self._stack
        index = len(self._layer)
        self._layer.append(layer)
        self._parent.append(stack[-1][3] if stack else -1)
        self._run.append(self.run)
        self._end.append(0.0)
        start = time.perf_counter()
        self._start.append(start)
        self._depth[layer] += 1
        stack.append([layer, start, 0.0, index])

    def exit(self) -> None:
        end = time.perf_counter()
        layer, start, child, index = self._stack.pop()
        duration = end - start
        self._end[index] = end
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self._depth[layer] -= 1
        if not self._depth[layer]:
            # Outermost span of its layer: inclusive time, nothing counted twice.
            self.inclusive_s[layer] += duration

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span_count(self) -> int:
        return len(self._layer)

    # -- wrappers ----------------------------------------------------------

    def sync(self, layer: str, fn, count: str | None = None):
        """Wrap a plain function: one span per call."""
        lid = self.layer_ids[layer]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.count(count)
            tracer.enter(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def generator(self, layer: str, fn, count: str | None = None):
        """Wrap a function returning a generator: one span per resumption."""
        lid = self.layer_ids[layer]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.count(count)
            return tracer.stepped(lid, fn(*args, **kwargs))

        return wrapper

    def stepped(self, lid: int, gen):
        """Drive ``gen`` transparently, one span per send/throw."""
        value = None
        error = None
        while True:
            self.enter(lid)
            try:
                target = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit()
            error = None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                error = exc
                value = None

    # -- patching ----------------------------------------------------------

    def patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        """Patch every layer boundary the benchmark attributes time to."""
        from repro.assertions.evaluation import AssertionEvaluationService
        from repro.cloud.api import CloudAPI
        from repro.cloud.chaos import ChaosController
        from repro.cloud.controller import AsgController
        from repro.cloud.state import CloudState
        from repro.diagnosis.engine import DiagnosisEngine
        from repro.diagnosis.tests import CustomTestRegistry
        from repro.logsys.pipeline import LocalLogProcessor
        from repro.process.conformance import ConformanceChecker
        from repro.recovery import supervisor
        from repro.recovery.engine import RecoveryEngine
        from repro.sim.engine import Engine
        from repro.testbed import Testbed

        tracer = self
        self.patch(Testbed, "__init__", self.sync("testbed", Testbed.__init__))

        self.patch(Engine, "run", self.sync("sim", Engine.run))
        step = Engine.step

        def counted_step(engine):
            tracer.count("sim.events")
            return step(engine)

        self.patch(Engine, "step", counted_step)

        reconcile = AsgController.reconcile
        controller = self.layer_ids["cloud.controller"]

        def traced_reconcile(asg_controller):
            before = asg_controller.state.write_seq()
            tracer.count("cloud.controller.reconciles")
            tracer.enter(controller)
            try:
                return reconcile(asg_controller)
            finally:
                tracer.exit()
                if asg_controller.state.write_seq() != before:
                    tracer.count("cloud.controller.useful")

        self.patch(AsgController, "reconcile", traced_reconcile)
        self.patch(CloudState, "record_write",
                   self.sync("cloud.state", CloudState.record_write, count="cloud.state.writes"))

        api_layer = self.layer_ids["cloud.api"]
        for name, member in list(vars(CloudAPI).items()):
            if name.startswith("_") or name in ("with_principal", "subscribe"):
                continue
            if callable(member):
                self.patch(CloudAPI, name, self._api_method(member, api_layer))
        self.patch(ChaosController, "before_call",
                   self.sync("cloud.api", ChaosController.before_call))

        self.patch(AssertionEvaluationService, "_run",
                   self.generator("assertions", AssertionEvaluationService._run,
                                  count="assertions.evaluations"))
        self.patch(AssertionEvaluationService, "evaluate_on_demand",
                   self.generator("assertions", AssertionEvaluationService.evaluate_on_demand,
                                  count="assertions.evaluations"))
        for name in ("trigger_from_log", "trigger_from_timer"):
            self.patch(AssertionEvaluationService, name,
                       self.sync("assertions", getattr(AssertionEvaluationService, name)))

        self.patch(DiagnosisEngine, "_run", self.generator("diagnosis", DiagnosisEngine._run))
        for name in ("diagnose_assertion_failure", "diagnose_conformance_error",
                     "diagnose_external", "diagnose"):
            self.patch(DiagnosisEngine, name,
                       self.sync("diagnosis", getattr(DiagnosisEngine, name)))
        self.patch(CustomTestRegistry, "run",
                   self.generator("diagnosis", CustomTestRegistry.run))

        self.patch(supervisor, "recover_run", self.sync("recovery", supervisor.recover_run))
        self.patch(RecoveryEngine, "execute", self.generator("recovery", RecoveryEngine.execute))

        self.patch(LocalLogProcessor, "process",
                   self.sync("logsys.process", LocalLogProcessor.process))
        # Untraced checkers bind ``check`` to ``_check`` per instance.
        self.patch(ConformanceChecker, "_check",
                   self.sync("process", ConformanceChecker._check, count="process.checks"))

    def _api_method(self, method, lid: int):
        tracer = self

        @functools.wraps(method)
        def wrapper(api, *args, **kwargs):
            stack = tracer._stack
            if not stack or stack[-1][0] != lid:
                # Nested facade calls (set_desired_capacity -> update) are one call.
                principal = api.principal if api.principal in PRINCIPALS else "other"
                tracer.count("cloud.api.calls." + principal)
            tracer.enter(lid)
            try:
                return method(api, *args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    # -- output ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        return dict(zip(LAYERS, self.self_s))

    def write(self, path) -> None:
        """Write every span as columns (layer index, start, end, parent, run)."""
        origin = self._start[0] if len(self._start) else 0.0
        with open(path, "w") as handle:
            json.dump(
                {
                    "layers": list(LAYERS),
                    "layer": self._layer.tolist(),
                    "start_us": [round((t - origin) * 1e6, 1) for t in self._start],
                    "end_us": [round((t - origin) * 1e6, 1) for t in self._end],
                    "parent": self._parent.tolist(),
                    "run": self._run.tolist(),
                },
                handle,
                separators=(",", ":"),
            )
