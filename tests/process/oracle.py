"""The interpreted conformance checker: the replay oracle of the test suite.

:class:`InterpretedChecker` is a :class:`ConformanceChecker` whose token
game runs on the interpreted :class:`ProcessInstance` (a dict marking
over the Petri net, an eager :class:`ProcessContext` per check) instead
of the compiled transition table.  It is the semantic reference the
compiled engine is equivalence-tested against, and the denominator of
the compiled-replay speedup floor.  Counters, tags, storage logging and
the error callback follow the production checker's tail.
"""

from __future__ import annotations

import time as _time

from repro.logsys.patterns import classify_record
from repro.logsys.record import LogRecord
from repro.process.conformance import (
    _CHECK_COUNTERS,
    _STATUS_TAGS,
    ERROR,
    FIT,
    UNFIT,
    UNKNOWN,
    ConformanceChecker,
    ConformanceResult,
)
from repro.process.context import ProcessContext
from repro.process.instance import ProcessInstance


class InterpretedChecker(ConformanceChecker):
    """Token replay on :class:`ProcessInstance`; same constructor."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.instances: dict[str, ProcessInstance] = {}

    def instance_for(self, trace_id: str) -> ProcessInstance:
        if trace_id not in self.instances:
            self.instances[trace_id] = ProcessInstance(self.model, trace_id)
        return self.instances[trace_id]

    def _check(self, record: LogRecord) -> ConformanceResult:
        started = _time.perf_counter()
        self.check_count += 1
        trace_id = record.tag_value("trace")
        if trace_id is None:
            trace_id = f"untraced:{record.source}"
        instance = self.instance_for(trace_id)
        classification = classify_record(self.library, record, self._metrics)
        context = ProcessContext.from_record(record)
        context.last_valid_activity = instance.last_fit_activity()

        if not classification.matched:
            status = UNKNOWN
            activity = None
        elif classification.pattern.is_error:
            status = ERROR
            activity = classification.activity
        else:
            activity = classification.activity
            if activity not in instance.net.transitions:
                status = UNKNOWN
            elif instance.is_enabled(activity):
                instance.replay(activity, time=record.time)
                status = FIT
            else:
                context.skipped_activities = instance.hypothesize_skipped(activity)
                instance.replay(activity, time=record.time)
                status = UNFIT
        context.conformance = status
        context.step = activity or context.step
        result = ConformanceResult(status, activity, trace_id, context=context)

        if self._metrics is not None:
            self._metrics.inc(_CHECK_COUNTERS[status])
            if status == FIT or status == UNFIT:
                self._metrics.inc("conformance.tokens_replayed")
        record.add_tag(_STATUS_TAGS[status])
        self.results.append(result)
        self._log_result(record, result)
        # The measured check cost excludes any diagnosis the callback
        # starts — that time belongs to diagnosis, not the check.
        result.elapsed = _time.perf_counter() - started
        if result.is_error and self.on_error is not None:
            self.on_error(result)
        return result
