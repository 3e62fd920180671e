"""Tests for the local log processor pipeline (Fig. 3) and its stages."""

import pytest

from repro.logsys.annotator import AssertionAnnotator, ProcessAnnotator
from repro.logsys.central import CentralLogProcessor
from repro.logsys.filters import NoiseFilter
from repro.logsys.patterns import END, LogPattern, PatternLibrary
from repro.logsys.pipeline import LocalLogProcessor
from repro.logsys.record import LogRecord, LogStream
from repro.logsys.storage import CentralLogStorage
from repro.logsys.trigger import Trigger
from repro.obs import Observability
from repro.process.conformance import ConformanceChecker
from repro.process.model import ProcessModel
from repro.sim.clock import SimClock


def library():
    return PatternLibrary(
        [
            LogPattern("begin", r"operation started", position="start"),
            LogPattern("work", r"did work on (?P<instanceid>i-\w+)", position=END),
            LogPattern("oops", r"known error", position=END, is_error=True),
        ]
    )


def record(message, time=0.0):
    return LogRecord(time=time, source="op.log", message=message)


class TestNoiseFilter:
    def test_matched_lines_pass(self):
        noise = NoiseFilter(library())
        assert noise.accepts(record("operation started"))
        assert noise.passed_count == 1

    def test_unmatched_lines_dropped_by_default(self):
        noise = NoiseFilter(library())
        assert not noise.accepts(record("random chatter"))
        assert noise.dropped_count == 1

    def test_drop_regexes_always_win(self):
        noise = NoiseFilter(library(), passthrough_unmatched=True)
        assert not noise.accepts(record("DEBUG operation started"))

    def test_passthrough_unmatched(self):
        noise = NoiseFilter(library(), passthrough_unmatched=True)
        assert noise.accepts(record("weird unknown line"))

    def test_passthrough_regexes(self):
        noise = NoiseFilter(library(), passthrough_regexes=[r"ERROR"])
        assert noise.accepts(record("ERROR something odd"))
        assert not noise.accepts(record("chit chat"))

    def test_seen_count(self):
        noise = NoiseFilter(library())
        noise.accepts(record("operation started"))
        noise.accepts(record("zzz"))
        assert noise.seen_count == 2


class TestProcessAnnotator:
    def test_annotates_context_tags(self):
        annotator = ProcessAnnotator(library(), "proc-1", "trace-9")
        rec = record("did work on i-abc")
        annotator.annotate(rec)
        assert rec.tag_value("process") == "proc-1"
        assert rec.tag_value("trace") == "trace-9"
        assert rec.tag_value("step") == "work"
        assert rec.tag_value("position") == "end"
        assert rec.fields["instanceid"] == "i-abc"

    def test_unmatched_tagged_unclassified(self):
        annotator = ProcessAnnotator(library(), "proc-1", "trace-9")
        rec = record("mystery")
        annotator.annotate(rec)
        assert rec.tag_value("step") == "unclassified"

    def test_error_lines_tagged_known_error(self):
        annotator = ProcessAnnotator(library(), "p", "t")
        rec = record("known error occurred")
        annotator.annotate(rec)
        assert rec.has_tag("known-error")

    def test_callable_trace_id(self):
        annotator = ProcessAnnotator(library(), "p", lambda r: f"trace-{r.time:.0f}")
        rec = record("operation started", time=7)
        annotator.annotate(rec)
        assert rec.tag_value("trace") == "trace-7"


class TestAssertionAnnotator:
    def test_bound_assertions_tagged(self):
        annotator = AssertionAnnotator()
        annotator.bind("work", "end", ["check-1", "check-2"])
        rec = record("x")
        rec.add_tag("step:work")
        rec.add_tag("position:end")
        ids = annotator.annotate(rec)
        assert ids == ["check-1", "check-2"]
        assert rec.has_tag("assert:check-1")

    def test_bind_deduplicates(self):
        annotator = AssertionAnnotator()
        annotator.bind("work", "end", ["c"])
        annotator.bind("work", "end", ["c"])
        assert annotator.bindings[("work", "end")] == ["c"]

    def test_no_context_returns_empty(self):
        annotator = AssertionAnnotator()
        assert annotator.annotate(record("x")) == []


class TestLocalLogProcessor:
    def _processor(self, storage=None, conformance=None, assertions=None):
        storage = storage if storage is not None else CentralLogStorage()
        aa = AssertionAnnotator()
        aa.bind("work", "end", ["check-1"])
        return (
            LocalLogProcessor(
                noise_filter=NoiseFilter(library()),
                process_annotator=ProcessAnnotator(library(), "p", "t"),
                assertion_annotator=aa,
                trigger=Trigger(conformance=conformance, assertions=assertions),
                storage=storage,
            ),
            storage,
        )

    def test_noise_never_reaches_storage(self):
        processor, storage = self._processor()
        assert not processor.process(record("irrelevant"))
        assert len(storage) == 0

    def test_important_lines_shipped(self):
        processor, storage = self._processor()
        assert processor.process(record("did work on i-1"))
        assert len(storage) == 1
        assert storage.records[0].tag_value("step") == "work"

    def test_known_error_lines_always_shipped(self):
        processor, storage = self._processor()
        assert processor.process(record("known error here"))
        assert storage.records[0].has_tag("known-error")

    def test_triggers_invoked_with_assertion_ids(self):
        calls = []
        processor, _ = self._processor(
            conformance=lambda r: calls.append(("conf", r.tag_value("step"))),
            assertions=lambda r, ids: calls.append(("assert", ids)),
        )
        processor.process(record("did work on i-2"))
        assert ("conf", "work") in calls
        assert ("assert", ["check-1"]) in calls

    def test_attach_tails_stream(self):
        processor, storage = self._processor()
        stream = LogStream("op.log")
        processor.attach(stream)
        stream.emit_line(SimClock(), "did work on i-3")
        assert len(storage) == 1

    def test_counters(self):
        processor, _ = self._processor()
        processor.process(record("did work on i-1"))
        processor.process(record("noise"))
        assert processor.processed_count == 1
        assert processor.shipped_count == 1

    def test_metrics_counted_without_tracer(self):
        # Metric increments must not depend on span emission being on:
        # a metrics-only Observability (tracer disabled) still counts
        # ingested/filtered/shipped records.
        from repro.obs import Observability

        obs = Observability(enabled=True)
        obs.tracer.enabled = False
        aa = AssertionAnnotator()
        aa.bind("work", "end", ["check-1"])
        lib = library()
        processor = LocalLogProcessor(
            noise_filter=NoiseFilter(lib, obs=obs),
            process_annotator=ProcessAnnotator(lib, "p", "t", obs=obs),
            assertion_annotator=aa,
            trigger=Trigger(),
            storage=CentralLogStorage(),
            obs=obs,
        )
        assert processor._tracer is None
        processor.process(record("did work on i-1"))
        processor.process(record("noise"))
        counters = obs.metrics.snapshot()["counters"]
        assert counters["pipeline.records_ingested"] == 1
        assert counters["pipeline.records_filtered"] == 1
        assert counters["pipeline.records_shipped"] == 1


def stream_library():
    return PatternLibrary(
        [
            LogPattern("alpha", r"doing alpha", position="start"),
            LogPattern("beta", r"doing beta on (?P<instanceid>i-\w+)", position=END),
            LogPattern("gamma", r"doing gamma", position=END),
            LogPattern("op-error", r"ERROR .*", position=END, is_error=True),
        ]
    )


def stream_model():
    model = ProcessModel("linear")
    model.add_sequence("alpha", "beta", "gamma")
    model.mark_start("alpha")
    model.mark_end("gamma")
    return model


def build_stack(compiled=True, trace_id="t-static", obs=None):
    """Full Fig. 3 stack with a conformance checker sharing the storage.

    Returns ``(processor, checker, storage, events)``; ``events`` records
    every callback (error callback and assertion trigger) in call order.
    """
    events: list = []
    library = stream_library()
    storage = CentralLogStorage()
    checker = ConformanceChecker(
        stream_model(),
        library,
        compiled=compiled,
        storage=storage,
        on_error=lambda r: events.append(("conf-err", r.status, r.trace_id)),
        obs=obs,
    )
    annotator = AssertionAnnotator()
    annotator.bind("beta", "end", ["check-beta"])
    annotator.bind("gamma", "end", ["check-gamma", "check-extra"])
    processor = LocalLogProcessor(
        noise_filter=NoiseFilter(library, passthrough_unmatched=True, obs=obs),
        process_annotator=ProcessAnnotator(library, "proc", trace_id, obs=obs),
        assertion_annotator=annotator,
        trigger=Trigger(
            conformance=checker.check,
            assertions=lambda r, ids: events.append(
                ("assert", tuple(ids), r.tag_value("trace"))
            ),
        ),
        storage=storage,
        obs=obs,
    )
    return processor, checker, storage, events


#: Every record arrival shape: preset trace, bare, preset context tags,
#: preset trace equal to the static one, plus noise and errors.
MIXED_STREAM = [
    ("doing alpha", ("trace:t1",)),
    ("doing beta on i-42", ("trace:t1",)),
    ("doing gamma", ("trace:t1",)),          # fit flow, then:
    ("doing gamma", ("trace:t2",)),          # unfit (skipped alpha+beta)
    ("ERROR boom", ("trace:t2",)),           # known error
    ("unmatched chatter", ()),               # passthrough-unmatched
    ("DEBUG drop me", ("trace:t1",)),        # dropped by noise filter
    ("doing alpha", ()),                     # bare: static trace
    ("doing beta on i-7", ("step:alpha", "position:start")),  # preset context
    ("doing alpha", ("trace:t-static",)),    # preset == static trace
]


def make_records(specs):
    return [
        LogRecord(time=float(i), source="op.log", message=message, tags=list(tags))
        for i, (message, tags) in enumerate(specs)
    ]


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
class TestPerRecordStream:
    """A hand-written stream through ``process()``: exact tags, storage
    order, callback order and counters, identical on both replay engines."""

    def test_shipped_flags(self, compiled):
        processor, _, _, _ = build_stack(compiled)
        flags = [processor.process(r) for r in make_records(MIXED_STREAM)]
        assert flags == [True] * 6 + [False] + [True] * 3

    def test_tags_first_wins(self, compiled):
        processor, _, _, _ = build_stack(compiled)
        records = make_records(MIXED_STREAM)
        for record in records:
            processor.process(record)
        assert records[1].tags == [
            "trace:t1", "process:proc", "trace:t-static", "step:beta",
            "position:end", "assert:check-beta", "conformance:fit",
        ]
        assert records[1].tag_value("trace") == "t1"
        assert records[1].fields == {"instanceid": "i-42"}
        assert records[4].tags[-2:] == ["known-error", "conformance:error"]
        assert records[5].tags == [
            "process:proc", "trace:t-static", "step:unclassified",
            "conformance:unclassified",
        ]
        assert records[6].tags == ["trace:t1"]  # dropped before annotation
        # Preset context tags win the step/position index, so the bound
        # assertions for the classified activity are not looked up.
        assert records[8].tag_value("step") == "alpha"
        assert not any(tag.startswith("assert:") for tag in records[8].tags)
        assert records[8].fields == {"instanceid": "i-7"}
        assert records[9].tags == [
            "trace:t-static", "process:proc", "step:alpha", "position:start",
            "conformance:unfit",
        ]

    def test_storage_order(self, compiled):
        processor, _, storage, _ = build_stack(compiled)
        for record in make_records(MIXED_STREAM):
            processor.process(record)
        # The conformance result log lands before the line it classified:
        # the trigger fires before the ship stage.
        assert [r.type for r in storage.records] == ["conformance", "operation"] * 9
        assert [r.message for r in storage.records[1::2]] == [
            m for m, _ in MIXED_STREAM if not m.startswith("DEBUG")
        ]
        assert storage.records[6].message == (
            "[conformance] [t2] line classified unfit (activity=gamma)"
        )

    def test_callback_order(self, compiled):
        processor, _, _, events = build_stack(compiled)
        for record in make_records(MIXED_STREAM):
            processor.process(record)
        # Per record: conformance (and its error callback) before the
        # assertion trigger.
        assert events == [
            ("assert", ("check-beta",), "t1"),
            ("assert", ("check-gamma", "check-extra"), "t1"),
            ("conf-err", "unfit", "t2"),
            ("assert", ("check-gamma", "check-extra"), "t2"),
            ("conf-err", "error", "t2"),
            ("conf-err", "unclassified", "t-static"),
            ("conf-err", "unfit", "t-static"),
        ]

    def test_verdicts_and_counters(self, compiled):
        processor, checker, _, _ = build_stack(compiled)
        for record in make_records(MIXED_STREAM):
            processor.process(record)
        assert [(r.status, r.trace_id, r.activity) for r in checker.results] == [
            ("fit", "t1", "alpha"),
            ("fit", "t1", "beta"),
            ("fit", "t1", "gamma"),
            ("unfit", "t2", "gamma"),
            ("error", "t2", "op-error"),
            ("unclassified", "t-static", None),
            ("fit", "t-static", "alpha"),
            ("fit", "t-static", "beta"),
            ("unfit", "t-static", "alpha"),
        ]
        assert checker.results[3].context.skipped_activities == ["alpha", "beta"]
        assert checker.results[8].context.last_valid_activity == "beta"
        assert checker.check_count == 9
        assert processor.processed_count == 9
        assert processor.shipped_count == 9
        assert processor.noise_filter.dropped_count == 1
        assert processor.noise_filter.passed_count == 9
        assert processor.trigger.conformance_calls == 9
        assert processor.trigger.assertion_calls == 3

    def test_callable_trace_id(self, compiled):
        processor, checker, _, _ = build_stack(
            compiled, trace_id=lambda r: f"trace-{int(r.time) % 3}"
        )
        records = make_records(MIXED_STREAM)
        for record in records:
            processor.process(record)
        assert records[7].tag_value("trace") == "trace-1"
        assert [r.trace_id for r in checker.results][5:] == [
            "trace-2", "trace-1", "trace-2", "t-static",
        ]

    def test_outcome_metrics(self, compiled):
        obs = Observability(enabled=True)
        obs.tracer.enabled = False
        processor, _, _, _ = build_stack(compiled, obs=obs)
        for record in make_records(MIXED_STREAM):
            processor.process(record)
        counters = obs.metrics.snapshot()["counters"]
        assert {key: counters.get(key, 0) for key in (
            "pipeline.records_ingested",
            "pipeline.records_filtered",
            "pipeline.records_shipped",
            "conformance.checks.fit",
            "conformance.checks.unfit",
            "conformance.checks.error",
            "conformance.checks.unclassified",
            "conformance.tokens_replayed",
        )} == {
            "pipeline.records_ingested": 9,
            "pipeline.records_filtered": 1,
            "pipeline.records_shipped": 9,
            "conformance.checks.fit": 5,
            "conformance.checks.unfit": 2,
            "conformance.checks.error": 1,
            "conformance.checks.unclassified": 1,
            "conformance.tokens_replayed": 7,
        }


class TestCentralLogStorage:
    def test_query_conjunctive(self):
        storage = CentralLogStorage()
        a = LogRecord(time=1, source="x", message="alpha", type="operation", tags=["trace:t1"])
        b = LogRecord(time=2, source="y", message="beta", type="assertion", tags=["trace:t1"])
        storage.append(a)
        storage.append(b)
        assert storage.query(type="assertion") == [b]
        assert storage.query(tag="trace:t1", since=1.5) == [b]
        assert storage.query(contains="alp") == [a]
        assert storage.query(source="x", until=1.5) == [a]

    def test_by_trace_and_traces(self):
        storage = CentralLogStorage()
        for trace in ("t1", "t2", "t1"):
            rec = LogRecord(time=0, source="s", message="m", tags=[f"trace:{trace}"])
            storage.append(rec)
        assert len(storage.by_trace("t1")) == 2
        assert set(storage.traces()) == {"t1", "t2"}

    def test_subscribers_see_appends(self):
        storage = CentralLogStorage()
        seen = []
        storage.subscribe(seen.append)
        storage.append(LogRecord(time=0, source="s", message="m"))
        assert len(seen) == 1


class TestCentralLogProcessor:
    def test_failure_line_triggers_diagnosis(self):
        storage = CentralLogStorage()
        triggered = []
        CentralLogProcessor(storage, triggered.append)
        storage.append(LogRecord(time=0, source="third-party", message="Fatal exception in worker"))
        assert len(triggered) == 1

    def test_result_logs_not_rediagnosed(self):
        storage = CentralLogStorage()
        triggered = []
        CentralLogProcessor(storage, triggered.append)
        storage.append(
            LogRecord(time=0, source="d", message="exception...", type="diagnosis")
        )
        assert triggered == []

    def test_conformance_routed_lines_skipped(self):
        storage = CentralLogStorage()
        triggered = []
        CentralLogProcessor(storage, triggered.append)
        rec = LogRecord(time=0, source="op", message="Exception during upgrade")
        rec.add_tag("conformance:error")
        storage.append(rec)
        assert triggered == []

    def test_non_failure_lines_ignored(self):
        storage = CentralLogStorage()
        triggered = []
        CentralLogProcessor(storage, triggered.append)
        storage.append(LogRecord(time=0, source="op", message="all is well"))
        assert triggered == []

    def test_scan_backlog(self):
        storage = CentralLogStorage()
        storage.append(LogRecord(time=0, source="op", message="hard failure detected"))
        triggered = []
        processor = CentralLogProcessor(storage, triggered.append)
        # Subscription starts after the append; backlog scan catches up.
        assert processor.scan_backlog() == 1
        # Idempotent: rescanning does not duplicate.
        assert processor.scan_backlog() == 0
