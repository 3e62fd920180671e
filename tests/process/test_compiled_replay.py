"""Compiled ≡ interpreted replay equivalence.

The compiled replay engine (repro.process.compiled) is only allowed to
exist because it is *indistinguishable* from the interpreted reference
(repro.process.instance) — same verdicts, same fitness, same markings,
same error contexts — on every model and every interleaving.  These
tests pin that down on hand-built models, on the rolling-upgrade corpus
model, and on hypothesis-generated random traces.
"""

import gc
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logsys.patterns import END, LogPattern, PatternLibrary
from repro.logsys.record import LogRecord
from repro.process.compiled import CompiledInstance, compile_model
from repro.process.conformance import ConformanceChecker
from repro.process.instance import ProcessInstance
from repro.process.model import ProcessModel
from tests.process.oracle import InterpretedChecker


def linear_model():
    m = ProcessModel("linear")
    m.add_sequence("alpha", "beta", "gamma")
    m.mark_start("alpha")
    m.mark_end("gamma")
    return m


def branching_model():
    # alpha -> (beta | gamma) -> delta : an XOR split and join.
    m = ProcessModel("branching")
    for name in ("alpha", "beta", "gamma", "delta"):
        m.add_activity(name)
    m.add_edge("alpha", "beta")
    m.add_edge("alpha", "gamma")
    m.add_edge("beta", "delta")
    m.add_edge("gamma", "delta")
    m.mark_start("alpha")
    m.mark_end("delta")
    return m


def parallel_model():
    # alpha -> {beta, gamma} in parallel -> delta.
    m = ProcessModel("parallel")
    for name in ("alpha", "beta", "gamma", "delta"):
        m.add_activity(name)
    m.add_edge("alpha", "beta")
    m.add_edge("alpha", "gamma")
    m.add_edge("beta", "delta")
    m.add_edge("gamma", "delta")
    m.mark_start("alpha")
    m.mark_end("delta")
    m.mark_parallel_split("alpha")
    m.mark_parallel_join("delta")
    return m


MODELS = (linear_model, branching_model, parallel_model)


def assert_states_equal(compiled: CompiledInstance, interpreted: ProcessInstance):
    """Every observable piece of replay state must agree."""
    assert compiled.marking_dict() == {
        p: c for p, c in interpreted.marking.items() if c
    }
    assert compiled.produced == interpreted.produced
    assert compiled.consumed == interpreted.consumed
    assert compiled.missing == interpreted.missing
    assert compiled.started == interpreted.started
    assert compiled.completed == interpreted.completed
    assert compiled.last_activity() == interpreted.last_activity()
    assert compiled.last_fit_activity() == interpreted.last_fit_activity()
    assert compiled.enabled_activities() == interpreted.enabled_activities()
    assert compiled.remaining_tokens() == interpreted.remaining_tokens()
    assert compiled.fitness() == interpreted.fitness()
    assert compiled.snapshot() == interpreted.snapshot()


def replay_both(model, sequence):
    compiled = CompiledInstance(compile_model(model), "t")
    interpreted = ProcessInstance(model, "t")
    for i, activity in enumerate(sequence):
        step_c = compiled.replay(activity, time=float(i))
        step_i = interpreted.replay(activity, time=float(i))
        assert step_c == step_i
        assert compiled.hypothesize_skipped(activity) == interpreted.hypothesize_skipped(activity)
        assert_states_equal(compiled, interpreted)
    return compiled, interpreted


class TestTableCompilation:
    def test_table_covers_every_transition(self):
        for make in MODELS:
            model = make()
            table = compile_model(model)
            assert set(table.activity_ids) == set(model.to_petri_net().transitions)
            assert table.place_count == len(model.to_petri_net().places)

    def test_table_cached_on_model(self):
        model = linear_model()
        assert compile_model(model) is compile_model(model)

    def test_cache_invalidated_with_net(self):
        model = linear_model()
        table = compile_model(model)
        # Extending the model invalidates the cached net (and so the table).
        model.end_activities.discard("gamma")
        model.add_edge("gamma", "delta")
        model.mark_end("delta")
        assert compile_model(model) is not table
        assert "delta" in compile_model(model).activity_ids

    def test_initial_marking_matches_net(self):
        model = parallel_model()
        table = compile_model(model)
        compiled = CompiledInstance(table, "t")
        assert compiled.marking_dict() == dict(model.to_petri_net().initial_marking)


class TestHandPickedEquivalence:
    def test_happy_paths(self):
        replay_both(linear_model(), ["alpha", "beta", "gamma"])
        replay_both(branching_model(), ["alpha", "beta", "delta"])
        replay_both(parallel_model(), ["alpha", "beta", "gamma", "delta"])
        replay_both(parallel_model(), ["alpha", "gamma", "beta", "delta"])

    def test_skips_and_repeats(self):
        replay_both(linear_model(), ["alpha", "gamma"])          # skip beta
        replay_both(linear_model(), ["gamma", "beta", "alpha"])  # reversed
        replay_both(linear_model(), ["alpha", "alpha", "alpha"])
        replay_both(parallel_model(), ["alpha", "delta"])        # join unfed

    def test_unknown_activity_raises_keyerror_like_interpreted(self):
        compiled = CompiledInstance(compile_model(linear_model()), "t")
        interpreted = ProcessInstance(linear_model(), "t")
        for instance in (compiled, interpreted):
            try:
                instance.replay("ghost")
            except KeyError:
                pass
            else:
                raise AssertionError("replay of unknown activity must raise")

    def test_history_steps_identical(self):
        compiled, interpreted = replay_both(linear_model(), ["alpha", "gamma", "beta"])
        assert compiled.history == interpreted.history


class TestCorpusEquivalence:
    """The real rolling-upgrade model from the operation profile."""

    def _model(self):
        from repro.operations.profile import shared_rolling_upgrade_profile

        return shared_rolling_upgrade_profile().model

    def test_activity_order_replay(self):
        model = self._model()
        replay_both(model, list(model.activities))

    def test_seeded_shuffles(self):
        model = self._model()
        names = list(model.activities)
        for seed in range(6):
            rng = random.Random(seed)
            sequence = [rng.choice(names) for _ in range(len(names) * 2)]
            replay_both(model, sequence)


def sequences_for(model):
    return st.lists(
        st.sampled_from(sorted(model.activities)), min_size=0, max_size=30
    )


class TestPropertyEquivalence:
    @given(sequence=sequences_for(linear_model()))
    @settings(max_examples=120, deadline=None)
    def test_linear_interleavings(self, sequence):
        replay_both(linear_model(), sequence)

    @given(sequence=sequences_for(branching_model()))
    @settings(max_examples=120, deadline=None)
    def test_branching_interleavings(self, sequence):
        replay_both(branching_model(), sequence)

    @given(sequence=sequences_for(parallel_model()))
    @settings(max_examples=120, deadline=None)
    def test_parallel_interleavings(self, sequence):
        replay_both(parallel_model(), sequence)


# -- checker-level equivalence: status AND context sequences ------------------


def library():
    return PatternLibrary(
        [
            LogPattern("alpha", r"doing alpha", position=END),
            LogPattern("beta", r"doing beta", position=END),
            LogPattern("gamma", r"doing gamma", position=END),
            LogPattern("op-error", r"ERROR .*", position=END, is_error=True),
        ]
    )


LINES = ("doing alpha", "doing beta", "doing gamma", "ERROR boom", "noise 123")


def record(message, trace=None, source="op.log"):
    rec = LogRecord(time=0.0, source=source, message=message)
    if trace is not None:
        rec.add_tag(f"trace:{trace}")
    return rec


def check_both(stream):
    """Run the same stream through both engines; results must be equal."""
    compiled = ConformanceChecker(linear_model(), library())
    interpreted = InterpretedChecker(linear_model(), library())
    for message, trace in stream:
        rec_c, rec_i = record(message, trace), record(message, trace)
        result_c = compiled.check(rec_c)
        result_i = interpreted.check(rec_i)
        assert result_c.status == result_i.status
        assert result_c.activity == result_i.activity
        assert result_c.trace_id == result_i.trace_id
        # Full context equality — the lazy compiled context must match
        # the eagerly-built interpreted one field for field.
        assert result_c.context == result_i.context
        assert rec_c.tags == rec_i.tags
    return compiled, interpreted


streams = st.lists(
    st.tuples(st.sampled_from(LINES), st.sampled_from(["t1", "t2", None])),
    min_size=0,
    max_size=40,
)


class TestCheckerEquivalence:
    def test_mixed_stream(self):
        compiled, interpreted = check_both(
            [
                ("doing alpha", "t1"),
                ("doing gamma", "t1"),   # unfit: skipped beta
                ("noise 123", "t1"),     # unknown
                ("ERROR boom", "t2"),    # known error
                ("doing alpha", None),   # untraced
            ]
        )
        assert [r.status for r in compiled.results] == [
            r.status for r in interpreted.results
        ]

    def test_fitness_agrees_per_trace(self):
        compiled, interpreted = check_both(
            [("doing alpha", "t1"), ("doing gamma", "t1"), ("doing beta", "t2")]
        )
        for trace in ("t1", "t2"):
            assert compiled.fitness_of(trace) == interpreted.fitness_of(trace)

    @given(stream=streams)
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_streams_identical(self, stream):
        check_both(stream)


# -- the compiled engine must pay for itself ----------------------------------

#: One fit rolling-upgrade trace: the Fig. 2 happy path with two loop
#: iterations.
UPGRADE_FLOW = (
    "Pushing ami-{i:08x} into group asg-dsn: rolling upgrade task started",
    "Updated launch configuration of group asg-dsn to lc-app-v2 with image ami-{i:08x}",
    "Sorted 4 instances of group asg-dsn for replacement",
    "Deregistered instance i-{i:08x} from load balancer elb-dsn",
    "Terminating instance i-{i:08x} in group asg-dsn",
    "Waiting for group asg-dsn to start a new instance",
    "Instance i-{i:08x} is ready for use in group asg-dsn. 1 of 4 instance relaunches done",
    "Deregistered instance i-{i:08x} from load balancer elb-dsn",
    "Terminating instance i-{i:08x} in group asg-dsn",
    "Waiting for group asg-dsn to start a new instance",
    "Instance i-{i:08x} is ready for use in group asg-dsn. 2 of 4 instance relaunches done",
    "Rolling upgrade task completed for group asg-dsn",
)

#: The compiled engine must replay at least this many times faster than
#: the interpreted oracle on any host.
COMPILED_REPLAY_SPEEDUP_FLOOR = 3.0


class TestCompiledReplaySpeedupFloor:
    """``compiled_replay_speedup >= 3.0`` on 300 traces x 12 lines (seed
    11), pre-classified so both sides time replay alone.  Each of three
    rounds replays the corpus on both engines in alternating 10-trace
    slices with the collector off, so host-speed drift and collections
    hit both sides alike; each engine keeps its best round."""

    def test_compiled_beats_interpreted_by_the_floor(self):
        from repro.logsys.patterns import classify_record
        from repro.operations.rolling_upgrade import (
            build_pattern_library,
            reference_process_model,
        )

        pattern_library = build_pattern_library()
        model = reference_process_model()
        rng = random.Random(11)
        lines = [
            (step, template.format(i=rng.getrandbits(32)), f"trace:t-{trace}")
            for trace in range(300)
            for step, template in enumerate(UPGRADE_FLOW)
        ]
        slice_size = 10 * len(UPGRADE_FLOW)

        def fresh_records():
            records = [
                LogRecord(time=float(step), source="replay", message=message, tags=[tag])
                for step, message, tag in lines
            ]
            for rec in records:
                classify_record(pattern_library, rec)
            return records

        def timed_round():
            checkers = (InterpretedChecker(model, pattern_library),
                        ConformanceChecker(model, pattern_library))
            records = (fresh_records(), fresh_records())
            elapsed = [0.0, 0.0]
            gc.collect()
            gc.disable()
            try:
                for start in range(0, len(lines), slice_size):
                    for side, checker in enumerate(checkers):
                        batch = records[side][start:start + slice_size]
                        started = time.perf_counter()
                        for rec in batch:
                            checker.check(rec)
                        elapsed[side] += time.perf_counter() - started
            finally:
                gc.enable()
            for checker in checkers:
                assert [r.status for r in checker.results] == ["fit"] * len(lines)
            return elapsed

        interpreted = compiled = float("inf")
        for _ in range(3):
            interpreted_s, compiled_s = timed_round()
            interpreted = min(interpreted, interpreted_s)
            compiled = min(compiled, compiled_s)
        speedup = interpreted / compiled
        assert speedup >= COMPILED_REPLAY_SPEEDUP_FLOOR, (
            f"compiled replay only {speedup:.2f}x the interpreted oracle"
            f" (floor {COMPILED_REPLAY_SPEEDUP_FLOOR})"
        )
