"""Compiled pattern dispatch: prefilter soundness + naive equivalence."""

import pytest

from repro.logsys.compiled import (
    CompiledPatternLibrary,
    literal_runs,
    required_literal,
)
from repro.logsys.patterns import END, PROGRESS, LogPattern, PatternLibrary
from tests.helpers import synthesize_corpus


class TestLiteralExtraction:
    def test_plain_literal_regex(self):
        assert literal_runs("rolling upgrade started") == ["rolling upgrade started"]

    def test_named_group_contents_stay_contiguous(self):
        # Group literals sit on the required path: the run extends into
        # the group ("...instance i-") and breaks only at the \w+ repeat.
        runs = literal_runs(r"Terminating instance (?P<id>i-\w+) in group")
        assert "Terminating instance i-" in runs
        assert " in group" in runs

    def test_optional_repeat_contributes_nothing(self):
        # "s?" makes the "s" conditional; only the guaranteed parts remain.
        assert literal_runs(r"instances? ready") == ["instance", " ready"]

    def test_required_repeat_body_is_kept_separately(self):
        runs = literal_runs(r"go(?:od)+bye")
        assert "go" in runs and "od" in runs and "bye" in runs

    def test_branch_contributes_nothing(self):
        assert literal_runs(r"state (?:up|down) now") == ["state ", " now"]

    def test_ignorecase_disables_extraction(self):
        assert literal_runs(r"(?i)Rolling Upgrade") == []
        assert required_literal(r"(?i)Rolling Upgrade") is None

    def test_scoped_ignorecase_group_is_skipped(self):
        runs = literal_runs(r"prefix (?i:Mixed) suffix")
        assert "Mixed" not in runs and "prefix " in runs

    def test_min_length_filters_short_runs(self):
        assert required_literal(r"a(?P<x>\d+)b") is None
        assert required_literal(r"ab(?P<x>\d+)", min_length=2) == "ab"

    def test_longest_run_wins(self):
        assert required_literal(r"ok: (?P<x>\d+) completed fully") == " completed fully"

    def test_invalid_regex_yields_nothing(self):
        assert literal_runs(r"(unclosed") == []


def _overlapping_library(factory):
    """First-match-wins matters: each pattern is a prefix of the previous."""
    return factory(
        [
            LogPattern("specific", r"Instance (?P<instanceid>i-\w+) terminated", position=END),
            LogPattern("medium", r"Instance (?P<instanceid>i-\w+)", position=PROGRESS),
            LogPattern("generic", r"Instance", position=PROGRESS),
        ]
    )


class TestCompiledSemantics:
    @pytest.mark.parametrize("compiled", [False, True])
    def test_first_match_wins_with_overlapping_prefixes(self, compiled):
        library = _overlapping_library(CompiledPatternLibrary if compiled else PatternLibrary)
        assert library.classify("Instance i-1 terminated").activity == "specific"
        assert library.classify("Instance i-1 launching").activity == "medium"
        assert library.classify("Instance count: 4").activity == "generic"
        assert not library.classify("unrelated").matched

    def test_returns_same_pattern_object_as_naive(self):
        naive = _overlapping_library(PatternLibrary)
        compiled = CompiledPatternLibrary(naive.patterns)
        for message in ("Instance i-9 terminated", "Instance i-9", "Instance", "zzz"):
            assert compiled.classify(message).pattern is naive.classify(message).pattern
            assert compiled.classify(message).fields == naive.classify(message).fields

    def test_add_recompiles_plan(self):
        library = CompiledPatternLibrary()
        assert library.prefilter_plan() == []
        library.add(LogPattern("late", r"very specific literal here"))
        assert library.prefilter_plan() == [("late", "very specific literal here")]
        assert library.classify("very specific literal here").activity == "late"

    def test_prefilter_only_skips_nonmatching_patterns(self):
        library = _overlapping_library(CompiledPatternLibrary)
        plan = dict(library.prefilter_plan())
        # Every extracted literal actually appears in a line its pattern matches.
        assert plan["specific"] in "Instance i-1 terminated"
        assert plan["generic"] in "Instance i-1 terminated"


def _corpus():
    """Messages from a real traced upgrade + the synthetic mixed corpus."""
    from repro.testbed import Testbed

    testbed = Testbed(cluster_size=4, seed=321)
    testbed.run_upgrade(trace_id="corpus")
    messages = [record.message for record in testbed.stream.records]
    assert messages, "upgrade produced no log lines"
    return messages + synthesize_corpus(400, seed=13)


class TestCorpusEquivalence:
    def test_compiled_agrees_with_naive_on_every_line(self):
        from repro.operations.rolling_upgrade import build_pattern_library

        compiled = build_pattern_library()
        naive = PatternLibrary(compiled.patterns)
        assert isinstance(compiled, CompiledPatternLibrary)
        matched = 0
        for message in _corpus():
            expected = naive.classify(message)
            got = compiled.classify(message)
            assert got.activity == expected.activity, message
            assert got.fields == expected.fields, message
            # Same winning pattern object, not merely the same activity.
            assert got.pattern is expected.pattern, message
            matched += expected.matched
        assert matched > 0, "corpus exercised no matching lines"

    def test_rolling_upgrade_library_has_usable_prefilters(self):
        from repro.operations.rolling_upgrade import build_pattern_library

        library = build_pattern_library()
        literals = [literal for _a, literal in library.prefilter_plan()]
        assert sum(1 for literal in literals if literal) >= len(literals) * 0.5, (
            "most rolling-upgrade patterns should yield a required literal: "
            f"{library.prefilter_plan()}"
        )


class TestPrefilterWork:
    """The prefilter's gain, counted instead of timed: regex scans
    (``LogPattern.match`` calls) to classify a 6000-line mixed corpus
    once with the compiled library against the plain linear scan."""

    def test_regex_scans_pinned(self, monkeypatch):
        from repro.operations.rolling_upgrade import build_pattern_library

        calls = [0]
        match = LogPattern.match

        def counting_match(self, message):
            calls[0] += 1
            return match(self, message)

        monkeypatch.setattr(LogPattern, "match", counting_match)
        corpus = synthesize_corpus(6000, seed=7)
        compiled = build_pattern_library()
        scans = {}
        for name, library in (("compiled", compiled), ("naive", PatternLibrary(compiled.patterns))):
            calls[0] = 0
            for message in corpus:
                library.classify(message)
            scans[name] = calls[0]
        assert scans == {"compiled": 3001, "naive": 47481}
