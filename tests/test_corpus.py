import hashlib
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from revisekit import (
    DEFAULT_CAP,
    CapExceeded,
    NoCandidates,
    SelectionStrategy,
    cli,
    classify_revision,
    collect_signature,
    corpus_entries,
    corpus_report,
    entails,
    ground,
    parse_literals,
    parse_scenario,
    pattern_revision,
    render,
)
from revisekit.corpus import (
    EXPERIMENT_1_IDS,
    EXPERIMENT_2_IDS,
    CorpusEntry,
    _pattern_revision,
    scenario_inputs,
)
from revisekit.dsl import ScenarioStatement
from revisekit.revision import _validated_context


def reference_pattern(entry, pattern):
    """The pattern decision by listing the admissible pool: its first set equal
    to the categoricals (`minimal`) or made only of conditionals (`non-minimal`).
    Returns the retracted forms, or the `NoCandidates` message."""
    ctx = _validated_context(*scenario_inputs(entry), DEFAULT_CAP)
    if pattern == "minimal":
        matches = frozenset(str(s.formula) for s in entry.scenario.categoricals()).__eq__
    else:
        matches = frozenset(str(s.formula) for s in entry.scenario.conditionals()).issuperset
    for cs in list(ctx.admissible()):
        if matches(cs.canonical_forms()):
            return sorted(cs.canonical_forms())
    return f"the {pattern} pattern is not admissible for {entry.scenario.id}"


def decided_pattern(entry, pattern):
    """`_pattern_revision` on a fresh context, in `reference_pattern`'s terms."""
    ctx = _validated_context(*scenario_inputs(entry), DEFAULT_CAP)
    try:
        return sorted(_pattern_revision(ctx, entry, pattern).retracted.canonical_forms())
    except NoCandidates as exc:
        return str(exc)


def sugar_entry(sid, explanation=""):
    """The first scenario's statements under another id, with an optional explanation."""
    return CorpusEntry(parse_scenario(SUGAR.format(id=sid) + explanation), 1, 1)


SUGAR = """
[meta]
id = {id}
type = I

[statements]
S1: conditional: ContainsSugar(X) -> GivesEnergy(X).
S2: categorical: ContainsSugar(drink).

[fact]
!GivesEnergy(drink).
"""


class TestCorpusContent:
    def test_fifteen_entries(self):
        entries = corpus_entries()
        assert len(entries) == 15
        assert [e.scenario.id for e in entries] == list(EXPERIMENT_1_IDS + EXPERIMENT_2_IDS)

    def test_experiment_split(self):
        assert len(corpus_entries(1)) == 9
        assert len(corpus_entries(2)) == 6

    def test_types(self):
        by_id = {e.scenario.id: e.scenario.problem_type for e in corpus_entries()}
        assert by_id["exp1-s1"] == by_id["exp1-s2"] == by_id["exp1-s3"] == "I"
        assert by_id["exp1-s4"] == by_id["exp1-s5"] == by_id["exp1-s6"] == "II"
        assert by_id["exp1-s7"] == by_id["exp1-s8"] == by_id["exp1-s9"] == "III"
        assert by_id["exp2-s1"] == by_id["exp2-s2"] == by_id["exp2-s3"] == "II"
        assert by_id["exp2-s4"] == by_id["exp2-s5"] == by_id["exp2-s6"] == "III"

    def test_scenario_five_content(self):
        sc = next(e.scenario for e in corpus_entries(1) if e.scenario.id == "exp1-s5")
        assert sc.problem_type == "II"
        kinds = [s.kind for s in sc.statements]
        assert kinds == ["conditional", "conditional", "categorical"]
        assert str(sc.statements[2].formula) == "Worried(alice)"
        assert [str(l) for l in sc.fact] == ["!DifficultConcentrate(alice)"]

    def test_type_iii_facts_have_two_literals(self):
        for entry in corpus_entries():
            expected = 2 if entry.scenario.problem_type == "III" else 1
            assert len(entry.scenario.fact) == expected

    def test_explanations_only_in_experiment_2(self):
        for entry in corpus_entries():
            assert (entry.explanation is not None) == (entry.experiment == 2)

    def test_roundtrip(self):
        for entry in corpus_entries():
            assert parse_scenario(render(entry.scenario)) == entry.scenario


class TestPatternRevisions:
    def test_minimal_pattern_classifies_minimal(self):
        for entry in corpus_entries():
            result = pattern_revision(entry, "minimal")
            verdict = classify_revision(entry.scenario, result)
            assert verdict.label == "minimal", entry.scenario.id

    def test_non_minimal_pattern_classifies_non_minimal(self):
        for entry in corpus_entries():
            result = pattern_revision(entry, "non-minimal")
            verdict = classify_revision(entry.scenario, result)
            assert verdict.label == "non-minimal", entry.scenario.id

    def test_pattern_results_entail_their_facts(self):
        for entry in corpus_entries():
            base, explanation, phi = scenario_inputs(entry)
            sig = collect_signature([base, explanation, phi.literals])
            for pattern in ("minimal", "non-minimal"):
                result = pattern_revision(entry, pattern)
                assert entails(ground(result.revised, sig).formulas, phi.literals)

    def test_type_iii_non_minimal_touches_both_conditionals(self):
        for entry in corpus_entries():
            if entry.scenario.problem_type != "III":
                continue
            result = pattern_revision(entry, "non-minimal")
            assert len(result.retracted.elements) == 2
            # the same pick as the first all-conditional set of the listed pool
            want = reference_pattern(entry, "non-minimal")
            assert sorted(result.retracted.canonical_forms()) == want

    def test_unknown_pattern(self):
        entry = corpus_entries()[0]
        with pytest.raises(ValueError, match="unknown pattern 'fancy'"):
            pattern_revision(entry, "fancy")

    @pytest.mark.parametrize("pattern", ["minimal", "non-minimal"])
    def test_consistent_union_has_no_pattern(self, pattern):
        # without its categorical the first scenario no longer conflicts with its fact
        entry = corpus_entries()[0]
        entry = replace(entry, scenario=replace(entry.scenario,
                                                statements=entry.scenario.conditionals()))
        message = f"the {pattern} pattern is not admissible for exp1-s1"
        with pytest.raises(NoCandidates, match=message):
            pattern_revision(entry, pattern)
        assert reference_pattern(entry, pattern) == message

    def test_cap_below_ground_size(self):
        with pytest.raises(CapExceeded):
            pattern_revision(corpus_entries()[0], "minimal", cap=2)


class TestPatternDecision:
    """Testing only a pattern's own candidates picks what the first match in
    the listed admissible pool picked."""

    @pytest.mark.parametrize("experiment", [None, 1, 2])
    @pytest.mark.parametrize("pattern", ["minimal", "non-minimal"])
    def test_corpus_entries_match_the_pool(self, experiment, pattern):
        entries = corpus_entries(experiment)
        assert len(entries) == {None: 15, 1: 9, 2: 6}[experiment]
        for entry in entries:
            want = reference_pattern(entry, pattern)
            assert isinstance(want, list), entry.scenario.id
            assert decided_pattern(entry, pattern) == want, entry.scenario.id

    def test_categorical_the_explanation_asserts(self):
        # the categorical and the explanation's first statement are one union
        # element; the explanation needs it, so retracting it alone loses phi
        entry = sugar_entry("shared", """
[explanation]
ContainsSugar(drink).
ContainsSugar(X) -> !GivesEnergy(X).
""")
        ctx = _validated_context(*scenario_inputs(entry), DEFAULT_CAP)
        shared = [el for el in ctx.elements if el.canonical() == "ContainsSugar(drink)"]
        assert [len(el.sources) for el in shared] == [2]
        assert reference_pattern(entry, "minimal") == \
            "the minimal pattern is not admissible for shared"
        assert reference_pattern(entry, "non-minimal") == ["ContainsSugar(X) -> GivesEnergy(X)"]
        for pattern in ("minimal", "non-minimal"):
            assert decided_pattern(entry, pattern) == reference_pattern(entry, pattern)

    def test_no_all_conditional_set_is_admissible(self):
        # a second categorical contradicts the fact whatever conditionals go
        entry = sugar_entry("direct")
        extra = ScenarioStatement("S3", "categorical", parse_literals("GivesEnergy(drink)")[0])
        entry = replace(entry, scenario=replace(entry.scenario,
                                                statements=entry.scenario.statements + (extra,)))
        assert reference_pattern(entry, "non-minimal") == \
            "the non-minimal pattern is not admissible for direct"
        assert reference_pattern(entry, "minimal") == ["ContainsSugar(drink)", "GivesEnergy(drink)"]
        for pattern in ("minimal", "non-minimal"):
            assert decided_pattern(entry, pattern) == reference_pattern(entry, pattern)


class TestCorpusReport:
    def test_experiment_2_strategy_rows(self):
        report = corpus_report(2, SelectionStrategy("protect-explanation"))
        strategy_rows = [r for r in report["rows"] if r["run"].startswith("strategy:")]
        assert len(strategy_rows) == 6
        assert all(r["classification"] in ("minimal", "non-minimal") for r in strategy_rows)
        assert all(r["entails_explanandum"] for r in strategy_rows)

    def test_comparisons_are_exact_rationals(self):
        report = corpus_report(2)
        assert report["total_entries"] == 6
        for comparison in report["comparisons"]:
            assert isinstance(comparison["d_minimal"], Fraction)
            assert isinstance(comparison["d_non_minimal"], Fraction)

    def test_exceptions_reported_not_assumed(self):
        # retracting the lone categorical erases every prior consequence, so
        # the categorical-only revision maximizes the change measure on all
        # corpus shapes; the report must carry those cases as exceptions with
        # their exact values rather than asserting the inequality
        report = corpus_report()
        for comparison in report["comparisons"]:
            if not comparison["non_minimal_changes_more"]:
                assert comparison in report["exceptions"]
                assert comparison["d_minimal"] == Fraction(1)
                assert comparison["d_non_minimal"] < 1

    def test_known_exact_values(self):
        report = corpus_report(2)
        by_id = {c["id"]: c for c in report["comparisons"]}
        assert by_id["exp2-s2"]["d_non_minimal"] == Fraction(3, 5)
        assert by_id["exp2-s2"]["d_minimal"] == Fraction(1)
        assert by_id["exp2-s4"]["d_non_minimal"] == Fraction(5, 6)

    def test_guided_runs_reach_both_codings(self):
        # with the shipped explanations the guided operator itself can produce
        # a minimal-coded and a non-minimal-coded revision for every second-
        # experiment scenario
        for entry in corpus_entries(2):
            base, explanation, phi = scenario_inputs(entry)
            for pattern, want in (("minimal", "minimal"), ("non-minimal", "non-minimal")):
                result = pattern_revision(entry, pattern)
                assert result.strategy == "interactive"
                assert classify_revision(entry.scenario, result).label == want


class TestSharedContext:
    def test_one_context_and_validation_per_entry(self, monkeypatch):
        from revisekit import revision

        calls: Counter = Counter()
        for owner, name in ((revision._UnionContext, "__init__"),
                            (revision, "validate_explanation")):
            def counted(*args, _inner=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        corpus_report()
        assert calls == {"__init__": 15, "validate_explanation": 15}

    def test_replay_work_counts(self, sat_calls, monkeypatch):
        from revisekit import corpus, logic, metrics, revision

        calls: Counter = Counter()
        kernel_indices = revision._UnionContext.kernel_indices
        read = logic._SubsetSolver.consequences

        def counted_kernel_indices(self):
            calls["kernel_indices"] += 1
            return kernel_indices(self)

        def counted_consequences(*args, **kwargs):
            calls["consequences"] += 1
            return logic.consequences(*args, **kwargs)

        def counted_read(self, kept):
            assert self._index is not None  # numbered by the context's subset checks
            calls["context_reads"] += 1
            return read(self, kept)
        monkeypatch.setattr(revision._UnionContext, "kernel_indices", counted_kernel_indices)
        monkeypatch.setattr(logic._SubsetSolver, "consequences", counted_read)
        for module in (corpus, metrics):
            monkeypatch.setattr(module, "consequences", counted_consequences)
        rows = []
        row = corpus._row

        def recorded_row(entry, run, result, *args):
            rows.append((entry, result, out := row(entry, run, result, *args)))
            return out
        monkeypatch.setattr(corpus, "_row", recorded_row)

        corpus_report(1)
        # every row's signature is its entry's union signature, so each
        # consequence set is read off the union solver; no pool is listed
        assert calls == {"context_reads": 27}
        calls.clear()
        sat_calls.clear()
        rows.clear()
        corpus_report()
        # only the six second-experiment strategy rows walk the candidates; the
        # prior consequence set is read once per entry (36 rows + 15, not 72),
        # on the solver the subset checks built: a read is no counted SAT call
        assert calls == {"kernel_indices": 6, "context_reads": 51}
        # 158 subset checks of the replay, plus one scenario invariant per entry
        assert sum(sat_calls.values()) == 173
        assert len(rows) == 36
        monkeypatch.undo()
        for entry, result, out in rows:
            base = entry.scenario.belief_base()
            assert out["change_measure"] == metrics.change_measure(base, result.revised)

    def test_row_off_the_context_signature_falls_back(self, monkeypatch):
        from revisekit import BeliefBase, corpus, logic, metrics, revision

        entry = corpus_entries(1)[0]
        base, explanation, phi = scenario_inputs(entry)
        ctx = _validated_context(base, explanation, phi, DEFAULT_CAP)
        result = _pattern_revision(ctx, entry, "non-minimal")
        # the same union plus a fact on a new constant: the row's signature is narrower
        extra = parse_literals("Extra(zz)")
        wider = revision._UnionContext(base, BeliefBase.from_formulas([*explanation.formulas, *extra]),
                                       phi, DEFAULT_CAP)
        assert collect_signature([base, result.revised]) != wider.sig
        calls: Counter = Counter()
        read = logic._SubsetSolver.consequences

        def counted_consequences(*args, **kwargs):
            calls["consequences"] += 1
            return logic.consequences(*args, **kwargs)

        def counted_read(self, kept):
            calls["context_reads"] += 1
            return read(self, kept)
        monkeypatch.setattr(corpus, "consequences", counted_consequences)
        monkeypatch.setattr(logic._SubsetSolver, "consequences", counted_read)
        out = corpus._row(entry, "pattern:non-minimal", result, base, wider, {})
        assert calls == {"consequences": 2}
        assert out["change_measure"] == metrics.change_measure(base, result.revised)
        # a base over the context's signature but not of its elements falls back too
        calls.clear()
        other = BeliefBase.from_formulas([lit.negate() for lit in entry.scenario.fact])
        assert corpus._consequences(ctx, other, ctx.sig) == logic.consequences(other, ctx.sig)
        assert calls == {"consequences": 1}

    # md5 prefixes of the CLI output before the runs of an entry shared one
    # context; sharing memoized checks must not change a byte of any row
    @pytest.mark.parametrize("args, prefix", [
        (["--format=json"], "401c4492"),
        (["--format=json", "--strategy=min-cardinality"], "53defe44"),
        (["--format=json", "--strategy=max-cardinality"], "9dbe1dd6"),
        (["--format=json", "--strategy=weighted"], "df6f0149"),
        (["--format=json", "--strategy=seeded-random"], "ecec0136"),
        ([], "9c9ac0d7"),
        (["--strategy=min-cardinality"], "1a4a79f8"),
        (["--strategy=max-cardinality"], "60c98a97"),
        (["--strategy=weighted"], "ca65c189"),
        (["--strategy=seeded-random"], "8ff787d0"),
        (["--format=json", "--experiment=1"], "584364e6"),
        (["--format=json", "--experiment=1", "--strategy=max-cardinality"], "584364e6"),
        (["--format=json", "--experiment=2", "--strategy=seeded-random", "--seed=7"], "9e3fb97f"),
    ])
    def test_cli_output_digest(self, args, prefix, capsys):
        assert cli.main(["corpus", *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.md5(out.encode()).hexdigest().startswith(prefix)
