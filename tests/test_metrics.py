from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from revisekit import (
    BeliefBase,
    InconsistentBase,
    Literal,
    Atom,
    Term,
    SelectionStrategy,
    UnknownLabel,
    change_measure,
    classify_revision,
    collect_signature,
    parse_base,
    parse_literals,
    parse_scenario,
    revise,
    statement_changes,
)
from revisekit.revision import Explanandum

SCENARIO_TYPE_I = """
[meta]
id = t1
type = I

[statements]
S1: conditional: Worried(X) -> DifficultConcentrate(X).
S2: categorical: Worried(alice).

[fact]
!DifficultConcentrate(alice).
"""

SCENARIO_TYPE_II = """
[meta]
id = t2
type = II

[statements]
S1: conditional: Worried(X) -> DifficultConcentrate(X).
S2: conditional: Worried(X) -> Insomnia(X).
S3: categorical: Worried(alice).

[fact]
!DifficultConcentrate(alice).

[explanation]
CopingStrategies(alice).
CopingStrategies(X) -> !DifficultConcentrate(X).
"""


def run_guided(scenario, target_forms):
    base = scenario.belief_base()
    phi = Explanandum(scenario.fact)
    explanation = scenario.explanation
    if explanation is None:
        explanation = BeliefBase.from_formulas(list(scenario.fact))
    chooser = lambda pool: next(
        i for i, cs in enumerate(pool) if cs.canonical_forms() == target_forms)
    return revise(base, explanation, phi,
                  SelectionStrategy("interactive", chooser=chooser))


class TestChangeMeasure:
    def test_minimal_walkthrough_value(self, measure_base):
        posterior = parse_base(
            "Wor(charlie). Wor(diana). Wor(diana) -> Ins(diana). "
            "Cop(charlie). Wor(charlie) & Cop(charlie) -> !Ins(charlie)."
        )
        m = change_measure(measure_base, posterior)
        assert (m.numerator, m.denominator) == (3, 6)
        assert m.value == Fraction(1, 2)
        assert m.decimal == "0.500"

    def test_nonminimal_walkthrough_value(self, measure_base):
        posterior = parse_base(
            "Wor(charlie). Wor(diana). Cop(charlie). "
            "Wor(charlie) & Cop(charlie) -> !Ins(charlie)."
        )
        m = change_measure(measure_base, posterior)
        assert (m.numerator, m.denominator) == (4, 6)
        assert m.value == Fraction(2, 3)
        assert m.decimal == "0.667"

    def test_larger_retraction_changes_more(self, measure_base):
        minimal = parse_base(
            "Wor(charlie). Wor(diana). Wor(diana) -> Ins(diana). "
            "Cop(charlie). Wor(charlie) & Cop(charlie) -> !Ins(charlie)."
        )
        nonminimal = parse_base(
            "Wor(charlie). Wor(diana). Cop(charlie). "
            "Wor(charlie) & Cop(charlie) -> !Ins(charlie)."
        )
        assert change_measure(measure_base, nonminimal).value > \
            change_measure(measure_base, minimal).value

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("k", [5, 20, 40])
    def test_closed_form_at_scale(self, k, r):
        # the scenario shape scaled over k constants: r conditionals
        # P(X) -> Qj(X), categoricals P(e1..ek), and the explanation
        # A(e1), A(X) -> !Q1(X); (r + 2) * k Herbrand atoms
        conditionals = [f"P(X) -> Q{j}(X)." for j in range(1, r + 1)]
        categoricals = [f"P(e{i})." for i in range(1, k + 1)]
        explanation = ["A(e1).", "A(X) -> !Q1(X)."]
        base = parse_base(" ".join(conditionals + categoricals))
        cases = ((categoricals[0], k + r + 3, (r + 2) * k + 2),  # minimal: retract P(e1)
                 (conditionals[0], k + 2, (r + 1) * k + 2))      # non-minimal: P(X) -> Q1(X)
        for dropped, sym, union in cases:
            kept = [st for st in conditionals + categoricals if st != dropped]
            m = change_measure(base, parse_base(" ".join(kept + explanation)))
            assert (m.numerator, m.denominator) == (sym, union)
            assert m.value == Fraction(sym, union)

    def test_identity(self, measure_base):
        m = change_measure(measure_base, measure_base)
        assert m.value == 0

    def test_disjoint_consequences(self):
        a = parse_base("Wor(charlie).")
        b = parse_base("Ins(diana).")
        assert change_measure(a, b).value == 1

    def test_both_empty(self):
        m = change_measure(BeliefBase(), BeliefBase())
        assert (m.numerator, m.denominator) == (0, 0)
        assert m.value == 0

    def test_inconsistent_input(self):
        bad = parse_base("Wor(charlie). !Wor(charlie).")
        with pytest.raises(InconsistentBase):
            change_measure(bad, parse_base("Wor(charlie)."))


_FACT_POOL = [
    Literal(Atom(p, (Term(c),)), neg)
    for p in ("P", "Q", "R")
    for c in ("a", "b")
    for neg in (False, True)
]


def _fact_bases():
    return st.lists(st.sampled_from(range(len(_FACT_POOL))), max_size=5).map(_to_base)


def _to_base(indices):
    picked, seen = [], set()
    for i in indices:
        lit = _FACT_POOL[i]
        if str(lit) in seen or str(lit.negate()) in seen:
            continue
        seen.add(str(lit))
        picked.append(lit)
    return BeliefBase.from_formulas(picked)


@settings(max_examples=120, deadline=None)
@given(_fact_bases(), _fact_bases())
def test_measure_symmetry_and_range(a, b):
    sig = collect_signature([a, b, _FACT_POOL])
    forward = change_measure(a, b, sig)
    backward = change_measure(b, a, sig)
    assert forward.value == backward.value
    assert 0 <= forward.value <= 1
    assert change_measure(a, a, sig).value == 0


class TestStatementChanges:
    def test_single_rule_retraction(self, charlie_base, charlie_explanation, charlie_phi):
        chooser = lambda pool: next(
            i for i, cs in enumerate(pool)
            if cs.canonical_forms() == {"Wor(charlie) -> Ins(charlie)"})
        result = revise(charlie_base, charlie_explanation, charlie_phi,
                        SelectionStrategy("interactive", chooser=chooser))
        assert statement_changes(charlie_base, result) == 1

    def test_vacuity_changes_nothing(self):
        b = parse_base("Wor(charlie).")
        e = parse_base("Ins(charlie).")
        result = revise(b, e, Explanandum(parse_literals("Ins(charlie)")),
                        SelectionStrategy("min-cardinality"))
        assert statement_changes(b, result) == 0

    def test_both_conditionals_gone(self, measure_base, measure_explanation):
        target = frozenset({"Wor(charlie) -> Ins(charlie)", "Wor(diana) -> Ins(diana)"})
        chooser = lambda pool: next(
            i for i, cs in enumerate(pool) if cs.canonical_forms() == target)
        result = revise(measure_base, measure_explanation,
                        Explanandum(parse_literals("!Ins(charlie)")),
                        SelectionStrategy("interactive", chooser=chooser))
        assert statement_changes(measure_base, result) == 2


class TestClassifyRevision:
    def test_retract_categorical_is_minimal(self):
        sc = parse_scenario(SCENARIO_TYPE_I)
        result = run_guided(sc, frozenset({"Worried(alice)"}))
        verdict = classify_revision(sc, result)
        assert verdict.label == "minimal"
        assert verdict.discarded == ("S2",)

    def test_retract_conditional_is_non_minimal(self):
        sc = parse_scenario(SCENARIO_TYPE_II)
        result = run_guided(sc, frozenset({"Worried(X) -> DifficultConcentrate(X)"}))
        verdict = classify_revision(sc, result)
        assert verdict.label == "non-minimal"
        assert verdict.discarded == ("S1",)
        assert set(verdict.retained) == {"S2", "S3"}

    def test_two_statements_is_non_minimal(self):
        sc = parse_scenario(SCENARIO_TYPE_II)
        target = frozenset({"Worried(X) -> DifficultConcentrate(X)", "Worried(alice)"})
        result = run_guided(sc, target)
        assert classify_revision(sc, result).label == "non-minimal"

    def test_untouched_is_unclassified(self):
        sc = parse_scenario(SCENARIO_TYPE_II)
        base = sc.belief_base()
        vac = revise(parse_base("Worried(alice)."),
                     parse_base("CopingStrategies(alice)."),
                     Explanandum(parse_literals("CopingStrategies(alice)")),
                     SelectionStrategy("min-cardinality"))
        assert classify_revision(sc, vac).label == "unclassified"

    def test_threshold_parameter(self):
        sc = parse_scenario(SCENARIO_TYPE_II)
        result = run_guided(sc, frozenset({"Worried(alice)"}))
        assert classify_revision(sc, result).label == "minimal"
        # with a threshold of one touched statement, even the categorical-only
        # retraction counts as non-minimal
        assert classify_revision(sc, result, non_minimal_threshold=1).label == "non-minimal"

    def test_unknown_label(self):
        sc = parse_scenario(SCENARIO_TYPE_I)
        other = parse_base("Fever(maria). Fever(X) -> HighTemperature(X).")
        result = revise(other, parse_base("!HighTemperature(maria)."),
                        Explanandum(parse_literals("!HighTemperature(maria)")),
                        SelectionStrategy("min-cardinality"))
        with pytest.raises(UnknownLabel):
            classify_revision(sc, result)
