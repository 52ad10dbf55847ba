import random
from collections import Counter

import pytest

from revisekit import (
    BeliefBase,
    CorrectionSet,
    GeneratorParams,
    InvalidExplanation,
    NonDeterministicStrategy,
    SelectionStrategy,
    check_postulates,
    check_propositions,
    check_reversion,
    collect_signature,
    entails,
    ground,
    is_consistent,
    parse_base,
    parse_literals,
    random_instance,
    revise,
    union_elements,
    validate_explanation,
)
from revisekit.errors import InconsistentBase
from revisekit.logic import Literal, Signature, ground_formula
from revisekit.postulates import _ROTATION, POSTULATE_NAMES, baseline_fixture, reversion_pair
from revisekit.revision import CANDIDATE_PURE_KINDS, Explanandum, RevisionResult
from revisekit import falappa, logic, postulates, revision


def phi_of(text):
    return Explanandum(parse_literals(text))


class TestCheckPostulates:
    def test_all_seven_hold_on_walkthrough(self, charlie_base, charlie_explanation, charlie_phi):
        chooser = lambda pool: next(
            i for i, cs in enumerate(pool)
            if cs.canonical_forms() == {"Wor(charlie) -> Ins(charlie)"})
        result = revise(charlie_base, charlie_explanation, charlie_phi,
                        SelectionStrategy("interactive", chooser=chooser))
        report = check_postulates(charlie_base, charlie_explanation, charlie_phi, result)
        assert [name for name, _ in report.results] == list(POSTULATE_NAMES)
        assert report.all_hold
        assert report.witnesses == ()

    def test_vacuity_instance(self):
        b = parse_base("Wor(charlie).")
        e = parse_base("Ins(charlie).")
        phi = phi_of("Ins(charlie)")
        result = revise(b, e, phi, SelectionStrategy("min-cardinality"))
        report = check_postulates(b, e, phi, result)
        assert report.holds("vacuity")
        assert report.all_hold

    def test_baseline_violation_reported_with_witness(self):
        base, explanation, phi = baseline_fixture()
        result = falappa.revise_falappa(base, explanation,
                                        falappa.IncisionPolicy("canonical-first"))
        report = check_postulates(base, explanation, phi, result)
        assert not report.holds("strong-acceptance")
        witness = dict(report.witnesses)["strong-acceptance"]
        assert "Cop(charlie)" in witness

    def test_unconstrained_antecedent(self, charlie_base, charlie_explanation, charlie_phi):
        # the base rejects the explanandum, so unconstrained acceptance is the
        # binding variant
        result = revise(charlie_base, charlie_explanation, charlie_phi,
                        SelectionStrategy("min-cardinality"))
        report = check_postulates(charlie_base, charlie_explanation, charlie_phi, result)
        assert report.holds("unconstrained-acceptance")
        assert report.holds("constrained-acceptance")

    def test_equals_grounding_each_base_separately(self):
        # every rotation strategy, plus the baseline operator, whose results
        # can fail strong acceptance
        failing = set()
        for seed in range(200):
            base, explanation, phi = random_instance(GeneratorParams(seed=seed))
            baseline = falappa.revise_falappa(base, explanation,
                                              falappa.IncisionPolicy("min-hitting-set"))
            ctx = revision._UnionContext(base, explanation, phi, 24)  # valid, as in the suite
            runs = [(revision._revise(ctx, s), s) for s in _ROTATION]
            for result, strategy in runs + [(baseline, None)]:
                report = check_postulates(base, explanation, phi, result)
                assert report.results == _grounding_each_base(base, explanation, phi,
                                                              result, strategy)
                assert tuple(name for name, _ in report.witnesses) == report.failing
                failing.update(report.failing)
        assert "strong-acceptance" in failing

    def test_revised_formula_outside_union_fails_inclusion(
            self, charlie_base, charlie_explanation, charlie_phi):
        revised = parse_base("!Ins(charlie). Cop(X) -> !Ins(X).")
        result = RevisionResult(revised, CorrectionSet(()), False, "protect-explanation")
        report = check_postulates(charlie_base, charlie_explanation, charlie_phi, result)
        assert not report.holds("inclusion")
        assert report.holds("strong-acceptance")
        assert "Cop(X) -> !Ins(X)" in dict(report.witnesses)["inclusion"]


def _grounding_each_base(base, explanation, phi, result, strategy):
    """The seven results as computed by grounding the union, the revised base
    and the base each on their own, with `ground`.  Reversion reruns a pure
    strategy on the reversed explanation, which check_postulates reads as
    true without a rerun: the two unions are equal."""
    sig = collect_signature([base, explanation, phi.literals])
    union = union_elements(base, explanation)
    union_forms = {el.canonical() for el in union}
    union_consistent = is_consistent(
        [gf for el in union for gf in ground_formula(el.formula, sig)])
    revised_ground = ground(result.revised, sig).formulas
    revised_forms = result.revised.canonical_forms()
    strong = entails(revised_ground, phi.literals)
    rejects_phi = not is_consistent(ground(base, sig).formulas + phi.literals)
    reversion = True
    if strategy is not None and strategy.kind in CANDIDATE_PURE_KINDS:
        permuted = BeliefBase(tuple(reversed(explanation.statements)))
        rerun = revise(base, permuted, phi, strategy)
        reversion = rerun.retracted.canonical_forms() == result.retracted.canonical_forms()
    return (
        ("inclusion", revised_forms <= union_forms),
        ("vacuity", not union_consistent or (
            revised_forms == frozenset(union_forms) and not result.retracted.elements)),
        ("consistency", union_consistent or is_consistent(revised_ground)),
        ("reversion", reversion),
        ("constrained-acceptance", rejects_phi or strong),
        ("unconstrained-acceptance", not rejects_phi or strong),
        ("strong-acceptance", strong),
    )


class TestCheckReversion:
    def test_identical_explanations(self, charlie_base, charlie_explanation, charlie_phi):
        assert check_reversion(charlie_base, charlie_explanation, charlie_explanation,
                               charlie_phi, SelectionStrategy("min-cardinality"))

    def test_reordered_explanation(self):
        b = parse_base("Wor(charlie). Wor(charlie) -> Ins(charlie).")
        e1 = parse_base("Cop(charlie). Cop(X) -> !Ins(X).")
        e2 = parse_base("Cop(X) -> !Ins(X). Cop(charlie).")
        assert check_reversion(b, e1, e2, phi_of("!Ins(charlie)"),
                               SelectionStrategy("min-cardinality"))

    def test_different_explanations_same_union(self):
        base, e1, e2, phi = reversion_pair(seed=5)
        assert e1 != e2
        for kind in ("min-cardinality", "max-cardinality", "weighted"):
            assert check_reversion(base, e1, e2, phi, SelectionStrategy(kind))
        assert check_reversion(base, e1, e2, phi,
                               SelectionStrategy("seeded-random", seed=9))

    def test_tie_across_sources(self):
        # The smallest admissible sets are {a}, {a & t -> !g} and {t}, and `a`
        # is explanation-sourced in e1 only, so a pick that reads where an
        # element came from retracts different sets on the two sides.
        base = parse_base("a. b. t. a & s -> g. b & s -> g. a & t -> !g.")
        e1 = parse_base("s. a. a & s -> g.")
        e2 = parse_base("s. b. b & s -> g.")
        phi = phi_of("g")
        for e, sourced in ((e1, True), (e2, False)):
            ctx = revision._UnionContext(base, e, phi, revision.DEFAULT_CAP)
            smallest = [[(el.canonical(), el.from_explanation) for el in cs]
                        for cs in ctx.admissible() if len(cs) == 1]
            assert smallest == [[("a", sourced)], [("a & t -> !g", False)], [("t", False)]]
        for kind in ("min-cardinality", "max-cardinality", "weighted"):
            assert check_reversion(base, e1, e2, phi, SelectionStrategy(kind))
        assert check_reversion(base, e1, e2, phi, SelectionStrategy("seeded-random", seed=9))

    def test_vacuous_when_kernels_differ(self, charlie_base, charlie_explanation, charlie_phi):
        other = parse_base("Cop(charlie). Cop(X) -> !Ins(X).")
        assert check_reversion(charlie_base, charlie_explanation, other, charlie_phi,
                               SelectionStrategy("min-cardinality"))

    def test_rejects_impure_strategies(self, charlie_base, charlie_explanation, charlie_phi):
        with pytest.raises(NonDeterministicStrategy):
            check_reversion(charlie_base, charlie_explanation, charlie_explanation,
                            charlie_phi, SelectionStrategy("protect-explanation"))
        with pytest.raises(NonDeterministicStrategy):
            check_reversion(charlie_base, charlie_explanation, charlie_explanation,
                            charlie_phi,
                            SelectionStrategy("interactive", chooser=lambda pool: 0))

    def test_requires_valid_explanations(self, charlie_base, charlie_phi):
        bad = parse_base("!Ins(charlie). Wor(diana).")
        with pytest.raises(InvalidExplanation):
            check_reversion(charlie_base, bad, bad, charlie_phi,
                            SelectionStrategy("min-cardinality"))

    def test_universe_from_explanandum(self):
        # No base or explanation formula names a constant; the explanandum
        # does, and revision grounds over it, so the kernels are listed over
        # it too instead of failing with EmptyUniverse.
        base = parse_base("Q(X) -> P(X).")
        e1 = parse_base("R(X) -> P(X). !R(X) -> P(X).")
        e2 = parse_base("!R(X) -> P(X). R(X) -> P(X).")
        assert check_reversion(base, e1, e2, phi_of("P(c)"),
                               SelectionStrategy("min-cardinality"))

    def test_sat_calls_pinned(self, sat_calls):
        # Each side is validated and revised on its own context; equal unions
        # have equal kernels, so neither side lists its kernel.
        base, e1, e2, phi = reversion_pair(0)
        assert check_reversion(base, e1, e2, phi, SelectionStrategy("min-cardinality"))
        assert sat_calls["is_consistent"] > 0 and sat_calls["entails"] > 0
        assert sat_calls == {"is_consistent": 6, "entails": 10}

    def test_lists_no_kernel(self, monkeypatch):
        # the only kernel walks are the prefixes the two revisions read
        calls = Counter()
        for name in ("kernel_indices", "admissible"):
            def counted(self, name=name, method=getattr(revision._UnionContext, name)):
                calls[name] += 1
                return method(self)
            monkeypatch.setattr(revision._UnionContext, name, counted)
        for seed in range(5):
            base, e1, e2, phi = reversion_pair(seed)
            assert check_reversion(base, e1, e2, phi, SelectionStrategy("min-cardinality"))
        assert calls == {"kernel_indices": 10, "admissible": 10}


class TestOrderIndependence:
    def test_permuted_statements_revise_alike(self):
        # The argument check_postulates reads reversion by: a revision is a
        # function of the union's canonical order, never of statement order.
        # Every strategy, interactive with a fixed chooser, revises randomly
        # permuted bases and explanations to the same sets.
        rng = random.Random("order-independence")
        strategies = [SelectionStrategy(kind) for kind in (
            "min-cardinality", "max-cardinality", "protect-explanation", "weighted")]
        strategies += [SelectionStrategy("seeded-random", seed=3),
                       SelectionStrategy("interactive", chooser=lambda pool: len(pool) // 2)]
        instances = [random_instance(GeneratorParams(seed=seed)) for seed in range(40)]
        instances += [reversion_pair(seed)[:2] + reversion_pair(seed)[3:] for seed in range(5)]
        # two conflicts through the explanation: the smallest admissible sets
        # are the four picks of one side from each of {e1, !e1} and {e2, !e2}
        instances += [
            (parse_base("a. b. t. a & s -> g. b & s -> g. a & t -> !g."),
             parse_base("s. a. a & s -> g."), phi_of("g")),
            (parse_base("x. x -> g. !e1. !e2."), parse_base("e1. e2. e1 & e2 -> g."), phi_of("g")),
        ]
        corrected = 0
        for base, explanation, phi in instances:
            for strategy in strategies:
                result = revise(base, explanation, phi, strategy)
                for _ in range(3):
                    permuted = revise(
                        BeliefBase(rng.sample(base.statements, len(base))),
                        BeliefBase(rng.sample(explanation.statements, len(explanation))),
                        phi, strategy)
                    assert permuted.retracted.canonical_forms() == result.retracted.canonical_forms()
                    assert permuted.revised.canonical_forms() == result.revised.canonical_forms()
            corrected += not result.union_consistent
        assert corrected >= 20


class TestRandomInstance:
    @pytest.mark.parametrize("field, value", [
        ("predicate_count", 0), ("predicate_count", -1), ("constant_count", -1),
        ("rule_count", -1), ("body_length", 0),
    ])
    def test_rejects_out_of_range_sizes(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least"):
            GeneratorParams(**{field: value})

    def test_accepts_empty_constants_and_rules(self):
        params = GeneratorParams(constant_count=0, rule_count=0)
        assert check_propositions(params, trials=5).ok

    def test_reproducible(self):
        a = random_instance(GeneratorParams(seed=77))
        b = random_instance(GeneratorParams(seed=77))
        assert a[0] == b[0] and a[1] == b[1]
        assert str(a[2]) == str(b[2])

    def test_explanations_always_valid(self):
        for seed in range(40):
            _, e, phi = random_instance(GeneratorParams(seed=seed))
            assert validate_explanation(e, phi).valid

    def test_seeds_vary_instances(self):
        bases = {tuple(sorted(random_instance(GeneratorParams(seed=s))[0].canonical_forms()))
                 for s in range(15)}
        assert len(bases) > 5


def _solver_pick(rng, sig, base):
    """The explanandum pick as made on the selector solver of the base: the
    base entails a literal iff the solver has no model under the assumptions
    keeping every formula plus its complement, and nothing about an atom it
    never mentions."""
    checks = logic._SubsetSolver(base.formulas, sig, ())
    keep = checks._assumptions((1 << len(base)) - 1, False)  # builds the solver
    index = checks._index
    conflict = rng.random() < 0.55
    atoms = list(sig.herbrand_atoms())
    rng.shuffle(atoms)
    if conflict:
        for atom in atoms:
            v = index.get(str(atom))
            if v is None:
                continue
            for lit, complement in ((Literal(atom), -v), (Literal(atom, True), v)):
                if checks._solver.solve([*keep, complement]) is None:
                    return Explanandum((lit.negate(),))
    width = 2 if rng.random() < 0.3 and len(atoms) > 1 else 1
    picked = tuple(Literal(atom, rng.random() < 0.4) for atom in atoms[:width])
    return Explanandum(picked) if picked else None


class TestPickExplanandum:
    @pytest.mark.parametrize("params", [
        GeneratorParams(), GeneratorParams(constant_count=0),
        GeneratorParams(max_arity=2, constant_count=3, rule_count=3),
        GeneratorParams(predicate_count=4, max_arity=2, fact_probability=0.9),
    ])
    def test_matches_solver_pick(self, params):
        rng = random.Random(repr(params))
        constants = [f"c{i}" for i in range(1, params.constant_count + 1)]
        predicates = [(f"p{i}", rng.randint(0, params.max_arity) if constants else 0)
                      for i in range(1, params.predicate_count + 1)]
        bases = [BeliefBase(), parse_base("p1 & p2 -> p3.")]  # bases that entail nothing
        while len(bases) < 150:
            if (base := postulates._random_base(rng, params, predicates, constants)) is not None:
                bases.append(base)
        inconsistent = 0
        for i, base in enumerate(bases):
            sig = collect_signature([base, Signature(tuple(constants))])  # as the generator's
            try:
                entailed = logic.consequences(base, sig)
            except InconsistentBase:
                assert not logic._SubsetSolver(base.formulas, sig, ()).satisfiable((1 << len(base)) - 1, False)
                inconsistent += 1
                continue
            reference, changed = random.Random(i), random.Random(i)
            expected = _solver_pick(reference, sig, base)
            assert postulates._pick_explanandum(changed, sig, entailed) == expected
            assert changed.getstate() == reference.getstate()
        assert 0 < inconsistent < len(bases) - 50


class TestCheckPropositions:
    def test_small_guided_run_is_clean(self):
        report = check_propositions(GeneratorParams(seed=11), trials=60)
        assert report.ok
        assert report.trials == 60
        assert report.inconsistent_unions > 0
        assert len(report.baseline_violations) >= 1

    def test_zero_trials(self):
        report = check_propositions(GeneratorParams(seed=0), trials=0)
        assert report.ok
        assert report.trials == 0
        # the fixed baseline fixture is still evaluated
        assert len(report.baseline_violations) >= 1

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must not be negative"):
            check_propositions(GeneratorParams(seed=0), trials=-2)

    def test_falappa_run_reports_informational_violations(self):
        report = check_propositions(GeneratorParams(seed=2), trials=40, operator="falappa")
        assert report.ok  # baseline violations never fail the suite
        assert any(f.postulate == "strong-acceptance" for f in report.baseline_violations)

    def test_generator_uses_operator_ground_count(self):
        # At this seed the union has 12 distinct ground formulas but 13
        # per-element instances, the count the operator caps; the generator
        # must skip it instead of handing the operator a union it rejects.
        params = GeneratorParams(constant_count=3, rule_count=3, seed=420)
        report = check_propositions(params, 1, cap=12)
        assert report.trials == 1
        assert report.ok

    def test_one_context_per_revision(self, monkeypatch):
        # 7 primary revisions, 2 for the reversion pair of trial 0 and 3 for
        # the baseline fixture; the generator sizes without one, and
        # check_postulates reruns nothing.
        built = []
        init = revision._UnionContext.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr(revision._UnionContext, "__init__", counted)
        check_propositions(GeneratorParams(seed=0), trials=7)
        assert len(built) > 0
        assert len(built) == 12

    def test_report_serializes(self):
        report = check_propositions(GeneratorParams(seed=3), trials=10)
        payload = report.as_dict()
        assert payload["trials"] == 10
        assert isinstance(payload["failures"], list)
