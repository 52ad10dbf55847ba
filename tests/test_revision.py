import random
from collections import Counter
from itertools import combinations

import pytest

from revisekit import (
    Atom,
    BeliefBase,
    CapExceeded,
    EmptyUniverse,
    Explanandum,
    ExplanationReport,
    InvalidExplanation,
    Literal,
    NoCandidates,
    Rule,
    SelectionStrategy,
    Signature,
    Term,
    admissible_selections,
    collect_signature,
    correction_kernel,
    entails,
    enumerate_models,
    ground,
    is_consistent,
    kernel_set,
    parse_base,
    parse_literals,
    revise,
    select,
    union_elements,
    validate_explanation,
)
from revisekit import logic
from revisekit.logic import ground_formula
from revisekit.revision import _UnionContext, _ground_size
from revisekit.postulates import GeneratorParams, random_instance

from conftest import mask, random_ground_formulas

RULE = "Wor(charlie) -> Ins(charlie)"


def phi_of(text: str) -> Explanandum:
    return Explanandum(parse_literals(text))


def forms(correction_set) -> frozenset[str]:
    return correction_set.canonical_forms()


class TestExplanandum:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Explanandum(())

    def test_rejects_complementary_pair(self):
        with pytest.raises(ValueError):
            Explanandum(parse_literals("Wor(charlie) & !Wor(charlie)"))

    def test_rejects_duplicates(self):
        lits = parse_literals("Wor(charlie)") * 2
        with pytest.raises(ValueError):
            Explanandum(lits)


class TestValidateExplanation:
    def test_coping_explanation_valid(self, coping_explanation):
        report = validate_explanation(coping_explanation, phi_of("!Ins(charlie)"))
        assert report.valid
        assert report.entails_explanandum and report.consistent and report.minimal

    def test_self_explanation_valid(self):
        report = validate_explanation(parse_base("!Ins(charlie)."), phi_of("!Ins(charlie)"))
        assert report.valid

    def test_non_minimal_witness(self):
        e = parse_base("!Ins(charlie). Wor(diana).")
        report = validate_explanation(e, phi_of("!Ins(charlie)"))
        assert not report.minimal and not report.valid
        assert ("!Ins(charlie)",) in report.failing_subsets

    def test_inconsistent_explanation(self):
        e = parse_base("Wor(charlie). !Wor(charlie).")
        report = validate_explanation(e, phi_of("Ins(diana)"))
        assert not report.consistent
        assert report.entails_explanandum  # explosion
        assert not report.valid

    def test_does_not_entail(self):
        report = validate_explanation(parse_base("Wor(diana)."), phi_of("!Ins(charlie)"))
        assert not report.entails_explanandum

    @staticmethod
    def _minimal_over_all_subsets(e, phi):
        """Minimality quantified over every proper subset of the explanation."""
        sig = collect_signature([e, phi.literals])
        statements = e.statements
        return not any(
            entails([gf for st in subset for gf in ground_formula(st.formula, sig)], phi.literals)
            for size in range(len(statements)) for subset in combinations(statements, size))

    def test_equals_object_level_reference(self):
        """Whole reports, witness order included, equal the object-level
        reference on seeded explanations; an explanation with variable rules
        and no constants raises the same EmptyUniverse.  `revise` validates on
        the explanation's own signature, before the union is sized or grounded."""
        rng = random.Random(1414)
        seen = Counter()
        base = parse_base("P(c). !Q(d). R(c, d). s.")
        for _ in range(600):
            e, phi = _random_validation_case(rng)
            sig = collect_signature([e, phi.literals])
            try:
                expected = _reference_report(e, phi)
            except EmptyUniverse as exc:
                with pytest.raises(EmptyUniverse) as got:
                    validate_explanation(e, phi)
                assert str(got.value) == str(exc)
                with pytest.raises(EmptyUniverse) as got:
                    revise(base, e, phi, SelectionStrategy("min-cardinality"), cap=0)
                assert str(got.value) == str(exc)
                seen["empty universe"] += 1
                continue
            assert validate_explanation(e, phi) == expected
            if expected.valid:
                with pytest.raises(CapExceeded):
                    revise(base, e, phi, SelectionStrategy("min-cardinality"), cap=0)
            else:
                with pytest.raises(InvalidExplanation) as got:
                    revise(base, e, phi, SelectionStrategy("min-cardinality"), cap=0)
                assert got.value.report == expected
            seen["valid" if expected.valid else "invalid"] += 1
            seen["empty"] += not e.statements
            seen["inconsistent"] += not expected.consistent
            seen["variable rule"] += any(st.is_rule and st.formula.variables() for st in e)
            seen["tautological instance"] += any(
                st.is_rule and _has_tautological_instance(st.formula, sig) for st in e)
            mentioned = {lit.atom for gf in ground(e, sig)
                         for lit in ((gf,) if isinstance(gf, Literal) else (*gf.body, gf.head))}
            seen["unmentioned explanandum atom"] += any(l.atom not in mentioned for l in phi)
            seen["several witnesses"] += len(expected.failing_subsets) > 1
            seen["witnesses out of canonical order"] += (
                list(expected.failing_subsets) != sorted(expected.failing_subsets))
        assert len(seen) == 10 and min(seen.values()) >= 20, seen

    def test_single_removal_equals_exhaustive(self):
        rng = random.Random(31)
        for trial in range(40):
            _, e, phi = random_instance(GeneratorParams(seed=500 + trial))
            fast = validate_explanation(e, phi)
            assert fast.minimal == self._minimal_over_all_subsets(e, phi)
            # also probe non-minimal explanations built by padding
            padded_formulas = list(e.formulas)
            extra = parse_base("Pad(zz).").formulas[0]
            if str(extra) not in e.canonical_forms():
                padded = BeliefBase.from_formulas(padded_formulas + [extra])
                fast_p = validate_explanation(padded, phi)
                assert fast_p.minimal == self._minimal_over_all_subsets(padded, phi)
                assert not fast_p.minimal


def _reference_report(e, phi):
    """Validation on the object-level path: ground formulas, decided by fresh
    `entails`/`is_consistent` calls over the explanation's own signature."""
    sig = collect_signature([e, phi.literals])
    ge = ground(e, sig).formulas
    witnesses = []
    for removed in e.statements:
        subset = [st for st in e.statements if st is not removed]
        if entails([gf for st in subset for gf in ground_formula(st.formula, sig)], phi.literals):
            witnesses.append(tuple(sorted(st.canonical() for st in subset)))
    return ExplanationReport(entails(ge, phi.literals), is_consistent(ge), not witnesses,
                             tuple(witnesses))


def _random_literal(rng, terms):
    """A literal over P/1, Q/1, R/2, s/0 and t/0; propositional when there are no terms."""
    shapes = (("P", 1), ("Q", 1), ("R", 2), ("s", 0), ("t", 0))
    predicate, arity = rng.choice(shapes if terms else shapes[3:])
    return Literal(Atom(predicate, tuple(Term(rng.choice(terms)) for _ in range(arity))),
                   rng.random() < 0.4)


def _random_validation_case(rng):
    """An explanation of up to five facts and rules plus an explanandum.  About
    one case in five has no constants at all: variable rules over a
    propositional explanandum.  One in six explains the explanandum by itself,
    as facts or, over a constant, through a variable rule, so valid reports
    show up too."""
    constants = [] if rng.random() < 0.2 else ["a", "b"][:rng.randint(1, 2)]
    formulas = {}
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.45:
            formula = _random_literal(rng, constants)
        else:
            body = tuple(_random_literal(rng, constants + ["X", "Y"]) for _ in range(rng.randint(1, 2)))
            bound = sorted(frozenset().union(*(lit.variables() for lit in body))) or constants
            formula = Rule(body, _random_literal(rng, bound))
        formulas.setdefault(str(formula), formula)
    literals = {}
    for _ in range(rng.randint(1, 2)):
        lit = _random_literal(rng, constants + ["z"] if constants else [])
        literals.setdefault(lit.atom, lit)
    if rng.random() < 1 / 6:
        formulas = {str(lit): lit for lit in literals.values()}
        if (lit := next(iter(literals.values()))).atom.arity == 1:
            variable = Literal(Atom(lit.atom.predicate, (Term("X"),)), lit.negated)
            formulas = {"fact": Literal(Atom("P", lit.atom.args)),
                        "rule": Rule((Literal(Atom("P", (Term("X"),))),), variable)}
            literals = {lit.atom: lit}
    return BeliefBase.from_formulas(formulas.values()), Explanandum(tuple(literals.values()))


def _has_tautological_instance(formula, sig):
    for gf in ground_formula(formula, sig):
        signed = {(lit.atom, lit.negated) for lit in gf.body} | {(gf.head.atom, not gf.head.negated)}
        if any((atom, not sign) in signed for atom, sign in signed):
            return True
    return False


class TestCorrectionKernel:
    def test_walkthrough_kernel(self, charlie_base, charlie_explanation):
        sets = [forms(cs) for cs in correction_kernel(charlie_base, charlie_explanation)]
        assert sets == [
            frozenset({"!Ins(charlie)"}),
            frozenset({"Wor(charlie)"}),
            frozenset({RULE}),
            frozenset({"!Ins(charlie)", "Wor(charlie)"}),
            frozenset({"!Ins(charlie)", RULE}),
            frozenset({"Wor(charlie)", RULE}),
        ]

    def test_consistent_union_is_empty_stream(self):
        b = parse_base("Wor(charlie).")
        e = parse_base("Ins(charlie).")
        assert list(correction_kernel(b, e)) == []

    def test_shared_formulas_deduped(self, measure_base, measure_explanation):
        elements = union_elements(measure_base, measure_explanation)
        names = [el.canonical() for el in elements]
        assert len(names) == len(set(names)) == 6
        shared = [el for el in elements if el.canonical() == "Wor(charlie)"]
        assert shared[0].sources == (("B", "f1"), ("E", "f1"))

    def test_matches_brute_force(self):
        for params in _brute_force_params(900, 60):
            b, e, _ = random_instance(params)
            expected = _brute_force_stream(b, e, [b, e], lambda remainder: True)
            actual = [_names(cs) for cs in correction_kernel(b, e)]
            assert actual == expected

    def test_cap(self, charlie_base, charlie_explanation):
        with pytest.raises(CapExceeded):
            list(correction_kernel(charlie_base, charlie_explanation, cap=2))

    def test_mcs_walk_matches_lazy_walk(self):
        # the listing tests candidates against the MUSes MARCO found up front;
        # a fresh context finds the minimal correction sets lazily, by SAT calls
        rng = random.Random(1515)
        seen = Counter()
        for n in range(10, 15):
            for _ in range(3):
                _, pool = random_ground_formulas(rng, rng.randint(4, 7), 3 * n)
                distinct = list({str(f): f for f in pool}.values())[:n]
                split = rng.randint(1, n - 1)
                b = BeliefBase.from_formulas(distinct[:split])
                e = BeliefBase.from_formulas(distinct[split:])
                listing = [cs.elements for cs in correction_kernel(b, e)]
                fresh = _UnionContext(b, e, None, 24)
                assert len(fresh.elements) == n
                lazy = [tuple(fresh.elements[i] for i in ix) for ix in fresh.kernel_indices()]
                assert fresh._families is None
                assert listing == lazy
                muses = fresh.msses_and_muses()[1]
                # a single formula is consistent, so every removal of n - 1 is listed
                assert [len(cs) for cs in listing].count(n - 1) == (n if muses else 0)
                seen["consistent"] += not muses
                seen["overlapping"] += any(m & other for i, m in enumerate(muses)
                                           for other in muses[i + 1:])
        assert seen["consistent"] >= 1 and seen["overlapping"] >= 5

    def test_mus_walk_matches_brute_force_and_kernel_indices(self):
        seen = Counter()
        for b, e in _overlapping_cases(2800, 60):
            listing = list(correction_kernel(b, e))
            assert [_names(cs) for cs in listing] == _brute_force_stream(b, e, [b, e], bool)
            fresh = _UnionContext(b, e, None, 24)
            assert listing == [fresh.correction_set(ix) for ix in fresh.kernel_indices()]
            muses = fresh.msses_and_muses()[1]
            # and again on the same context once its families are known
            assert listing == [fresh.correction_set(ix) for ix in fresh.kernel_indices()]
            seen["consistent"] += not muses
            seen["overlapping"] += any(m & other for i, m in enumerate(muses)
                                       for other in muses[i + 1:])
            seen["several"] += len(fresh.subsets.components()) > 1
        assert seen["consistent"] >= 1 and seen["overlapping"] >= 5 and seen["several"] >= 5


# a conflict whose fact P{i}(c) lies in both of its MUSes, and its explanation facts
OVERLAPPING_CONFLICT = ("P{i}(c). P{i}(X) -> Q{i}(X). P{i}(X) -> R{i}(X).", "!Q{i}(c). !R{i}(c).")


def _overlapping_cases(seed: int, trials: int):
    """Seeded unions of at most 9 elements: one to three conflicts over
    disjoint atoms, some with two MUSes sharing a fact, and unrelated facts.
    In about one case in six every explanation fact is made positive, and
    the union is consistent."""
    rng = random.Random(seed)
    conflicts = [(planted, fact + ".") for planted, fact in PLANTED_CONFLICTS]
    for _ in range(trials):
        chosen = [rng.choice([OVERLAPPING_CONFLICT, *conflicts]) for _ in range(rng.randint(1, 3))]
        while sum(planted.count(".") + facts.count(".") for planted, facts in chosen) > 9:
            chosen.pop()
        base = [planted.format(i=i) for i, (planted, _) in enumerate(chosen)]
        facts = [fact.format(i=i) for i, (_, fact) in enumerate(chosen)]
        if rng.random() < 1 / 6:
            facts = [fact.replace("!", "") for fact in facts]
        size = sum(part.count(".") for part in base + facts)
        base += [f"U{j}(c)." for j in range(rng.randint(0, 9 - size))]
        yield parse_base(" ".join(base)), parse_base(" ".join(facts))


def _ground_one(formula, sig):
    from revisekit.logic import ground_formula
    return ground_formula(formula, sig)


def _brute_force_params(first_seed: int, trials: int):
    """Default generator instances, then wider ones (unions of six to nine
    elements, often several same-size kernels) that exercise the order."""
    for trial in range(trials):
        yield GeneratorParams(seed=first_seed + trial)
    for trial in range(trials):
        yield GeneratorParams(predicate_count=4, rule_count=3, fact_probability=0.6,
                              seed=first_seed + trial)


def _names(correction_set) -> tuple[str, ...]:
    return tuple(el.canonical() for el in correction_set)


def _brute_force_stream(b, e, sig_parts, keep):
    """Every subset of the union with a nonempty, consistent remainder that
    `keep` accepts, one SAT call per subset, in canonical order (cardinality,
    then lexicographic on canonical forms); empty for a consistent union."""
    elements = union_elements(b, e)
    assert len(elements) <= 9  # the generator's maximum keeps this cheap
    sig = collect_signature(sig_parts)
    grounded = {el.canonical(): list(_ground_one(el.formula, sig)) for el in elements}
    if is_consistent([g for gs in grounded.values() for g in gs]):
        return []
    expected = []
    for size in range(1, len(elements)):
        for combo in combinations(elements, size):
            removed = {el.canonical() for el in combo}
            remainder = [g for el in elements if el.canonical() not in removed
                         for g in grounded[el.canonical()]]
            if is_consistent(remainder) and keep(remainder):
                expected.append(tuple(el.canonical() for el in combo))
    return expected


def _brute_force_admissible(b, e, phi):
    return _brute_force_stream(b, e, [b, e, phi.literals],
                               lambda remainder: entails(remainder, phi.literals))


class TestAdmissibleSelections:
    def test_exactly_three(self, charlie_base, charlie_explanation, charlie_phi):
        sets = [forms(cs) for cs in
                admissible_selections(charlie_base, charlie_explanation, charlie_phi)]
        assert sets == [
            frozenset({"Wor(charlie)"}),
            frozenset({RULE}),
            frozenset({"Wor(charlie)", RULE}),
        ]

    def test_excludes_explanandum_support(self, charlie_base, charlie_explanation, charlie_phi):
        for cs in admissible_selections(charlie_base, charlie_explanation, charlie_phi):
            assert "!Ins(charlie)" not in forms(cs)

    def test_consistent_union_empty(self):
        b = parse_base("Wor(charlie).")
        e = parse_base("Ins(charlie).")
        assert list(admissible_selections(b, e, phi_of("Ins(charlie)"))) == []

    def test_never_empty_on_conflict(self):
        rng = random.Random(13)
        found_conflicts = 0
        for trial in range(80):
            b, e, phi = random_instance(GeneratorParams(seed=1300 + trial))
            sig = collect_signature([b, e, phi.literals])
            union_ground = [
                g for el in union_elements(b, e) for g in _ground_one(el.formula, sig)
            ]
            if is_consistent(union_ground):
                continue
            found_conflicts += 1
            assert next(admissible_selections(b, e, phi), None) is not None
        assert found_conflicts >= 10

    def test_matches_brute_force(self):
        conflicts = 0
        for params in _brute_force_params(2600, 60):
            b, e, phi = random_instance(params)
            expected = _brute_force_admissible(b, e, phi)
            conflicts += bool(expected)
            actual = [_names(cs) for cs in admissible_selections(b, e, phi)]
            assert actual == expected
        assert conflicts >= 20

    def test_explanation_not_entailing_falls_back(self):
        # `r` alone does not entail `q`, so candidates that keep `r` must
        # still be checked one by one.
        b, e, phi = parse_base("p. p -> q. !r."), parse_base("r."), phi_of("q")
        expected = _brute_force_admissible(b, e, phi)
        assert ("!r", "p") not in expected
        assert [_names(cs) for cs in admissible_selections(b, e, phi)] == expected


PRUNING_BASE = ("P(a). R(a). P(X) & R(X) -> Q(X). "
                "U1(a). U2(a). U3(a). !U4(a). U5(a). U6(a).")


COMPONENTS_BASE = ("Cop(c). Wor(c). Wor(X) -> Ins(X). Fev(c). Wet(c). Fev(X) & Wet(X) -> Hot(X). "
                   "Sug(c). Loud(c). !Kind(c).")
COMPONENTS_EXPLANATION = "!Cop(c). !Ins(c). !Hot(c)."


class TestMonotonePruning:
    """One four-formula conflict among six unrelated facts (n = 10): the
    enumeration visits 2^10 subsets, but monotonicity decides most of them
    without a SAT call."""

    def test_correction_kernel_consistency_calls(self, sat_calls):
        sets = list(correction_kernel(parse_base(PRUNING_BASE), parse_base("!Q(a).")))
        assert len(sets) == 959
        # the lazy walk's bound (the whole union, ten singletons, and the subsets
        # of the six facts); the listing makes only MARCO's checks, pinned below
        assert 0 < sat_calls["is_consistent"] <= 2 ** 6 + 4 + 1

    def test_correction_kernel_makes_only_marco_calls(self, sat_calls):
        b, e = parse_base(PRUNING_BASE), parse_base("!Q(a).")
        assert len(list(correction_kernel(b, e))) == 959
        calls = sat_calls["is_consistent"]
        ctx = _UnionContext(b, e, None, 24)
        msses, muses = ctx.msses_and_muses()
        assert (len(msses), len(muses)) == (4, 1)
        # one check per seed and one per element to grow or shrink it; the walk makes none
        assert 0 < calls <= (len(msses) + len(muses)) * (len(ctx.elements) + 1)

    def test_marco_runs_once_per_component(self, sat_calls):
        # conflicts of 2, 3 and 4 formulas and three unrelated facts: 2 * 3 * 4
        # MSSes, which one MARCO over all twelve elements found in 80 checks
        ctx = _UnionContext(parse_base(COMPONENTS_BASE), parse_base(COMPONENTS_EXPLANATION),
                            None, 24)
        msses, muses = ctx.msses_and_muses()
        assert (len(msses), len(muses)) == (24, 3)
        assert 0 < sat_calls["is_consistent"] <= 20

    def test_max_cardinality_entailment_calls(self, sat_calls):
        result = revise(parse_base(PRUNING_BASE), parse_base("!Q(a)."), phi_of("!Q(a)"),
                        SelectionStrategy("max-cardinality"))
        assert result.revised.canonical_forms() == {"!Q(a)"}
        # validate_explanation's two, the explanation alone, and `!Q(a)` removed
        assert 0 < sat_calls["entails"] <= 4

    @pytest.mark.parametrize("kind, consistency, entailment", [
        ("max-cardinality", 8, None),
        ("weighted", 20, 8),
        ("protect-explanation", 8, None),
    ])
    def test_direct_selection_sat_calls(self, sat_calls, kind, consistency, entailment):
        # listing every admissible set made 69 consistency calls here
        revise(parse_base(PRUNING_BASE), parse_base("!Q(a)."), phi_of("!Q(a)"),
               SelectionStrategy(kind))
        assert 0 < sat_calls["is_consistent"] <= consistency
        if entailment is not None:
            assert 0 < sat_calls["entails"] <= entailment


def _brute_force_msses(b, e):
    """The maximal sets of union elements that one interpretation of the
    truth-table oracle satisfies: exactly the maximal consistent subsets."""
    elements = union_elements(b, e)
    sig = collect_signature([b, e])
    grounded = [_ground_one(el.formula, sig) for el in elements]
    satisfied = {
        frozenset(el.canonical() for el, gfs in zip(elements, grounded)
                  if all(model.satisfies(gf) for gf in gfs))
        for model in enumerate_models([], sig)
    }
    return {s for s in satisfied if not any(s < other for other in satisfied)}


def _mask_forms(ctx, masks):
    return [frozenset(el.canonical() for i, el in enumerate(ctx.elements) if s >> i & 1)
            for s in masks]


class TestMssesAndMuses:
    def test_matches_brute_force_and_kernel_set(self):
        unions = set()
        for params in _brute_force_params(5300, 40):
            b, e, _ = random_instance(params)
            ctx = _UnionContext(b, e, None, 24)
            msses, muses = ctx.msses_and_muses()
            assert len(set(msses)) == len(msses)
            assert set(_mask_forms(ctx, msses)) == _brute_force_msses(b, e)
            # elements sort canonically, so sorted forms order as sorted indices do
            ordered = sorted(_mask_forms(ctx, muses), key=lambda s: (len(s), sorted(s)))
            assert ordered == list(kernel_set(b, e).canonical_forms())
            unions.add(bool(muses))
        assert unions == {True, False}

    def test_consistent_union_is_its_only_mss(self):
        b, e = parse_base("Wor(charlie)."), parse_base("Ins(charlie).")
        ctx = _UnionContext(b, e, None, 24)
        msses, muses = ctx.msses_and_muses()
        assert _mask_forms(ctx, msses) == [frozenset({"Ins(charlie)", "Wor(charlie)"})]
        assert muses == []


# a planted conflict's base formulas, and the explanation fact that completes it
PLANTED_CONFLICTS = (("A{i}(c).", "!A{i}(c)"),
                     ("A{i}(c). A{i}(X) -> B{i}(X).", "!B{i}(c)"),
                     ("A{i}(c). C{i}(c). A{i}(X) & C{i}(X) -> B{i}(X).", "!B{i}(c)"))


def _component_cases(seed: int, trials: int):
    """Seeded unions of at most 10 elements: one to three planted conflicts
    over disjoint atoms, unrelated facts and, in about two cases in five with
    two conflicts or more, the rule `A0(X) -> A1(X)` joining the first two.
    The explanation is each conflict's fact, and the explanandum their
    conjunction."""
    rng = random.Random(seed)
    for _ in range(trials):
        chosen = [rng.choice(PLANTED_CONFLICTS) for _ in range(rng.randint(1, 3))]
        while sum(planted.count(".") + 1 for planted, _ in chosen) > 9:
            chosen.pop()
        base = [planted.format(i=i) for i, (planted, _) in enumerate(chosen)]
        facts = [fact.format(i=i) for i, (_, fact) in enumerate(chosen)]
        bridged = len(chosen) > 1 and rng.random() < 0.4
        if bridged:
            base.append("A0(X) -> A1(X).")
        size = sum(part.count(".") for part in base) + len(facts)
        base += [f"U{j}(c)." for j in range(rng.randint(0, 10 - size))]
        yield (parse_base(" ".join(base)), parse_base(" ".join(f + "." for f in facts)),
               phi_of(" & ".join(facts)), bridged)


class TestComponents:
    """MARCO per atom-connected component against brute force, on unions
    whose conflicts share no atom unless a bridging rule joins two of them."""

    def test_families_and_weighted_revision_match_brute_force(self):
        rng = random.Random(2701)
        seen = Counter()
        for b, e, phi, bridged in _component_cases(2700, 60):
            ctx = _UnionContext(b, e, None, 24)
            n = len(ctx.elements)
            assert n <= 10
            components = ctx.subsets.components()
            assert sum(components) == (1 << n) - 1
            assert all(not c & d for i, c in enumerate(components) for d in components[i + 1:])
            assert components == sorted(components, key=lambda c: c & -c)
            msses, muses = ctx.msses_and_muses()
            assert all(any(m & c == m for c in components) for m in muses)
            assert len(set(msses)) == len(msses)
            assert set(_mask_forms(ctx, msses)) == _brute_force_msses(b, e)
            ordered = sorted(_mask_forms(ctx, muses), key=lambda s: (len(s), sorted(s)))
            assert ordered == list(kernel_set(b, e).canonical_forms())
            weights = {el.canonical(): rng.choice([0, 0.5, 1, 2, 3]) for el in ctx.elements}
            strategy = SelectionStrategy.named("weighted", weights=weights)
            expected = select(list(admissible_selections(b, e, phi)), strategy)
            assert revise(b, e, phi, strategy).retracted == expected
            seen["merged"] += bridged
            seen["separate"] += sum(not ctx.consistent(c) for c in components) > 1
        assert seen["merged"] >= 5 and seen["separate"] >= 5


TAUTOLOGICAL_RULE = "P(X) & Q(Y) -> Q(X)"  # its instances with X = Y are tautologies
SHARED_INSTANCE = ("P(X) -> Q(X)", "P(a) -> Q(a)")
SELECTOR_POOL = ("P(a)", "!P(a)", "P(b)", "Q(b)", "!Q(a)", "R(a)", "!R(b)",
                 "Q(X) & R(X) -> !P(X)", "R(X) -> !Q(X)", TAUTOLOGICAL_RULE, *SHARED_INSTANCE)


def _selector_cases(seed: int, trials: int):
    """Seeded unions of one to eight pool formulas split between base and
    explanation, each with a one- or two-literal explanandum over P, Q, R and
    S, a predicate no pool formula mentions."""
    rng = random.Random(seed)
    atoms = [f"{p}({c})" for p in "PQRS" for c in "ab"]
    for _ in range(trials):
        chosen = [f + "." for f in rng.sample(SELECTOR_POOL, rng.randint(1, 8))]
        split = rng.randint(0, len(chosen))
        b, e = parse_base(" ".join(chosen[:split])), parse_base(" ".join(chosen[split:]))
        lits = rng.sample(atoms, rng.randint(1, 2))
        yield b, e, phi_of(" & ".join(("!" if rng.random() < 0.4 else "") + a for a in lits))


def _subset_formulas(ctx, sig, kept):
    return [gf for i in sorted(kept) for gf in ground_formula(ctx.elements[i].formula, sig)]


class TestSelectorChecks:
    """A context decides every subset check on one selector-guarded solver;
    each answer must equal a fresh check on the subset's ground formulas."""

    def test_every_subset_matches_fresh_checks_and_models(self):
        features = set()
        for b, e, phi in _selector_cases(71, 40):
            ctx = _UnionContext(b, e, phi, 64)
            sig = collect_signature([b, e, phi.literals])
            n = len(ctx.elements)
            # each model of the Herbrand base: the elements it satisfies, and whether it satisfies phi
            profiles = {(frozenset(i for i, el in enumerate(ctx.elements)
                                   if all(m.satisfies(gf) for gf in ground_formula(el.formula, sig))),
                         all(m.satisfies(lit) for lit in phi))
                        for m in enumerate_models([], sig)}
            for size in range(n + 1):
                for combo in combinations(range(n), size):
                    kept = frozenset(combo)
                    formulas = _subset_formulas(ctx, sig, kept)
                    consistent = is_consistent(formulas)
                    assert consistent == any(kept <= sat for sat, _ in profiles)
                    assert ctx.consistent(mask(kept)) == consistent
                    entailed = entails(formulas, phi.literals)
                    assert entailed == all(ok for sat, ok in profiles if kept <= sat)
                    assert ctx.entails_phi(mask(kept)) == entailed
            names = {el.canonical() for el in ctx.elements}
            features.add(n)
            features.add("inconsistent" if not ctx.consistent(mask(range(n))) else "consistent")
            if TAUTOLOGICAL_RULE in names:
                features.add("tautology")
            if names.issuperset(SHARED_INSTANCE):
                features.add("shared")
            if any(lit.atom.predicate == "S" for lit in phi):
                features.add("unmentioned")
        assert features >= {8, "consistent", "inconsistent", "tautology", "shared", "unmentioned"}

    def test_shuffled_mixed_queries_on_one_context(self):
        rng = random.Random(72)
        for b, e, phi in _selector_cases(73, 30):
            ctx = _UnionContext(b, e, phi, 64)
            sig = collect_signature([b, e, phi.literals])
            n = len(ctx.elements)
            queries = [(frozenset(combo), entailment)
                       for size in range(n + 1) for combo in combinations(range(n), size)
                       for entailment in (False, True)]
            rng.shuffle(queries)
            for kept, entailment in queries:
                formulas = _subset_formulas(ctx, sig, kept)
                if entailment:
                    assert ctx.entails_phi(mask(kept)) == entails(formulas, phi.literals)
                else:
                    assert ctx.consistent(mask(kept)) == is_consistent(formulas)


def _sizing_unions(seed: int, trials: int):
    """Seeded unions of one to six formulas over p/0, q/1 and r/2 and zero to
    three constants: ground facts, variable-free rules and rules over X and Y,
    with a signature that may also hold constants no formula mentions."""
    rng = random.Random(seed)
    predicates = (("p", 0), ("q", 1), ("r", 2))
    for _ in range(trials):
        constants = [f"c{i}" for i in range(rng.randint(0, 3))]

        def literal(terms):
            name, arity = rng.choice([p for p in predicates if terms or not p[1]])
            return Literal(Atom(name, tuple(Term(rng.choice(terms)) for _ in range(arity))),
                           rng.random() < 0.3)

        formulas = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.3:
                formulas.append(literal(constants))
                continue
            body = tuple(literal(rng.choice((["X"], ["X", "Y"], [])) + constants)
                         for _ in range(rng.randint(1, 2)))
            bound = sorted(set().union(*(lit.variables() for lit in body)))
            formulas.append(Rule(body, literal(bound + constants)))
        unique = list(dict.fromkeys(formulas))
        split = rng.randint(0, len(unique))
        elements = union_elements(BeliefBase.from_formulas(unique[:split]),
                                  BeliefBase.from_formulas(unique[split:]))
        extra = Signature(tuple(constants[:rng.randint(0, len(constants))]))
        yield elements, collect_signature([unique, extra])


class TestGroundSize:
    """The cap counts a union's ground formulas without grounding it: the
    count must be what grounding every element gives, and fail as it fails."""

    def test_equals_grounded_count(self):
        features = set()
        for elements, sig in _sizing_unions(81, 300):
            try:
                expected = sum(len(ground_formula(el.formula, sig)) for el in elements)
            except EmptyUniverse as err:
                with pytest.raises(EmptyUniverse) as raised:
                    _ground_size(elements, sig)
                assert str(raised.value) == str(err)
                features.add("empty universe")
                continue
            assert _ground_size(elements, sig) == expected
            features.update(len(el.formula.variables()) for el in elements
                            if isinstance(el.formula, Rule))
            if any("r(" in el.canonical() for el in elements):
                features.add("arity 2")
            if not sig.constants:
                features.add("no constants")
        assert features >= {0, 1, 2, "arity 2", "no constants", "empty universe"}

    def test_cap_checked_before_grounding(self, monkeypatch, alice_base, coping_explanation):
        grounded = []
        inner = logic._instances
        monkeypatch.setattr(logic, "_instances",
                            lambda *args: grounded.append(args) or inner(*args))
        phi = phi_of("!Ins(charlie)")
        with pytest.raises(CapExceeded, match="^7 ground formulas exceed the configured cap of 6$"):
            _UnionContext(alice_base, coping_explanation, phi, 6)
        assert grounded == []
        _UnionContext(alice_base, coping_explanation, phi, 7)
        assert len(grounded) == 5


DIRECT_KINDS = ("max-cardinality", "protect-explanation", "weighted")


class TestDirectSelection:
    """max-cardinality, protect-explanation and non-negative weighted select
    without listing the admissible sets; each must equal `select` over the
    full list."""

    def test_matches_full_list(self):
        conflicts = zero_weights = 0
        for params in _brute_force_params(4100, 60):
            b, e, phi = random_instance(params)
            rng = random.Random(params.seed)
            weights = {el.canonical(): rng.choice((0.0, 0.5, 1.0, 2.5))
                       for el in union_elements(b, e) if rng.random() < 0.8}
            strategies = [SelectionStrategy.named(kind, weights=weights) for kind in DIRECT_KINDS]
            pool = list(admissible_selections(b, e, phi))
            if not pool:  # a consistent union: nothing is retracted
                assert all(not revise(b, e, phi, s).retracted for s in strategies)
                continue
            conflicts += 1
            zero_weights += 0.0 in weights.values()
            for strategy in strategies:
                assert revise(b, e, phi, strategy).retracted == select(pool, strategy)
        assert conflicts >= 20
        assert zero_weights >= 10

    def test_max_cardinality_past_inconsistent_remainders(self):
        # `{u, !u, s -> z}` is found inconsistent before the only admissible
        # remainder, the explanation, which shares `u` with it
        b, e, phi = parse_base("!u. s -> z."), parse_base("u. v. w. u & v & w -> s."), phi_of("s")
        strategy = SelectionStrategy("max-cardinality")
        result = revise(b, e, phi, strategy)
        assert result.retracted == select(list(admissible_selections(b, e, phi)), strategy)
        assert forms(result.retracted) == {"!u", "s -> z"}

    def test_weights_off_the_union_are_not_read(self, monkeypatch, charlie_base,
                                                charlie_explanation, charlie_phi):
        # read, either weight would send the selection to the full list
        strategy = SelectionStrategy.named("weighted",
                                           weights={"Zzz(a)": float("nan"), "Yyy(a)": -1.0})
        pool = list(admissible_selections(charlie_base, charlie_explanation, charlie_phi))

        def unused(self):
            raise AssertionError("weights off the union forced the full list")
        monkeypatch.setattr(_UnionContext, "admissible", unused)
        result = revise(charlie_base, charlie_explanation, charlie_phi, strategy)
        assert result.retracted == select(pool, strategy)

    @pytest.mark.parametrize("weights", [{"Wor(charlie)": -1.0, RULE: -1.0},
                                         {"Wor(charlie)": float("nan")}], ids=["negative", "nan"])
    def test_negative_or_nan_weight_lists_every_set(self, monkeypatch, weights, charlie_base,
                                                    charlie_explanation, charlie_phi):
        def unused(self):
            raise AssertionError("only non-negative weights may skip the full list")
        monkeypatch.setattr(_UnionContext, "msses_and_muses", unused)
        strategy = SelectionStrategy.named("weighted", weights=weights)
        result = revise(charlie_base, charlie_explanation, charlie_phi, strategy)
        pool = list(admissible_selections(charlie_base, charlie_explanation, charlie_phi))
        assert result.retracted == select(pool, strategy)
        if RULE in weights:  # both negative: the optimum is no minimal correction set
            assert forms(result.retracted) == {"Wor(charlie)", RULE}


class TestSelect:
    def candidates(self, charlie_base, charlie_explanation, charlie_phi):
        return list(admissible_selections(charlie_base, charlie_explanation, charlie_phi))

    def test_min_cardinality_tiebreak(self, charlie_base, charlie_explanation, charlie_phi):
        pool = self.candidates(charlie_base, charlie_explanation, charlie_phi)
        assert forms(select(pool, SelectionStrategy("min-cardinality"))) == {"Wor(charlie)"}

    def test_max_cardinality(self, charlie_base, charlie_explanation, charlie_phi):
        pool = self.candidates(charlie_base, charlie_explanation, charlie_phi)
        assert forms(select(pool, SelectionStrategy("max-cardinality"))) == \
            {"Wor(charlie)", RULE}

    def test_protect_explanation(self, measure_base, measure_explanation):
        pool = list(admissible_selections(measure_base, measure_explanation,
                                          phi_of("!Ins(charlie)")))
        picked = select(pool, SelectionStrategy("protect-explanation"))
        assert not any(el.from_explanation for el in picked)

    def test_weighted(self, charlie_base, charlie_explanation, charlie_phi):
        pool = self.candidates(charlie_base, charlie_explanation, charlie_phi)
        strategy = SelectionStrategy.named("weighted", weights={"Wor(charlie)": 10.0})
        assert forms(select(pool, strategy)) == {RULE}

    def test_seeded_random_reproducible(self, charlie_base, charlie_explanation, charlie_phi):
        pool = self.candidates(charlie_base, charlie_explanation, charlie_phi)
        picks = {select(pool, SelectionStrategy("seeded-random", seed=s)).sort_key()
                 for s in range(20)}
        assert select(pool, SelectionStrategy("seeded-random", seed=4)).sort_key() == \
            select(pool, SelectionStrategy("seeded-random", seed=4)).sort_key()
        assert len(picks) > 1

    def test_singleton_any_strategy(self, charlie_base, charlie_explanation, charlie_phi):
        pool = self.candidates(charlie_base, charlie_explanation, charlie_phi)[:1]
        for kind in ("min-cardinality", "max-cardinality", "protect-explanation", "weighted"):
            assert select(pool, SelectionStrategy(kind)) is pool[0]

    def test_empty_pool(self):
        with pytest.raises(NoCandidates):
            select([], SelectionStrategy("min-cardinality"))

    def test_interactive_needs_chooser(self):
        with pytest.raises(ValueError):
            SelectionStrategy("interactive")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SelectionStrategy("coin-flip")


class TestRevise:
    def test_first_listed_result(self, charlie_base, charlie_explanation, charlie_phi):
        chooser = lambda pool: next(
            i for i, cs in enumerate(pool) if forms(cs) == frozenset({RULE}))
        result = revise(charlie_base, charlie_explanation, charlie_phi,
                        SelectionStrategy("interactive", chooser=chooser))
        assert result.revised.canonical_forms() == {"Wor(charlie)", "!Ins(charlie)"}

    def test_second_listed_result(self, charlie_base, charlie_explanation, charlie_phi):
        chooser = lambda pool: next(
            i for i, cs in enumerate(pool)
            if forms(cs) == frozenset({"Wor(charlie)", RULE}))
        result = revise(charlie_base, charlie_explanation, charlie_phi,
                        SelectionStrategy("interactive", chooser=chooser))
        assert result.revised.canonical_forms() == {"!Ins(charlie)"}

    def test_every_reachable_result_entails(self, charlie_base, charlie_explanation, charlie_phi):
        pool = list(admissible_selections(charlie_base, charlie_explanation, charlie_phi))
        sig = collect_signature([charlie_base, charlie_explanation, charlie_phi.literals])
        for i in range(len(pool)):
            result = revise(charlie_base, charlie_explanation, charlie_phi,
                            SelectionStrategy("interactive", chooser=lambda _, i=i: i))
            g = ground(result.revised, sig)
            assert entails(g.formulas, charlie_phi.literals)
            assert is_consistent(g.formulas)

    def test_vacuity(self):
        b = parse_base("Wor(charlie).")
        e = parse_base("Ins(charlie).")
        result = revise(b, e, phi_of("Ins(charlie)"), SelectionStrategy("min-cardinality"))
        assert result.revised.canonical_forms() == {"Wor(charlie)", "Ins(charlie)"}
        assert not result.retracted.elements

    def test_larger_retraction_reachable(self, measure_base, measure_explanation):
        # dropping both ground conditionals is an admissible, larger revision
        target = frozenset({"Wor(charlie) -> Ins(charlie)", "Wor(diana) -> Ins(diana)"})
        chooser = lambda pool: next(
            i for i, cs in enumerate(pool) if forms(cs) == target)
        result = revise(measure_base, measure_explanation, phi_of("!Ins(charlie)"),
                        SelectionStrategy("interactive", chooser=chooser))
        assert result.revised.canonical_forms() == {
            "Wor(charlie)", "Wor(diana)", "Cop(charlie)",
            "Wor(charlie) & Cop(charlie) -> !Ins(charlie)",
        }

    def test_min_cardinality_is_smallest(self, measure_base, measure_explanation):
        result = revise(measure_base, measure_explanation, phi_of("!Ins(charlie)"),
                        SelectionStrategy("min-cardinality"))
        assert forms(result.retracted) == {"Wor(charlie) -> Ins(charlie)"}

    def test_invalid_explanation_raises(self, charlie_base):
        bad = parse_base("!Ins(charlie). Wor(diana).")
        with pytest.raises(InvalidExplanation) as err:
            revise(charlie_base, bad, phi_of("!Ins(charlie)"),
                   SelectionStrategy("min-cardinality"))
        assert not err.value.report.minimal

    def test_cap_exceeded(self, charlie_base, charlie_explanation, charlie_phi):
        with pytest.raises(CapExceeded):
            revise(charlie_base, charlie_explanation, charlie_phi,
                   SelectionStrategy("min-cardinality"), cap=1)

    def test_revise_from_inconsistent_base(self):
        b = parse_base("Wor(charlie). !Wor(charlie).")
        e = parse_base("Ins(charlie).")
        result = revise(b, e, phi_of("Ins(charlie)"), SelectionStrategy("min-cardinality"))
        sig = collect_signature([b, e])
        g = ground(result.revised, sig)
        assert is_consistent(g.formulas)
        assert entails(g.formulas, parse_literals("Ins(charlie)"))

    def test_properties_on_random_instances(self):
        strategies = [SelectionStrategy("min-cardinality"),
                      SelectionStrategy("max-cardinality"),
                      SelectionStrategy("protect-explanation"),
                      SelectionStrategy("seeded-random", seed=1)]
        union_states = set()
        for trial in range(60):
            b, e, phi = random_instance(GeneratorParams(seed=7000 + trial))
            strategy = strategies[trial % len(strategies)]
            result = revise(b, e, phi, strategy)
            union = union_elements(b, e)
            union_forms = {el.canonical() for el in union}
            assert result.revised.canonical_forms() <= union_forms  # inclusion
            sig = collect_signature([b, e, phi.literals])
            g = ground(result.revised, sig)
            assert is_consistent(g.formulas)
            assert entails(g.formulas, phi.literals)  # strong acceptance
            union_ground = [gf for el in union for gf in ground_formula(el.formula, sig)]
            assert result.union_consistent == is_consistent(union_ground)
            union_states.add(result.union_consistent)
        assert union_states == {True, False}

    def test_deterministic(self, charlie_base, charlie_explanation, charlie_phi):
        runs = [revise(charlie_base, charlie_explanation, charlie_phi,
                       SelectionStrategy("min-cardinality")) for _ in range(2)]
        assert runs[0].revised == runs[1].revised
        assert forms(runs[0].retracted) == forms(runs[1].retracted)
