from itertools import combinations, product

import pytest

from revisekit import (
    IncisionPolicy,
    collect_signature,
    entails,
    ground,
    incise,
    is_consistent,
    is_valid_incision,
    kernel_set,
    parse_base,
    parse_literals,
    revise_falappa,
    union_elements,
)
from revisekit.logic import ground_formula
from revisekit.postulates import GeneratorParams, random_instance

MUS_FORMS = frozenset({
    "Cop(charlie)",
    "Wor(charlie)",
    "Wor(charlie) -> Ins(charlie)",
    "Wor(charlie) & Cop(charlie) -> !Ins(charlie)",
})
SPARED = "Wor(diana) -> Ins(diana)"


class TestKernelSet:
    def test_single_mus(self, baseline_base, baseline_explanation):
        ks = kernel_set(baseline_base, baseline_explanation)
        assert ks.canonical_forms() == (MUS_FORMS,)

    def test_consistent_union(self):
        ks = kernel_set(parse_base("Wor(charlie)."), parse_base("Ins(charlie)."))
        assert len(ks) == 0

    def test_three_element_conflict_is_one_mus(self, charlie_base, charlie_explanation):
        ks = kernel_set(charlie_base, charlie_explanation)
        assert ks.canonical_forms() == (frozenset({
            "!Ins(charlie)", "Wor(charlie)", "Wor(charlie) -> Ins(charlie)",
        }),)

    def test_every_mus_is_minimal_inconsistent(self, baseline_base, baseline_explanation):
        sig = collect_signature([baseline_base, baseline_explanation])
        for kernel in kernel_set(baseline_base, baseline_explanation):
            grounded = [g for el in kernel for g in ground_formula(el.formula, sig)]
            assert not is_consistent(grounded)
            for dropped in kernel:
                rest = [g for el in kernel if el is not dropped
                        for g in ground_formula(el.formula, sig)]
                assert is_consistent(rest)

    def test_matches_brute_force(self):
        # default instances, then wider ones: unions of six to nine elements,
        # often with several same-size kernels, which exercise the order
        wide = dict(predicate_count=4, rule_count=3, fact_probability=0.6)
        for extra, trial in product(({}, wide), range(40)):
            b, e, _ = random_instance(GeneratorParams(seed=4100 + trial, **extra))
            elements = union_elements(b, e)
            assert len(elements) <= 9  # the generator's maximum keeps this cheap
            sig = collect_signature([b, e])
            grounded = {el.canonical(): list(ground_formula(el.formula, sig))
                        for el in elements}

            def inconsistent(subset):
                return not is_consistent(
                    [g for el in subset for g in grounded[el.canonical()]])

            expected = []
            for size in range(1, len(elements) + 1):
                for combo in combinations(elements, size):
                    if not inconsistent(combo):
                        continue
                    if all(not inconsistent(tuple(x for x in combo if x is not el))
                           for el in combo):
                        expected.append(tuple(el.canonical() for el in combo))
            actual = [tuple(el.canonical() for el in kernel) for kernel in kernel_set(b, e)]
            assert actual == expected

    def test_grow_step_bounds_consistency_calls(self, sat_calls):
        # one four-formula conflict among six unrelated facts (n = 10): the
        # whole enumeration would make 2^10 - 64 calls
        b = parse_base("P(a). R(a). P(X) & R(X) -> Q(X). "
                       "U1(a). U2(a). U3(a). !U4(a). U5(a). U6(a).")
        ks = kernel_set(b, parse_base("!Q(a)."))
        assert ks.canonical_forms() == (frozenset({
            "!Q(a)", "P(X) & R(X) -> Q(X)", "P(a)", "R(a)"}),)
        assert 0 < sat_calls["is_consistent"] < 100


class TestIncise:
    def test_canonical_first(self, baseline_base, baseline_explanation):
        ks = kernel_set(baseline_base, baseline_explanation)
        cut = incise(ks, IncisionPolicy("canonical-first"))
        assert [el.canonical() for el in cut] == ["Cop(charlie)"]

    def test_min_hitting_set_is_minimum(self, baseline_base, baseline_explanation):
        ks = kernel_set(baseline_base, baseline_explanation)
        cut = incise(ks, IncisionPolicy("min-hitting-set"))
        assert len(cut) == 1
        assert is_valid_incision(ks, cut)

    def test_listed_alternative_incisions_are_valid(self, baseline_base, baseline_explanation):
        ks = kernel_set(baseline_base, baseline_explanation)
        by_name = {el.canonical(): el for kernel in ks for el in kernel}
        assert is_valid_incision(ks, [by_name["Wor(charlie)"]])
        assert is_valid_incision(ks, [by_name["Wor(charlie) -> Ins(charlie)"]])
        assert is_valid_incision(
            ks, [by_name["Cop(charlie)"],
                 by_name["Wor(charlie) & Cop(charlie) -> !Ins(charlie)"]])

    def test_seeded_random_hits_every_kernel(self, baseline_base, baseline_explanation):
        ks = kernel_set(baseline_base, baseline_explanation)
        seen = set()
        for seed in range(12):
            cut = incise(ks, IncisionPolicy("seeded-random", seed=seed))
            assert is_valid_incision(ks, cut)
            seen.add(frozenset(el.canonical() for el in cut))
        assert len(seen) > 1  # the four-element kernel admits several singletons

    def test_empty_kernel_set(self):
        ks = kernel_set(parse_base("Wor(charlie)."), parse_base("Ins(charlie)."))
        assert incise(ks, IncisionPolicy("min-hitting-set")) == ()

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            IncisionPolicy("widest")


class TestReviseFalappa:
    def test_unrelated_conditional_always_survives(self, baseline_base, baseline_explanation):
        ks = kernel_set(baseline_base, baseline_explanation)
        kernel_pool = {el.canonical() for kernel in ks for el in kernel}
        assert SPARED not in kernel_pool  # outside every kernel: unreachable by incisions
        policies = [IncisionPolicy("canonical-first"), IncisionPolicy("min-hitting-set")]
        policies += [IncisionPolicy("seeded-random", seed=s) for s in range(10)]
        for policy in policies:
            result = revise_falappa(baseline_base, baseline_explanation, policy)
            assert SPARED in result.revised.canonical_forms()

    def test_strong_acceptance_violation_witness(self, baseline_base, baseline_explanation):
        # cutting the coping rule leaves a base that entails the old conclusion
        # and not the explanandum
        ks = kernel_set(baseline_base, baseline_explanation)
        by_name = {el.canonical(): el for kernel in ks for el in kernel}
        cut = [by_name["Wor(charlie) & Cop(charlie) -> !Ins(charlie)"]]
        assert is_valid_incision(ks, cut)
        sig = collect_signature([baseline_base, baseline_explanation])
        union = union_elements(baseline_base, baseline_explanation)
        remainder = [g for el in union if el.canonical() != cut[0].canonical()
                     for g in ground_formula(el.formula, sig)]
        assert entails(remainder, parse_literals("Ins(charlie)"))
        assert not entails(remainder, parse_literals("!Ins(charlie)"))

    def test_result_is_consistent(self, baseline_base, baseline_explanation):
        for seed in range(6):
            result = revise_falappa(baseline_base, baseline_explanation,
                                    IncisionPolicy("seeded-random", seed=seed))
            sig = collect_signature([baseline_base, baseline_explanation])
            assert is_consistent(ground(result.revised, sig).formulas)

    def test_retraction_stays_inside_kernels(self, baseline_base, baseline_explanation):
        ks = kernel_set(baseline_base, baseline_explanation)
        pool = {el.canonical() for kernel in ks for el in kernel}
        for seed in range(6):
            result = revise_falappa(baseline_base, baseline_explanation,
                                    IncisionPolicy("seeded-random", seed=seed))
            assert result.retracted.canonical_forms() <= pool

    def test_consistent_union_unchanged(self):
        b = parse_base("Wor(charlie).")
        e = parse_base("Ins(charlie).")
        result = revise_falappa(b, e)
        assert result.revised.canonical_forms() == {"Wor(charlie)", "Ins(charlie)"}
        assert not result.retracted.elements

    def test_random_instances_consistent_and_hitting(self):
        union_states = set()
        for trial in range(40):
            b, e, phi = random_instance(GeneratorParams(seed=6200 + trial))
            result = revise_falappa(b, e, IncisionPolicy("min-hitting-set"))
            sig = collect_signature([b, e])
            assert is_consistent(ground(result.revised, sig).formulas)
            union_sig = collect_signature([b, e, phi.literals])
            union_ground = [gf for el in union_elements(b, e)
                            for gf in ground_formula(el.formula, union_sig)]
            assert result.union_consistent == is_consistent(union_ground)
            union_states.add(result.union_consistent)
            ks = kernel_set(b, e)
            retracted = result.retracted.canonical_forms()
            for kernel_forms in ks.canonical_forms():
                assert retracted & kernel_forms
        assert union_states == {True, False}
