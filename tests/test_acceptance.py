"""Acceptance suite: every exit criterion, timed, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from revisekit import (
    Atom,
    BeliefBase,
    GeneratorParams,
    Literal,
    Rule,
    SelectionStrategy,
    Term,
    admissible_selections,
    change_measure,
    check_propositions,
    collect_signature,
    correction_kernel,
    corpus_entries,
    corpus_report,
    entails,
    enumerate_models,
    ground,
    is_consistent,
    kernel_set,
    parse_base,
    parse_literals,
    revise,
    revise_falappa,
    union_elements,
)
from revisekit.falappa import IncisionPolicy
from revisekit.logic import ground_formula
from revisekit.revision import Explanandum


@contextmanager
def criterion(name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


RULE = "Wor(charlie) -> Ins(charlie)"


def test_worried_base_entailment():
    with criterion("derived-fact-entailment", 1.0):
        base = parse_base("Wor(charlie). Wor(diana). Wor(X) -> Ins(X).")
        gb = ground(base, collect_signature([base]))
        assert entails(gb.formulas, parse_literals("Ins(charlie)"))


def test_three_formula_kernel():
    with criterion("three-formula-kernel", 1.0):
        base = parse_base("Wor(charlie). Wor(charlie) -> Ins(charlie).")
        explanation = parse_base("!Ins(charlie).")
        sets = [cs.canonical_forms() for cs in correction_kernel(base, explanation)]
        assert sets == [
            frozenset({"!Ins(charlie)"}),
            frozenset({"Wor(charlie)"}),
            frozenset({RULE}),
            frozenset({"!Ins(charlie)", "Wor(charlie)"}),
            frozenset({"!Ins(charlie)", RULE}),
            frozenset({"Wor(charlie)", RULE}),
        ]


def test_explanandum_preserving_selection():
    with criterion("explanandum-preserving-selection", 1.0):
        base = parse_base("Wor(charlie). Wor(charlie) -> Ins(charlie).")
        explanation = parse_base("!Ins(charlie).")
        phi = Explanandum(parse_literals("!Ins(charlie)"))
        sets = [cs.canonical_forms()
                for cs in admissible_selections(base, explanation, phi)]
        assert sets == [
            frozenset({"Wor(charlie)"}),
            frozenset({RULE}),
            frozenset({"Wor(charlie)", RULE}),
        ]
        assert all("!Ins(charlie)" not in s for s in sets)


def test_forced_selection_revisions():
    with criterion("forced-selection-revisions", 5.0):
        base = parse_base("Wor(charlie). Wor(charlie) -> Ins(charlie).")
        explanation = parse_base("!Ins(charlie).")
        phi = Explanandum(parse_literals("!Ins(charlie)"))
        pool = list(admissible_selections(base, explanation, phi))
        sig = collect_signature([base, explanation, phi.literals])

        def reach(target: frozenset[str]) -> frozenset[str]:
            chooser = lambda candidates: next(
                i for i, cs in enumerate(candidates) if cs.canonical_forms() == target)
            result = revise(base, explanation, phi,
                            SelectionStrategy("interactive", chooser=chooser))
            return result.revised.canonical_forms()

        assert reach(frozenset({RULE})) == frozenset({"Wor(charlie)", "!Ins(charlie)"})
        assert reach(frozenset({"Wor(charlie)", RULE})) == frozenset({"!Ins(charlie)"})
        for i in range(len(pool)):
            result = revise(base, explanation, phi,
                            SelectionStrategy("interactive", chooser=lambda _, i=i: i))
            assert entails(ground(result.revised, sig).formulas, phi.literals)


def test_weighted_selection_at_the_default_cap():
    # six independent three-formula conflicts and six unrelated facts: 24
    # ground formulas, the default cap, and 3^6 maximal consistent subsets
    with criterion("weighted-selection-at-the-default-cap", 1.0):
        base = parse_base(" ".join(f"P{i}(c). P{i}(X) -> Q{i}(X). U{i}(c)." for i in range(6)))
        explanation = parse_base(" ".join(f"!Q{i}(c)." for i in range(6)))
        phi = Explanandum(parse_literals(" & ".join(f"!Q{i}(c)" for i in range(6))))
        sig = collect_signature([base, explanation])
        assert sum(len(ground_formula(st.formula, sig))
                   for st in [*base.statements, *explanation.statements]) == 24
        result = revise(base, explanation, phi, SelectionStrategy("weighted"))
        # each conflict keeps !Qi(c) and loses one of its other two, the
        # canonically first one, as every formula weighs the same
        expected = {min(f"P{i}(c)", f"P{i}(X) -> Q{i}(X)") for i in range(6)}
        assert expected == {f"P{i}(X) -> Q{i}(X)" for i in range(6)}
        assert result.retracted.canonical_forms() == expected


def test_change_measure_exact_rationals():
    with criterion("change-measure-exact-rationals", 1.0):
        prior = parse_base(
            "Wor(charlie). Wor(diana). "
            "Wor(charlie) -> Ins(charlie). Wor(diana) -> Ins(diana)."
        )
        minimal = parse_base(
            "Wor(charlie). Wor(diana). Wor(diana) -> Ins(diana). "
            "Cop(charlie). Wor(charlie) & Cop(charlie) -> !Ins(charlie)."
        )
        nonminimal = parse_base(
            "Wor(charlie). Wor(diana). Cop(charlie). "
            "Wor(charlie) & Cop(charlie) -> !Ins(charlie)."
        )
        assert change_measure(prior, minimal).value == Fraction(1, 2)
        assert change_measure(prior, nonminimal).value == Fraction(2, 3)
        assert change_measure(prior, nonminimal).value > change_measure(prior, minimal).value


def test_baseline_kernel_contrast():
    with criterion("baseline-kernel-contrast", 1.0):
        base = parse_base(
            "Wor(charlie). Wor(diana). "
            "Wor(charlie) -> Ins(charlie). Wor(diana) -> Ins(diana)."
        )
        explanation = parse_base(
            "Wor(diana). Cop(charlie). Wor(charlie) & Cop(charlie) -> !Ins(charlie)."
        )
        phi = parse_literals("!Ins(charlie)")
        ks = kernel_set(base, explanation)
        assert ks.canonical_forms() == (frozenset({
            "Cop(charlie)", "Wor(charlie)",
            "Wor(charlie) -> Ins(charlie)",
            "Wor(charlie) & Cop(charlie) -> !Ins(charlie)",
        }),)

        spared = "Wor(diana) -> Ins(diana)"
        kernel_pool = {el.canonical() for kernel in ks for el in kernel}
        assert spared not in kernel_pool  # no incision can ever retract it
        policies = [IncisionPolicy("canonical-first"), IncisionPolicy("min-hitting-set")]
        policies += [IncisionPolicy("seeded-random", seed=s) for s in range(8)]
        sig = collect_signature([base, explanation])
        violation_found = False
        for policy in policies:
            result = revise_falappa(base, explanation, policy)
            assert spared in result.revised.canonical_forms()
            if not entails(ground(result.revised, sig).formulas, phi):
                violation_found = True
        assert violation_found


def test_postulate_suite_1000():
    with criterion("postulate-suite-1000", 60.0):
        report = check_propositions(GeneratorParams(seed=20250810), trials=1000)
        assert report.trials == 1000
        assert report.failures == (), [f.postulate for f in report.failures]
        assert report.inconsistent_unions > 100
        assert len(report.baseline_violations) >= 1


def test_oracle_equivalence_500():
    with criterion("oracle-equivalence-500", 60.0):
        rng = random.Random(881)
        for trial in range(500):
            n_atoms = rng.choice([2, 3, 3, 4, 4, 5, 6, 7, 8, 10, 12])
            atoms = [Atom(f"a{i}") for i in range(n_atoms)]
            formulas = []
            for _ in range(rng.randint(1, min(10, n_atoms + 4))):
                if rng.random() < 0.5:
                    formulas.append(Literal(rng.choice(atoms), rng.random() < 0.4))
                else:
                    body = tuple(Literal(rng.choice(atoms), rng.random() < 0.3)
                                 for _ in range(rng.randint(1, 2)))
                    formulas.append(Rule(body, Literal(rng.choice(atoms), rng.random() < 0.4)))
            base = []
            for f in formulas:
                if isinstance(f, Rule):
                    base.extend(ground_formula(f, collect_signature([[Literal(a) for a in atoms]])))
                else:
                    base.append(f)
            sig = collect_signature([[Literal(a) for a in atoms]])
            models = enumerate_models(base, sig, cap=12)
            assert is_consistent(base) == bool(models)
            for _ in range(4):
                width = rng.randint(1, 2)
                picked = rng.sample(atoms, min(width, len(atoms)))
                query = [Literal(a, rng.random() < 0.5) for a in picked]
                names = {str(l) for l in query}
                if any(str(l.negate()) in names for l in query):
                    continue
                expected = all(all(m.satisfies(l) for l in query) for m in models)
                assert entails(base, query) == expected


def test_kernel_bruteforce_200():
    with criterion("kernel-bruteforce-200", 60.0):
        rng = random.Random(4321)
        for trial in range(200):
            base, explanation = _random_ground_pair(rng)
            elements = union_elements(base, explanation)
            sig = collect_signature([base, explanation])
            grounded = {el.canonical(): list(ground_formula(el.formula, sig))
                        for el in elements}
            union_ground = [g for gs in grounded.values() for g in gs]

            expected = []
            if not is_consistent(union_ground):
                for size in range(1, len(elements)):
                    for combo in combinations(elements, size):
                        removed = {el.canonical() for el in combo}
                        remainder = [g for el in elements
                                     if el.canonical() not in removed
                                     for g in grounded[el.canonical()]]
                        if is_consistent(remainder):
                            expected.append(frozenset(removed))
            actual = [cs.canonical_forms() for cs in correction_kernel(base, explanation)]
            assert actual == expected  # same sets, same canonical order


def _random_ground_pair(rng: random.Random) -> tuple[BeliefBase, BeliefBase]:
    """Two bases of ground formulas whose union stays at or below 10 formulas."""
    atoms = [Atom(f"g{i}", (Term("c"),)) for i in range(rng.randint(2, 5))]

    def formula():
        if rng.random() < 0.55:
            return Literal(rng.choice(atoms), rng.random() < 0.4)
        body = tuple(Literal(rng.choice(atoms), rng.random() < 0.3)
                     for _ in range(rng.randint(1, 2)))
        return Rule(body, Literal(rng.choice(atoms), rng.random() < 0.5))

    def build(count):
        out, seen = [], set()
        for _ in range(count * 3):
            if len(out) == count:
                break
            f = formula()
            if str(f) in seen:
                continue
            seen.add(str(f))
            out.append(f)
        return BeliefBase.from_formulas(out)

    total = rng.randint(2, 10)
    split = rng.randint(1, total - 1)
    return build(split), build(total - split)


def test_corpus_replay():
    with criterion("corpus-replay", 60.0):
        entries = corpus_entries()
        assert len(entries) == 15  # every scenario parsed and validated on load

        report = corpus_report()
        rows = {(r["id"], r["run"]): r for r in report["rows"]}
        for entry in corpus_entries(2):
            sid = entry.scenario.id
            minimal = rows[(sid, "pattern:minimal")]
            nonminimal = rows[(sid, "pattern:non-minimal")]
            # guided revisions: categorical-only retraction codes minimal,
            # conditional retraction codes non-minimal
            assert minimal["classification"] == "minimal"
            assert nonminimal["classification"] == "non-minimal"
            assert minimal["entails_explanandum"] and nonminimal["entails_explanandum"]

        for comparison in report["comparisons"]:
            assert isinstance(comparison["d_minimal"], Fraction)
            assert isinstance(comparison["d_non_minimal"], Fraction)
            if not comparison["non_minimal_changes_more"]:
                # the inequality did not hold: the exception must be reported
                # with its exact values, never silently dropped
                assert comparison in report["exceptions"]
        reported = {c["id"] for c in report["exceptions"]}
        computed = {c["id"] for c in report["comparisons"]
                    if not c["non_minimal_changes_more"]}
        assert reported == computed
