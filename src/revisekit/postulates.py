"""Executable rationality checks for the revision operators.

Seven postulates are evaluated on concrete instances: inclusion, vacuity,
consistency, reversion, constrained acceptance, unconstrained acceptance, and
strong acceptance.  None of this is a proof; the suite generates seeded random
instances, runs the operators, and fails with a replayable witness whenever a
postulate the guided operator should satisfy does not hold.

Reversion is only checkable for strategies that are pure functions of the
canonical candidate list; the generator builds dedicated instance pairs with
different explanations but identical unions (hence identical kernels) to give
the check real bite.

A trial grounds its union once, for the operator: the generator only counts
it, and the checks ground on their own (see check_postulates).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace as _replace
from typing import Mapping

from .errors import (
    EmptyUniverse,
    GenerationFailed,
    InvalidExplanation,
    NonDeterministicStrategy,
)
from .logic import (
    DEFAULT_CAP,
    Atom,
    BeliefBase,
    Formula,
    Literal,
    Rule,
    Signature,
    Term,
    _Solver,
    _base_solver,
    collect_signature,
    entails,
    ground,
    ground_formula,
    is_consistent,
)
from .revision import (
    CANDIDATE_PURE_KINDS,
    MAX_CARDINALITY,
    MIN_CARDINALITY,
    PROTECT_EXPLANATION,
    SEEDED_RANDOM,
    WEIGHTED,
    Explanandum,
    RevisionResult,
    SelectionStrategy,
    _UnionContext,
    _ground_size,
    _revise,
    revise,
    union_elements,
    validate_explanation,
)
from . import dsl, falappa

POSTULATE_NAMES = (
    "inclusion",
    "vacuity",
    "consistency",
    "reversion",
    "constrained-acceptance",
    "unconstrained-acceptance",
    "strong-acceptance",
)


@dataclass(frozen=True)
class PostulateReport:
    """Per-postulate outcome on one instance, with witnesses for failures."""

    results: tuple[tuple[str, bool], ...]
    witnesses: tuple[tuple[str, str], ...] = ()

    def holds(self, name: str) -> bool:
        for key, ok in self.results:
            if key == name:
                return ok
        raise KeyError(name)

    @property
    def all_hold(self) -> bool:
        return all(ok for _, ok in self.results)

    @property
    def failing(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.results if not ok)

    def as_dict(self) -> dict[str, bool]:
        return dict(self.results)


def check_postulates(base: BeliefBase, explanation: BeliefBase, phi: Explanandum,
                     result: RevisionResult, cap: int = DEFAULT_CAP,
                     strategy: SelectionStrategy | None = None) -> PostulateReport:
    """Evaluate the seven postulates on one produced revision.

    Conditional postulates are true when their antecedent does not apply.  The
    reversion entry re-runs the revision against a reordered explanation when
    the strategy is a pure function of the candidate list and is recoverable
    (pass `strategy` to cover weighted selections); otherwise it is vacuously
    true here and check_reversion covers the interesting cases.

    Each union element is grounded once, on this function's own signature; the
    checks are fresh SAT calls and the rerun a full `revise`.
    """
    sig = collect_signature([base, explanation, phi.literals])
    union = union_elements(base, explanation)
    grounded = {el.canonical(): ground_formula(el.formula, sig) for el in union}
    union_forms = frozenset(grounded)

    def grounding(statements) -> tuple:  # as `ground`; a formula outside the union fails inclusion
        return tuple(dict.fromkeys(gf for st in statements for gf in (
            grounded.get(st.canonical()) or ground_formula(st.formula, sig))))

    union_consistent = is_consistent(grounding(union))

    revised_ground = grounding(result.revised.statements)
    revised_forms = result.revised.canonical_forms()

    inclusion = revised_forms <= union_forms
    vacuity = (not union_consistent) or (
        revised_forms == union_forms and not result.retracted.elements
    )
    consistency = union_consistent or is_consistent(revised_ground)
    strong = entails(revised_ground, phi.literals)
    base_ground = grounding(base.statements)
    rejects_phi = not is_consistent(base_ground + phi.literals)
    constrained = rejects_phi or strong
    unconstrained = (not rejects_phi) or strong

    reversion = True
    rerun_strategy = strategy
    if rerun_strategy is None and result.strategy in (MIN_CARDINALITY, MAX_CARDINALITY,
                                                      SEEDED_RANDOM):
        rerun_strategy = SelectionStrategy(result.strategy, seed=result.seed)
    if rerun_strategy is not None and rerun_strategy.kind in CANDIDATE_PURE_KINDS:
        permuted = BeliefBase(tuple(reversed(explanation.statements)))
        rerun = revise(base, permuted, phi, rerun_strategy, cap)
        reversion = rerun.retracted.canonical_forms() == result.retracted.canonical_forms()

    results = (
        ("inclusion", inclusion),
        ("vacuity", vacuity),
        ("consistency", consistency),
        ("reversion", reversion),
        ("constrained-acceptance", constrained),
        ("unconstrained-acceptance", unconstrained),
        ("strong-acceptance", strong),
    )
    witnesses = tuple(
        (name, _witness(base, explanation, phi, result))
        for name, ok in results
        if not ok
    )
    return PostulateReport(results, witnesses)


def _witness(base: BeliefBase, explanation: BeliefBase, phi: Explanandum,
             result: RevisionResult) -> str:
    return json.dumps({
        "base": sorted(base.canonical_forms()),
        "explanation": sorted(explanation.canonical_forms()),
        "explanandum": str(phi),
        "strategy": result.strategy,
        "seed": result.seed,
        "retracted": sorted(result.retracted.canonical_forms()),
        "revised": sorted(result.revised.canonical_forms()),
    }, sort_keys=True)


def check_reversion(base: BeliefBase, explanation: BeliefBase,
                    explanation2: BeliefBase, phi: Explanandum,
                    strategy: SelectionStrategy, cap: int = DEFAULT_CAP) -> bool:
    """Equal unions and equal correction kernels must retract the same set.

    Returns vacuously true when the antecedent fails.  Strategies that are not
    pure functions of the candidate list cannot be checked and raise
    NonDeterministicStrategy.

    Each side lists its kernel and is revised on one union context.
    """
    if strategy.kind not in CANDIDATE_PURE_KINDS:
        raise NonDeterministicStrategy(
            f"{strategy.kind} is not a pure function of the candidate list")
    for e in (explanation, explanation2):
        report = validate_explanation(e, phi)
        if not report.valid:
            raise InvalidExplanation(report)

    union1 = {el.canonical() for el in union_elements(base, explanation)}
    union2 = {el.canonical() for el in union_elements(base, explanation2)}
    if union1 != union2:
        return True
    # equal canonical unions sort identically, so equal indices name equal formulas
    ctx1 = _UnionContext(base, explanation, phi, cap)
    ctx2 = _UnionContext(base, explanation2, phi, cap)
    if set(ctx1.kernel_indices()) != set(ctx2.kernel_indices()):
        return True

    first = _revise(ctx1, strategy)
    second = _revise(ctx2, strategy)
    return first.retracted.canonical_forms() == second.retracted.canonical_forms()


# --- random instances --------------------------------------------------------

@dataclass(frozen=True)
class GeneratorParams:
    predicate_count: int = 3
    max_arity: int = 1
    constant_count: int = 2
    fact_probability: float = 0.45
    rule_count: int = 2
    body_length: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.max_arity <= 2:
            raise ValueError("max_arity must be 0, 1, or 2")
        if not 0 <= self.fact_probability <= 1:
            raise ValueError("fact_probability must lie in [0, 1]")
        for name, least in (("predicate_count", 1), ("constant_count", 0),
                            ("rule_count", 0), ("body_length", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")


_MAX_ATTEMPTS = 60


def _random_atom(rng: random.Random, predicates: list[tuple[str, int]],
                 constants: list[str]) -> Atom:
    name, arity = rng.choice(predicates)
    args = tuple(Term(rng.choice(constants)) for _ in range(arity))
    return Atom(name, args)


def _random_base(rng: random.Random, params: GeneratorParams,
                 predicates: list[tuple[str, int]], constants: list[str]) -> BeliefBase | None:
    formulas: list = []
    seen: set[Formula] = set()
    for _ in range(max(1, round(params.fact_probability * 2 * params.predicate_count))):
        lit = Literal(_random_atom(rng, predicates, constants), rng.random() < 0.3)
        if lit in seen or lit.negate() in seen:
            continue
        seen.add(lit)
        formulas.append(lit)
    for _ in range(params.rule_count):
        body = []
        for _ in range(rng.randint(1, params.body_length)):
            name, arity = rng.choice(predicates)
            args = tuple(
                Term("X" if rng.random() < 0.6 else rng.choice(constants))
                for _ in range(arity)
            )
            body.append(Literal(Atom(name, args), rng.random() < 0.2))
        name, arity = rng.choice(predicates)
        body_vars = set().union(*(lit.variables() for lit in body)) or set()
        head_args = []
        for _ in range(arity):
            if body_vars and rng.random() < 0.6:
                head_args.append(Term(rng.choice(sorted(body_vars))))
            else:
                head_args.append(Term(rng.choice(constants)))
        rule = Rule(tuple(body), Literal(Atom(name, tuple(head_args)), rng.random() < 0.4))
        if rule not in seen:
            seen.add(rule)
            formulas.append(rule)
    try:
        return BeliefBase.from_formulas(formulas)
    except ValueError:
        return None


def _explanation_for(rng: random.Random, phi: Explanandum,
                     predicates: list[tuple[str, int]], constants: list[str]) -> BeliefBase:
    """A candidate explanation: either the explanandum itself, or a trigger
    fact plus one rule per explanandum literal."""
    if rng.random() < 0.4:
        return BeliefBase.from_formulas(list(phi.literals))
    trigger = Literal(_random_atom(rng, predicates, constants))
    if trigger.atom in {l.atom for l in phi.literals}:
        return BeliefBase.from_formulas(list(phi.literals))
    rules = [Rule((trigger,), lit) for lit in phi.literals]
    return BeliefBase.from_formulas([trigger] + rules)


def random_instance(params: GeneratorParams,
                    cap: int = DEFAULT_CAP) -> tuple[BeliefBase, BeliefBase, Explanandum]:
    """A consistent base, a valid explanation, and its explanandum.

    The explanandum conflicts with the base roughly half the time, which keeps
    both the vacuous and the corrective paths of the operator exercised.
    Unions with more than nine elements, or whose ground size exceeds `cap`,
    are skipped; the size is the operator's own count (the sum of every
    element's ground instances, duplicates included), so the instance is
    never rejected by the operator under the same cap.  Reproducible per
    (params, seed); raises GenerationFailed when the retry budget runs out.
    """
    rng = random.Random(("instance", params.seed).__repr__())
    constants = [f"c{i}" for i in range(1, params.constant_count + 1)]
    predicates = [
        (f"p{i}", rng.randint(0, params.max_arity) if constants else 0)
        for i in range(1, params.predicate_count + 1)
    ]

    for _ in range(_MAX_ATTEMPTS):
        base = _random_base(rng, params, predicates, constants)
        if base is None:
            continue
        sig = collect_signature([base, Signature(tuple(constants))])
        solver, index = _base_solver(base, sig)
        if solver.solve() is None:
            continue

        phi = _pick_explanandum(rng, sig, solver, index)
        if phi is None:
            continue
        explanation = _explanation_for(rng, phi, predicates, constants)
        if not validate_explanation(explanation, phi).valid:
            continue
        union = union_elements(base, explanation)
        try:
            size = _ground_size(union, collect_signature([base, explanation, phi.literals]))
        except EmptyUniverse:
            continue
        if size > cap or len(union) > 9:
            continue
        return base, explanation, phi
    raise GenerationFailed(f"no instance within {_MAX_ATTEMPTS} attempts for seed {params.seed}")


def _pick_explanandum(rng: random.Random, sig: Signature, solver: _Solver,
                      index: Mapping[str, int]) -> Explanandum | None:
    """A random explanandum over the base's signature; with probability 0.55
    the complement of one literal the base entails, if it entails any.

    `solver` holds the consistent ground base and `index` numbers its atom texts:
    the base entails a literal iff the solver has no model under its
    complement, and it entails nothing about an atom it never mentions.
    """
    conflict = rng.random() < 0.55
    atoms = list(sig.herbrand_atoms())
    rng.shuffle(atoms)
    if conflict:
        for atom in atoms:
            v = index.get(str(atom))
            if v is None:
                continue
            for lit, complement in ((Literal(atom), -v), (Literal(atom, True), v)):
                if solver.solve((complement,)) is None:
                    return Explanandum((lit.negate(),))
    width = 2 if rng.random() < 0.3 and len(atoms) > 1 else 1
    # Herbrand atoms are distinct, so the first `width` give distinct literals
    picked = tuple(Literal(atom, rng.random() < 0.4) for atom in atoms[:width])
    if not picked:
        return None
    return Explanandum(picked)


def reversion_pair(seed: int) -> tuple[BeliefBase, BeliefBase, BeliefBase, Explanandum]:
    """Two different valid explanations with the same union against the base,
    hence the same correction kernel: the nontrivial antecedent of reversion.
    """
    rng = random.Random(("reversion", seed).__repr__())
    names = [f"q{i}" for i in rng.sample(range(1, 9), 5)]
    goal, pa, pb, shared, trig = (Atom(n) for n in names)
    g, a, b, s, t = (Literal(x) for x in (goal, pa, pb, shared, trig))
    rule_a = Rule((a, s), g)
    rule_b = Rule((b, s), g)
    rule_block = Rule((t,), g.negate())
    base = BeliefBase.from_formulas([a, b, t, rule_a, rule_b, rule_block])
    e1 = BeliefBase.from_formulas([s, a, rule_a])
    e2 = BeliefBase.from_formulas([s, b, rule_b])
    return base, e1, e2, Explanandum((g,))


# --- the suite ----------------------------------------------------------------

_ROTATION = (
    SelectionStrategy(MIN_CARDINALITY),
    SelectionStrategy(MAX_CARDINALITY),
    SelectionStrategy(PROTECT_EXPLANATION),
    SelectionStrategy(WEIGHTED),
    SelectionStrategy(SEEDED_RANDOM, seed=0),
)


@dataclass(frozen=True)
class SuiteFailure:
    postulate: str
    seed: int
    witness: str

    def as_dict(self) -> dict[str, object]:
        return {"postulate": self.postulate, "seed": self.seed, "witness": self.witness}


@dataclass(frozen=True)
class SuiteReport:
    trials: int
    operator: str
    failures: tuple[SuiteFailure, ...]
    baseline_violations: tuple[SuiteFailure, ...]
    inconsistent_unions: int
    generation_retries: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict[str, object]:
        return {
            "trials": self.trials,
            "operator": self.operator,
            "failures": [f.as_dict() for f in self.failures],
            "baseline_violations": [f.as_dict() for f in self.baseline_violations],
            "inconsistent_unions": self.inconsistent_unions,
            "generation_retries": self.generation_retries,
        }


def baseline_fixture() -> tuple[BeliefBase, BeliefBase, Explanandum]:
    """The worked comparison instance: one four-formula minimal conflict whose
    incisions can cut away support for the explanandum."""
    base = dsl.parse_base(
        "Wor(charlie). Wor(diana). "
        "Wor(charlie) -> Ins(charlie). Wor(diana) -> Ins(diana)."
    )
    explanation = dsl.parse_base(
        "Wor(diana). Cop(charlie). Wor(charlie) & Cop(charlie) -> !Ins(charlie)."
    )
    phi = Explanandum(dsl.parse_literals("!Ins(charlie)"))
    return base, explanation, phi


def _baseline_strong_acceptance(seed: int) -> tuple[SuiteFailure, ...]:
    base, explanation, phi = baseline_fixture()
    sig = collect_signature([base, explanation, phi.literals])
    out = []
    for policy in (falappa.IncisionPolicy("canonical-first"),
                   falappa.IncisionPolicy("min-hitting-set"),
                   falappa.IncisionPolicy("seeded-random", seed=seed)):
        result = falappa.revise_falappa(base, explanation, policy)
        revised_ground = ground(result.revised, sig).formulas
        if not entails(revised_ground, phi.literals):
            out.append(SuiteFailure(
                "strong-acceptance", seed,
                _witness(base, explanation, phi, result)))
    return tuple(out)


def check_propositions(params: GeneratorParams, trials: int,
                       operator: str = "guided", cap: int = DEFAULT_CAP) -> SuiteReport:
    """Run seeded trials and assert the postulate implications instance-wise.

    For the guided operator every failure is a defect and lands in `failures`.
    For the baseline operator the same evaluation is informational: its
    strong-acceptance (and downstream acceptance) violations are expected and
    reported under `baseline_violations`.  Every seventh guided trial also
    checks reversion on `reversion_pair`, unless its union exceeds `cap`.
    """
    if trials < 0:
        raise ValueError(f"trials must not be negative, got {trials}")
    failures: list[SuiteFailure] = []
    baseline: list[SuiteFailure] = list(_baseline_strong_acceptance(params.seed))
    inconsistent_unions = 0
    retries = 0

    for trial in range(trials):
        seed = params.seed + trial
        try:
            base, explanation, phi = random_instance(_replace(params, seed=seed), cap)
        except GenerationFailed:
            retries += 1
            continue

        if operator == "falappa":
            result = falappa.revise_falappa(
                base, explanation, falappa.IncisionPolicy("min-hitting-set"), cap)
            report = check_postulates(base, explanation, phi, result, cap)
            for name in report.failing:
                baseline.append(SuiteFailure(name, seed, dict(report.witnesses)[name]))
            continue

        strategy = _ROTATION[trial % len(_ROTATION)]
        if strategy.kind == SEEDED_RANDOM:
            strategy = SelectionStrategy(SEEDED_RANDOM, seed=seed)
        # no revalidation: generated explanations are valid (test_explanations_always_valid)
        result = _revise(_UnionContext(base, explanation, phi, cap), strategy)
        if not result.union_consistent:
            inconsistent_unions += 1
        report = check_postulates(base, explanation, phi, result, cap, strategy=strategy)
        for name in report.failing:
            failures.append(SuiteFailure(name, seed, dict(report.witnesses)[name]))

        # proposition structure: vacuity forces consistency + strong
        # acceptance; strong acceptance forces both acceptance variants
        if result.union_consistent:
            if not (report.holds("consistency") and report.holds("strong-acceptance")):
                failures.append(SuiteFailure(
                    "vacuity-implication", seed, _witness(base, explanation, phi, result)))
        if report.holds("strong-acceptance"):
            if not (report.holds("constrained-acceptance")
                    and report.holds("unconstrained-acceptance")):
                failures.append(SuiteFailure(
                    "acceptance-implication", seed, _witness(base, explanation, phi, result)))

        if trial % 7 == 0:
            rb, re1, re2, rphi = reversion_pair(seed)
            pure = SelectionStrategy(MIN_CARDINALITY)
            # a pair over the cap is skipped, as the generator skips its instances
            size = _ground_size(union_elements(rb, re1), collect_signature([rb, re1, rphi.literals]))
            if size <= cap and not check_reversion(rb, re1, re2, rphi, pure, cap):
                failures.append(SuiteFailure(
                    "reversion", seed,
                    json.dumps({"base": sorted(rb.canonical_forms()),
                                "e1": sorted(re1.canonical_forms()),
                                "e2": sorted(re2.canonical_forms())})))

    return SuiteReport(trials, operator, tuple(failures), tuple(baseline),
                       inconsistent_unions, retries)
