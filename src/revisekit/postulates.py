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

A trial grounds its union once for the operator and once for the checks,
which are subset checks of one `_SubsetSolver` (see check_postulates); the
generator only counts it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace as _replace

from .errors import (
    EmptyUniverse,
    GenerationFailed,
    InconsistentBase,
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
    _SubsetSolver,
    collect_signature,
    consequences,
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
                     result: RevisionResult) -> PostulateReport:
    """Evaluate the seven postulates on one produced revision.

    Conditional postulates are true when their antecedent does not apply.
    Reversion is true here: `union_elements` makes a reordered explanation's
    union, and so its revision, the same by construction, and check_reversion
    covers different explanations with equal unions.

    The four checks are masks on one `_SubsetSolver`, over this function's own
    signature, of the union elements, any revised formula outside the union
    (which fails inclusion) and the explanandum's literals.
    """
    elements = {el.canonical(): el.formula for el in union_elements(base, explanation)}
    union_forms = frozenset(elements)
    for formula in (*result.revised.formulas, *phi.literals):
        elements.setdefault(str(formula), formula)
    bit = {canon: 1 << i for i, canon in enumerate(elements)}

    def mask(forms) -> int:  # one bit per canonical form
        kept = 0
        for canon in forms:
            kept |= bit[canon]
        return kept

    checks = _SubsetSolver(elements.values(),
                           collect_signature([base, explanation, phi.literals]), phi.literals)
    union_consistent = checks.satisfiable(mask(union_forms), False)
    revised_forms = result.revised.canonical_forms()
    revised = mask(revised_forms)

    inclusion = revised_forms <= union_forms
    vacuity = (not union_consistent) or (
        revised_forms == union_forms and not result.retracted.elements
    )
    consistency = union_consistent or checks.satisfiable(revised, False)
    strong = not checks.satisfiable(revised, True)
    rejects_phi = not checks.satisfiable(
        mask(base.canonical_forms() | {str(lit) for lit in phi.literals}), False)
    constrained = rejects_phi or strong
    unconstrained = (not rejects_phi) or strong

    results = (
        ("inclusion", inclusion),
        ("vacuity", vacuity),
        ("consistency", consistency),
        ("reversion", True),
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
    """Equal unions must retract the same set.

    Equal unions have equal correction kernels: a union context's signature,
    element order and subset answers are functions of the union and the
    explanandum alone.  Returns vacuously true when the unions differ.
    Strategies that are not pure functions of the candidate list cannot be
    checked and raise NonDeterministicStrategy.

    Each side is validated and revised on its own union context.
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
    first = _revise(_UnionContext(base, explanation, phi, cap), strategy)
    second = _revise(_UnionContext(base, explanation2, phi, cap), strategy)
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
        try:
            entailed = consequences(base, sig)
        except InconsistentBase:
            continue

        phi = _pick_explanandum(rng, sig, entailed)
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


def _pick_explanandum(rng: random.Random, sig: Signature,
                      entailed: frozenset[Literal]) -> Explanandum | None:
    """A random explanandum over the base's signature; with probability 0.55
    the complement of one literal the base entails, if it entails any.

    `entailed` is the consistent base's `consequences` over `sig`, so it holds
    at most one of each atom's two literals.
    """
    conflict = rng.random() < 0.55
    atoms = list(sig.herbrand_atoms())
    rng.shuffle(atoms)
    if conflict:
        for atom in atoms:
            for lit in (Literal(atom), Literal(atom, True)):
                if lit in entailed:
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
        revised = _SubsetSolver(result.revised.formulas, sig, phi.literals)
        if revised.satisfiable((1 << len(revised.formulas)) - 1, True):
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
            report = check_postulates(base, explanation, phi, result)
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
        report = check_postulates(base, explanation, phi, result)
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
