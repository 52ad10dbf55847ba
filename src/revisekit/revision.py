"""Explanation-guided belief revision.

The operator unions the prior base with an explanation for the explanandum,
then retracts one correction set: a subset of the union whose removal leaves a
consistent, nonempty remainder that still entails the explanandum.  Selection
among admissible correction sets is a pluggable strategy; nothing forces the
choice to be minimal.

Enumeration order is by cardinality and then lexicographic on canonical
serialized forms, so cardinality-minimal strategies can stop at the first
admissible set and equal inputs always yield equal streams.  Each union's
subset checks are solves of one solver, under selector assumptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .errors import CapExceeded, EmptyUniverse, InvalidExplanation, NoCandidates
from .logic import (
    DEFAULT_CAP,
    BeliefBase,
    Formula,
    Literal,
    Signature,
    Statement,
    _Solver,
    _SubsetSolver,
    collect_signature,
)

if TYPE_CHECKING:
    from .metrics import ChangeMeasure


@dataclass(frozen=True)
class Explanandum:
    """A nonempty conjunction of ground literals: the fact to be explained."""

    literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        if not self.literals:
            raise ValueError("explanandum must be nonempty")
        seen = set()
        for lit in self.literals:
            if not lit.is_ground:
                raise ValueError(f"explanandum literal is not ground: {lit}")
            if lit in seen:
                raise ValueError(f"repeated literal: {lit}")
            seen.add(lit)
        for lit in self.literals:
            if lit.negate() in seen:
                raise ValueError(f"explanandum contains {lit} and its negation")

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __str__(self) -> str:
        return " & ".join(str(lit) for lit in self.literals)


@dataclass(frozen=True)
class ExplanationReport:
    """Outcome of the three explanation-validity conditions: the explanation
    must entail the explanandum, be consistent, and contain nothing spare."""

    entails_explanandum: bool
    consistent: bool
    minimal: bool
    failing_subsets: tuple[tuple[str, ...], ...] = ()

    @property
    def valid(self) -> bool:
        return self.entails_explanandum and self.consistent and self.minimal

    def summary(self) -> str:
        problems = []
        if not self.entails_explanandum:
            problems.append("does not entail the explanandum")
        if not self.consistent:
            problems.append("is inconsistent")
        if not self.minimal:
            witness = "; ".join("{" + ", ".join(sub) + "}" for sub in self.failing_subsets)
            problems.append(f"is not minimal (sufficient proper subsets: {witness})")
        return "valid" if not problems else ", ".join(problems)


def validate_explanation(explanation: BeliefBase, phi: Explanandum) -> ExplanationReport:
    """Evaluate the three validity conditions on the ground explanation, over
    its own signature, each as a subset check of one `_SubsetSolver`.

    Minimality is decided by single-element removals, which is equivalent to
    quantifying over all proper subsets by monotonicity of classical
    entailment.
    """
    statements = explanation.statements
    checks = _SubsetSolver([st.formula for st in statements],
                           collect_signature([explanation, phi.literals]), phi.literals)
    everything = (1 << len(statements)) - 1
    entails_phi = not checks.satisfiable(everything, True)
    consistent = checks.satisfiable(everything, False)
    witnesses = tuple(tuple(sorted(st.canonical() for st in statements[:i] + statements[i + 1:]))
                      for i in range(len(statements))
                      if not checks.satisfiable(everything ^ (1 << i), True))
    return ExplanationReport(entails_phi, consistent, not witnesses, witnesses)


@dataclass(frozen=True)
class UnionElement:
    """One formula of the union, with every (origin, label) that asserts it."""

    formula: Formula
    sources: tuple[tuple[str, str], ...]

    def canonical(self) -> str:
        return str(self.formula)

    @property
    def from_explanation(self) -> bool:
        return any(origin == "E" for origin, _ in self.sources)

    def __str__(self) -> str:
        return str(self.formula)


def union_elements(base: BeliefBase, explanation: BeliefBase) -> tuple[UnionElement, ...]:
    """The set union of two bases, deduplicated by canonical form and sorted
    canonically; shared formulas carry both provenances."""
    merged: dict[str, list[tuple[str, str]]] = {}
    formulas: dict[str, Formula] = {}
    for origin, b in (("B", base), ("E", explanation)):
        for st in b.statements:
            canon = st.canonical()
            formulas.setdefault(canon, st.formula)
            merged.setdefault(canon, []).append((origin, st.label))
    return tuple(
        UnionElement(formulas[canon], tuple(merged[canon]))
        for canon in sorted(merged)
    )


@dataclass(frozen=True)
class CorrectionSet:
    """A subset of the union whose removal restores consistency."""

    elements: tuple[UnionElement, ...]

    def canonical_forms(self) -> frozenset[str]:
        return frozenset(el.canonical() for el in self.elements)

    def sort_key(self) -> tuple[int, tuple[str, ...]]:
        return (len(self.elements), tuple(el.canonical() for el in self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[UnionElement]:
        return iter(self.elements)

    def __str__(self) -> str:
        return "{" + ", ".join(el.canonical() for el in self.elements) + "}"


EMPTY_CORRECTION = CorrectionSet(())


def _ground_size(elements: Sequence[UnionElement], sig: Signature) -> int:
    """The count of `ground_formula` over the elements, made without grounding."""
    total = 0
    for el in elements:
        k = 0 if isinstance(el.formula, Literal) else len(el.formula.variables())
        if k and not sig.constants:
            raise EmptyUniverse(f"rule {el.formula} has variables but the universe is empty")
        total += len(sig.constants) ** k
    return total


def _holds_any(mask: int, members: list[int]) -> bool:
    """Whether the subset `mask` contains one of the subsets `members`."""
    for member in members:
        if member & mask == member:
            return True
    return False


class _UnionContext:
    """Grounds and sizes a union once for every operator, and decides its
    subset consistency/entailment checks on int masks (bit i for element i),
    memoized, on one `_SubsetSolver`.  The ground size capped is the sum of
    every element's ground instances, duplicates included, checked before grounding."""

    def __init__(self, base: BeliefBase, explanation: BeliefBase,
                 phi: Explanandum | None, cap: int):
        literals = phi.literals if phi is not None else ()
        self.sig = collect_signature([base, explanation, literals])
        self.elements = union_elements(base, explanation)
        if (total := _ground_size(self.elements, self.sig)) > cap:
            raise CapExceeded(total, cap, "ground formulas")
        self.subsets = _SubsetSolver([el.formula for el in self.elements], self.sig, literals)
        self._consistency: dict[int, bool] = {}
        self._entailment: dict[int, bool] = {}
        self._families: tuple[list[int], list[int]] | None = None
        self.phi = phi

    def consistent(self, kept: int) -> bool:
        if (cached := self._consistency.get(kept)) is None:
            cached = self._consistency[kept] = self.subsets.satisfiable(kept, False)
        return cached

    def entails_phi(self, kept: int) -> bool:
        assert self.phi is not None
        if (cached := self._entailment.get(kept)) is None:
            cached = self._entailment[kept] = not self.subsets.satisfiable(kept, True)
        return cached

    def kernel_indices(self) -> Iterator[tuple[int, ...]]:
        """Nonempty-remainder removals that restore consistency, as ascending
        index tuples, by cardinality then lexicographic on canonical forms.
        Empty when the union is already consistent.

        A removal restores consistency exactly when it contains a minimal
        correction set, the complement of a maximal consistent subset (Reiter
        1987), so each candidate's mask is one `_holds_any` test against the
        minimal correction sets known.  After `msses_and_muses` has run on
        this context all of them are, and the walk makes no SAT call.  Before,
        they are found lazily: visiting by cardinality makes each candidate
        that contains none and leaves a consistent remainder a minimal one, so
        a reader of a prefix pays SAT calls only for that prefix."""
        n = len(self.elements)
        everything = (1 << n) - 1
        bits = [1 << i for i in range(n)]
        lazy = self._families is None
        minimal = [] if lazy else [everything ^ kept for kept in self._families[0]]
        if (lazy and self.consistent(everything)) or 0 in minimal:  # the union is consistent
            return
        for size in range(1, n):
            for combo, combo_bits in zip(combinations(range(n), size), combinations(bits, size)):
                removed = sum(combo_bits)
                if not _holds_any(removed, minimal):
                    if not lazy or not self.consistent(everything ^ removed):
                        continue
                    minimal.append(removed)
                yield combo

    def admissible(self) -> Iterator[CorrectionSet]:
        """The correction sets whose removal keeps the explanandum entailed,
        in the canonical order of `kernel_indices`.

        Entailment is inherited by supersets of the remainder, so most
        candidates are decided without a SAT call: a candidate containing one
        whose remainder failed is rejected, and one that leaves the
        explanation's elements whole is accepted once those elements alone
        entail the explanandum.  That check runs at most once, and when it
        fails (an invalid explanation) every candidate is checked itself."""
        everything = (1 << len(self.elements)) - 1
        explained = sum(1 << i for i, el in enumerate(self.elements) if el.from_explanation)
        explained_entails: bool | None = None
        failing: list[int] = []
        for indices in self.kernel_indices():
            if _holds_any(removed := sum([1 << i for i in indices]), failing):
                continue
            if not explained & removed:
                if explained_entails is None:
                    explained_entails = self.entails_phi(explained)
                if explained_entails:
                    yield self.correction_set(indices)
                    continue
            if self.entails_phi(everything ^ removed):
                yield self.correction_set(indices)
            else:
                failing.append(removed)

    def largest_admissible(self) -> list[CorrectionSet]:
        """The max-cardinality selection as a pool of at most one set: removals
        by size from n - 1 down, canonical within a size, up to the first
        admissible.  No SAT call is made for a remainder lacking an explanandum
        atom (a consistent one cannot entail it) or holding one inconsistent."""
        n = len(self.elements)
        everything = (1 << n) - 1
        bits = [1 << i for i in range(n)]
        mentioning = [self.subsets.mentioning(lit.atom) for lit in self.phi.literals]
        inconsistent: list[int] = []
        for size in range(n - 1, 0, -1):
            for combo, combo_bits in zip(combinations(range(n), size), combinations(bits, size)):
                remainder = everything ^ sum(combo_bits)
                if (not all(remainder & m for m in mentioning)
                        or _holds_any(remainder, inconsistent)):
                    continue
                if not self.consistent(remainder):
                    inconsistent.append(remainder)
                elif self.entails_phi(remainder):
                    return [self.correction_set(combo)]
        return []

    def msses_and_muses(self) -> tuple[list[int], list[int]]:
        """Every maximal consistent and minimal unsatisfiable subset of the
        union, by MARCO (Liffiton, Previti, Malik & Marques-Silva, 2016).  Each
        model of the map (one variable per element, kept unless false) is a
        seed; a consistent one grows to an MSS and its subsets get blocked,
        an inconsistent one shrinks to a MUS and its supersets get blocked.

        Both families are lists of masks, kept on the context; from then on
        `kernel_indices` decides its candidates by the MSSes' complements."""
        if self._families is not None:
            return self._families
        n = len(self.elements)
        blocking: list[list[int]] = []
        msses: list[int] = []
        muses: list[int] = []
        while (model := _Solver(blocking).solve()) is not None:
            seed = sum(1 << i for i in range(n) if -(i + 1) not in model)
            ok = self.consistent(seed)
            # grow adds, shrink drops, ascending; the block names that side: MSS outside, MUS inside
            for i in range(n):
                if (seed >> i & 1) != ok and self.consistent(seed ^ (1 << i)) == ok:
                    seed ^= 1 << i
            (msses if ok else muses).append(seed)
            blocking.append([i + 1 if ok else -(i + 1) for i in range(n) if (seed >> i & 1) != ok])
        self._families = msses, muses
        return self._families

    def correction_set(self, indices: Sequence[int]) -> CorrectionSet:
        """The correction set of the elements at `indices`, which ascend."""
        elements = self.elements
        return CorrectionSet(tuple([elements[i] for i in indices]))


def correction_kernel(base: BeliefBase, explanation: BeliefBase,
                      cap: int = DEFAULT_CAP) -> Iterator[CorrectionSet]:
    """Stream every correction set of the union, in canonical order.

    A consistent union yields an empty stream: there is nothing to correct and
    the selection upstream degenerates to the empty retraction.

    A listing reads the whole stream, so it first takes the minimal
    correction sets from one MARCO enumeration, and its walk over the 2^n
    candidates makes no SAT call.
    """
    ctx = _UnionContext(base, explanation, None, cap)
    ctx.msses_and_muses()
    for indices in ctx.kernel_indices():
        yield ctx.correction_set(indices)


def admissible_selections(base: BeliefBase, explanation: BeliefBase,
                          phi: Explanandum, cap: int = DEFAULT_CAP) -> Iterator[CorrectionSet]:
    """The correction sets whose removal keeps the explanandum entailed.

    Never empty for an inconsistent union and a valid explanation: removing
    everything asserted only by the prior base leaves the explanation itself,
    which is consistent and entails the explanandum.
    """
    yield from _UnionContext(base, explanation, phi, cap).admissible()


MIN_CARDINALITY = "min-cardinality"
MAX_CARDINALITY = "max-cardinality"
PROTECT_EXPLANATION = "protect-explanation"
WEIGHTED = "weighted"
SEEDED_RANDOM = "seeded-random"
INTERACTIVE = "interactive"

STRATEGY_KINDS = (
    MIN_CARDINALITY,
    MAX_CARDINALITY,
    PROTECT_EXPLANATION,
    WEIGHTED,
    SEEDED_RANDOM,
    INTERACTIVE,
)

# Strategies that are pure functions of the canonical candidate list (plus
# their own parameters).  protect-explanation keys on the explanation's
# identity and interactive on a live chooser, so neither qualifies for
# checks that need a well-defined selection function of the kernel.
CANDIDATE_PURE_KINDS = frozenset({MIN_CARDINALITY, MAX_CARDINALITY, WEIGHTED, SEEDED_RANDOM})


@dataclass(frozen=True)
class SelectionStrategy:
    kind: str
    seed: int | None = None
    weights: tuple[tuple[str, float], ...] | None = None
    chooser: Callable[[Sequence[CorrectionSet]], int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == INTERACTIVE and self.chooser is None:
            raise ValueError("interactive strategy needs a chooser callback")
        if self.kind == SEEDED_RANDOM and self.seed is None:
            object.__setattr__(self, "seed", 0)
        if self.weights is not None:
            if not isinstance(self.weights, tuple):
                object.__setattr__(self, "weights", tuple(sorted(dict(self.weights).items())))
            for name, w in self.weights:
                if not isinstance(w, (int, float)):
                    raise ValueError(f"weight of {name!r} is not a number: {w!r}")

    @classmethod
    def named(cls, kind: str, seed: int | None = None,
              weights: dict[str, float] | None = None) -> "SelectionStrategy":
        prepared = tuple(sorted(weights.items())) if weights else None
        return cls(kind, seed=seed, weights=prepared)

    def weight_of(self, canonical: str) -> float:
        if self.weights:
            for name, w in self.weights:
                if name == canonical:
                    return w
        return 1.0


def select(candidates: Sequence[CorrectionSet], strategy: SelectionStrategy) -> CorrectionSet:
    """Pick one correction set; ties always break by canonical order."""
    pool = list(candidates)
    if not pool:
        raise NoCandidates("no admissible correction sets to select from")
    if strategy.kind == MIN_CARDINALITY:
        return min(pool, key=CorrectionSet.sort_key)
    if strategy.kind == MAX_CARDINALITY:
        return min(pool, key=lambda cs: (-len(cs), cs.sort_key()[1]))
    if strategy.kind == PROTECT_EXPLANATION:
        shielded = [cs for cs in pool if not any(el.from_explanation for el in cs)]
        return min(shielded or pool, key=CorrectionSet.sort_key)
    if strategy.kind == WEIGHTED:
        return min(pool, key=lambda cs: (sum(strategy.weight_of(el.canonical()) for el in cs),
                                         cs.sort_key()))
    if strategy.kind == SEEDED_RANDOM:
        rng = random.Random(strategy.seed)
        return pool[rng.randrange(len(pool))]
    index = strategy.chooser(pool)
    if not 0 <= index < len(pool):
        raise NoCandidates(f"chooser returned out-of-range index {index}")
    return pool[index]


@dataclass(frozen=True)
class RevisionResult:
    """A revised base plus everything needed to audit how it was produced."""

    revised: BeliefBase
    retracted: CorrectionSet
    union_consistent: bool
    strategy: str
    seed: int | None = None
    explanandum: Explanandum | None = None
    entails_explanandum: bool | None = None
    postulates: tuple[tuple[str, bool], ...] | None = None
    change_measure: "ChangeMeasure | None" = None


def base_from_elements(elements: Sequence[UnionElement]) -> BeliefBase:
    """Rebuild a labeled base from union elements, preferring prior-base labels."""
    taken: set[str] = set()
    statements = []
    for el in elements:
        b_labels = [label for origin, label in el.sources if origin == "B"]
        label = b_labels[0] if b_labels else el.sources[0][1]
        if label in taken:
            origin = el.sources[0][0]
            candidate = f"{origin.lower()}_{label}"
            bump = 2
            while candidate in taken:
                candidate = f"{origin.lower()}_{label}_{bump}"
                bump += 1
            label = candidate
        taken.add(label)
        statements.append(Statement(label, el.formula))
    return BeliefBase(statements)


def revise(base: BeliefBase, explanation: BeliefBase, phi: Explanandum,
           strategy: SelectionStrategy, cap: int = DEFAULT_CAP) -> RevisionResult:
    """Union the base with the explanation, then retract a selected admissible
    correction set.  A consistent union is returned unchanged (vacuity).

    Only seeded-random, interactive and weighted with a union formula weighing
    below zero or NaN list every admissible set.  min-cardinality and
    protect-explanation read the stream up to their pick, max-cardinality
    searches by size, and weighted compares minimal correction sets.  The
    corpus replay runs each of an entry's selections on one validated context.

    Raises InvalidExplanation (with the report attached) when the explanation
    fails validation, and CapExceeded when the ground union is too large.
    """
    return _revise(_validated_context(base, explanation, phi, cap), strategy)


def _validated_context(base: BeliefBase, explanation: BeliefBase, phi: Explanandum,
                       cap: int) -> _UnionContext:
    if not (report := validate_explanation(explanation, phi)).valid:
        raise InvalidExplanation(report)
    return _UnionContext(base, explanation, phi, cap)


def _revise(ctx: _UnionContext, strategy: SelectionStrategy) -> RevisionResult:
    """Select and retract a correction set of a validated context's union."""
    n = len(ctx.elements)
    if ctx.consistent((1 << n) - 1):
        revised = base_from_elements(ctx.elements)
        return RevisionResult(revised, EMPTY_CORRECTION, True,
                              strategy.kind, strategy.seed, ctx.phi, True)

    if strategy.kind == MIN_CARDINALITY:
        # The stream is ordered by cardinality then canonical form, so the
        # first admissible set is the selection.
        selected = next(ctx.admissible(), None)
        if selected is None:
            raise NoCandidates("no admissible correction sets")
    elif strategy.kind == MAX_CARDINALITY:
        selected = select(ctx.largest_admissible(), strategy)
    elif strategy.kind == PROTECT_EXPLANATION:
        # `select` needs only the stream's first set and its first sparing the explanation
        stream = ctx.admissible()
        first = list(islice(stream, 1))
        spared = (cs for cs in chain(first, stream) if not any(el.from_explanation for el in cs))
        selected = select(first + list(islice(spared, 1)), strategy)
    elif strategy.kind == WEIGHTED and all(
            strategy.weight_of(el.canonical()) >= 0 for el in ctx.elements):
        # An admissible set holds an admissible minimal correction set (an MSS's
        # complement), which with no formula weighing below zero or NaN sorts first.
        selected = select([ctx.correction_set([i for i in range(n) if not kept >> i & 1])
                           for kept in ctx.msses_and_muses()[0]
                           if kept and ctx.entails_phi(kept)], strategy)
    else:
        selected = select(list(ctx.admissible()), strategy)
    return _retract(ctx, selected, strategy.kind, strategy.seed)


def _retract(ctx: _UnionContext, selected: CorrectionSet, kind: str,
             seed: int | None = None) -> RevisionResult:
    removed = selected.canonical_forms()
    kept = [el for el in ctx.elements if el.canonical() not in removed]
    return RevisionResult(base_from_elements(kept), selected, False, kind, seed, ctx.phi, True)
