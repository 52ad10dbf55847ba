"""Belief-change measurement and the minimal/non-minimal revision coding.

The change measure compares the ground-literal consequences of a prior and a
posterior base over one shared Herbrand base: the size of the symmetric
difference, normalized by the size of the union.  Values are exact rationals;
the 3-place decimal is display only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import UnknownLabel
from .logic import BeliefBase, Signature, _SubsetSolver, collect_signature

if TYPE_CHECKING:
    from .dsl import Scenario
    from .revision import RevisionResult


@dataclass(frozen=True)
class ChangeMeasure:
    numerator: int    # |symmetric difference of consequence sets|
    denominator: int  # |union of consequence sets|
    value: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError("change measure must lie in [0, 1]")

    @property
    def decimal(self) -> str:
        return f"{float(self.value):.3f}"

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator} = {self.decimal}"


def change_measure(base: BeliefBase, revised: BeliefBase) -> ChangeMeasure:
    """Normalized symmetric difference of the two consequence sets.

    Both sets are computed over the combined signature so the Herbrand base is
    shared, and read off one solver of the two bases' distinct formulas, those
    in both first: the revised set's first solve then shares the assumptions
    that keep them with the solves before it, and keeps their propagation.  Two
    bases with no consequences at all count as zero change.  Raises
    InconsistentBase when either base has no model.
    """
    sig = collect_signature([base, revised])
    shared = [f for f in base.formulas if f in revised]
    checks = _SubsetSolver(dict.fromkeys((*shared, *base.formulas, *revised.formulas)), sig, ())
    return _measure(_consequences(checks, base, sig), _consequences(checks, revised, sig))


def _consequences(checks: _SubsetSolver, base: BeliefBase, sig: Signature) -> frozenset[str]:
    """The texts of `consequences(base, sig)`, off `checks` when they are over
    `sig` and hold every formula of `base`, and off a solver of its own otherwise."""
    forms = base.canonical_forms()
    kept = sum(1 << i for i, f in enumerate(checks.formulas) if f._text in forms)
    if sig != checks.sig or kept.bit_count() != len(base):
        checks, kept = _SubsetSolver(base.formulas, sig, ()), (1 << len(base)) - 1
    return frozenset(checks._backbone(kept))


def _measure(before: frozenset[str], after: frozenset[str]) -> ChangeMeasure:
    """The change measure between a prior and a posterior consequence set of literal texts."""
    sym, union = len(before ^ after), len(before | after)
    return ChangeMeasure(sym, union, Fraction(sym, union) if union else Fraction(0))


def statement_changes(base: BeliefBase, result: "RevisionResult") -> int:
    """How many of the prior base's labeled statements were discarded or
    altered by the revision; additions from the explanation do not count."""
    revised_forms = result.revised.canonical_forms()
    # Altered statements keep their label but lose their original formula, so
    # both kinds of change show up as the formula going missing.
    return sum(1 for st in base.statements if st.canonical() not in revised_forms)


@dataclass(frozen=True)
class RevisionClassification:
    """The experiments' coding of a revision, relative to a scenario."""

    label: str  # minimal | non-minimal | unclassified
    retained: tuple[str, ...]
    discarded: tuple[str, ...]
    altered: tuple[str, ...]


def classify_revision(scenario: "Scenario", result: "RevisionResult",
                      non_minimal_threshold: int = 2) -> RevisionClassification:
    """minimal: only the categorical statement was touched; non-minimal: a
    conditional was touched, or at least `non_minimal_threshold` statements
    were; unclassified: the revision left every scenario statement alone."""
    known_labels = {s.label for s in scenario.statements}
    for element in result.retracted.elements:
        for origin, label in element.sources:
            if origin == "B" and label not in known_labels:
                raise UnknownLabel(f"retracted label {label!r} is not a scenario statement")

    retracted_forms = result.retracted.canonical_forms()
    revised_forms = result.revised.canonical_forms()
    revised_by_label = {st.label: st.canonical() for st in result.revised.statements}
    retained, discarded, altered = [], [], []
    for s in scenario.statements:
        canon = str(s.formula)
        if canon in revised_forms or canon not in retracted_forms:
            retained.append(s.label)
        elif revised_by_label.get(s.label, canon) != canon:
            # retract-old plus add-new under the same label lineage
            altered.append(s.label)
        else:
            discarded.append(s.label)

    touched = [s for s in scenario.statements if s.label in discarded or s.label in altered]
    if not touched:
        label = "unclassified"
    elif any(s.kind == "conditional" for s in touched) or len(touched) >= non_minimal_threshold:
        label = "non-minimal"
    else:
        label = "minimal"
    return RevisionClassification(label, tuple(retained), tuple(discarded), tuple(altered))
