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
from .logic import BeliefBase, Literal, Signature, collect_signature, consequences

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


def change_measure(base: BeliefBase, revised: BeliefBase,
                   sig: Signature | None = None) -> ChangeMeasure:
    """Normalized symmetric difference of the two consequence sets.

    Both sets are computed over the combined signature so the Herbrand base is
    shared; two bases with no consequences at all count as zero change.
    Raises InconsistentBase when either base has no model.
    """
    if sig is None:
        sig = collect_signature([base, revised])
    return _measure(consequences(base, sig), consequences(revised, sig))


def _measure(before: frozenset[Literal], after: frozenset[Literal]) -> ChangeMeasure:
    """The change measure between a prior and a posterior consequence set."""
    sym = before.symmetric_difference(after)
    union = before.union(after)
    if not union:
        return ChangeMeasure(0, 0, Fraction(0))
    return ChangeMeasure(len(sym), len(union), Fraction(len(sym), len(union)))


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
