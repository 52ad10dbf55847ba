"""The embedded scenario corpus and its replay machinery.

Fifteen inconsistency problems ship with the package: nine from the first
study (participants invented their own explanations) and six from the second
(a canonical explanation is part of the scenario).  The replay runs the
guided operator over each entry and reports classification, statement
changes, and the belief-change measure with exact rationals.

For first-study entries the conflicting fact itself serves as its own
explanation (a single-fact explanation is always valid), and the two
reference retraction patterns are forced: `minimal` retracts exactly the
categorical statement, `non-minimal` retracts the smallest all-conditional
correction set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Any, Sequence

from .dsl import Scenario, parse_scenario
from .errors import NoCandidates
from .logic import DEFAULT_CAP, BeliefBase
from .metrics import change_measure, classify_revision, statement_changes
from .revision import (
    CorrectionSet,
    Explanandum,
    RevisionResult,
    SelectionStrategy,
    admissible_selections,
    revise,
)

EXPERIMENT_1_IDS = tuple(f"exp1-s{i}" for i in range(1, 10))
EXPERIMENT_2_IDS = tuple(f"exp2-s{i}" for i in range(1, 7))


@dataclass(frozen=True)
class CorpusEntry:
    scenario: Scenario
    experiment: int
    index: int

    @property
    def explanation(self) -> BeliefBase | None:
        return self.scenario.explanation


def _load(name: str) -> str:
    return resources.files("revisekit.corpus_data").joinpath(name).read_text(encoding="utf-8")


def corpus_entries(experiment: int | None = None) -> tuple[CorpusEntry, ...]:
    """All embedded scenarios, optionally restricted to one experiment."""
    entries = []
    for experiment_no, ids in ((1, EXPERIMENT_1_IDS), (2, EXPERIMENT_2_IDS)):
        if experiment is not None and experiment != experiment_no:
            continue
        for index, sid in enumerate(ids, start=1):
            filename = sid.replace("-", "_") + ".scn"
            scenario = parse_scenario(_load(filename))
            entries.append(CorpusEntry(scenario, experiment_no, index))
    return tuple(entries)


def scenario_inputs(entry: CorpusEntry) -> tuple[BeliefBase, BeliefBase, Explanandum]:
    """The (base, explanation, explanandum) triple an entry is replayed with."""
    base = entry.scenario.belief_base()
    phi = Explanandum(entry.scenario.fact)
    if entry.explanation is not None:
        return base, entry.explanation, phi
    # no canonical explanation: the trusted fact explains itself
    return base, BeliefBase.from_formulas(list(entry.scenario.fact)), phi


def _forced(target_forms: frozenset[str], description: str) -> SelectionStrategy:
    def chooser(pool: Sequence[CorrectionSet]) -> int:
        for i, cs in enumerate(pool):
            if cs.canonical_forms() == target_forms:
                return i
        raise NoCandidates(f"no admissible correction set matches {description}")
    return SelectionStrategy("interactive", chooser=chooser)


def pattern_revision(entry: CorpusEntry, pattern: str,
                     cap: int = DEFAULT_CAP) -> RevisionResult:
    """Replay an entry with one of the reference retraction patterns."""
    base, explanation, phi = scenario_inputs(entry)
    scenario = entry.scenario
    candidates = list(admissible_selections(base, explanation, phi, cap))
    cat_forms = frozenset(str(s.formula) for s in scenario.categoricals())
    cond_forms = frozenset(str(s.formula) for s in scenario.conditionals())
    if pattern == "minimal":
        target = next((cs for cs in candidates if cs.canonical_forms() == cat_forms), None)
    elif pattern == "non-minimal":
        conditional_only = [cs for cs in candidates if cs.canonical_forms() <= cond_forms]
        target = min(conditional_only, key=CorrectionSet.sort_key) if conditional_only else None
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    if target is None:
        raise NoCandidates(f"the {pattern} pattern is not admissible for {scenario.id}")
    return revise(base, explanation, phi,
                  _forced(target.canonical_forms(), pattern), cap)


def _row(entry: CorpusEntry, run: str, result: RevisionResult,
         cap: int) -> dict[str, Any]:
    base = entry.scenario.belief_base()
    classification = classify_revision(entry.scenario, result)
    measure = change_measure(base, result.revised)
    return {
        "id": entry.scenario.id,
        "type": entry.scenario.problem_type,
        "run": run,
        "retracted": sorted(result.retracted.canonical_forms()),
        "classification": classification.label,
        "statement_changes": statement_changes(base, result),
        "change_measure": measure,
        "entails_explanandum": bool(result.entails_explanandum),
    }


def corpus_report(experiment: int | None = None,
                  strategy: SelectionStrategy | None = None,
                  cap: int = DEFAULT_CAP) -> dict[str, Any]:
    """Replay the corpus; returns rows plus the measure comparison per entry.

    Each entry contributes a `minimal` and a `non-minimal` pattern row; second-
    experiment entries additionally contribute one strategy-selected guided
    run.  The comparison records, with exact rationals, whether the
    non-minimal revision changed more than the minimal one; entries where it
    did not are collected under `exceptions` rather than assumed away.
    """
    if strategy is None:
        strategy = SelectionStrategy("protect-explanation")
    rows: list[dict[str, Any]] = []
    comparisons: list[dict[str, Any]] = []
    for entry in corpus_entries(experiment):
        if entry.experiment == 2:
            base, explanation, phi = scenario_inputs(entry)
            rows.append(_row(entry, f"strategy:{strategy.kind}",
                             revise(base, explanation, phi, strategy, cap), cap))
        minimal = pattern_revision(entry, "minimal", cap)
        nonminimal = pattern_revision(entry, "non-minimal", cap)
        min_row = _row(entry, "pattern:minimal", minimal, cap)
        nonmin_row = _row(entry, "pattern:non-minimal", nonminimal, cap)
        rows += [min_row, nonmin_row]
        d_min: Fraction = min_row["change_measure"].value
        d_nonmin: Fraction = nonmin_row["change_measure"].value
        comparisons.append({
            "id": entry.scenario.id,
            "experiment": entry.experiment,
            "d_minimal": d_min,
            "d_non_minimal": d_nonmin,
            "non_minimal_changes_more": d_nonmin > d_min,
        })
    exceptions = [c for c in comparisons if not c["non_minimal_changes_more"]]
    return {
        "rows": rows,
        "comparisons": comparisons,
        "exceptions": exceptions,
        "total_entries": len(comparisons),
    }
