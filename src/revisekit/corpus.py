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
    _retract,
    _revise,
    _UnionContext,
    _validated_context,
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


def _pattern_revision(ctx: _UnionContext, pool: Sequence[CorrectionSet], entry: CorpusEntry,
                      pattern: str) -> RevisionResult:
    """Retract the admissible pool's first match; a consistent union's pool is empty."""
    scenario = entry.scenario
    if pattern == "minimal":
        matches = frozenset(str(s.formula) for s in scenario.categoricals()).__eq__
    elif pattern == "non-minimal":  # the pool is in sort_key order: the first match is smallest
        matches = frozenset(str(s.formula) for s in scenario.conditionals()).issuperset
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    for cs in pool:
        if matches(cs.canonical_forms()):
            return _retract(ctx, cs, "interactive")
    raise NoCandidates(f"the {pattern} pattern is not admissible for {scenario.id}")


def pattern_revision(entry: CorpusEntry, pattern: str,
                     cap: int = DEFAULT_CAP) -> RevisionResult:
    """Replay an entry with a reference retraction pattern, on its own validated context."""
    ctx = _validated_context(*scenario_inputs(entry), cap)
    return _pattern_revision(ctx, list(ctx.admissible()), entry, pattern)


def _row(entry: CorpusEntry, run: str, result: RevisionResult) -> dict[str, Any]:
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
    run.  All runs of an entry select from one validated context, so they
    share its grounding and memoized SAT checks.  The comparison records, with
    exact rationals, whether the non-minimal revision changed more than the
    minimal one; entries where it did not are collected under `exceptions`
    rather than assumed away.
    """
    if strategy is None:
        strategy = SelectionStrategy("protect-explanation")
    rows: list[dict[str, Any]] = []
    comparisons: list[dict[str, Any]] = []
    for entry in corpus_entries(experiment):
        ctx = _validated_context(*scenario_inputs(entry), cap)
        if entry.experiment == 2:
            rows.append(_row(entry, f"strategy:{strategy.kind}", _revise(ctx, strategy)))
        pool = list(ctx.admissible())
        min_row, nonmin_row = [_row(entry, f"pattern:{p}", _pattern_revision(ctx, pool, entry, p))
                               for p in ("minimal", "non-minimal")]
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
