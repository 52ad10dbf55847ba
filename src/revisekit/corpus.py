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
correction set.  A pattern tests only its own candidates, by the predicate
`admissible` applies, so no admissible pool is listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations
from typing import Any

from .dsl import Scenario, parse_scenario
from .errors import NoCandidates
from .logic import DEFAULT_CAP, BeliefBase, Literal, Signature, collect_signature
from .metrics import _consequences, _measure, classify_revision, statement_changes
from .revision import (
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


def corpus_entries(experiment: int | None = None) -> tuple[CorpusEntry, ...]:
    """All embedded scenarios, optionally restricted to one experiment."""
    entries = []
    # one directory listing per call: a namespace package's joinpath lists it each time
    files = {path.name: path for path in resources.files("revisekit.corpus_data").iterdir()}
    for experiment_no, ids in ((1, EXPERIMENT_1_IDS), (2, EXPERIMENT_2_IDS)):
        if experiment is not None and experiment != experiment_no:
            continue
        for index, sid in enumerate(ids, start=1):
            filename = sid.replace("-", "_") + ".scn"
            scenario = parse_scenario(files[filename].read_text(encoding="utf-8"))
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


def _pattern_revision(ctx: _UnionContext, entry: CorpusEntry, pattern: str) -> RevisionResult:
    """Retract the pattern's first admissible candidate in the canonical order
    of `admissible`: exactly the categoricals (`minimal`), or all-conditional
    sets by size then index (`non-minimal`).  A candidate passes as it would
    there: the union is inconsistent, the removal is nonempty and leaves a
    nonempty remainder, which is consistent and entails the explanandum."""
    scenario = entry.scenario
    if pattern not in ("minimal", "non-minimal"):
        raise ValueError(f"unknown pattern {pattern!r}")
    statements = scenario.categoricals() if pattern == "minimal" else scenario.conditionals()
    forms = {str(s.formula) for s in statements}
    allowed = [i for i, el in enumerate(ctx.elements) if el.canonical() in forms]
    everything = (1 << len(ctx.elements)) - 1
    for size in [len(allowed)] if pattern == "minimal" else range(1, len(allowed) + 1):
        for indices in combinations(allowed, size):
            remainder = everything ^ sum(1 << i for i in indices)
            if (indices and remainder and not ctx.consistent(everything)
                    and ctx.consistent(remainder) and ctx.entails_phi(remainder)):
                return _retract(ctx, ctx.correction_set(indices), "interactive")
    raise NoCandidates(f"the {pattern} pattern is not admissible for {scenario.id}")


def pattern_revision(entry: CorpusEntry, pattern: str,
                     cap: int = DEFAULT_CAP) -> RevisionResult:
    """Replay an entry with a reference retraction pattern, on its own
    validated context, testing only the pattern's candidates."""
    return _pattern_revision(_validated_context(*scenario_inputs(entry), cap), entry, pattern)


def _row(entry: CorpusEntry, run: str, result: RevisionResult, base: BeliefBase,
         ctx: _UnionContext, priors: dict[Signature, frozenset[Literal]]) -> dict[str, Any]:
    """One report row; `priors` holds the base's consequence sets by signature."""
    classification = classify_revision(entry.scenario, result)
    sig = collect_signature([base, result.revised])
    if (before := priors.get(sig)) is None:
        before = priors[sig] = _consequences(ctx.subsets, base, sig)
    return {
        "id": entry.scenario.id,
        "type": entry.scenario.problem_type,
        "run": run,
        "retracted": sorted(result.retracted.canonical_forms()),
        "classification": classification.label,
        "statement_changes": statement_changes(base, result),
        "change_measure": _measure(before, _consequences(ctx.subsets, result.revised, sig)),
        "entails_explanandum": bool(result.entails_explanandum),
    }


def corpus_report(experiment: int | None = None,
                  strategy: SelectionStrategy | None = None,
                  cap: int = DEFAULT_CAP) -> dict[str, Any]:
    """Replay the corpus; returns rows plus the measure comparison per entry.

    Each entry contributes a `minimal` and a `non-minimal` pattern row; second-
    experiment entries additionally contribute one strategy-selected guided
    run.  All runs of an entry select from one validated context, so they
    share its grounding and memoized SAT checks; the patterns test only their
    own candidates.  The rows read the consequence sets of the prior base,
    once per signature, and of each revised base off the context's solver.
    The comparison records, with exact rationals, whether the non-minimal
    revision changed more than the minimal one; entries where it did not are
    collected under `exceptions` rather than assumed away.
    """
    if strategy is None:
        strategy = SelectionStrategy("protect-explanation")
    rows: list[dict[str, Any]] = []
    comparisons: list[dict[str, Any]] = []
    for entry in corpus_entries(experiment):
        base, explanation, phi = scenario_inputs(entry)
        ctx = _validated_context(base, explanation, phi, cap)
        priors: dict[Signature, frozenset[Literal]] = {}
        if entry.experiment == 2:
            rows.append(_row(entry, f"strategy:{strategy.kind}", _revise(ctx, strategy),
                             base, ctx, priors))
        min_row, nonmin_row = [_row(entry, f"pattern:{p}", _pattern_revision(ctx, entry, p),
                                    base, ctx, priors) for p in ("minimal", "non-minimal")]
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
