"""revisekit: explanation-guided belief revision over ground-able belief bases.

The library revises a belief base with an explanation for a new fact, keeping
the fact entailed while restoring consistency; a minimality-driven baseline
operator, a belief-change measure, postulate checkers, and a scenario corpus
round out the toolkit.
"""

from .errors import (
    ArityMismatch,
    CapExceeded,
    EmptyUniverse,
    GenerationFailed,
    InconsistentBase,
    InvalidExplanation,
    NoCandidates,
    NonDeterministicStrategy,
    ParseError,
    RevisekitError,
    ScenarioInvalid,
    SourceSpan,
    UnknownLabel,
)
from .logic import (
    DEFAULT_CAP,
    Atom,
    BeliefBase,
    GroundBeliefBase,
    Interpretation,
    Literal,
    Rule,
    Signature,
    Statement,
    Term,
    collect_signature,
    consequences,
    entails,
    enumerate_models,
    ground,
    is_consistent,
)
from .dsl import Scenario, ScenarioStatement, parse_base, parse_literals, parse_scenario, render
from .revision import (
    CorrectionSet,
    Explanandum,
    ExplanationReport,
    RevisionResult,
    SelectionStrategy,
    UnionElement,
    admissible_selections,
    correction_kernel,
    revise,
    select,
    union_elements,
    validate_explanation,
)
from .falappa import IncisionPolicy, KernelSet, incise, is_valid_incision, kernel_set, revise_falappa
from .metrics import (
    ChangeMeasure,
    RevisionClassification,
    change_measure,
    classify_revision,
    statement_changes,
)
from .postulates import (
    GeneratorParams,
    PostulateReport,
    SuiteReport,
    check_postulates,
    check_propositions,
    check_reversion,
    random_instance,
)
from .corpus import CorpusEntry, corpus_entries, corpus_report, pattern_revision

__version__ = "0.1.0"
