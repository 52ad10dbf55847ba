"""Command-line surface.

Commands:
    check    parse and validate a base or scenario file
    revise   revise a base with an explanation (guided or baseline operator)
    kernels  list correction sets (default) or minimal unsatisfiable subsets
    corpus   replay the embedded scenario corpus
    suite    run the seeded postulate suite

Exit codes: 0 success, 1 suite violations or unexpected failure, 2 parse
error, 3 invariant violation, 4 invalid explanation, 5 cap exceeded.
The ground-size cap defaults to 24 and can be set per call with --max-ground
or globally with the REVISEKIT_MAX_GROUND environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import corpus as corpus_mod
from . import dsl, falappa, metrics, postulates
from .errors import (
    ArityMismatch,
    CapExceeded,
    EmptyUniverse,
    InconsistentBase,
    InvalidExplanation,
    ParseError,
    RevisekitError,
    ScenarioInvalid,
)
from .logic import DEFAULT_CAP
from .revision import (
    STRATEGY_KINDS,
    CorrectionSet,
    Explanandum,
    SelectionStrategy,
    correction_kernel,
    revise,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_INVALID_EXPLANATION = 4
EXIT_CAP = 5

GUIDED_STRATEGIES = tuple(k for k in STRATEGY_KINDS if k != "interactive")
FALAPPA_STRATEGIES = falappa.INCISION_KINDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revisekit",
        description="Explanation-guided belief revision over a small logic DSL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-ground", type=int, default=None,
                       help=f"ground-size cap (default {DEFAULT_CAP}; "
                            "env REVISEKIT_MAX_GROUND)")
        p.add_argument("--seed", type=int, default=None)

    p_check = sub.add_parser("check", help="parse and validate a base or scenario file")
    p_check.add_argument("path", type=Path)
    common(p_check)

    p_revise = sub.add_parser("revise", help="revise a base with an explanation")
    p_revise.add_argument("base", type=Path)
    p_revise.add_argument("explanation", type=Path)
    p_revise.add_argument("explanandum", help="conjunction of ground literals, e.g. '!Ins(charlie)'")
    p_revise.add_argument("--operator", choices=("guided", "falappa"), default="guided")
    p_revise.add_argument("--strategy", default=None,
                          help=f"guided: {', '.join(GUIDED_STRATEGIES)}; "
                               f"falappa: {', '.join(FALAPPA_STRATEGIES)}")
    p_revise.add_argument("--weights", default=None,
                          help="JSON object mapping canonical formulas to weights")
    p_revise.add_argument("--interactive", action="store_true",
                          help="pick the correction set from a numbered menu")
    common(p_revise)

    p_kernels = sub.add_parser("kernels", help="list correction sets or MUSes")
    p_kernels.add_argument("base", type=Path)
    p_kernels.add_argument("explanation", type=Path)
    p_kernels.add_argument("--muses", action="store_true",
                           help="list minimal unsatisfiable subsets instead")
    common(p_kernels)

    p_corpus = sub.add_parser("corpus", help="replay the embedded scenario corpus")
    p_corpus.add_argument("--experiment", type=int, choices=(1, 2), default=None)
    p_corpus.add_argument("--strategy", default="protect-explanation",
                          choices=GUIDED_STRATEGIES)
    common(p_corpus)

    p_suite = sub.add_parser("suite", help="run the seeded postulate suite")
    p_suite.add_argument("--trials", type=int, default=1000)
    p_suite.add_argument("--operator", choices=("guided", "falappa"), default="guided")
    p_suite.add_argument("--predicates", type=int, default=3)
    p_suite.add_argument("--constants", type=int, default=2)
    p_suite.add_argument("--max-arity", type=int, default=1)
    p_suite.add_argument("--fact-probability", type=float, default=0.45)
    p_suite.add_argument("--rules", type=int, default=2)
    p_suite.add_argument("--body-length", type=int, default=2)
    common(p_suite)

    return parser


def _cap(args: argparse.Namespace) -> int:
    env = os.environ.get("REVISEKIT_MAX_GROUND")
    cap = args.max_ground if args.max_ground is not None else (
        int(env) if env is not None else DEFAULT_CAP)
    if cap < 0:
        raise ValueError(f"the ground cap must not be negative, got {cap}")
    return cap


def _read(path: Path) -> str:
    """The file's text with its line ends as written: the DSL ends lines at
    `\n` only and reads `\r` as a blank, so no newline is translated."""
    with open(path, encoding="utf-8", newline="") as f:
        return f.read()


def cmd_check(args: argparse.Namespace) -> int:
    text = _read(args.path)
    if dsl._tokenize(text)[0][0] == "lbrack":  # a scenario opens with a section header
        scenario = dsl.parse_scenario(text)
        if args.format == "json":
            print(json.dumps({"kind": "scenario", "valid": True, "id": scenario.id,
                              "type": scenario.problem_type}, indent=2))
        else:
            print(f"ok: scenario {scenario.id} (type {scenario.problem_type})")
    else:
        base = dsl.parse_base(text)
        if args.format == "json":
            print(json.dumps({"kind": "base", "valid": True,
                              "statements": len(base.statements)}, indent=2))
        else:
            print(f"ok: base with {len(base.statements)} statement(s)")
    return EXIT_OK


def _menu_chooser(pool: Sequence[CorrectionSet]) -> int:
    print("admissible correction sets:")
    for i, cs in enumerate(pool, start=1):
        print(f"  {i}) {cs}")
    while True:
        try:
            raw = input(f"select [1-{len(pool)}]: ").strip()
        except EOFError:
            raise RevisekitError("input ended before a correction set was selected") from None
        if raw.isdigit() and 1 <= int(raw) <= len(pool):
            return int(raw) - 1
        print(f"enter a number between 1 and {len(pool)}")


def _guided_strategy(args: argparse.Namespace) -> SelectionStrategy:
    if args.interactive:
        return SelectionStrategy("interactive", chooser=_menu_chooser)
    kind = args.strategy or "min-cardinality"
    if kind not in GUIDED_STRATEGIES:
        raise ValueError(f"unknown guided strategy {kind!r}")
    try:
        weights = json.loads(args.weights) if args.weights else None
    except RecursionError:
        raise ValueError("--weights JSON is nested too deeply") from None
    if weights and not (isinstance(weights, dict) and all(
            isinstance(w, (int, float)) for w in weights.values())):
        raise ValueError("--weights must be a JSON object mapping formulas to numbers")
    return SelectionStrategy.named(kind, seed=args.seed, weights=weights)


def cmd_revise(args: argparse.Namespace) -> int:
    cap = _cap(args)
    base = dsl.parse_base(_read(args.base))
    explanation = dsl.parse_base(_read(args.explanation))
    phi = Explanandum(dsl.parse_literals(args.explanandum))

    if args.operator == "falappa":
        kind = args.strategy or "min-hitting-set"
        if kind not in FALAPPA_STRATEGIES:
            raise ValueError(f"unknown incision policy {kind!r}")
        result = falappa.revise_falappa(base, explanation,
                                        falappa.IncisionPolicy(kind, seed=args.seed), cap)
    else:
        # in JSON mode an interactive menu and its prompts go to stderr, so stdout parses
        with redirect_stdout(sys.stderr) if args.format == "json" else nullcontext():
            result = revise(base, explanation, phi, _guided_strategy(args), cap)

    report = postulates.check_postulates(base, explanation, phi, result)
    if args.operator == "falappa":
        result = replace(result, explanandum=phi,
                         entails_explanandum=report.holds("strong-acceptance"))
    try:
        measure = metrics.change_measure(base, result.revised)
    except InconsistentBase:
        measure = None
    result = replace(result, postulates=report.results, change_measure=measure)
    print(dsl.render(result, "json" if args.format == "json" else "canonical-text"))
    return EXIT_OK


def cmd_kernels(args: argparse.Namespace) -> int:
    cap = _cap(args)
    base = dsl.parse_base(_read(args.base))
    explanation = dsl.parse_base(_read(args.explanation))
    if args.muses:
        sets = [sorted(el.canonical() for el in kernel)
                for kernel in falappa.kernel_set(base, explanation, cap)]
        key = "muses"
    else:
        sets = [[el.canonical() for el in cs]
                for cs in correction_kernel(base, explanation, cap)]
        key = "correction_sets"
    if args.format == "json":
        print(json.dumps({key: sets}, indent=2))
    else:
        for forms in sets:
            print("{" + ", ".join(forms) + "}")
    return EXIT_OK


def _fraction_json(value: Fraction) -> dict[str, Any]:
    return {"fraction": f"{value.numerator}/{value.denominator}",
            "decimal": float(round(value, 3))}


def cmd_corpus(args: argparse.Namespace) -> int:
    cap = _cap(args)
    strategy = SelectionStrategy.named(args.strategy, seed=args.seed)
    report = corpus_mod.corpus_report(args.experiment, strategy, cap)
    if args.format == "json":
        payload = {
            "rows": [{**row, "change_measure": dsl._measure_json(row["change_measure"])}
                     for row in report["rows"]],
            "comparisons": [
                {"id": c["id"], "experiment": c["experiment"],
                 "d_minimal": _fraction_json(c["d_minimal"]),
                 "d_non_minimal": _fraction_json(c["d_non_minimal"]),
                 "non_minimal_changes_more": c["non_minimal_changes_more"]}
                for c in report["comparisons"]
            ],
            "exceptions": [c["id"] for c in report["exceptions"]],
            "total_entries": report["total_entries"],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK

    header = f"{'id':<10} {'type':<5} {'run':<29} {'class':<13} {'changes':<8} {'measure':<16} entails"
    print(header)
    print("-" * len(header))
    for row in report["rows"]:
        m = row["change_measure"]
        print(f"{row['id']:<10} {row['type']:<5} {row['run']:<29} "
              f"{row['classification']:<13} {row['statement_changes']:<8} "
              f"{str(m):<16} {str(row['entails_explanandum']).lower()}")
    print()
    for c in report["comparisons"]:
        verdict = ">" if c["non_minimal_changes_more"] else "<="
        print(f"{c['id']}: D(non-minimal) = {c['d_non_minimal']} {verdict} "
              f"D(minimal) = {c['d_minimal']}")
    if report["exceptions"]:
        ids = ", ".join(c["id"] for c in report["exceptions"])
        print(f"exceptions (non-minimal did not change more): {ids}")
    print()
    counts: dict[str, int] = {}
    for row in report["rows"]:
        counts[row["classification"]] = counts.get(row["classification"], 0) + 1
    verified = sum(1 for c in report["comparisons"] if c["non_minimal_changes_more"])
    summary = ", ".join(f"{label}: {n}" for label, n in sorted(counts.items()))
    print(f"aggregate: {report['total_entries']} entries, {len(report['rows'])} runs "
          f"({summary}); measure comparisons: {verified} verified, "
          f"{len(report['exceptions'])} exceptions")
    return EXIT_OK


def cmd_suite(args: argparse.Namespace) -> int:
    cap = _cap(args)
    params = postulates.GeneratorParams(
        predicate_count=args.predicates,
        max_arity=args.max_arity,
        constant_count=args.constants,
        fact_probability=args.fact_probability,
        rule_count=args.rules,
        body_length=args.body_length,
        seed=args.seed if args.seed is not None else 0,
    )
    report = postulates.check_propositions(params, args.trials, args.operator, cap)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(f"trials: {report.trials} (operator: {report.operator})")
        print(f"inconsistent unions: {report.inconsistent_unions}")
        print(f"failures: {len(report.failures)}")
        for failure in report.failures:
            print(f"  {failure.postulate} @ seed {failure.seed}: {failure.witness}")
        print(f"baseline strong-acceptance violations (informational): "
              f"{len(report.baseline_violations)}")
    if args.operator == "guided" and not report.ok:
        return EXIT_FAILURE
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "revise": cmd_revise,
    "kernels": cmd_kernels,
    "corpus": cmd_corpus,
    "suite": cmd_suite,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error at {exc.span}: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    except (ScenarioInvalid, ArityMismatch, EmptyUniverse) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except InvalidExplanation as exc:
        print(f"invalid explanation: {exc.report.summary()}", file=sys.stderr)
        return EXIT_INVALID_EXPLANATION
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (RevisekitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (RecursionError, MemoryError) as exc:  # input too deep or too large to process
        print(f"error: {type(exc).__name__} {exc}".rstrip(), file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
