"""Textual DSL for belief bases and scenario files, plus a JSON mirror.

Grammar (whitespace-insensitive, `//` comments to end of line):

    base      := { statement }
    statement := [ label ":" ] ( fact | rule ) "."
    fact      := literal
    rule      := literal { "&" literal } "->" literal
    literal   := [ "!" ] atom
    atom      := ident [ "(" term { "," term } ")" ]
    ident     := [A-Za-z][A-Za-z0-9_]*

Identifiers are ASCII; any other character is a parse error at its position.
In argument position an uppercase-led identifier is a variable and a
lowercase-led one is a constant; any identifier may appear in functor position.

Scenario files share these tokens, in sections headed `[ ident? ]` alone on a line:

    [meta]          one `ident = value` per line; a value ends at a comment
    [statements]    one `ident: conditional|categorical: statement.` per line
    [fact]          a conjunction of ground literals, "."-terminated
    [explanation]   optional; base statements

Canonical rendering sorts facts before rules, each group lexicographically by
serialized form, so `parse(render(x))` equals `x` under canonical form.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from . import revision as _revision
from .errors import ParseError, ScenarioInvalid, SourceSpan
from .logic import (
    Atom,
    BeliefBase,
    Literal,
    Rule,
    Statement,
    Term,
    _SubsetSolver,
    collect_signature,
)

# --- tokenizer --------------------------------------------------------------

_PUNCT = {"!": "bang", "&": "amp", ".": "dot", ",": "comma", "(": "lparen",
          ")": "rparen", ":": "colon", "[": "lbrack", "]": "rbrack"}

# One alternative per lexical class, tried in order; a blank run matches no
# group, and any other character falls through to `bad`.  `ident` is
# `logic._IDENT`'s rule, so every identifier token is a valid `Term`/`Atom` name.
# A `value` is `=` and the rest of its line up to a comment, less trailing blanks.
_LEXEME = re.compile(r"(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<arrow>->)|(?P<punct>[!&.,():\[\]])"
                     r"|(?P<value>=(?:[ \t\r]*(?:[^\s/]|/(?!/)))*)"
                     r"|(?P<newline>\n+)|[ \t\r]+|(?P<comment>//[^\n]*)|(?P<bad>.)")

# (kind, text, line, column): kind is a `_LEXEME` group, a `_PUNCT` name or
# eof.  Spans are built only for errors (`_span`).
_Token = tuple[str, str, int, int]


def _span(tok: _Token) -> SourceSpan:
    return SourceSpan(tok[2], tok[3], len(tok[1]) or 1)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, start = 1, 0  # the current line's number and the index it starts at
    end = len(text)  # where end of input is reported: before a trailing comment
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, start, end = line + m.end() - m.start(), m.end(), len(text)
        elif kind == "comment":
            end = m.start()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}",
                             SourceSpan(line, m.start() - start + 1))
        else:
            word = m.group()
            tokens.append((_PUNCT[word] if kind == "punct" else kind, word, line,
                           m.start() - start + 1))
    tokens.append(("eof", "", line, end - start + 1))
    return tokens


# --- parser -----------------------------------------------------------------

class _Parser:
    """Recursive descent over tokens that end in eof; no parse reads past an eof it took."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[self.pos + offset]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind}, found {tok[1] or 'end of input'!r}",
                _span(tok),
                expected=(kind,),
            )
        self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def accept(self, kind: str) -> bool:
        """Take the next token if it is of `kind`, and say whether it was."""
        found = self.tokens[self.pos][0] == kind
        self.pos += found
        return found

    def parse_atom(self) -> Atom:
        name = self.take("ident")
        args: list[Term] = []
        if self.accept("lparen"):
            args.append(self.parse_term())
            while self.accept("comma"):
                args.append(self.parse_term())
            self.take("rparen")
        return Atom(name[1], tuple(args))

    def parse_term(self) -> Term:
        return Term(self.take("ident")[1])

    def parse_literal(self) -> Literal:
        negated = self.accept("bang")
        return Literal(self.parse_atom(), negated)

    def parse_statement_body(self) -> Literal | Rule:
        """One fact or rule, without label or terminating dot."""
        first = self.peek()
        literals = [self.parse_literal()]
        while self.accept("amp"):
            literals.append(self.parse_literal())
        if self.accept("arrow"):
            head = self.parse_literal()
            try:
                return Rule(tuple(literals), head)
            except ValueError as exc:
                raise ParseError(str(exc), _span(first)) from exc
        if len(literals) > 1:
            raise ParseError(
                "conjunction without '->': only rule bodies may use '&'",
                _span(self.peek()),
                expected=("arrow",),
            )
        fact = literals[0]
        if not fact.is_ground:
            raise ParseError(f"fact is not ground: {fact}", _span(first))
        return fact

    def parse_labeled_statement(self) -> tuple[str | None, Literal | Rule]:
        label = None
        if self.at("ident") and self.peek(1)[0] == "colon":
            label = self.take("ident")[1]
            self.take("colon")
        formula = self.parse_statement_body()
        self.take("dot")
        return label, formula

    def parse_base(self) -> BeliefBase:
        raw: list[tuple[str | None, Literal | Rule]] = []
        while not self.at("eof"):
            raw.append(self.parse_labeled_statement())
        return _label_statements(raw, self)

    def parse_conjunction(self) -> tuple[Literal, ...]:
        first = self.peek()
        literals = [self.parse_literal()]
        while self.accept("amp"):
            literals.append(self.parse_literal())
        self.accept("dot")
        self.take("eof")
        for lit in literals:
            if not lit.is_ground:
                raise ParseError(f"literal is not ground: {lit}", _span(first))
        return tuple(literals)


def _label_statements(raw: list[tuple[str | None, Literal | Rule]], parser: _Parser) -> BeliefBase:
    taken = {label for label, _ in raw if label is not None}
    stmts = []
    nf = nr = 0
    for label, formula in raw:
        if label is None:
            prefix = "r" if isinstance(formula, Rule) else "f"
            while True:
                if isinstance(formula, Rule):
                    nr += 1
                    label = f"{prefix}{nr}"
                else:
                    nf += 1
                    label = f"{prefix}{nf}"
                if label not in taken:
                    break
            taken.add(label)
        stmts.append(Statement(label, formula))
    try:
        base = BeliefBase(stmts)
    except ValueError as exc:
        raise ParseError(str(exc), _span(parser.peek())) from exc
    collect_signature([base])  # arity consistency within the text
    return base


def parse_base(text: str) -> BeliefBase:
    """Parse a belief base; unlabeled elements get f1, f2, ... / r1, r2, ..."""
    return _Parser(_tokenize(text)).parse_base()


def parse_literals(text: str) -> tuple[Literal, ...]:
    """Parse a conjunction of ground literals (an explanandum or scenario fact)."""
    return _Parser(_tokenize(text)).parse_conjunction()


# --- scenarios ---------------------------------------------------------------

VALID_TYPES = ("I", "II", "III")
SECTIONS = ("meta", "statements", "fact", "explanation")
STATEMENT_KINDS = ("conditional", "categorical")


@dataclass(frozen=True)
class ScenarioStatement:
    label: str
    kind: str  # conditional | categorical
    formula: Literal | Rule

    def statement(self) -> Statement:
        return Statement(self.label, self.formula)


@dataclass(frozen=True)
class Scenario:
    """One labeled inconsistency problem: statements, a conflicting fact, and
    optionally the canonical explanation resolving it."""

    id: str
    problem_type: str
    statements: tuple[ScenarioStatement, ...]
    fact: tuple[Literal, ...]
    explanation: BeliefBase | None = None

    def belief_base(self) -> BeliefBase:
        return BeliefBase(tuple(s.statement() for s in self.statements))

    def conditionals(self) -> tuple[ScenarioStatement, ...]:
        return tuple(s for s in self.statements if s.kind == "conditional")

    def categoricals(self) -> tuple[ScenarioStatement, ...]:
        return tuple(s for s in self.statements if s.kind == "categorical")


def _after(tok: _Token) -> _Token:
    """An eof token just past `tok`, on its line."""
    return ("eof", "", tok[2], tok[3] + len(tok[1]))


def _split_sections(tokens: list[_Token]) -> dict[str, list[_Token]]:
    """Each section's tokens keyed by its lowercased name, closed by an eof
    token just past its last token, or just past its header if it has none.

    A header is a `[` that is the first token on its line, an optional
    identifier and a `]`, with nothing after it on that line."""
    last = len(tokens) - 1  # the file's own eof token
    heads = [i for i in range(last)
             if tokens[i][0] == "lbrack" and (i == 0 or tokens[i - 1][2] < tokens[i][2])]
    if last and heads[:1] != [0]:
        raise ParseError("content before the first [section] header", _span(tokens[0]))
    sections: dict[str, list[_Token]] = {}
    for head, stop in zip(heads, heads[1:] + [last]):
        end = head + 1
        while end < stop and tokens[end][2] == tokens[head][2]:
            end += 1
        header = _Parser(tokens[head:end] + [_after(tokens[end - 1])])
        opening = header.take("lbrack")
        name = header.take("ident")[1].lower() if header.at("ident") else ""
        closing = header.take("rbrack")
        header.take("eof")
        span = SourceSpan(opening[2], opening[3], closing[3] + 1 - opening[3])
        if name not in SECTIONS:
            raise ParseError(f"unknown section [{name}]", span, expected=SECTIONS)
        if name in sections:
            raise ParseError(f"duplicate section [{name}]", span)
        sections[name] = tokens[end:stop] + [_after(tokens[stop - 1])]
    return sections


def _by_line(tokens: list[_Token]) -> list[_Token]:
    """A section's tokens with an eof token also just past each line, so that
    each line parses as one input and the section's own eof follows the last."""
    lined = tokens[:1]
    for tok in tokens[1:]:
        if tok[2] != lined[-1][2]:
            lined.append(_after(lined[-1]))
        lined.append(tok)
    return lined + lined[-1:]


def _parse_scenario_statement(lines: _Parser) -> ScenarioStatement:
    label = lines.take("ident")[1]
    lines.take("colon")
    kind = lines.take("ident")
    if kind[1] not in STATEMENT_KINDS:
        raise ParseError(f"unknown statement kind {kind[1]!r}", _span(kind), expected=STATEMENT_KINDS)
    lines.take("colon")
    formula = lines.parse_statement_body()
    lines.take("dot")
    lines.take("eof")
    if kind[1] == "conditional" and not isinstance(formula, Rule):
        raise ScenarioInvalid("conditional-statement-form", f"{label} is not a rule")
    if kind[1] == "categorical" and isinstance(formula, Rule):
        raise ScenarioInvalid("categorical-statement-form", f"{label} is not a ground fact")
    return ScenarioStatement(label, kind[1], formula)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioInvalid naming the
    violated invariant when the content is syntactically fine but ill-formed."""
    sections = _split_sections(_tokenize(text))
    for required in ("meta", "statements", "fact"):
        if required not in sections:
            raise ParseError(f"missing required section [{required}]", SourceSpan(1, 1))
    meta, lines = {}, _Parser(_by_line(sections["meta"]))
    while not lines.at("eof"):
        key = lines.take("ident")[1]
        meta[key] = lines.take("value")[1][1:].strip()
        lines.take("eof")
    sid = meta.get("id", "")
    ptype = meta.get("type", "")
    if not sid:
        raise ScenarioInvalid("meta-id", "missing id")
    if ptype not in VALID_TYPES:
        raise ScenarioInvalid("meta-type", f"type must be one of {VALID_TYPES}, got {ptype!r}")

    statements, lines = [], _Parser(_by_line(sections["statements"]))
    while not lines.at("eof"):
        statements.append(_parse_scenario_statement(lines))
    fact = _Parser(sections["fact"]).parse_conjunction()
    explanation = None
    if "explanation" in sections:
        explanation = _Parser(sections["explanation"]).parse_base()

    scenario = Scenario(sid, ptype, tuple(statements), fact, explanation)
    _check_scenario_invariants(scenario)
    return scenario


def _check_scenario_invariants(sc: Scenario) -> None:
    try:
        base = sc.belief_base()
    except ValueError as exc:
        raise ScenarioInvalid("statement-wellformedness", str(exc)) from exc
    n_cond = len(sc.conditionals())
    n_cat = len(sc.categoricals())
    expected = {"I": (1, 1), "II": (2, 1), "III": (2, 1)}[sc.problem_type]
    if (n_cond, n_cat) != expected:
        raise ScenarioInvalid(
            "statement-counts",
            f"type {sc.problem_type} needs {expected[0]} conditional(s) and "
            f"{expected[1]} categorical, got {n_cond} and {n_cat}",
        )
    want_literals = 2 if sc.problem_type == "III" else 1
    if sc.problem_type == "III":
        if len(sc.fact) < want_literals:
            raise ScenarioInvalid("fact-size", "type III facts carry at least 2 literals")
    elif len(sc.fact) != want_literals:
        raise ScenarioInvalid("fact-size", f"type {sc.problem_type} facts carry exactly 1 literal")

    checks = _SubsetSolver((*base.formulas, *sc.fact), collect_signature([base, sc.fact]), ())
    if checks.satisfiable((1 << len(checks.formulas)) - 1, False):
        raise ScenarioInvalid("fact-consistent-with-statements",
                              "the fact must conflict with what the statements imply")


# --- rendering ----------------------------------------------------------------

def _sorted_statements(base: BeliefBase) -> list[Statement]:
    facts = sorted(base.facts, key=Statement.canonical)
    rules = sorted(base.rules, key=Statement.canonical)
    return facts + rules


def _base_text(base: BeliefBase) -> str:
    return "\n".join(f"{st.formula}." for st in _sorted_statements(base))


def _literal_json(lit: Literal) -> dict[str, Any]:
    return {
        "predicate": lit.atom.predicate,
        "args": [t.name for t in lit.atom.args],
        "negated": lit.negated,
    }


def _base_json(base: BeliefBase) -> dict[str, Any]:
    facts = []
    rules = []
    for st in _sorted_statements(base):
        if isinstance(st.formula, Rule):
            rules.append({
                "label": st.label,
                "body": [_literal_json(l) for l in st.formula.body],
                "head": _literal_json(st.formula.head),
            })
        else:
            facts.append({"label": st.label, **_literal_json(st.formula)})
    return {"facts": facts, "rules": rules}


def _scenario_text(sc: Scenario) -> str:
    lines = ["[meta]", f"id = {sc.id}", f"type = {sc.problem_type}", "", "[statements]"]
    lines += [f"{s.label}: {s.kind}: {s.formula}." for s in sc.statements]
    lines += ["", "[fact]", " & ".join(str(l) for l in sc.fact) + "."]
    if sc.explanation is not None:
        lines += ["", "[explanation]"]
        lines += [f"{st.formula}." for st in _sorted_statements(sc.explanation)]
    return "\n".join(lines)


def _scenario_json(sc: Scenario) -> dict[str, Any]:
    return {
        "id": sc.id,
        "type": sc.problem_type,
        "statements": [
            {"label": s.label, "kind": s.kind, "formula": str(s.formula)}
            for s in sc.statements
        ],
        "fact": [_literal_json(l) for l in sc.fact],
        "explanation": None if sc.explanation is None else _base_json(sc.explanation),
    }


def _measure_json(measure: Any) -> dict[str, Any] | None:
    if measure is None:
        return None
    return {
        "numerator": measure.numerator,
        "denominator": measure.denominator,
        "value": float(round(Fraction(measure.value), 3)),
    }


def _result_json(result: "_revision.RevisionResult") -> dict[str, Any]:
    return {
        "revised": _base_json(result.revised),
        "retracted": [
            {
                "labels": [f"{origin}.{label}" for origin, label in element.sources],
                "formula": str(element.formula),
            }
            for element in result.retracted.elements
        ],
        "strategy": result.strategy,
        "seed": result.seed,
        "entails_explanandum": result.entails_explanandum,
        "postulates": dict(result.postulates) if result.postulates is not None else None,
        "change_measure": _measure_json(result.change_measure),
    }


def _result_text(result: "_revision.RevisionResult") -> str:
    lines = ["revised:"]
    body = _base_text(result.revised)
    lines += [f"  {ln}" for ln in body.splitlines()] if body else ["  (empty)"]
    lines.append("retracted:")
    if result.retracted.elements:
        for element in result.retracted.elements:
            labels = "+".join(f"{o}.{l}" for o, l in element.sources)
            lines.append(f"  - {labels}: {element.formula}")
    else:
        lines.append("  (none)")
    lines.append(f"strategy: {result.strategy}")
    if result.seed is not None:
        lines.append(f"seed: {result.seed}")
    if result.entails_explanandum is not None:
        lines.append(f"entails explanandum: {str(result.entails_explanandum).lower()}")
    if result.postulates is not None:
        held = ", ".join(f"{name}={str(ok).lower()}" for name, ok in result.postulates)
        lines.append(f"postulates: {held}")
    if result.change_measure is not None:
        m = result.change_measure
        lines.append(f"change measure: {m.numerator}/{m.denominator} = {m.decimal}")
    return "\n".join(lines)


def render(entity: Any, format: str = "canonical-text") -> str:
    """Serialize a BeliefBase, Scenario, or RevisionResult.

    `canonical-text` for bases and scenarios is re-parseable and a fixed point
    of parse-then-render; `json` follows the documented stable schema.
    """
    if format not in ("canonical-text", "json"):
        raise ValueError(f"unknown format {format!r}")
    if isinstance(entity, BeliefBase):
        return _base_text(entity) if format == "canonical-text" else json.dumps(_base_json(entity), indent=2)
    if isinstance(entity, Scenario):
        return _scenario_text(entity) if format == "canonical-text" else json.dumps(_scenario_json(entity), indent=2)
    if isinstance(entity, _revision.RevisionResult):
        return _result_text(entity) if format == "canonical-text" else json.dumps(_result_json(entity), indent=2)
    raise TypeError(f"cannot render {type(entity).__name__}")
