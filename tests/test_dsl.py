import json
import random
import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from revisekit import (
    ArityMismatch,
    dsl,
    Atom,
    BeliefBase,
    Literal,
    ParseError,
    Rule,
    ScenarioInvalid,
    Term,
    parse_base,
    parse_literals,
    parse_scenario,
    render,
)
from revisekit.errors import RevisekitError, SourceSpan

SCENARIO_OK = """
// worked Type II instance
[meta]
id = demo-1
type = II

[statements]
S1: conditional: Worried(X) -> DifficultConcentrate(X).
S2: conditional: Worried(X) -> Insomnia(X).
S3: categorical: Worried(alice).

[fact]
!DifficultConcentrate(alice).

[explanation]
CopingStrategies(alice).
CopingStrategies(X) -> !DifficultConcentrate(X).
"""


class TestParseBase:
    def test_alice_base(self):
        base = parse_base("Wor(charlie). Wor(diana). Wor(X) -> Ins(X).")
        assert len(base.facts) == 2
        assert len(base.rules) == 1
        assert [st.label for st in base.statements] == ["f1", "f2", "r1"]

    def test_empty(self):
        assert parse_base("") == BeliefBase()

    def test_negated_head_two_literal_body(self):
        base = parse_base("Wor(X) & Cop(X) -> !Ins(X).")
        (rule,) = base.rules
        assert isinstance(rule.formula, Rule)
        assert len(rule.formula.body) == 2
        assert rule.formula.head.negated

    def test_explicit_labels(self):
        base = parse_base("k1: Wor(charlie). Wor(X) -> Ins(X).")
        assert [st.label for st in base.statements] == ["k1", "r1"]

    def test_auto_labels_skip_taken(self):
        base = parse_base("f1: Wor(charlie). Wor(diana).")
        assert [st.label for st in base.statements] == ["f1", "f2"]

    def test_zero_arity_atoms(self):
        base = parse_base("raining. raining -> wet.")
        assert len(base.facts) == 1
        assert str(base.rules[0].formula) == "raining -> wet"

    def test_comments(self):
        base = parse_base("// prior beliefs\nWor(charlie). // trusted\n")
        assert len(base) == 1

    def test_parse_error_has_span(self):
        with pytest.raises(ParseError) as err:
            parse_base("Wor(charlie)")  # missing dot
        assert err.value.span.line == 1
        assert err.value.span.column == 13
        assert "dot" in err.value.expected

    def test_error_span_on_later_line(self):
        with pytest.raises(ParseError) as err:
            parse_base("Wor(charlie).\nIns() .")
        assert err.value.span.line == 2

    def test_non_ground_fact(self):
        with pytest.raises(ParseError):
            parse_base("Wor(X).")

    def test_range_restriction(self):
        with pytest.raises(ParseError):
            parse_base("Wor(X) -> Ins(Y).")

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse_base("Wor(charlie). Wor(charlie, diana).")

    def test_duplicate_formula(self):
        with pytest.raises(ParseError):
            parse_base("Wor(charlie). Wor(charlie).")

    def test_conjunction_without_arrow(self):
        with pytest.raises(ParseError):
            parse_base("Wor(charlie) & Cop(charlie).")


class TestParseLiterals:
    def test_single(self):
        (l,) = parse_literals("!Ins(charlie)")
        assert l.negated and l.atom.predicate == "Ins"

    def test_conjunction(self):
        lits = parse_literals("!HandsShake(patrick) & !Butterflies(patrick).")
        assert len(lits) == 2

    def test_non_ground(self):
        with pytest.raises(ParseError):
            parse_literals("Ins(X)")


class TestParseScenario:
    def test_valid_type_ii(self):
        sc = parse_scenario(SCENARIO_OK)
        assert sc.id == "demo-1"
        assert sc.problem_type == "II"
        assert [s.kind for s in sc.statements] == ["conditional", "conditional", "categorical"]
        assert str(sc.fact[0]) == "!DifficultConcentrate(alice)"
        assert sc.explanation is not None and len(sc.explanation) == 2

    def test_fact_consistent_is_rejected(self):
        bad = SCENARIO_OK.replace("!DifficultConcentrate(alice).", "Insomnia(alice).")
        with pytest.raises(ScenarioInvalid) as err:
            parse_scenario(bad)
        assert err.value.invariant == "fact-consistent-with-statements"

    def test_statement_count_mismatch(self):
        bad = SCENARIO_OK.replace("type = II", "type = I")
        with pytest.raises(ScenarioInvalid) as err:
            parse_scenario(bad)
        assert err.value.invariant == "statement-counts"

    def test_kind_form_agreement(self):
        bad = SCENARIO_OK.replace("S3: categorical: Worried(alice).",
                                  "S3: categorical: Worried(X) -> Insomnia(X).")
        with pytest.raises(ScenarioInvalid) as err:
            parse_scenario(bad)
        assert err.value.invariant == "categorical-statement-form"

    def test_type_iii_needs_two_literals(self):
        bad = SCENARIO_OK.replace("type = II", "type = III")
        with pytest.raises(ScenarioInvalid) as err:
            parse_scenario(bad)
        assert err.value.invariant == "fact-size"

    def test_missing_section(self):
        with pytest.raises(ParseError):
            parse_scenario("[meta]\nid = x\ntype = I\n")

    def test_unknown_kind(self):
        bad = SCENARIO_OK.replace("S3: categorical:", "S3: axiom:")
        with pytest.raises(ParseError):
            parse_scenario(bad)

    def test_crlf_lines(self):
        # \r is a blank, so a CRLF file parses, and fails, as its LF twin does
        assert parse_scenario(SCENARIO_OK.replace("\n", "\r\n")) == parse_scenario(SCENARIO_OK)
        bad = SCENARIO_OK.replace("Worried(alice).", "Worried(alice)$.")
        spans = []
        for text in (bad, bad.replace("\n", "\r\n")):
            with pytest.raises(ParseError) as err:
                parse_scenario(text)
            spans.append(err.value.span)
        assert spans[0] == spans[1] == SourceSpan(10, 32)  # the file position of '$'

    @pytest.mark.parametrize("line", ["\fCopingStrategies(alice).", "CopingStrategies(alice).\f"])
    def test_form_feed_fails_as_in_parse_base(self, line):
        # a scenario line is stripped of the tokenizer's blanks (space, tab,
        # CR) only, so a form feed at either end of an [explanation] line
        # fails at the file position of the same error in parse_base
        with pytest.raises(ParseError) as base_err:
            parse_base(line)
        with pytest.raises(ParseError) as scenario_err:
            parse_scenario(SCENARIO_OK.replace("CopingStrategies(alice).", line, 1))
        assert base_err.value.span.line == 1
        assert base_err.value.message == scenario_err.value.message == "unexpected character '\\x0c'"
        assert scenario_err.value.span == SourceSpan(16, base_err.value.span.column)
        assert scenario_err.value.span.column == (1 if line[0] == "\f" else len(line))


    @pytest.mark.parametrize("old, new, line, column", [
        # a statement's body, label and kind
        ("S1: conditional: W", "S1: conditional: \fW", 8, 18),
        ("S1: conditional:", "\fS1: conditional:", 8, 1),
        ("S1: conditional:", "S1: conditional\f:", 8, 16),
        # a [meta] key or value
        ("id = demo-1", "\fid = demo-1", 4, 1),
        ("id = demo-1", "id = demo-1\f", 4, 12),
        ("type = II", "type = \fII", 5, 8),
        # a line of a form feed alone, in [meta] and in [fact]
        ("type = II\n\n", "type = II\n\f\n", 6, 1),
        ("[fact]\n", "[fact]\n\f\n", 13, 1),
    ])
    def test_form_feed_is_no_blank_in_any_section(self, old, new, line, column):
        # every part of a scenario line is stripped of the tokenizer's blanks
        # only, so a form feed fails at its file position, as in parse_base
        with pytest.raises(ParseError) as base_err:
            parse_base("\fWorried(X) -> DifficultConcentrate(X).")
        with pytest.raises(ParseError) as scenario_err:
            parse_scenario(SCENARIO_OK.replace(old, new, 1))
        assert scenario_err.value.message == base_err.value.message == "unexpected character '\\x0c'"
        assert scenario_err.value.span == SourceSpan(line, column)

    @pytest.mark.parametrize("old, new, column, message", [
        ("[explanation]", "[explanaton]", 1, "unknown section [explanaton]"),
        ("[explanation]", "  []", 3, "unknown section []"),
        ("[explanation]", "[\fexplanation]", 2, "unexpected character '\\x0c'"),
        ("[explanation]", "[explanation\f]", 13, "unexpected character '\\x0c'"),
    ])
    def test_bad_section_header(self, old, new, column, message):
        # a header naming no section, or holding whitespace other than a
        # blank, fails at its file position rather than being skipped
        with pytest.raises(ParseError) as err:
            parse_scenario(SCENARIO_OK.replace(old, new, 1))
        assert err.value.message == message
        assert (err.value.span.line, err.value.span.column) == (15, column)

    def test_meta_header_with_form_feed_fails_at_the_header(self):
        with pytest.raises(ParseError) as err:
            parse_scenario(SCENARIO_OK.replace("[meta]", "[\fmeta]", 1))
        assert err.value.message == "unexpected character '\\x0c'"
        assert err.value.span == SourceSpan(3, 2)

    @pytest.mark.parametrize("old, new, message, line, column", [
        # a statement split after `->` fails at the end of its first line
        ("S1: conditional: p(X) -> q(X).", "S1: conditional: p(X) ->\nq(X).",
         "expected ident, found 'end of line'", 6, 25),
        ("id = t", "id", "expected value, found 'end of line'", 2, 3),
        # so is a section's end where another section follows
        ("!q(a).\n", "!q(a) &\n\n[explanation]\nr(a).\n", "expected ident, found 'end of line'", 10, 8),
        # the file's own end is still the end of input
        ("!q(a).\n", "!q(a) &", "expected ident, found 'end of input'", 10, 8),
    ])
    def test_a_line_end_is_no_end_of_input(self, old, new, message, line, column):
        with pytest.raises(ParseError) as err:
            parse_scenario(_PREFIX.replace("[explanation]\n", "").replace(old, new, 1))
        assert err.value.message == message
        assert err.value.span == SourceSpan(line, column)  # one column long, as before

    @pytest.mark.parametrize("new, message", [
        ("S2: p(a).", "expected `LABEL: kind: statement.`"),
        ("S2: categoric: p(a).", "unknown statement kind 'categoric'"),
    ])
    def test_statement_line_without_a_kind(self, new, message):
        # only an identifier followed by `:` is read as a misspelt kind
        with pytest.raises(ParseError) as err:
            parse_scenario(_PREFIX.replace("S2: categorical: p(a).", new, 1))
        assert err.value.message == message
        assert (err.value.span.line, err.value.span.column) == (7, 5)

    def test_header_names_ignore_case_and_blanks(self):
        text = SCENARIO_OK.replace("[explanation]", " [ Explanation ]\t", 1).replace("[fact]", "[FACT]", 1)
        assert parse_scenario(text) == parse_scenario(SCENARIO_OK)


class TestRender:
    def test_roundtrip_fixed_point(self, alice_base):
        text = render(alice_base)
        assert parse_base(text) == alice_base
        assert render(parse_base(text)) == text

    def test_empty_base(self):
        assert render(BeliefBase()) == ""

    def test_facts_before_rules_each_sorted(self):
        base = parse_base("Wor(X) -> Ins(X). Wor(diana). !Ins(charlie). Cop(X) -> !Ins(X).")
        assert render(base).splitlines() == [
            "!Ins(charlie).",
            "Wor(diana).",
            "Cop(X) -> !Ins(X).",
            "Wor(X) -> Ins(X).",
        ]

    def test_known_revision_content(self):
        # the canonical rendering of the worked revision result's base
        base = parse_base("Wor(charlie). !Ins(charlie).")
        assert parse_base(render(base)) == base
        assert base.canonical_forms() == {"Wor(charlie)", "!Ins(charlie)"}

    def test_base_json_schema(self, alice_base):
        payload = json.loads(render(alice_base, "json"))
        assert set(payload) == {"facts", "rules"}
        assert payload["facts"][0] == {
            "label": "f1", "predicate": "Wor", "args": ["charlie"], "negated": False,
        }
        assert set(payload["rules"][0]) == {"label", "body", "head"}

    def test_scenario_roundtrip(self):
        sc = parse_scenario(SCENARIO_OK)
        again = parse_scenario(render(sc))
        assert again == sc
        assert json.loads(render(sc, "json"))["type"] == "II"

    def test_unknown_format(self, alice_base):
        with pytest.raises(ValueError):
            render(alice_base, "yaml")


# --- property: parse/render roundtrip over generated bases -------------------

_PREDICATES = [("P", 1), ("Q", 1), ("R", 2), ("S", 0)]
_CONSTANTS = ["a", "b", "ca"]
_VARIABLES = ["X", "Y"]


def _ground_atoms():
    return st.sampled_from(_PREDICATES).flatmap(
        lambda p: st.tuples(*(st.sampled_from(_CONSTANTS) for _ in range(p[1]))).map(
            lambda args: Atom(p[0], tuple(Term(a) for a in args))
        )
    )


def _open_atoms():
    return st.sampled_from(_PREDICATES).flatmap(
        lambda p: st.tuples(*(st.sampled_from(_CONSTANTS + _VARIABLES) for _ in range(p[1]))).map(
            lambda args: Atom(p[0], tuple(Term(a) for a in args))
        )
    )


def _literals(atoms):
    return st.tuples(atoms, st.booleans()).map(lambda t: Literal(*t))


def _rules():
    def build(draw_body, head):
        body_vars = frozenset().union(*(l.variables() for l in draw_body))
        if head.variables() <= body_vars:
            return Rule(tuple(draw_body), head)
        return None
    return st.tuples(
        st.lists(_literals(_open_atoms()), min_size=1, max_size=3),
        _literals(_open_atoms()),
    ).map(lambda t: build(*t)).filter(lambda r: r is not None)


def _bases():
    return st.tuples(
        st.lists(_literals(_ground_atoms()), max_size=4),
        st.lists(_rules(), max_size=3),
    ).map(lambda t: _dedupe(list(t[0]) + list(t[1])))


def _dedupe(formulas):
    seen, out = set(), []
    for f in formulas:
        if str(f) not in seen:
            seen.add(str(f))
            out.append(f)
    return BeliefBase.from_formulas(out)


@settings(max_examples=150, deadline=None)
@given(_bases())
def test_roundtrip_property(base):
    assert parse_base(render(base)) == base


# --- differential: the regex tokenizer against the character loop it replaced --

_REF_PUNCT = {"!": "bang", "&": "amp", ".": "dot", ",": "comma", "(": "lparen",
              ")": "rparen", ":": "colon", "[": "lbrack", "]": "rbrack"}


def _reference_tokens(text):
    """The character-loop tokenizer, as (kind, text, line, column, length)."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col, j - i))
            col += j - i
            i = j
            continue
        if ch == "=":  # a value: the rest of the line up to a comment, without trailing blanks
            j = end = i + 1
            while (j < n and text[j] != "\n" and not text.startswith("//", j)
                   and (text[j] in " \t\r" or not text[j].isspace())):
                j += 1
                if text[j - 1] not in " \t\r":
                    end = j
            tokens.append(("value", text[i:end], line, col, end - i))
            col += end - i
            i = end
            continue
        if text.startswith("->", i):
            tokens.append(("arrow", "->", line, col, 2))
            i += 2
            col += 2
            continue
        if ch in _REF_PUNCT:
            tokens.append((_REF_PUNCT[ch], ch, line, col, 1))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", SourceSpan(line, col))
    tokens.append(("eof", "", line, col, 1))
    return tokens


def _ident(rng):
    tail = "".join(rng.choice(string.ascii_letters + string.digits + "_")
                   for _ in range(rng.randint(0, 3)))
    return rng.choice(string.ascii_letters) + tail


def _gap(rng):
    return rng.choice(["", "", " ", "  ", "\t", "\r\n", "\n", " // note\n"])


def _statement(rng):
    """A statement that is often well formed, with random spacing."""
    def literal():
        atom = _ident(rng)
        if rng.random() < 0.7:
            args = [rng.choice(["a", "b", "X", "Y", _ident(rng)]) for _ in range(rng.randint(1, 2))]
            atom += "(" + (_gap(rng) + "," + _gap(rng)).join(args) + ")"
        return ("!" if rng.random() < 0.3 else "") + atom
    body = (_gap(rng) + "&" + _gap(rng)).join(literal() for _ in range(rng.randint(1, 2)))
    text = body + (_gap(rng) + "->" + _gap(rng) + literal() if rng.random() < 0.5 else "")
    if rng.random() < 0.3:
        text = _ident(rng) + _gap(rng) + ":" + _gap(rng) + text
    return text + _gap(rng) + "."


def _soup(rng):
    """Any lexical piece, including the characters no token starts with."""
    return rng.choice([_ident(rng), "!", "&", ".", ",", "(", ")", ":", "->", " ", "\t",
                       "\r\n", "\n", "-", "/", "$", "\f", "- >", "// c", "//x\n"])


def _text(rng):
    chunks = []
    for _ in range(rng.randint(0, 4)):
        r = rng.random()
        if r < 0.6:
            chunks.append(_statement(rng))
        elif r < 0.9:
            chunks.append("".join(_soup(rng) for _ in range(rng.randint(1, 4))))
        else:
            chunks.append(rng.choice(["\f", "$", "-", "/"]))
        chunks.append(_gap(rng))
    if rng.random() < 0.4:  # a trailing comment, with or without its newline
        chunks.append("//" + rng.choice(["", " no dot", " a.b(c)"]) + rng.choice(["", "\n"]))
    return "".join(chunks)


def _outcome(parse, text):
    """What `parse` makes of `text`: the parsed value, or the error's fields."""
    try:
        value = parse(text)
    except ParseError as exc:
        return ("parse error", exc.message, exc.span, exc.span.length, exc.expected)
    except RevisekitError as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(value, BeliefBase):
        return ("base", [str(st) for st in value.statements])
    if isinstance(value, tuple):
        return ("literals", [str(lit) for lit in value])
    return ("scenario", render(value), [str(st) for st in value.explanation or ()])


def _as_scenario(text, on_statement_line):
    """A type I scenario with `text` as its conditional's line or as its explanation."""
    rule, explanation = (text.replace("\n", " "), "") if on_statement_line else ("p(X) -> q(X).", text)
    return (f"[meta]\nid = t\ntype = I\n\n[statements]\nS1: conditional: {rule}\n"
            f"S2: categorical: p(a).\n\n[fact]\n!q(a).\n\n[explanation]\n{explanation}\n")


def test_tokenizer_matches_character_loop(monkeypatch):
    rng = random.Random(2026)
    texts = [_text(rng) for _ in range(600)]
    texts += ["p(a) // no dot", "p(a).//", "p(a). // end\r\n", "\f", "p(a) -", "a /b", "$"]
    seen = set()
    for text in texts:
        try:
            expected = ("tokens", _reference_tokens(text))
        except ParseError as exc:
            expected = ("parse error", exc.message, exc.span, exc.span.length, exc.expected)
        try:
            got = ("tokens", [(*tok, len(tok[1]) or 1) for tok in dsl._tokenize(text)])
        except ParseError as exc:
            got = ("parse error", exc.message, exc.span, exc.span.length, exc.expected)
        assert got == expected, text
        seen.add(got[0])
    assert seen == {"tokens", "parse error"}

    parsers = (parse_base, parse_literals, parse_scenario)
    scenarios = [_as_scenario(text, i % 2) for i, text in enumerate(texts)]
    actual = [[_outcome(parse_base, t), _outcome(parse_literals, t), _outcome(parse_scenario, s)]
              for t, s in zip(texts, scenarios)]
    monkeypatch.setattr(dsl, "_tokenize", lambda text: [tok[:4] for tok in _reference_tokens(text)])
    reference = [[_outcome(parse_base, t), _outcome(parse_literals, t), _outcome(parse_scenario, s)]
                 for t, s in zip(texts, scenarios)]
    for text, got, expected in zip(texts, actual, reference):
        assert got == expected, text
    kinds = {(p.__name__, o[0]) for row in actual for p, o in zip(parsers, row)}
    assert {("parse_base", "base"), ("parse_base", "parse error"),
            ("parse_literals", "literals"), ("parse_scenario", "scenario"),
            ("parse_scenario", "parse error")} <= kinds


# --- parity: one tokenizer reads a scenario and a base ---------------------------

# a type I scenario whose [explanation] body starts on line 13
_PREFIX = ("[meta]\nid = t\ntype = I\n\n[statements]\nS1: conditional: p(X) -> q(X).\n"
           "S2: categorical: p(a).\n\n[fact]\n!q(a).\n\n[explanation]\n")
_BODY_LINE = _PREFIX.count("\n")
# the DSL's tokens and some that are not, blanks, a form feed, comments and
# line ends, and whole statements; never a `[`, which could open a section
_BODY_PIECES = [*"!&.,():]-/$", "->", "//", " // c", *" \t\r\f\n", "P", "Q(a)", "R(X, b)", "X",
                "k1: ", "P(a).", "P(X) -> Q(X).", "Q(a) & P(b) -> !R(a, b)."]


def _read_as(parse, text):
    """What `parse` makes of `text`: its statements, or the error's message and position."""
    try:
        value = parse(text)
    except ParseError as exc:
        return ("parse error", exc.message, exc.span.line, exc.span.column)
    except RevisekitError as exc:
        return (type(exc).__name__, str(exc))
    base = value.explanation if hasattr(value, "explanation") else value
    return ("base", [str(st) for st in base.statements])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_BODY_PIECES), max_size=14).map("".join))
def test_explanation_body_reads_as_a_base(body):
    got = _read_as(parse_scenario, _PREFIX + body)
    # the section ends just past its last token, where a base ending there ends
    ending = re.sub(r"(?:[ \t\r\n]|//[^\n]*)*\Z", "", body)
    expected = _read_as(parse_base, ending)
    if expected[0] == "parse error":
        expected = (*expected[:2], expected[2] + _BODY_LINE, expected[3])
    assert got == expected
    assert got[:2] == _read_as(parse_base, body)[:2]


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from([*"aZ09-_./:[]=é", *" \t\r\f\x85　"]), max_size=8)
       .filter(lambda value: "//" not in value))
def test_meta_value_is_the_rest_of_its_line(value):
    text = _PREFIX.replace("id = t", "id = " + value)
    odd = [i for i, c in enumerate(value) if c.isspace() and c not in " \t\r"]
    if odd:
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.message == f"unexpected character {value[odd[0]]!r}"
        assert err.value.span == SourceSpan(2, len("id = ") + 1 + odd[0])
    elif value.strip(" \t\r"):
        assert parse_scenario(text).id == value.strip(" \t\r")
    else:
        with pytest.raises(ScenarioInvalid, match="missing id"):
            parse_scenario(text)
