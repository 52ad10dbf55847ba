"""Ground-able belief bases and a classical consequence engine.

A belief base holds ground literal facts plus universally quantified rules
(conjunctive body, single-literal head, range-restricted).  Everything
downstream works on the ground version of a base: rules are expanded over the
Herbrand universe of a signature, and consistency/entailment are decided
classically on the resulting ground formulas.

Two engines are kept deliberately independent:

  * `_SubsetSolver` decides integer clauses with a `_Solver`.  It never
    builds the ground formulas: each formula is compiled once per call into
    literal templates (an atom's text with a slot per variable, and the
    literal's sign in the clause), whose instances over the constants are
    tuples of (atom text, sign) pairs (`_instances`).  `_index` numbers the
    atom texts in sorted order and `_clauses` turns the instances into sorted
    integer clauses, skipping tautological ones.  The solver builds the
    occurrence lists once per clause set and propagates the unit clauses
    once, at the root; each query is then a complete iterative search under a
    list of assumption literals (unit propagation, an explicit trail and
    chronological backtracking), so input size is bounded by memory, not
    recursion depth.  Every consistency or entailment check and every
    consequence set is a `_SubsetSolver` query: explanation validation,
    `revision`'s union contexts, the postulate checks, the change measure,
    and `is_consistent`, `entails` and `consequences`, each of these three
    one query keeping every formula.  A check over at most `_TABLE_ATOMS`
    atoms is an AND of truth tables, with no solver.  A consequence set is a
    backbone (`_SubsetSolver.consequences`), which asks the solver for every
    open candidate with the candidate's complement as a further assumption,
    each probe branching away from the candidates still open so that one
    model refutes many;
  * `ground_formula` / `ground` build the ground formulas as objects, and
    `enumerate_models` evaluates them semantically over every
    interpretation of the Herbrand base.  This object-level path is the
    brute-force oracle the first engine is tested against.

All types are immutable; all operations are pure functions of their inputs.
Atoms, literals and rules are identified by their canonical text (`str()`),
built once at construction: equality, hashing and printing all read it.  The
rendering is injective, since identifiers cannot contain `(`, `, `, `!`,
` & ` or ` -> `, so this is structural equality.  Deterministic tie-breaking
everywhere uses one canonical ordering: the lexicographic order of that text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import or_
from typing import AbstractSet, Any, Iterable, Iterator, Mapping, Sequence, Union

from .errors import ArityMismatch, CapExceeded, EmptyUniverse, InconsistentBase

DEFAULT_CAP = 24

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
# A variable argument in canonical text: terms follow `(` or `, `, and
# nothing else does (see `Atom`).
_ARG_VARIABLE = re.compile(r"(?:\(|, )[A-Z]")


def is_variable_name(name: str) -> bool:
    """Uppercase-led identifiers are variables, lowercase-led are constants."""
    return name[0].isupper()


@dataclass(frozen=True)
class Term:
    name: str

    def __post_init__(self) -> None:
        if not _IDENT.match(self.name):
            raise ValueError(f"not an identifier: {self.name!r}")

    @property
    def is_variable(self) -> bool:
        return is_variable_name(self.name)

    @property
    def kind(self) -> str:
        return "variable" if self.is_variable else "constant"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class _Syntax:
    """Equal, hashed and printed by the canonical text `_text`, which each
    subclass sets once, in `__post_init__`."""

    _text: str = field(init=False, repr=False)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._text == other._text

    def __hash__(self) -> int:
        return hash(self._text)

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True, eq=False)
class Atom(_Syntax):
    """A predicate applied to zero or more terms."""

    predicate: str
    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if not _IDENT.match(self.predicate):
            raise ValueError(f"not an identifier: {self.predicate!r}")
        text = self.predicate
        if self.args:
            text += f"({', '.join(t.name for t in self.args)})"
        object.__setattr__(self, "_text", text)

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def is_ground(self) -> bool:
        return all(not t.is_variable for t in self.args)

    def variables(self) -> frozenset[str]:
        return frozenset(t.name for t in self.args if t.is_variable)

    def substitute(self, binding: Mapping[str, str]) -> "Atom":
        return Atom(self.predicate, tuple(Term(binding.get(t.name, t.name)) for t in self.args))


@dataclass(frozen=True, eq=False)
class Literal(_Syntax):
    atom: Atom
    negated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "_text", ("!" if self.negated else "") + self.atom._text)

    @property
    def is_ground(self) -> bool:
        return self.atom.is_ground

    def variables(self) -> frozenset[str]:
        return self.atom.variables()

    def negate(self) -> "Literal":
        return Literal(self.atom, not self.negated)

    def substitute(self, binding: Mapping[str, str]) -> "Literal":
        return Literal(self.atom.substitute(binding), self.negated)


@dataclass(frozen=True, eq=False)
class Rule(_Syntax):
    """Conditional with a conjunctive body and a single-literal head.

    Variables are implicitly universally quantified.  Every head variable must
    also occur in the body (range restriction), so grounding semantics do not
    depend on constants that the rule itself never constrains.
    """

    body: tuple[Literal, ...]
    head: Literal

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("rule body must be nonempty")
        body_vars = frozenset().union(*(lit.variables() for lit in self.body))
        loose = self.head.variables() - body_vars
        if loose:
            raise ValueError(f"head variables not bound by the body: {sorted(loose)}")
        self._render()

    def _render(self) -> None:
        object.__setattr__(self, "_text", " & ".join(lit._text for lit in self.body)
                           + " -> " + self.head._text)

    def variables(self) -> frozenset[str]:
        return frozenset().union(self.head.variables(), *(lit.variables() for lit in self.body))

    def substitute(self, binding: Mapping[str, str]) -> "Rule":
        """The rule with each variable in `binding` replaced.  Every instance of
        a range-restricted rule is range-restricted, so the instance is built
        without `__post_init__`'s check; only its text is rendered."""
        inst = object.__new__(Rule)
        object.__setattr__(inst, "body", tuple(lit.substitute(binding) for lit in self.body))
        object.__setattr__(inst, "head", self.head.substitute(binding))
        inst._render()
        return inst


Formula = Union[Literal, Rule]


# A variable-free Formula: a ground literal, or a rule whose body and head
# are ground (a variable-free rule as written, or one instance of a rule).
GroundFormula = Formula


@dataclass(frozen=True)
class Statement:
    """A labeled belief-base element; labels make retractions reportable."""

    label: str
    formula: Formula

    @property
    def is_rule(self) -> bool:
        return isinstance(self.formula, Rule)

    def canonical(self) -> str:
        return str(self.formula)

    def __str__(self) -> str:
        return f"{self.label}: {self.formula}"


class BeliefBase:
    """An unordered set of labeled facts (ground literals) and rules.

    Equality and hashing are by the canonical formula set: labels are
    reporting plumbing, not part of a base's identity.
    """

    __slots__ = ("statements", "_canon")

    def __init__(self, statements: Iterable[Statement] = ()):
        stmts = tuple(statements)
        seen_labels: set[str] = set()
        seen_forms: set[str] = set()
        for st in stmts:
            if isinstance(st.formula, Literal) and not st.formula.is_ground:
                raise ValueError(f"fact is not ground: {st.formula}")
            if st.label in seen_labels:
                raise ValueError(f"duplicate statement label: {st.label}")
            canon = st.canonical()
            if canon in seen_forms:
                raise ValueError(f"duplicate formula: {canon}")
            seen_labels.add(st.label)
            seen_forms.add(canon)
        self.statements = stmts
        self._canon = frozenset(seen_forms)

    @classmethod
    def from_formulas(cls, formulas: Iterable[Formula]) -> "BeliefBase":
        """Label facts f1, f2, ... and rules r1, r2, ... in input order."""
        stmts = []
        nf = nr = 0
        for formula in formulas:
            if isinstance(formula, Rule):
                nr += 1
                stmts.append(Statement(f"r{nr}", formula))
            else:
                nf += 1
                stmts.append(Statement(f"f{nf}", formula))
        return cls(stmts)

    @property
    def facts(self) -> tuple[Statement, ...]:
        return tuple(st for st in self.statements if not st.is_rule)

    @property
    def rules(self) -> tuple[Statement, ...]:
        return tuple(st for st in self.statements if st.is_rule)

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return tuple(st.formula for st in self.statements)

    def canonical_forms(self) -> frozenset[str]:
        return self._canon

    def __contains__(self, formula: Formula) -> bool:
        return str(formula) in self._canon

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BeliefBase):
            return NotImplemented
        return self._canon == other._canon

    def __hash__(self) -> int:
        return hash(self._canon)

    def __repr__(self) -> str:
        return f"BeliefBase({sorted(self._canon)})"


@dataclass(frozen=True)
class Signature:
    """Constants plus predicates-with-arities; the Herbrand bookkeeping."""

    constants: tuple[str, ...] = ()
    predicates: tuple[tuple[str, int], ...] = ()

    def herbrand_atoms(self) -> tuple[Atom, ...]:
        atoms = []
        for name, arity in self.predicates:
            for combo in product(self.constants, repeat=arity):
                atoms.append(Atom(name, tuple(Term(c) for c in combo)))
        return tuple(sorted(atoms, key=str))


def _scan(part: Any, constants: set[str], predicates: dict[str, int]) -> None:
    """Note every constant and predicate arity of `part`, atoms in reading
    order, dispatching on the exact type; anything else is iterated."""
    cls = part.__class__
    if cls is Literal:
        atoms: Sequence[Atom] = (part.atom,)
    elif cls is Rule:
        atoms = [lit.atom for lit in part.body]
        atoms.append(part.head.atom)
    elif cls is Statement:
        return _scan(part.formula, constants, predicates)
    elif cls is BeliefBase:
        for st in part.statements:
            _scan(st.formula, constants, predicates)
        return
    elif cls is Atom:
        atoms = (part,)
    elif cls is Signature:
        constants.update(part.constants)
        for name, arity in part.predicates:
            if (known := predicates.setdefault(name, arity)) != arity:
                raise ArityMismatch(name, known, arity)
        return
    else:
        for item in part:
            _scan(item, constants, predicates)
        return
    for atom in atoms:
        args = atom.args
        if (known := predicates.setdefault(atom.predicate, len(args))) != len(args):
            raise ArityMismatch(atom.predicate, known, len(args))
        for term in args:
            if not term.name[0].isupper():  # a constant: `is_variable_name` is false
                constants.add(term.name)


def collect_signature(parts: Iterable[Any]) -> Signature:
    """Union of all constants and predicates occurring anywhere in the inputs.

    Accepts belief bases, statements, formulas, and nested iterables of them.
    Raises ArityMismatch if one predicate name is used with two arities.
    """
    constants: set[str] = set()
    predicates: dict[str, int] = {}
    for part in parts:
        _scan(part, constants, predicates)
    return Signature(tuple(sorted(constants)), tuple(sorted(predicates.items())))


def ground_formula(formula: Formula, sig: Signature) -> tuple[GroundFormula, ...]:
    """All ground instances of one formula over the signature's constants."""
    if isinstance(formula, Literal):
        return (formula,)
    variables = sorted(formula.variables())
    if not variables:
        return (formula,)
    if not sig.constants:
        raise EmptyUniverse(f"rule {formula} has variables but the universe is empty")
    return tuple(
        formula.substitute(dict(zip(variables, combo)))
        for combo in product(sig.constants, repeat=len(variables))
    )


@dataclass(frozen=True, eq=False)
class GroundBeliefBase:
    """The ground formulas of a base, duplicates removed."""

    formulas: tuple[GroundFormula, ...]

    def __len__(self) -> int:
        return len(self.formulas)

    def __iter__(self) -> Iterator[GroundFormula]:
        return iter(self.formulas)


def ground(base: BeliefBase, sig: Signature) -> GroundBeliefBase:
    """Expand every rule over the Herbrand universe; facts are copied verbatim.

    Duplicate ground formulas are kept once, at their first occurrence.
    """
    return GroundBeliefBase(tuple(dict.fromkeys(
        gf for st in base.statements for gf in ground_formula(st.formula, sig))))


# --- grounding straight to clauses ------------------------------------------
#
# A ground instance is the tuple of its literals in clause order (the body's,
# then the head's), each an (atom text, sign in the clause) pair: a body
# literal enters its rule's clause complemented, a head or a fact as written.
# The rendering is injective, so equal instances are equal ground formulas,
# and a fact (one pair) never equals a rule instance (two or more).

Instance = tuple[tuple[str, bool], ...]


def _signed(formula: Formula) -> tuple[tuple[Atom, bool], ...]:
    """The formula's atoms in clause order, each with its sign in the clause."""
    if isinstance(formula, Literal):
        return ((formula.atom, not formula.negated),)
    return (*((lit.atom, lit.negated) for lit in formula.body),
            (formula.head.atom, not formula.head.negated))


def _instance(gf: GroundFormula) -> Instance:
    return tuple((atom._text, sign) for atom, sign in _signed(gf))


def _instances(formula: Formula, sig: Signature) -> list[Instance]:
    """The instances of `ground_formula(formula, sig)`, in its order, without
    building them: each atom compiles to a template of its text with a `{i}`
    slot for the i-th variable in sorted order, filled once per binding."""
    if isinstance(formula, Literal) or not _ARG_VARIABLE.search(formula._text):
        return [_instance(formula)]
    variables = sorted(formula.variables())
    if not sig.constants:
        raise EmptyUniverse(f"rule {formula} has variables but the universe is empty")
    slot = {name: f"{{{i}}}" for i, name in enumerate(variables)}
    # rendered as `Atom` renders its text; identifiers hold no braces
    templates = [(atom.predicate + "(" + ", ".join(slot.get(t.name, t.name) for t in atom.args) + ")"
                  if atom.args else atom.predicate, sign)
                 for atom, sign in _signed(formula)]
    return [tuple([(text.format(*combo), sign) for text, sign in templates])
            for combo in product(sig.constants, repeat=len(variables))]


def _index(groups: Iterable[Iterable[Instance]], extra: Iterable[str] = ()) -> dict[str, int]:
    """The atom texts of the instances, and `extra`, numbered 1, 2, ... in sorted order."""
    texts = set(extra)
    texts.update(text for group in groups for inst in group for text, _ in inst)
    return {text: v for v, text in enumerate(sorted(texts), 1)}


def _clauses(instances: Iterable[Instance], index: Mapping[str, int]) -> list[list[int]]:
    """One sorted clause per instance, in order; tautological instances are skipped."""
    clauses = []
    for inst in instances:
        if len(inst) == 1:
            ((text, sign),) = inst
            clauses.append([index[text] if sign else -index[text]])
            continue
        lits = {index[text] if sign else -index[text] for text, sign in inst}
        if any(-l in lits for l in lits):
            continue  # tautological instance
        clauses.append(sorted(lits))
    return clauses


# --- complete search --------------------------------------------------------

def _propagate(occurs: Mapping[int, list[list[int]]], true: set[int],
               trail: list[int], head: int) -> bool:
    """Unit-propagate the literals from trail[head:] on; True on a conflict."""
    while head < len(trail):
        for clause in occurs.get(trail[head], ()):
            free = 0
            for lit in clause:
                if lit in true:
                    break
                if -lit not in true:
                    free += 1
                    unit = lit
            else:
                if free == 0:
                    return True
                if free == 1:
                    true.add(unit)
                    trail.append(unit)
        head += 1
    return False


class _Solver:
    """One clause set, decided many times under different assumptions.

    The occurrence lists are built once, and the unit clauses are put on the
    trail and propagated once, at the root.  Above the root the trail holds
    the assumptions in force, `assumed`, each propagated in turn: marks[j] is
    the trail length before assumption j, and trail[:marks[j]] the unit
    propagation closure of the root and assumed[:j].  Decisions, and an
    assumption that conflicted, lie above marks[-1] until the next `solve`
    undoes them (van der Tak, Ramos & Heule, JSAT 2011).
    """

    __slots__ = ("clauses", "occurs", "true", "trail", "root", "assumed", "marks")

    def __init__(self, clauses: list[list[int]]):
        self.clauses = clauses
        occurs: dict[int, list[list[int]]] = {}  # literal -> clauses it falsifies when true
        true: set[int] = set()
        trail: list[int] = []
        self.occurs, self.true, self.trail = occurs, true, trail
        self.assumed: list[int] = []
        self.root: int | None = None  # trail length after root propagation; None if unsatisfiable
        for clause in clauses:
            if len(clause) == 1:
                # never indexed: its literal stays true at the root, so no
                # query can make the complement true and visit it
                (lit,) = clause
                if -lit in true:
                    return
                if lit not in true:
                    true.add(lit)
                    trail.append(lit)
            elif not clause:
                return
            else:
                for lit in clause:
                    occurs.setdefault(-lit, []).append(clause)
        if not _propagate(occurs, true, trail, 0):
            self.root = len(trail)
            self.marks = [self.root]

    def solve(self, assumptions: Iterable[int] = (), *,
              avoid: AbstractSet[int] = frozenset()) -> set[int] | None:
        """The literals of one assignment satisfying every clause and assumption, or None.

        Iterative DPLL: the trail is undone only down to the longest prefix
        these assumptions share with the ones in force, and the rest are
        pushed and propagated one at a time.  Then the search branches on the
        first free literal of the first clause not yet satisfied, or, when
        that literal is in `avoid`, on the clause's first free literal outside
        `avoid` if it has one, and backtracks chronologically, flipping the
        most recent unflipped decision.  The closure of the root and an
        assumption prefix is unique, and branching reads only the `true` set,
        the clause order and `avoid`, so the answer and model equal a fresh
        solver's given the same `avoid`.  Every clause is satisfied by the
        returned literals, so any variable they leave out can take either
        value.  The returned set is the solver's own state: it stays valid
        only until the next `solve` call.
        """
        if self.root is None:
            return None
        clauses, occurs, true, trail = self.clauses, self.occurs, self.true, self.trail
        assumed, marks = self.assumed, self.marks
        assumptions = list(assumptions)
        kept = 0
        for old, lit in zip(assumed, assumptions):
            if old != lit:
                break
            kept += 1
        mark = marks[kept]
        for undone in trail[mark:]:
            true.discard(undone)
        del trail[mark:], assumed[kept:], marks[kept + 1:]
        for lit in assumptions[kept:]:
            if -lit in true:
                return None
            if lit not in true:
                true.add(lit)
                trail.append(lit)
                if lit in occurs and _propagate(occurs, true, trail, mark):
                    return None  # the next solve undoes it down to this mark
            mark = len(trail)
            assumed.append(lit)
            marks.append(mark)
        # each decision: (trail length before it, literal, branch scan position, flipped)
        decisions: list[tuple[int, int, int, bool]] = []
        head = mark
        scan = 0
        while True:
            if _propagate(occurs, true, trail, head):
                while decisions and decisions[-1][3]:
                    decisions.pop()
                if not decisions:
                    return None
                mark, lit, scan, _ = decisions.pop()
                for undone in trail[mark:]:
                    true.discard(undone)
                del trail[mark:]
                branch = -lit
                decisions.append((mark, branch, scan, True))
            else:
                # Branch on a free literal of the first clause not yet
                # satisfied (after propagation it has one).  Clauses before
                # `scan` were satisfied when the last decision was made and
                # stay so until it is undone, so the scan resumes there.
                branch = None
                while scan < len(clauses):
                    for lit in clauses[scan]:
                        if lit in true:
                            break
                        if branch is None and -lit not in true:
                            branch = lit
                    else:
                        break
                    branch = None
                    scan += 1
                if branch is None:
                    return true
                if avoid and branch in avoid:
                    branch = next((l for l in clauses[scan] if -l not in true and l not in avoid), branch)
                decisions.append((len(trail), branch, scan, False))
            head = len(trail)
            true.add(branch)
            trail.append(branch)


def is_consistent(formulas: Iterable[GroundFormula]) -> bool:
    """True iff at least one interpretation satisfies every ground formula."""
    return _all_of(formulas, (), False)


def entails(formulas: Iterable[GroundFormula], phi: Union[Literal, Iterable[Literal]]) -> bool:
    """Classical entailment of a conjunction of ground literals.

    Decided by refutation: the query holds iff the formulas plus the negated
    conjunction are unsatisfiable.  An inconsistent premise set entails
    everything.
    """
    lits = (phi,) if isinstance(phi, Literal) else tuple(phi)
    if not lits:
        raise ValueError("explanandum conjunction must be nonempty")
    return not _all_of(formulas, lits, True)


def _all_of(formulas: Iterable[GroundFormula], phi: Sequence[Literal], refute_phi: bool) -> bool:
    """Whether the formulas, and the negated conjunction `phi` if `refute_phi`,
    have a model: one check of a `_SubsetSolver` that keeps every formula.
    Raises ValueError on a formula or literal with a variable."""
    formulas = tuple(formulas)
    for part in (*formulas, *phi):
        if _ARG_VARIABLE.search(part._text):
            raise ValueError(f"not ground: {part}")
    return _SubsetSolver(formulas, Signature(), phi).satisfiable((1 << len(formulas)) - 1, refute_phi)


def _refutation(lits: Sequence[Literal], index: Mapping[str, int]) -> list[int]:
    """The sorted clause of the negated conjunction; [] when `lits` is empty or
    holds a literal and its complement, so refuting it is plain unsatisfiability."""
    negated = sorted({index[l.atom._text] * (1 if l.negated else -1) for l in lits})
    return [] if any(-l in negated for l in negated) else negated


# Over at most `_TABLE_ATOMS` atoms a set of models is a truth table, an int
# whose bit m stands for the model making atom v true iff bit v-1 of m is set.
# Atoms past the numbering stay free, so 64-bit tables serve every smaller one,
# and formulas have a model together iff the AND of their tables is nonzero
# (Darwiche & Marquis, JAIR 2002).
_TABLE_ATOMS = 6
_ALL = (1 << (1 << _TABLE_ATOMS)) - 1


def _atom_table(v: int) -> int:
    """Runs of 2**(v-1) zeros then as many ones: the first pair of runs,
    repeated by one multiplication with its period's repunit."""
    run = 1 << v - 1
    return ((1 << run) - 1 << run) * (_ALL // ((1 << 2 * run) - 1))


_LITERAL_TABLES = {lit: _atom_table(lit) if lit > 0 else _ALL ^ _atom_table(-lit)
                   for v in range(1, _TABLE_ATOMS + 1) for lit in (v, -v)}


def _table(clauses: Iterable[list[int]]) -> int:
    """The truth table of a conjunction of clauses over atoms 1 to `_TABLE_ATOMS`."""
    models = _ALL
    for clause in clauses:
        models &= reduce(or_, [_LITERAL_TABLES[lit] for lit in clause])
    return models


class _SubsetSolver:
    """Consistency, entailment and consequence checks on subsets of a list of
    formulas, each grounded in order by `_instances` and its atoms numbered at
    construction.  Over at most `_TABLE_ATOMS` atoms every check ANDs the kept
    formulas' truth tables, which the first check compiles.  Otherwise every
    check is one solve, and consequences one backbone, of one selector solver,
    which the first call that needs it builds.

    A formula whose clauses are one unit clause, as every fact's are, is kept
    by assuming its literal and dropped by assuming nothing.  Every other
    formula i has a selector variable s_i, numbered after the atoms: each of
    its clauses starts with !s_i, and the negated explanandum's with !s_phi,
    so the search sees a dropped formula's clause satisfied at its first
    literal.  A check assumes, in formula order, the literal or s_i of each
    kept formula and !s_i of each dropped one with a selector, then s_phi only
    for entailment, so it is one `_Solver.solve` that never branches on a
    selector (Een & Sorensson, SAT 2003): its answer is that of the kept
    formulas alone."""

    __slots__ = ("formulas", "sig", "instances", "phi", "_index", "_solver", "_keys", "_tables")

    def __init__(self, formulas: Iterable[Formula], sig: Signature, phi: Sequence[Literal]):
        self.formulas = tuple(formulas)
        self.sig = sig
        self.instances = [_instances(formula, sig) for formula in self.formulas]
        self.phi = phi
        self._index = _index(self.instances, (l.atom._text for l in phi))
        self._solver: _Solver | None = None
        # per formula, the literal assumed to keep it (its unit clause's, or
        # s_i), once the solver is built; selectors are the keys past the atoms
        self._keys: list[int] = []
        self._tables: list[int] | None = None  # per formula, then phi's refutation, once compiled

    def _assumptions(self, kept: int, refute_phi: bool) -> list[int]:
        """The assumptions selecting the kept formulas (bit i of the mask `kept`
        for formula i), and the negated explanandum if `refute_phi`; the first
        call builds the solver."""
        index, first = self._index, len(self._index) + 1
        s_phi = first + len(self.instances)
        if self._solver is None:
            clauses = []
            for i, g in enumerate(self.instances):
                own = _clauses(g, index)
                if len(own) == 1 and len(own[0]) == 1:
                    self._keys.append(own[0][0])
                else:
                    self._keys.append(first + i)
                    clauses += [[-(first + i), *clause] for clause in own]
            if negated := _refutation(self.phi, index):
                clauses.append([-s_phi, *negated])
            self._solver = _Solver(clauses)
        assumptions = [key if kept >> i & 1 else -key
                       for i, key in enumerate(self._keys) if kept >> i & 1 or key >= first]
        assumptions.append(s_phi if refute_phi else -s_phi)
        return assumptions

    def satisfiable(self, kept: int, refute_phi: bool) -> bool:
        """Whether the kept formulas, and the negated explanandum if `refute_phi`, have a model."""
        if len(self._index) > _TABLE_ATOMS:
            assumptions = self._assumptions(kept, refute_phi)
            return self._solver.solve(assumptions) is not None
        if (tables := self._tables) is None:
            negated = _refutation(self.phi, self._index)
            tables = self._tables = [*(_table(_clauses(g, self._index)) for g in self.instances),
                                     _table([negated] if negated else [])]
        models = tables[-1] if refute_phi else _ALL
        for i, table in enumerate(tables[:-1]):
            if kept >> i & 1:
                models &= table
        return models != 0

    def consequences(self, kept: int) -> frozenset[Literal]:
        """The ground literals over the signature's Herbrand base that the
        kept formulas entail: the backbone of the solver under their
        assumptions, with s_phi off.

        One model is found first; only the literals it makes true can be
        entailed.  Those on its trail below the first decision follow by unit
        propagation from the assumptions, so they are entailed with no probe.
        Each remaining candidate, in canonical atom order, is probed by one
        search under its complement as a further assumption: no model means it
        is entailed, and a model drops every candidate that model does not make
        true.  Each probe branches away from the candidates still open (its
        `avoid` set), so its model leaves them unset or flipped where the
        clauses allow, and one model refutes many at once (Janota, Lynce &
        Marques-Silva, AI Communications 2015).  Atoms no clause in force
        mentions are free, so only atoms the search assigns inside the Herbrand
        base are candidates.  The backbone is unique, so the steering changes
        only the number of probes, never the answer.  Only the entailed
        literals are built: a kept fact is entailed as stated and returned as
        that very literal, and new atoms over the same constants share one
        tuple of terms.  Raises InconsistentBase when there is no model.
        """
        assumptions = self._assumptions(kept, False)
        solver = self._solver
        model = solver.solve(assumptions)
        if model is None:
            raise InconsistentBase("consequences undefined: base has no model")
        candidates = set(model)
        fixed = set(solver.trail[:solver.marks[-1]])
        probe = [*assumptions, 0]  # the assumptions, then the candidate's complement
        predicates = set(self.sig.predicates)
        constants = set(self.sig.constants)
        out = []
        # the literals built here outlive the call (the change measure holds two
        # sets at once), so each one saved is one fewer for the cyclic GC to track
        facts = {f.atom._text: f for i, f in enumerate(self.formulas)
                 if kept >> i & 1 and isinstance(f, Literal)}
        terms_of = {text.partition("(")[2]: fact.atom.args for text, fact in facts.items()}
        for text, v in self._index.items():  # canonical order: the index is sorted by text
            predicate, _, rest = text.partition("(")  # the text of Atom(predicate, args)
            args = rest[:-1].split(", ") if rest else []
            if (predicate, len(args)) not in predicates:
                continue
            if not all(a in constants for a in args):
                continue
            lit = v if v in candidates else -v
            if lit not in candidates:
                continue
            if lit not in fixed:
                probe[-1] = -lit
                if (other := solver.solve(probe, avoid=candidates)) is not None:
                    candidates &= other
                    continue
            if (fact := facts.get(text)) is not None:
                out.append(fact)
                continue
            if (terms := terms_of.get(rest)) is None:
                terms = terms_of[rest] = tuple(Term(a) for a in args)
            out.append(Literal(Atom(predicate, terms), lit < 0))
        return frozenset(out)

    def mentioning(self, atom: Atom) -> int:
        """The mask of the formulas with an instance that mentions the atom."""
        return sum(1 << i for i, g in enumerate(self.instances)
                   if any(text == atom._text for inst in g for text, _ in inst))


def consequences(base: BeliefBase, sig: Signature) -> frozenset[Literal]:
    """Every ground literal over the signature's Herbrand base that the base entails.

    One `_SubsetSolver.consequences` query keeping every formula.  Undefined
    (raises InconsistentBase) when the ground base has no model; a consistent
    base never yields both a literal and its negation.
    """
    return _SubsetSolver(base.formulas, sig, ()).consequences((1 << len(base)) - 1)


# --- independent truth-table oracle ----------------------------------------

@dataclass(frozen=True)
class Interpretation:
    """A total truth assignment over a fixed, canonically ordered Herbrand base."""

    atoms: tuple[Atom, ...]
    values: tuple[bool, ...]

    def as_dict(self) -> dict[Atom, bool]:
        return dict(zip(self.atoms, self.values))

    def satisfies(self, gf: GroundFormula) -> bool:
        lookup = self.as_dict()
        return _evaluate(gf, lookup)


def _evaluate(gf: GroundFormula, lookup: Mapping[Atom, bool]) -> bool:
    if isinstance(gf, Literal):
        return lookup[gf.atom] != gf.negated
    if all(lookup[lit.atom] != lit.negated for lit in gf.body):
        return lookup[gf.head.atom] != gf.head.negated
    return True


def enumerate_models(
    formulas: Iterable[GroundFormula],
    sig: Signature,
    cap: int = DEFAULT_CAP,
) -> list[Interpretation]:
    """All satisfying interpretations of the Herbrand base, in canonical order.

    This is a naive truth-table sweep, kept free of the clausal machinery so
    it can serve as an independent oracle for is_consistent and entails.
    """
    atoms = sig.herbrand_atoms()
    if len(atoms) > cap:
        raise CapExceeded(len(atoms), cap, "Herbrand atoms")
    fs = tuple(formulas)
    known = set(atoms)
    for gf in fs:
        for atom in ([gf.atom] if isinstance(gf, Literal) else [l.atom for l in gf.body] + [gf.head.atom]):
            if atom not in known:
                raise ValueError(f"signature does not cover atom {atom}")
    models = []
    for values in product((False, True), repeat=len(atoms)):
        lookup = dict(zip(atoms, values))
        if all(_evaluate(gf, lookup) for gf in fs):
            models.append(Interpretation(atoms, values))
    return models
