import copy
import dataclasses
import pickle
import random
import time
from collections import Counter
from itertools import product

import pytest

from revisekit import (
    ArityMismatch,
    Atom,
    BeliefBase,
    CapExceeded,
    EmptyUniverse,
    InconsistentBase,
    Literal,
    Rule,
    Signature,
    Term,
    collect_signature,
    consequences,
    entails,
    enumerate_models,
    ground,
    is_consistent,
    parse_base,
    parse_literals,
)
from revisekit import logic
from revisekit.logic import _Solver, _clauses, _index, _instance, ground_formula
from revisekit.metrics import change_measure
from conftest import random_ground_formulas


def lit(text: str) -> Literal:
    (result,) = parse_literals(text)
    return result


@pytest.fixture
def solves(monkeypatch) -> list:
    """One entry per `_Solver.solve` call, whatever its arguments."""
    calls = []
    solve = _Solver.solve

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(_Solver, "solve", counted)
    return calls


class TestTerms:
    def test_variable_detection(self):
        assert Term("X").is_variable
        assert Term("Xyz").kind == "variable"
        assert not Term("charlie").is_variable
        assert Term("charlie").kind == "constant"

    def test_bad_identifier(self):
        with pytest.raises(ValueError):
            Term("1abc")

    def test_rule_range_restriction(self):
        body = (Literal(Atom("P", (Term("X"),))),)
        with pytest.raises(ValueError):
            Rule(body, Literal(Atom("Q", (Term("Y"),))))

    def test_rule_needs_body(self):
        with pytest.raises(ValueError):
            Rule((), Literal(Atom("Q")))


def _ref_key(x) -> tuple:
    """Structural identity, independent of the canonical text."""
    if isinstance(x, Atom):
        return ("atom", x.predicate, tuple(t.name for t in x.args))
    if isinstance(x, Literal):
        return ("literal", _ref_key(x.atom), x.negated)
    return ("rule", tuple(_ref_key(l) for l in x.body), _ref_key(x.head))


def _ref_str(x) -> str:
    if isinstance(x, Atom):
        return x.predicate + (f"({', '.join(t.name for t in x.args)})" if x.args else "")
    if isinstance(x, Literal):
        return ("!" if x.negated else "") + _ref_str(x.atom)
    return " & ".join(_ref_str(l) for l in x.body) + " -> " + _ref_str(x.head)


def _ref_repr(x) -> str:
    if isinstance(x, Atom):
        return f"Atom(predicate={x.predicate!r}, args={x.args!r})"
    if isinstance(x, Literal):
        return f"Literal(atom={_ref_repr(x.atom)}, negated={x.negated!r})"
    body = ", ".join(_ref_repr(l) for l in x.body) + ("," if len(x.body) == 1 else "")
    return f"Rule(body=({body}), head={_ref_repr(x.head)})"


def _syntax_pool(seed: int) -> list:
    """Freshly built atoms, literals and rules over small name pools, so that
    structurally equal objects recur as distinct instances."""
    rng = random.Random(seed)
    names = ["p", "q", "pq", "P"]
    terms = ["a", "b", "ab", "X", "Y"]

    def atom():
        return Atom(rng.choice(names), tuple(Term(rng.choice(terms)) for _ in range(rng.randint(0, 3))))

    def literal():
        return Literal(atom(), rng.random() < 0.5)

    pool = [Atom("p"), Literal(Atom("p")), Atom("p", (Term("a"), Term("a"))),
            Literal(Atom("p", (Term("X"), Term("X"))), True)]
    pool += [atom() for _ in range(60)] + [literal() for _ in range(60)]
    while len(pool) < 160:
        try:
            pool.append(Rule(tuple(literal() for _ in range(rng.randint(1, 3))), literal()))
        except ValueError:
            pass  # head variable not bound by the body
    return pool


class TestCanonicalIdentity:
    """Atoms, literals and rules are identified by their canonical text; the
    text must give exactly structural equality, printing and `repr`."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_equality_matches_structure(self, seed):
        pool = _syntax_pool(seed)
        keys = [_ref_key(x) for x in pool]
        assert len(set(keys)) < len(keys)  # some structurally equal pairs occur
        for x, kx in zip(pool, keys):
            for y, ky in zip(pool, keys):
                assert (x == y) == (kx == ky)
                assert (x != y) == (kx != ky)
                if x == y:
                    assert hash(x) == hash(y)
            assert str(x) == _ref_str(x)
            assert repr(x) == _ref_repr(x)

    def test_cross_type_unequal(self):
        atom = Atom("p", (Term("a"),))
        assert str(atom) == str(Literal(atom))
        assert atom != Literal(atom)
        assert Literal(atom) != atom
        assert len({atom, Literal(atom)}) == 2
        assert atom != "p(a)" and Literal(atom) != "p(a)"

    def test_copies_and_replacements(self):
        for x in _syntax_pool(29):
            for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)),
                          dataclasses.replace(x)):
                assert clone == x and hash(clone) == hash(x)
                assert str(clone) == _ref_str(x)
            if isinstance(x, Atom):
                changed = dataclasses.replace(x, predicate="r")
            elif isinstance(x, Literal):
                changed = dataclasses.replace(x, negated=not x.negated)
            else:
                changed = dataclasses.replace(x, head=x.head.negate())
            assert changed != x
            assert str(changed) == _ref_str(changed)


class TestSignature:
    def test_direct_collection(self):
        sig = collect_signature([[lit("Wor(charlie)")], [lit("!Ins(charlie)")]])
        assert sig.constants == ("charlie",)
        assert sig.predicates == (("Ins", 1), ("Wor", 1))

    def test_empty(self):
        assert collect_signature([]) == Signature()

    def test_measure_instance_inputs(self, measure_base, measure_explanation):
        sig = collect_signature([measure_base, measure_explanation])
        assert sig.constants == ("charlie", "diana")
        assert sig.predicates == (("Cop", 1), ("Ins", 1), ("Wor", 1))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            collect_signature([[lit("P(a)")], [Literal(Atom("P"))]])


class TestGround:
    def test_rule_expansion(self, alice_base):
        sig = collect_signature([alice_base])
        gb = ground(alice_base, sig)
        forms = sorted(str(f) for f in gb.formulas)
        assert forms == [
            "Wor(charlie)",
            "Wor(charlie) -> Ins(charlie)",
            "Wor(diana)",
            "Wor(diana) -> Ins(diana)",
        ]

    def test_no_rules_identity(self):
        base = parse_base("Wor(charlie). !Ins(diana).")
        gb = ground(base, collect_signature([base]))
        assert sorted(str(f) for f in gb.formulas) == ["!Ins(diana)", "Wor(charlie)"]

    def test_single_constant_single_instance(self):
        base = parse_base("Wor(X) & Cop(X) -> !Ins(X).")
        sig = collect_signature([base, [lit("Wor(charlie)")]])
        gb = ground(base, sig)
        assert [str(f) for f in gb.formulas] == [
            "Wor(charlie) & Cop(charlie) -> !Ins(charlie)"
        ]

    def test_empty_universe(self):
        base = parse_base("Wor(X) -> Ins(X).")
        with pytest.raises(EmptyUniverse):
            ground(base, collect_signature([base]))


class TestConsistency:
    def test_conflicting_chain(self):
        base = parse_base("Wor(charlie). Wor(charlie) -> Ins(charlie). !Ins(charlie).")
        gb = ground(base, collect_signature([base]))
        assert not is_consistent(gb.formulas)

    def test_empty_set(self):
        assert is_consistent([])

    def test_two_facts(self):
        assert is_consistent([lit("Wor(charlie)"), lit("!Ins(charlie)")])

    def test_many_independent_clauses(self):
        # a recursive search overflows the stack on this input, and one whose
        # branch scan restarts at the first clause takes seconds
        n = 5000
        rules = [Rule((Literal(Atom(f"a{i}")),), Literal(Atom(f"b{i}")))
                 for i in range(n)]
        start = time.perf_counter()
        assert is_consistent(rules)
        assert entails(rules + [Literal(Atom(f"a{n - 1}"))], Literal(Atom(f"b{n - 1}")))
        assert not entails(rules, Literal(Atom("b0")))
        assert time.perf_counter() - start < 3.0


def _random_clauses(rng: random.Random, nvars: int) -> list[list[int]]:
    clauses = []
    for _ in range(rng.randint(0, 10)):
        width = min(nvars, rng.choice((1, 2, 2, 3, 3, 4)))
        clauses.append(sorted(v if rng.random() < 0.5 else -v
                              for v in rng.sample(range(1, nvars + 1), width)))
    if rng.random() < 0.05:
        clauses.insert(rng.randint(0, len(clauses)), [])
    return clauses


def _satisfiable(clauses: list[list[int]], nvars: int) -> bool:
    return any(all(any(values[abs(l) - 1] == (l > 0) for l in c) for c in clauses)
               for values in product((False, True), repeat=nvars))


class TestSolver:
    def test_reused_solver_matches_fresh_solves(self):
        # one _Solver answers random assumption queries in random order; each
        # answer must equal a fresh one-shot solve with the assumptions as
        # unit clauses, and brute force, so no state leaks between queries
        rng = random.Random(1709)
        seen: Counter = Counter()
        for trial in range(300):
            nvars = rng.randint(1, 6)
            clauses = _random_clauses(rng, nvars)
            solver = _Solver(clauses)
            if solver.root is None:
                seen["unsat at root"] += 1
            elif not all(any(l in solver.true for l in c) for c in clauses):
                seen["needs decisions"] += 1
            seen["empty clause"] += [] in clauses
            spare = nvars + 1  # a variable no clause mentions
            pool = list(range(1, nvars + 2))
            queries = []
            for _ in range(rng.randint(5, 8)):
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(pool, rng.randint(0, min(3, len(pool))))]
                if assumptions and rng.random() < 0.15:
                    assumptions.append(-assumptions[0])
                queries.append(assumptions)
            queries += rng.sample(queries, 2)
            rng.shuffle(queries)
            for assumptions in queries:
                model = solver.solve(assumptions)
                units = [[a] for a in assumptions]
                fresh = _Solver(clauses + units).solve()
                assert (model is None) == (fresh is None), (clauses, assumptions)
                assert (model is not None) == _satisfiable(clauses + units, spare)
                if model is None:
                    seen["unsat query"] += 1
                    continue
                seen["sat query"] += 1
                seen["spare assumed"] += any(abs(a) == spare for a in assumptions)
                assert all(any(l in model for l in c) for c in clauses)
                assert all(a in model for a in assumptions)
                assert not any(-l in model for l in model)
        assert min(seen.values()) >= 10, seen

    def test_trail_reuse_matches_fresh_solver(self):
        # each query derives from the one before, so the solver keeps the
        # shared prefix on its trail; every answer, and every model as a set,
        # must equal that of a fresh solver given the same query
        rng = random.Random(2011)
        seen: Counter = Counter()
        for trial in range(150):
            nvars = rng.randint(3, 7)
            unit = rng.choice((1, -1)) * rng.randint(1, nvars)
            a, b = nvars + 1, nvars + 2  # assuming a propagates b and !b
            clauses = _random_clauses(rng, nvars) + [[unit], [-a, b], [-a, -b]]
            rng.shuffle(clauses)
            solver = _Solver(clauses)
            if solver.root is None:
                continue

            def draw(k):
                return [v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, nvars + 1), k)]

            def check(query):
                # a tuple or an iterator is as good as a list
                got = solver.solve(rng.choice((list, tuple, iter))(query))
                fresh = _Solver(clauses).solve(query)
                assert (got is None) == (fresh is None), (clauses, query)
                assert got is None or got == fresh, (clauses, query)
                seen["sat" if got is not None else "unsat"] += 1

            query = draw(rng.randint(0, 3))
            check(query)
            for step in range(10):
                kind = rng.choice(("suffix", "repeat", "root unit", "conflict", "empty"))
                kept = query[:rng.randint(0, len(query))]
                if kind == "suffix":
                    query = kept + draw(rng.randint(1, 3))
                elif kind == "root unit":
                    query = kept + [-unit] + draw(rng.randint(0, 2))
                elif kind == "conflict":
                    check(kept + [a] + draw(rng.randint(0, 2)))
                    if _Solver(clauses).solve(kept) is not None:
                        # pushing a conflicted: only the assumptions before it stay
                        assert solver.assumed == kept
                        seen["mid conflict"] += 1
                    query = kept + draw(rng.randint(0, 3))
                elif kind == "empty":
                    query = []
                check(query)
                seen[kind] += 1
        assert min(seen.values()) >= 10, seen

    def test_avoid_matches_brute_force(self):
        # `avoid` only changes which literal a decision sets: every answer must
        # equal the plain search's and brute force's, every model must satisfy
        # the clauses and assumptions, and with `avoid` empty the model is the
        # plain one.  A gadget [a, b], [-b, c], [-b, -c] with a avoided makes
        # the search branch on b, hit a conflict and flip it.
        rng = random.Random(4423)
        seen: Counter = Counter()
        for trial in range(300):
            nvars = rng.randint(1, 5)
            clauses = _random_clauses(rng, nvars)
            a, b, c = nvars + 1, nvars + 2, nvars + 3  # at most 8 variables
            gadget = rng.random() < 0.5
            if gadget:
                at = rng.choice((0, rng.randint(0, len(clauses))))
                clauses[at:at] = [[a, b], [-b, c], [-b, -c]]
            top = c if gadget else nvars
            solver = _Solver(clauses)
            pool = range(1, top + 1)
            for _ in range(rng.randint(4, 6)):
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(pool, rng.randint(0, min(3, top)))]
                avoid = {v if rng.random() < 0.5 else -v
                         for v in rng.sample(pool, rng.randint(0, top))}
                if gadget:
                    avoid.add(a)
                    avoid.discard(b)
                steered = solver.solve(assumptions, avoid=avoid)
                steered = None if steered is None else set(steered)
                assert steered == _Solver(clauses).solve(assumptions, avoid=avoid)
                plain = _Solver(clauses).solve(assumptions)
                assert solver.solve(assumptions, avoid=set()) == plain
                units = [[l] for l in assumptions]
                assert (steered is None) == (plain is None) == (not _satisfiable(clauses + units, top))
                if steered is None:
                    seen["unsat"] += 1
                    continue
                assert all(any(l in steered for l in clause) for clause in clauses)
                assert all(l in steered for l in assumptions)
                assert not any(-l in steered for l in steered)
                seen["sat"] += 1
                seen["steered elsewhere"] += steered != plain
                if gadget and clauses[0] == [a, b] and not {a, b} & {abs(l) for l in assumptions}:
                    assert {a, -b} <= steered  # b was tried first and flipped
                    seen["gadget flipped"] += 1
        assert min(seen.values()) >= 10, seen

    def test_consequences_builds_one_solver(self, monkeypatch, measure_base, measure_explanation):
        built = []

        class Counting(_Solver):
            __slots__ = ()

            def __init__(self, clauses):
                built.append(len(clauses))
                super().__init__(clauses)

        monkeypatch.setattr(logic, "_Solver", Counting)
        sig = collect_signature([measure_base, measure_explanation])
        assert len(consequences(measure_base, sig)) == 4
        assert len(built) == 1


class TestEntails:
    def test_alice_entailment(self, alice_base):
        gb = ground(alice_base, collect_signature([alice_base]))
        assert entails(gb.formulas, lit("Ins(charlie)"))

    def test_reflexivity(self):
        assert entails([lit("Wor(charlie)")], lit("Wor(charlie)"))

    def test_empty_base(self):
        assert not entails([], lit("Ins(charlie)"))

    def test_explosion(self):
        g = [lit("Wor(charlie)"), lit("!Wor(charlie)")]
        assert entails(g, lit("Ins(diana)"))

    def test_conjunction(self):
        g = [lit("Wor(charlie)"), lit("Cop(charlie)")]
        assert entails(g, parse_literals("Wor(charlie) & Cop(charlie)"))
        assert not entails(g, parse_literals("Wor(charlie) & Ins(charlie)"))

    def test_rejects_non_ground(self):
        with pytest.raises(ValueError):
            entails([], Literal(Atom("P", (Term("X"),))))

    @pytest.mark.parametrize("formula", [
        Literal(Atom("P", (Term("X"),))),
        Literal(Atom("P", (Term("X"),)), True),
        Rule((Literal(Atom("P", (Term("X"),))),), Literal(Atom("Q", (Term("X"),)))),
        Rule((lit("P(a)"), Literal(Atom("R", (Term("X"),)))), lit("Q(a)")),
    ], ids=str)
    def test_rejects_non_ground_premises(self, formula):
        # a non-ground fact is no propositional atom, and a rule with
        # variables has no instances without constants: both functions
        # reject either, as they reject a non-ground explanandum
        with pytest.raises(ValueError, match="not ground"):
            is_consistent([lit("P(a)"), formula])
        with pytest.raises(ValueError, match="not ground"):
            entails([lit("P(a)"), formula], lit("Q(a)"))

    def test_rejects_empty_conjunction(self):
        with pytest.raises(ValueError):
            entails([lit("Wor(charlie)")], [])


class TestConsequences:
    def test_measure_prior(self, measure_base, measure_explanation):
        sig = collect_signature([measure_base, measure_explanation])
        gamma = {str(l) for l in consequences(measure_base, sig)}
        assert gamma == {"Wor(charlie)", "Wor(diana)", "Ins(charlie)", "Ins(diana)"}

    def test_measure_minimal_posterior(self, measure_base, measure_explanation):
        posterior = parse_base(
            "Wor(charlie). Wor(diana). Wor(diana) -> Ins(diana). "
            "Cop(charlie). Wor(charlie) & Cop(charlie) -> !Ins(charlie)."
        )
        sig = collect_signature([measure_base, posterior])
        gamma = {str(l) for l in consequences(posterior, sig)}
        assert gamma == {
            "Wor(charlie)", "Wor(diana)", "Ins(diana)", "Cop(charlie)", "!Ins(charlie)",
        }

    def test_empty(self):
        assert consequences(BeliefBase(), Signature()) == frozenset()

    def test_only_signature_atoms(self):
        # atoms outside the signature's Herbrand base are never reported,
        # even when the base entails them
        base = parse_base("Wor(charlie). Wor(diana). Wor(X) -> Ins(X). Cop. Cop -> Ins(diana).")
        sig = Signature(("charlie",), (("Cop", 1), ("Ins", 1), ("Wor", 1)))
        assert {str(l) for l in consequences(base, sig)} == {"Wor(charlie)", "Ins(charlie)"}

    def test_inconsistent_refused(self):
        base = parse_base("Wor(charlie). !Wor(charlie).")
        with pytest.raises(InconsistentBase):
            consequences(base, collect_signature([base]))

    def test_never_both_polarities(self):
        rng = random.Random(7)
        for trial in range(30):
            atoms, formulas = random_ground_formulas(rng, 4, 5)
            base_formulas = [f for f in formulas if isinstance(f, Literal)]
            try:
                base = BeliefBase.from_formulas(base_formulas)
            except ValueError:
                continue
            sig = collect_signature([base, atoms and [Literal(a) for a in atoms]])
            gb = ground(base, sig)
            if not is_consistent(gb.formulas):
                continue
            gamma = consequences(base, sig)
            names = {str(l) for l in gamma}
            assert all(str(l.negate()) not in names for l in gamma)
            assert {str(st.formula) for st in base.facts} <= names

    def test_backbone_probes_what_propagation_leaves_open(self, solves, measure_base,
                                                          measure_explanation):
        # literals fixed by unit propagation are taken with no probe, so count
        # the solves: one model, then one probe per candidate left open
        # every entailed literal of the walkthrough's prior propagates from its facts
        sig = collect_signature([measure_base, measure_explanation])
        assert len(consequences(measure_base, sig)) == 4
        assert len(solves) == 1
        # `p -> q` and `!p -> q` entail q only through a decision: q and the
        # first model's value of p are both probed
        solves.clear()
        base = parse_base("p -> q. !p -> q.")
        assert consequences(base, collect_signature([base])) == {lit("q")}
        assert len(solves) == 3
        # the same under a subset solver's selectors, on every consistent subset
        formulas = parse_base("p -> q. !p -> q. r -> !q. r. s -> p. s.").formulas
        sig = collect_signature([formulas])
        subsets = logic._SubsetSolver(formulas, sig, (lit("q"),))
        seen = Counter()
        for kept in range(1 << len(formulas)):
            premises = [f for i, f in enumerate(formulas) if kept >> i & 1]
            models = enumerate_models(ground(BeliefBase.from_formulas(premises), sig).formulas, sig)
            if not models:
                with pytest.raises(InconsistentBase):
                    subsets.consequences(kept)
                continue
            expected = {Literal(atom, not values.pop())
                        for i, atom in enumerate(models[0].atoms)
                        if len(values := {m.values[i] for m in models}) == 1}
            assert subsets.consequences(kept) == expected, premises
            # with both of `s -> p` and `s`, p and so q propagate
            seen["q by decision"] += kept & 0b11 == 0b11 and kept & 0b110000 != 0b110000
        assert seen["q by decision"] == 9, seen
        # there, as under any selectors, what the assumptions propagate is not probed
        solves.clear()
        assert {str(l) for l in subsets.consequences(0b110011)} == {"p", "q", "s"}
        assert len(solves) == 1

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("k", [13, 40])
    def test_backbone_refutes_open_candidates_together(self, solves, k, r):
        # the measure benchmark's shape over k constants: the prior and the
        # minimal revision propagate every entailed literal; in the
        # non-minimal one (P(X) -> Q1(X) dropped) the first model sets
        # !A(ei) for i > 1 by decision, and one probe that branches away from
        # those candidates leaves every one of them unset
        conditionals = [f"P(X) -> Q{j}(X)." for j in range(1, r + 1)]
        categoricals = [f"P(e{i})." for i in range(1, k + 1)]
        explanation = ["A(e1).", "A(X) -> !Q1(X)."]
        base = parse_base(" ".join(conditionals + categoricals))
        for dropped, probes in ((categoricals[0], 0), (conditionals[0], 1)):
            kept = [st for st in conditionals + categoricals if st != dropped]
            revised = parse_base(" ".join(kept + explanation))
            sig = collect_signature([base, revised])
            for premises, calls in ((base, 1), (revised, 1 + probes)):
                solves.clear()
                consequences(premises, sig)
                assert len(solves) == calls, (dropped, premises)
        m = change_measure(base, revised)  # the non-minimal revision
        assert (m.numerator, m.denominator) == (k + 2, (r + 1) * k + 2)

    def test_backbone_matches_truth_table(self):
        # bases with rules over two constants; the consequences must be
        # exactly the literals every model agrees on
        rng = random.Random(31)
        preds = (("P", 1), ("Q", 1), ("R", 1), ("S", 2))
        universe = Signature(("c", "d"), preds)
        pool = ["P(X) -> Q(X)", "Q(X) -> !R(X)", "!P(X) -> R(X)",
                "P(X) & S(X, Y) -> Q(Y)", "S(X, Y) -> S(Y, X)", "R(X) & Q(X) -> !P(X)",
                "S(X, X) -> !Q(X)", "R(X) -> S(X, X)", "!Q(X) & !R(X) -> P(X)"]
        atoms = [str(a) for a in universe.herbrand_atoms()]
        seen = {"consistent": 0, "inconsistent": 0}
        for trial in range(150):
            rules = rng.sample(pool, rng.randint(1, 4))
            facts = {a: rng.random() < 0.4 for a in rng.sample(atoms, rng.randint(0, 6))}
            text = " ".join(f"{'!' if neg else ''}{a}." for a, neg in facts.items())
            base = parse_base(text + " " + " ".join(r + "." for r in rules))
            sig = collect_signature([base, universe])
            models = enumerate_models(ground(base, sig).formulas, sig)
            if not models:
                seen["inconsistent"] += 1
                with pytest.raises(InconsistentBase):
                    consequences(base, sig)
                continue
            seen["consistent"] += 1
            expected = set()
            for i, atom in enumerate(models[0].atoms):
                values = {m.values[i] for m in models}
                if len(values) == 1:
                    expected.add(Literal(atom, not values.pop()))
            assert consequences(base, sig) == expected
        assert min(seen.values()) >= 15, seen


class TestEnumerateModels:
    def test_single_fact(self):
        sig = collect_signature([[lit("Wor(charlie)")]])
        models = enumerate_models([lit("Wor(charlie)")], sig)
        assert len(models) == 1
        assert models[0].as_dict() == {Atom("Wor", (Term("charlie"),)): True}

    def test_contradiction(self):
        g = [lit("Wor(charlie)"), lit("!Wor(charlie)")]
        assert enumerate_models(g, collect_signature([g])) == []

    def test_kernel_union_has_no_models(self, charlie_base, charlie_explanation):
        union = parse_base("Wor(charlie). Wor(charlie) -> Ins(charlie). !Ins(charlie).")
        sig = collect_signature([union])
        assert len(sig.herbrand_atoms()) == 2
        gb = ground(union, sig)
        assert enumerate_models(gb.formulas, sig) == []

    def test_cap(self):
        sig = Signature(("c1", "c2", "c3", "c4", "c5"), (("P", 2),))
        with pytest.raises(CapExceeded):
            enumerate_models([], sig)

    def test_canonical_order_and_determinism(self):
        g = [lit("Wor(charlie)")]
        sig = collect_signature([g, [lit("Ins(charlie)")]])
        first = enumerate_models(g, sig)
        second = enumerate_models(g, sig)
        assert first == second
        assert [m.values for m in first] == [(False, True), (True, True)]


class TestOracleAgreement:
    def test_engines_agree_on_random_instances(self):
        rng = random.Random(2024)
        for trial in range(120):
            atoms, formulas = random_ground_formulas(rng, rng.randint(1, 5), rng.randint(1, 7))
            sig = collect_signature([formulas, [Literal(a) for a in atoms]])
            models = enumerate_models(formulas, sig)
            assert is_consistent(formulas) == bool(models)
            instances = [_instance(f) for f in formulas]
            clauses = _clauses(instances, _index([instances]))
            found = _Solver(clauses).solve()
            assert (found is None) == (not models)
            if found is not None:
                assert not any(-l in found for l in found)
                assert all(any(l in found for l in clause) for clause in clauses)
            for _ in range(3):
                query = Literal(rng.choice(atoms), rng.random() < 0.5)
                expected = all(m.satisfies(query) for m in models) if models else True
                assert entails(formulas, query) == expected

    def test_monotonicity(self):
        rng = random.Random(11)
        for trial in range(60):
            atoms, formulas = random_ground_formulas(rng, 4, 5)
            query = Literal(rng.choice(atoms), rng.random() < 0.5)
            if not entails(formulas, query):
                continue
            extra = random_ground_formulas(rng, 4, 2)[1]
            assert entails(formulas + extra, query)


class TestTruthTables:
    """Subset checks over at most `_TABLE_ATOMS` atoms AND truth tables, and
    above that are selector solves; both must answer every check as the
    models of the Herbrand base do."""

    # 0-ary atoms p0..p6, and R(c, c) through a rule whose one instance over
    # the constant c is tautological
    POOL = [Atom(f"p{i}") for i in range(7)]
    (SYMMETRIC,) = parse_base("R(X, Y) -> R(Y, X).").formulas

    @classmethod
    def _cases(cls, seed: int, trials: int):
        """Unions of up to nine distinct formulas and explananda of up to two
        literals, after three fixed ones: a chain over exactly six atoms, seven
        facts over seven, and the empty union."""
        yield ([Rule((Literal(a),), Literal(b)) for a, b in zip(cls.POOL[:5], cls.POOL[1:6])]
               + [Literal(cls.POOL[0]), Literal(cls.POOL[5], True)]), ()
        yield [Literal(a, i % 2 == 1) for i, a in enumerate(cls.POOL)], (Literal(cls.POOL[6]),)
        yield [], (lit("s"),)
        rng = random.Random(seed)
        for _ in range(trials):
            atoms = cls.POOL[:rng.choice((3, 5, 6, 6, 7))]
            formulas = {}
            for _ in range(rng.randint(0, 9)):
                if rng.random() < 0.1:
                    formula = cls.SYMMETRIC
                elif rng.random() < 0.5:
                    formula = Literal(rng.choice(atoms), rng.random() < 0.4)
                else:
                    body = tuple(Literal(rng.choice(atoms), rng.random() < 0.3)
                                 for _ in range(rng.randint(1, 2)))
                    formula = Rule(body, Literal(rng.choice(atoms), rng.random() < 0.4))
                formulas.setdefault(str(formula), formula)
            # s is an explanandum atom that no formula mentions
            phi_atoms = rng.sample([*cls.POOL, Atom("s")], rng.randint(0, 2))
            phi = tuple(Literal(a, rng.random() < 0.5) for a in phi_atoms)
            if rng.random() < 0.15:
                phi = (Literal(phi_atoms[0]), Literal(phi_atoms[0], True)) if phi_atoms else phi
            yield list(formulas.values()), phi

    def test_tables_and_solver_match_models_on_every_subset(self):
        widths, seen = Counter(), set()
        for formulas, phi in self._cases(23, 150):
            sig = collect_signature([formulas, phi, Signature(("c",))])
            grounds = [ground_formula(f, sig) for f in formulas]
            # each model: the formulas it satisfies, and whether it falsifies phi
            profiles = set()
            for m in enumerate_models((), sig):
                values = m.as_dict()
                held = sum(1 << i for i, g in enumerate(grounds)
                           if all(logic._evaluate(gf, values) for gf in g))
                profiles.add((held, not all(logic._evaluate(l, values) for l in phi)))
            queries = [(kept, refute) for kept in range(1 << len(formulas)) for refute in (False, True)]
            # an empty explanandum is refuted by every model, as `_refutation` has it
            expected = [any(kept & held == kept and (refuted or not phi or not refute)
                            for held, refuted in profiles)
                        for kept, refute in queries]
            checks = logic._SubsetSolver(formulas, sig, phi)
            assert [checks.satisfiable(kept, refute) for kept, refute in queries] == expected
            width = len(checks._index)
            widths[min(width, 8)] += 1
            assert (checks._tables is not None) == (checks._solver is None) == (width <= 6)
            solved = []
            for kept, refute in queries:
                assumptions = checks._assumptions(kept, refute)  # builds the solver
                solved.append(checks._solver.solve(assumptions) is not None)
            assert solved == expected
            # the same checks through the public entry points, on the ground formulas
            flat = [gf for g in grounds for gf in g]
            consistent = any(held == (1 << len(formulas)) - 1 for held, _ in profiles)
            assert is_consistent(flat) == consistent
            if len(phi) == 2 and phi[0] == phi[1].negate():
                assert entails(flat, phi) == (not consistent)
                seen.add("complement")
            features = {"empty": not formulas, "tautology": self.SYMMETRIC in formulas,
                        "unmentioned": Atom("s") in {l.atom for l in phi}}
            seen.update(name for name, hit in features.items() if hit)
        assert widths[6] >= 20 and widths[7] >= 20, widths
        assert seen == {"complement", "empty", "tautology", "unmentioned"}


class TestGroundingSoundness:
    def test_alien_constants_do_not_change_entailment(self):
        rng = random.Random(5)
        base = parse_base("Wor(charlie). Wor(X) -> Ins(X). !Cop(X) -> Med(X).")
        sig = collect_signature([base])
        query = lit("Ins(charlie)")
        narrow = entails(ground(base, sig).formulas, query)
        widened = Signature(sig.constants + ("zeta",), sig.predicates)
        assert entails(ground(base, widened).formulas, query) == narrow

    def test_random_instances(self):
        rng = random.Random(23)
        for trial in range(25):
            atoms, formulas = random_ground_formulas(rng, 3, 4)
            facts = [f for f in formulas if isinstance(f, Literal)]
            try:
                base = BeliefBase.from_formulas(
                    facts + [Rule((Literal(Atom("a0", (Term("X"),))),),
                                  Literal(Atom("a1", (Term("X"),)), True))]
                )
            except ValueError:
                continue
            sig = collect_signature([base, [Literal(a) for a in atoms]])
            query = Literal(rng.choice(atoms), rng.random() < 0.5)
            narrow = entails(ground(base, sig).formulas, query)
            widened = Signature(sig.constants + ("omega",), sig.predicates)
            assert entails(ground(base, widened).formulas, query) == narrow


class TestBeliefBase:
    def test_duplicate_formula_rejected(self):
        with pytest.raises(ValueError):
            BeliefBase.from_formulas([lit("Wor(charlie)"), lit("Wor(charlie)")])

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ValueError):
            BeliefBase.from_formulas([Literal(Atom("Wor", (Term("X"),)))])

    def test_equality_ignores_labels(self):
        a = parse_base("x1: Wor(charlie). x2: Wor(diana).")
        b = parse_base("Wor(diana). Wor(charlie).")
        assert a == b
        assert hash(a) == hash(b)
