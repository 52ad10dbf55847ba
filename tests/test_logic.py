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
from revisekit.logic import _Solver, _clauses, _index, _instance
from conftest import random_ground_formulas


def lit(text: str) -> Literal:
    (result,) = parse_literals(text)
    return result


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

    def test_backbone_probes_what_propagation_leaves_open(self, monkeypatch, measure_base,
                                                          measure_explanation):
        # literals fixed by unit propagation are taken with no probe, so count
        # the solves: one model, then one probe per candidate left open
        solves = []
        solve = _Solver.solve

        def counted(self, assumptions=()):
            solves.append(1)
            return solve(self, assumptions)

        monkeypatch.setattr(_Solver, "solve", counted)
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
