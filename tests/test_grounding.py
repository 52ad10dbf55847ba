"""Grounding straight to clauses against the object-level path it replaced.

The reference below is the clausifier the engine used before it compiled
formulas to literal templates: number the atoms of the `ground_formula`
instances in sorted order, then clausify each instance.  The new path must
give an equal numbering and equal clause lists, element for element, so the
solver sees the same problem and every search, model and SAT count stays the
same.
"""

import pickle
import random
from collections import Counter
from itertools import chain

import pytest

from revisekit import (
    Atom,
    BeliefBase,
    EmptyUniverse,
    Explanandum,
    InconsistentBase,
    Literal,
    Rule,
    Signature,
    Term,
    collect_signature,
    consequences,
    enumerate_models,
    ground,
)
from revisekit.logic import _SubsetSolver, _clauses, _index, _instance, _instances, ground_formula
from revisekit.revision import _UnionContext

from conftest import mask

PREDICATES = (("p", 0), ("q", 1), ("r", 2), ("s", 1))


def _ref_atoms(formulas):
    atoms = set()
    for gf in formulas:
        if isinstance(gf, Literal):
            atoms.add(gf.atom)
        else:
            atoms.update(lit.atom for lit in gf.body)
            atoms.add(gf.head.atom)
    return atoms


def _ref_atom_index(groups):
    return {atom: i for i, atom in enumerate(sorted(_ref_atoms(chain.from_iterable(groups)), key=str))}


def _ref_clausify(formulas, index):
    clauses = []
    for gf in formulas:
        if isinstance(gf, Literal):
            v = index[gf.atom] + 1
            clauses.append([-v if gf.negated else v])
        else:
            clause = []
            for lit in gf.body:
                v = index[lit.atom] + 1
                clause.append(v if lit.negated else -v)
            v = index[gf.head.atom] + 1
            clause.append(-v if gf.head.negated else v)
            lits = set(clause)
            if any(-l in lits for l in lits):
                continue  # tautological instance
            clauses.append(sorted(lits))
    return clauses


def _literal(rng, terms, negated=0.4):
    name, arity = rng.choice([p for p in PREDICATES if terms or not p[1]])
    return Literal(Atom(name, tuple(Term(rng.choice(terms)) for _ in range(arity))),
                   rng.random() < negated)


def _random_formulas(rng, constants):
    """One to six distinct formulas: ground facts, rules over X and Y that may
    repeat a variable or hold constants, tautologies such as `q(X) -> q(X)`,
    and ground rules equal to an instance of an earlier rule."""
    formulas = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.3 and constants:
            formulas.append(_literal(rng, constants))
        elif roll < 0.4:
            lit = _literal(rng, ["X"] + constants)
            formulas.append(Rule((lit,), lit))
        elif roll < 0.55 and constants and any(isinstance(f, Rule) and f.variables() for f in formulas):
            rule = rng.choice([f for f in formulas if isinstance(f, Rule) and f.variables()])
            formulas.append(rule.substitute({v: rng.choice(constants) for v in rule.variables()}))
        else:
            body = tuple(_literal(rng, ["X", "Y"] + constants, 0.3)
                         for _ in range(rng.randint(1, 2)))
            bound = sorted(set().union(*(lit.variables() for lit in body)))
            formulas.append(Rule(body, _literal(rng, bound + constants)))
    return list(dict.fromkeys(formulas))


def _features(formulas, sig):
    seen = set()
    for f in formulas:
        lits = (f,) if isinstance(f, Literal) else (*f.body, f.head)
        seen.update(f"arity {lit.atom.arity}" for lit in lits)
        if isinstance(f, Literal):
            continue
        if any(l.negated for l in f.body):
            seen.add("negated body")
        if f.head.negated:
            seen.add("negated head")
        if any(not t.is_variable for lit in lits for t in lit.atom.args):
            seen.add("constant in a rule")
        if any(sum(t.is_variable for t in lit.atom.args) > len(lit.variables()) for lit in lits):
            seen.add("repeated variable")
        instances = ground_formula(f, sig)
        if len(_ref_clausify(instances, _ref_atom_index([instances]))) < len(instances):
            seen.add("tautological instance")
        if not f.variables() and any(
                f in ground_formula(g, sig) for g in formulas if isinstance(g, Rule) and g.variables()):
            seen.add("ground rule equal to an instance")
    return seen


def _cases(seed, trials, max_constants=3):
    rng = random.Random(seed)
    for _ in range(trials):
        constants = [f"c{i}" for i in range(rng.randint(0, max_constants))]
        formulas = _random_formulas(rng, constants)
        extra = Signature(tuple(constants[:rng.randint(0, len(constants))]))
        yield rng, formulas, collect_signature([formulas, extra])


class TestAgainstReference:
    def test_base_numbering_and_clauses(self):
        features = set()
        # a base's solver (as `consequences` builds it) numbers the atoms of
        # every formula's instances, and clausifies each formula's instances
        # as the reference clausifies its ground formulas
        for _, formulas, sig in _cases(1313, 400):
            base = BeliefBase.from_formulas(formulas)
            try:
                ground_of = [ground_formula(f, sig) for f in formulas]
            except EmptyUniverse as err:
                with pytest.raises(EmptyUniverse) as raised:
                    _SubsetSolver(base.formulas, sig, ())
                assert str(raised.value) == str(err)
                features.add("empty universe")
                continue
            reference = _ref_atom_index(ground_of)
            checks = _SubsetSolver(base.formulas, sig, ())
            assert checks._index == {str(atom): i + 1 for atom, i in reference.items()}
            assert [_clauses(g, checks._index) for g in checks.instances] == [
                _ref_clausify(g, reference) for g in ground_of]
            features |= _features(formulas, sig)
        assert features >= {
            "arity 0", "arity 1", "arity 2", "repeated variable", "constant in a rule",
            "negated body", "negated head", "tautological instance",
            "ground rule equal to an instance", "empty universe"}, features

    def test_instances_follow_ground_formula(self):
        for _, formulas, sig in _cases(77, 300):
            for f in formulas:
                try:
                    expected = [_instance(gf) for gf in ground_formula(f, sig)]
                except EmptyUniverse as err:
                    with pytest.raises(EmptyUniverse) as raised:
                        _instances(f, sig)
                    assert str(raised.value) == str(err)
                    continue
                assert _instances(f, sig) == expected

    def test_instances_of_a_tautology(self):
        q = Literal(Atom("q", (Term("X"),)))
        sig = Signature(("a", "b"), (("q", 1),))
        instances = _instances(Rule((q,), q), sig)
        assert instances == [(("q(a)", False), ("q(a)", True)), (("q(b)", False), ("q(b)", True))]
        assert _index([instances]) == {"q(a)": 1, "q(b)": 2}
        assert _clauses(instances, _index([instances])) == []

    def test_union_context_clauses(self):
        absent = phis = unit_rules = 0
        for rng, formulas, sig in _cases(2026, 300):
            split = rng.randint(0, len(formulas))
            base = BeliefBase.from_formulas(formulas[:split])
            explanation = BeliefBase.from_formulas(formulas[split:])
            phi_atoms = {}
            for _ in range(rng.randint(0, 2)):
                lit = _literal(rng, list(sig.constants) + ["z"])
                phi_atoms.setdefault(lit.atom, lit)
            phi = Explanandum(tuple(phi_atoms.values())) if phi_atoms else None
            try:
                ctx = _UnionContext(base, explanation, phi, 10 ** 6)
            except EmptyUniverse:
                continue
            ground_of = [ground_formula(el.formula, ctx.sig) for el in ctx.elements]
            assert ctx.subsets.instances == [[_instance(gf) for gf in g] for g in ground_of]
            literals = phi.literals if phi is not None else ()
            reference = _ref_atom_index([*ground_of, literals])
            first = len(reference) + 1
            # a formula of one unit clause is kept by its literal, any other by
            # its selector s_i = first + i, which guards each of its clauses
            expected, keys = [], []
            for i, g in enumerate(ground_of):
                own = _ref_clausify(g, reference)
                if len(own) == 1 and len(own[0]) == 1:
                    keys.append(own[0][0])
                    unit_rules += isinstance(ctx.elements[i].formula, Rule)
                else:
                    keys.append(first + i)
                    expected += [[-(first + i), *clause] for clause in own]
            negated = sorted({(reference[l.atom] + 1) * (1 if l.negated else -1) for l in literals})
            if negated and not any(-l in negated for l in negated):
                expected.append([-(first + len(ground_of)), *negated])
            assumptions = ctx.subsets._assumptions(mask(()), False)  # builds the solver, which small unions skip
            assert ctx.subsets._keys == keys
            assert ctx.subsets._solver.clauses == expected
            # dropping everything assumes only the selectors off, then !s_phi
            assert assumptions == [-k for k in keys if k >= first] + [-(first + len(keys))]
            phis += phi is not None
            absent += any(l.atom not in _ref_atoms(chain.from_iterable(ground_of)) for l in literals)
        assert phis >= 100 and absent >= 30 and unit_rules >= 10, (phis, absent, unit_rules)


class TestConsequences:
    def test_equal_model_backbone(self):
        """On bases of at most ten Herbrand atoms, the consequences are the
        literals every model agrees on, also when the signature leaves a
        predicate out (those atoms are filtered) or adds a constant."""
        seen = {"consistent": 0, "inconsistent": 0, "filtered": 0}
        for rng, formulas, sig in _cases(404, 400, max_constants=2):
            base = BeliefBase.from_formulas(formulas)
            if rng.random() < 0.3 and len(sig.constants) < 2:
                sig = Signature(tuple(sorted({*sig.constants, "c9"})), sig.predicates)
            if len(sig.herbrand_atoms()) > 10:
                continue
            try:
                models = enumerate_models(ground(base, sig).formulas, sig)
            except EmptyUniverse:
                continue
            if not models:
                seen["inconsistent"] += 1
                with pytest.raises(InconsistentBase):
                    consequences(base, sig)
                continue
            seen["consistent"] += 1
            backbone = set()
            for i, atom in enumerate(models[0].atoms):
                values = {m.values[i] for m in models}
                if len(values) == 1:
                    backbone.add(Literal(atom, not values.pop()))
            assert consequences(base, sig) == backbone
            if len(sig.predicates) > 1:
                kept = sig.predicates[1:]
                narrow = Signature(sig.constants, kept)
                expected = {l for l in backbone if (l.atom.predicate, l.atom.arity) in kept}
                assert consequences(base, narrow) == expected
                seen["filtered"] += expected != backbone
        assert min(seen.values()) >= 15, seen

    def test_facts_returned_as_stated(self):
        """An entailed fact is the base's own literal, and a derived atom over
        a fact's constants reuses that fact's terms."""
        fact = Literal(Atom("q", (Term("a"),)))
        x = Term("X")
        rule = Rule((Literal(Atom("q", (x,))),), Literal(Atom("s", (x,)), True))
        base = BeliefBase.from_formulas([fact, rule])
        out = {str(l): l for l in consequences(base, collect_signature([base]))}
        assert set(out) == {"q(a)", "!s(a)"}
        assert out["q(a)"] is fact
        assert out["!s(a)"].atom.args is fact.atom.args

    def test_context_reads_equal_consequences(self):
        """Every kept mask of a union of at most eight elements: the backbone
        read off the union's solver is `consequences` of a base of the kept
        elements over the union's signature, or both raise."""
        seen: Counter = Counter()
        for rng, formulas, sig in _cases(5151, 120):
            split = rng.randint(0, len(formulas))
            extra = [Literal(Atom("t", (Term("d"),)))] if rng.random() < 0.5 else []
            explanation = BeliefBase.from_formulas(formulas[split:] + extra)
            phi_atoms = {}
            for _ in range(rng.randint(0, 2)):
                lit = _literal(rng, list(sig.constants) + ["z"])
                phi_atoms.setdefault(lit.atom, lit)
            phi = Explanandum(tuple(phi_atoms.values())) if phi_atoms else None
            try:
                ctx = _UnionContext(BeliefBase.from_formulas(formulas[:split]), explanation,
                                    phi, 10 ** 6)
            except EmptyUniverse:
                continue
            n = len(ctx.elements)
            assert n <= 8
            atoms_of = [{text for inst in g for text, _ in inst} for g in ctx.subsets.instances]
            for kept in range(1 << n):
                kept_atoms = set().union(*(a for i, a in enumerate(atoms_of) if kept >> i & 1))
                base = BeliefBase.from_formulas(
                    [el.formula for i, el in enumerate(ctx.elements) if kept >> i & 1])
                try:
                    expected = consequences(base, ctx.sig)
                except InconsistentBase:
                    seen["inconsistent"] += 1
                    with pytest.raises(InconsistentBase):
                        ctx.subsets.consequences(kept)
                    continue
                assert ctx.subsets.consequences(kept) == expected
                seen["consistent"] += 1
                if phi is not None and any(l.atom._text not in kept_atoms for l in phi.literals):
                    seen["explanandum atom unmentioned"] += 1
                if any(not kept >> i & 1 and a and not a & set().union(*atoms_of[:i], *atoms_of[i + 1:])
                       for i, a in enumerate(atoms_of)):
                    seen["dropped element with its own atoms"] += 1
        assert len(seen) == 4 and min(seen.values()) >= 50, seen


def test_rule_instances_equal_built_rules():
    """`ground_formula` builds rule instances without re-checking range
    restriction; they are indistinguishable from rules built directly."""
    instances = 0
    for _, formulas, sig in _cases(909, 150):
        for f in formulas:
            if not isinstance(f, Rule) or not f.variables() or not sig.constants:
                continue
            for inst in ground_formula(f, sig):
                built = Rule(inst.body, inst.head)
                again = pickle.loads(pickle.dumps(inst))
                for other in (built, again):
                    assert inst == other and hash(inst) == hash(other)
                    assert (str(inst), repr(inst)) == (str(other), repr(other))
                instances += 1
    assert instances >= 200
    x, y = Term("X"), Term("Y")
    with pytest.raises(ValueError, match="head variables not bound"):
        Rule((Literal(Atom("q", (x,))),), Literal(Atom("q", (y,))))
