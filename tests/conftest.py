"""Shared fixtures: the worked instances every module is tested against."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from revisekit import (
    BeliefBase,
    Explanandum,
    Literal,
    Atom,
    Rule,
    Term,
    parse_base,
    parse_literals,
)


@pytest.fixture
def sat_calls(monkeypatch) -> Counter:
    """Counts the SAT calls of every `logic._SubsetSolver` check, by kind.
    Explanation validation, the union contexts, the postulate checks, the
    scenario invariant and `is_consistent`/`entails` themselves each decide a
    check by one solve, counted as `is_consistent` or, with the explanandum
    refuted, as `entails`."""
    from revisekit import logic

    calls: Counter = Counter()
    satisfiable = logic._SubsetSolver.satisfiable

    def counted_check(self, kept, refute_phi):
        calls["entails" if refute_phi else "is_consistent"] += 1
        return satisfiable(self, kept, refute_phi)
    monkeypatch.setattr(logic._SubsetSolver, "satisfiable", counted_check)
    return calls


@pytest.fixture
def alice_base() -> BeliefBase:
    """Worried people have insomnia; Charlie and Diana are worried."""
    return parse_base("Wor(charlie). Wor(diana). Wor(X) -> Ins(X).")


@pytest.fixture
def charlie_base() -> BeliefBase:
    """The two-element base of the small kernel walkthrough."""
    return parse_base("Wor(charlie). Wor(charlie) -> Ins(charlie).")


@pytest.fixture
def charlie_explanation() -> BeliefBase:
    return parse_base("!Ins(charlie).")


@pytest.fixture
def charlie_phi() -> Explanandum:
    return Explanandum(parse_literals("!Ins(charlie)"))


@pytest.fixture
def coping_explanation() -> BeliefBase:
    """Charlie copes, and worried copers avoid insomnia."""
    return parse_base("Wor(charlie). Cop(charlie). Wor(X) & Cop(X) -> !Ins(X).")


@pytest.fixture
def measure_base() -> BeliefBase:
    """Prior base of the belief-change walkthrough (ground conditionals)."""
    return parse_base(
        "Wor(charlie). Wor(diana). "
        "Wor(charlie) -> Ins(charlie). Wor(diana) -> Ins(diana)."
    )


@pytest.fixture
def measure_explanation() -> BeliefBase:
    return parse_base(
        "Wor(charlie). Cop(charlie). "
        "Wor(charlie) & Cop(charlie) -> !Ins(charlie)."
    )


@pytest.fixture
def baseline_base() -> BeliefBase:
    return parse_base(
        "Wor(charlie). Wor(diana). "
        "Wor(charlie) -> Ins(charlie). Wor(diana) -> Ins(diana)."
    )


@pytest.fixture
def baseline_explanation() -> BeliefBase:
    return parse_base(
        "Wor(diana). Cop(charlie). Wor(charlie) & Cop(charlie) -> !Ins(charlie)."
    )


def random_ground_formulas(rng: random.Random, n_atoms: int, n_formulas: int):
    """Ground literals and variable-free rules over a small atom pool."""
    atoms = [Atom(f"a{i}", (Term(f"c{i % 2 + 1}"),)) for i in range(n_atoms)]
    formulas = []
    for _ in range(n_formulas):
        if rng.random() < 0.55:
            formulas.append(Literal(rng.choice(atoms), rng.random() < 0.4))
        else:
            body = tuple(
                Literal(rng.choice(atoms), rng.random() < 0.3)
                for _ in range(rng.randint(1, 2))
            )
            head = Literal(rng.choice(atoms), rng.random() < 0.4)
            formulas.append(Rule(body, head))
    return atoms, formulas


def mask(indices) -> int:
    """The int mask (bit i for position i) of a set of union positions: the one
    subset type of `_UnionContext` and `logic._SubsetSolver`."""
    return sum(1 << i for i in indices)
