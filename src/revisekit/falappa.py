"""Minimality baseline: kernel revision by a set of sentences.

The comparison operator enumerates the minimal unsatisfiable subsets (the
kernel set) of the union and removes an incision: a set of formulas that
intersects every nonempty kernel.  Cutting each minimal conflict restores
consistency, but because the incision is chosen without reference to any
explanandum, the revised base is free to drop the very thing the explanation
was arguing for.  The guided operator in `revision` never does that; this
module exists to make the contrast executable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .logic import DEFAULT_CAP, BeliefBase
from .revision import (
    CorrectionSet,
    RevisionResult,
    UnionElement,
    _holds_any,
    _UnionContext,
    base_from_elements,
    union_elements,
)


@dataclass(frozen=True)
class KernelSet:
    """All minimal unsatisfiable subsets of a union, in canonical order."""

    kernels: tuple[tuple[UnionElement, ...], ...]

    def __len__(self) -> int:
        return len(self.kernels)

    def __iter__(self) -> Iterator[tuple[UnionElement, ...]]:
        return iter(self.kernels)

    def canonical_forms(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(el.canonical() for el in kernel) for kernel in self.kernels)


MIN_HITTING_SET = "min-hitting-set"
CANONICAL_FIRST = "canonical-first"
SEEDED_RANDOM_INCISION = "seeded-random"

INCISION_KINDS = (MIN_HITTING_SET, CANONICAL_FIRST, SEEDED_RANDOM_INCISION)


@dataclass(frozen=True)
class IncisionPolicy:
    kind: str = MIN_HITTING_SET
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in INCISION_KINDS:
            raise ValueError(f"unknown incision policy {self.kind!r}")
        if self.kind == SEEDED_RANDOM_INCISION and self.seed is None:
            object.__setattr__(self, "seed", 0)


def kernel_set(base: BeliefBase, explanation: BeliefBase,
               cap: int = DEFAULT_CAP) -> KernelSet:
    """Every minimal unsatisfiable subset of the union.

    Candidates are int masks, by cardinality and canonically within a size,
    with memoized consistency checks; one found inconsistent is minimal
    exactly when it contains no kernel found before, so kernels come out in
    canonical order.  One found consistent is grown to a maximal consistent
    superset (adding each element in ascending order while consistency
    holds), and later subsets of a grown set are skipped, so SAT work follows
    the kernels and the maximal consistent subsets rather than 2^n.
    """
    ctx = _UnionContext(base, explanation, None, cap)
    n = len(ctx.elements)
    everything = (1 << n) - 1
    bits = [1 << i for i in range(n)]
    found: list[int] = []
    outside: list[int] = []  # the grown sets' complements: mask <= grown iff ~mask >= ~grown
    for size in range(1, n + 1):
        for combo in combinations(bits, size):
            mask = sum(combo)
            if _holds_any(mask, found) or _holds_any(everything ^ mask, outside):
                continue
            if ctx.consistent(mask):
                for bit in bits:
                    if not mask & bit and ctx.consistent(mask | bit):
                        mask |= bit
                outside.append(everything ^ mask)
            else:
                found.append(mask)
    kernels = tuple(tuple(el for i, el in enumerate(ctx.elements) if kernel >> i & 1)
                    for kernel in found)
    return KernelSet(kernels)


def is_valid_incision(ks: KernelSet, cut: Sequence[UnionElement]) -> bool:
    """True iff the cut intersects every nonempty kernel and stays inside
    the union of kernels."""
    names = {el.canonical() for el in cut}
    pool = {el.canonical() for kernel in ks for el in kernel}
    if not names <= pool:
        return False
    return all(names & forms for forms in ks.canonical_forms())


def incise(ks: KernelSet, policy: IncisionPolicy) -> tuple[UnionElement, ...]:
    """Pick formulas hitting every kernel; empty when there are no kernels."""
    if not ks.kernels:
        return ()
    if policy.kind == CANONICAL_FIRST:
        picked = {min(kernel, key=UnionElement.canonical) for kernel in ks.kernels}
        return tuple(sorted(picked, key=UnionElement.canonical))
    if policy.kind == SEEDED_RANDOM_INCISION:
        rng = random.Random(policy.seed)
        picked = set()
        for kernel in ks.kernels:
            ordered = sorted(kernel, key=UnionElement.canonical)
            picked.add(ordered[rng.randrange(len(ordered))])
        return tuple(sorted(picked, key=UnionElement.canonical))
    # min-hitting-set: smallest subset of the kernels' union that hits all,
    # ties broken canonically; kernel counts are tiny at the configured cap.
    pool = sorted({el.canonical(): el for kernel in ks.kernels for el in kernel}.values(),
                  key=UnionElement.canonical)
    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            if is_valid_incision(ks, combo):
                return combo
    raise AssertionError("nonempty kernels always admit a hitting set")


def revise_falappa(base: BeliefBase, explanation: BeliefBase,
                   policy: IncisionPolicy = IncisionPolicy(),
                   cap: int = DEFAULT_CAP) -> RevisionResult:
    """Union with the explanation, then remove the incision.

    The operator takes no explanandum: the result is always consistent but may
    or may not entail whatever the explanation was explaining.
    """
    ks = kernel_set(base, explanation, cap)
    cut = incise(ks, policy)
    removed = {el.canonical() for el in cut}
    kept = [el for el in union_elements(base, explanation) if el.canonical() not in removed]
    return RevisionResult(
        base_from_elements(kept),
        CorrectionSet(cut),
        not ks.kernels,  # a union is inconsistent iff it has a minimal unsatisfiable subset
        f"falappa:{policy.kind}",
        policy.seed,
    )
