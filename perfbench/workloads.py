"""Workload definitions: seeded input generators, operations and references.

Every workload turns a seed into inputs (DSL text, parsed during set-up),
then hands out operations in *rounds*.  A round holds one operation per
stratum of the workload's input space (union size, conflict count, op kind,
Herbrand size), so a run that executes whole rounds always measures the same
mix whatever the seed.  Each operation carries:

  * ``run``       the call into revisekit that is timed;
  * ``check``     a comparison against a reference that does not use the
                  operation under test (closed forms or planted structure);
  * ``canonical`` the canonical text of the output, hashed into digests;
  * ``oracle``    optionally, a re-check against the truth-table oracle
                  ``logic.enumerate_models``, run outside the timed region.

The benchmark reaches revisekit only through module attributes looked up at
call time (``rk.revision.revise``), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

MODULES = ("errors", "logic", "dsl", "revision", "falappa", "metrics",
           "postulates", "corpus", "cli")


class MissingProgram(RuntimeError):
    """The checkout holds no revisekit sources to benchmark."""


class Rk:
    """The revisekit modules, imported from this checkout's ``src``."""

    def __init__(self) -> None:
        init = SRC / "revisekit" / "__init__.py"
        if not init.is_file():
            raise MissingProgram(f"no revisekit sources at {init.relative_to(ROOT)}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        package = importlib.import_module("revisekit")
        loaded = Path(package.__file__).resolve()
        if loaded != init.resolve():
            raise MissingProgram(f"revisekit was imported from {loaded}, not from this checkout")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"revisekit.{name}"))


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    canonical: Callable[[Any], str]
    oracle: Callable[[Any], bool] | None = None
    units: int = 1  # work units the op stands for (postulate-suite trials)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- wide unions with planted conflicts ----------------------------------------

# Conflict shapes: base formulas plus the explanation literal that clashes with
# them.  Each shape is one minimal unsatisfiable subset of the union.
_STEMS = ("Wor", "Ins", "Cop", "Fev", "Loud", "Sug", "Wet", "Kind", "Diet", "Sale")
_CONSTANTS = ("alice", "bob", "drink", "party", "match", "maria")


@dataclass
class WideUnion:
    n: int
    base_text: str
    explanation_text: str
    phi_text: str
    conflicts: list[tuple[tuple[str, ...], str]]  # (removable formulas, explanation literal)
    unrelated: list[str]
    weights: dict[str, float]
    base: Any = None
    explanation: Any = None
    phi: Any = None

    @property
    def union(self) -> frozenset[str]:
        forms = set(self.unrelated)
        for removable, literal in self.conflicts:
            forms.update(removable)
            forms.add(literal)
        return frozenset(forms)

    @property
    def keep(self) -> frozenset[str]:
        return frozenset(literal for _, literal in self.conflicts)

    def hitting_choices(self) -> list[tuple[str, ...]]:
        """Every way to retract one removable formula from each conflict."""
        return [tuple(sorted(pick)) for pick in product(*(r for r, _ in self.conflicts))]

    def expected_min(self) -> tuple[str, ...]:
        return min(self.hitting_choices())

    def expected_max(self) -> tuple[str, ...]:
        return tuple(sorted(self.union - self.keep))

    def expected_weighted(self) -> tuple[str, ...]:
        def key(pick: tuple[str, ...]) -> tuple[float, int, tuple[str, ...]]:
            return (sum(self.weights.get(f, 1.0) for f in pick), len(pick), pick)
        return min(self.hitting_choices(), key=key)

    def expected_correction_count(self) -> int:
        count = 2 ** len(self.unrelated)
        for removable, _ in self.conflicts:
            count *= 2 ** (len(removable) + 1) - 1
        return count - 1  # retracting the whole union leaves no remainder

    def expected_muses(self) -> list[tuple[str, ...]]:
        kernels = [tuple(sorted(r + (lit,))) for r, lit in self.conflicts]
        return sorted(kernels, key=lambda k: (len(k), k))

    def expected_incision(self) -> tuple[str, ...]:
        # one formula per (disjoint) kernel, lexicographically first
        return min(tuple(sorted(pick)) for pick in product(*self.expected_muses()))


# Conflict sizes per conflict count: fixed, so that a stratum's cost depends
# on n and m and not on the seed, which varies names, order and polarity.
SHAPES = {1: (4,), 2: (2, 3), 3: (2, 2, 3)}


def fits(n: int, m: int) -> bool:
    """m conflicts plus at least one unrelated fact fit in n formulas."""
    return sum(SHAPES[m]) <= n - 1


def make_wide_union(rng: random.Random, n: int, m: int) -> WideUnion:
    """A union of n formulas with m disjoint planted conflicts; the rest are
    unrelated facts.  One constant keeps the Herbrand base at n - m atoms."""
    used: set[str] = set()

    def pred() -> str:
        while True:
            name = f"{rng.choice(_STEMS)}{rng.randrange(100)}"
            if name not in used:
                used.add(name)
                return name

    if not fits(n, m):
        raise ValueError(f"{m} conflicts and an unrelated fact do not fit in {n} formulas")
    c = rng.choice(_CONSTANTS)
    shapes = list(SHAPES[m])
    rng.shuffle(shapes)
    conflicts = []
    for size in shapes:
        if size == 2:
            p = pred()
            conflicts.append(((f"{p}({c})",), f"!{p}({c})"))
        elif size == 3:
            p, q = pred(), pred()
            conflicts.append(((f"{p}({c})", f"{p}(X) -> {q}(X)"), f"!{q}({c})"))
        else:
            p, r, q = pred(), pred(), pred()
            conflicts.append(((f"{p}({c})", f"{r}({c})", f"{p}(X) & {r}(X) -> {q}(X)"),
                              f"!{q}({c})"))
    unrelated = [("!" if rng.random() < 0.3 else "") + f"{pred()}({c})"
                 for _ in range(n - sum(shapes))]
    base_forms = unrelated + [f for removable, _ in conflicts for f in removable]
    rng.shuffle(base_forms)
    literals = [lit for _, lit in conflicts]
    weights = {f: rng.choice((0.5, 1.0, 2.0, 4.0))
               for removable, _ in conflicts for f in removable}
    return WideUnion(
        n=n,
        base_text="\n".join(f"{f}." for f in base_forms),
        explanation_text="\n".join(f"{lit}." for lit in literals),
        phi_text=" & ".join(literals),
        conflicts=conflicts,
        unrelated=unrelated,
        weights=weights,
    )


def parse_wide(rk: Rk, wu: WideUnion) -> WideUnion:
    wu.base = rk.dsl.parse_base(wu.base_text)
    wu.explanation = rk.dsl.parse_base(wu.explanation_text)
    wu.phi = rk.revision.Explanandum(rk.dsl.parse_literals(wu.phi_text))
    parsed = wu.base.canonical_forms() | wu.explanation.canonical_forms()
    if parsed != wu.union:
        raise AssertionError(f"generator and parser disagree on the union: {sorted(parsed ^ wu.union)}")
    return wu


def _forms(elements: Any) -> tuple[str, ...]:
    return tuple(el.canonical() for el in elements)


def _oracle_models(rk: Rk, wu: WideUnion, base: Any) -> list[Any]:
    sig = rk.logic.collect_signature([wu.base, wu.explanation, wu.phi.literals])
    return rk.logic.enumerate_models(rk.logic.ground(base, sig).formulas, sig)


def _oracle_revision(rk: Rk, wu: WideUnion, result: Any, need_phi: bool) -> bool:
    union_base = rk.logic.BeliefBase.from_formulas(
        [st.formula for b in (wu.base, wu.explanation) for st in b])
    if _oracle_models(rk, wu, union_base):
        return False  # the union must have no model
    models = _oracle_models(rk, wu, result.revised)
    if not models:
        return False
    if need_phi:
        return all(m.satisfies(lit) for m in models for lit in wu.phi.literals)
    return True


def _oracle_kernels(rk: Rk, wu: WideUnion, kernels: Any) -> bool:
    for kernel in kernels:
        formulas = [el.formula for el in kernel]
        if _oracle_models(rk, wu, rk.logic.BeliefBase.from_formulas(formulas)):
            return False
        for i in range(len(formulas)):
            rest = formulas[:i] + formulas[i + 1:]
            if not _oracle_models(rk, wu, rk.logic.BeliefBase.from_formulas(rest)):
                return False  # not minimal
    return True


def _revision_text(rk: Rk, result: Any) -> str:
    return rk.dsl.render(result, "json")


def revise_op(rk: Rk, wu: WideUnion, kind: str) -> Op:
    strategy = rk.revision.SelectionStrategy.named(
        kind, weights=wu.weights if kind == "weighted" else None)
    expected = {"min-cardinality": wu.expected_min,
                "max-cardinality": wu.expected_max,
                "weighted": wu.expected_weighted}[kind]()

    def check(result: Any) -> bool:
        return (_forms(result.retracted) == expected
                and result.revised.canonical_forms() == wu.union - frozenset(expected)
                and result.entails_explanandum is True)

    return Op(f"revise:{kind}@n{wu.n}",
              lambda: rk.revision.revise(wu.base, wu.explanation, wu.phi, strategy),
              check, lambda r: _revision_text(rk, r),
              lambda r: _oracle_revision(rk, wu, r, need_phi=True))


def _listing_op(rk: Rk, wu: WideUnion) -> Op:
    count = wu.expected_correction_count()
    conflicts = [frozenset(r + (lit,)) for r, lit in wu.conflicts]

    def check(listing: list[Any]) -> bool:
        if len(listing) != count:
            return False
        keys = [cs.sort_key() for cs in listing]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return False  # not strictly in canonical order
        return all(all(k & cs.canonical_forms() for k in conflicts) for cs in listing)

    def oracle(listing: list[Any]) -> bool:
        # the remainder of the first and last correction sets must have a model
        for cs in (listing[0], listing[-1]):
            removed = cs.canonical_forms()
            rest = [st.formula for b in (wu.base, wu.explanation) for st in b
                    if st.canonical() not in removed]
            if not _oracle_models(rk, wu, rk.logic.BeliefBase.from_formulas(rest)):
                return False
        return True

    return Op(f"correction_kernel@n{wu.n}",
              lambda: list(rk.revision.correction_kernel(wu.base, wu.explanation)),
              check, lambda listing: "\n".join(str(cs) for cs in listing), oracle)


def _mus_op(rk: Rk, wu: WideUnion) -> Op:
    muses = wu.expected_muses()
    cut = wu.expected_incision()

    def run() -> tuple[Any, Any]:
        ks = rk.falappa.kernel_set(wu.base, wu.explanation)
        return ks, rk.falappa.revise_falappa(wu.base, wu.explanation)

    def check(out: tuple[Any, Any]) -> bool:
        ks, result = out
        return ([tuple(sorted(_forms(k))) for k in ks] == muses
                and tuple(sorted(_forms(result.retracted))) == cut
                and result.revised.canonical_forms() == wu.union - frozenset(cut))

    def canonical(out: tuple[Any, Any]) -> str:
        ks, result = out
        return "\n".join(["; ".join("{" + ", ".join(_forms(k)) + "}" for k in ks),
                          _revision_text(rk, result)])

    def oracle(out: tuple[Any, Any]) -> bool:
        ks, result = out
        return _oracle_kernels(rk, wu, ks) and _oracle_revision(rk, wu, result, need_phi=False)

    return Op(f"kernel_set+revise_falappa@n{wu.n}", run, check, canonical, oracle)


# The op times of a mixed workload come in clusters: full enumeration doubles
# in cost with every formula, min-cardinality revise grows with the conflict
# count.  Three sizes and three conflict counts put the median inside the
# middle cluster rather than in the gap between two clusters, where noise
# would move it.
WIDE_SIZES = (11, 12, 13)
CONFLICT_COUNTS = (1, 2, 3)
FULL_KINDS = ("max-cardinality", "weighted", "listing")


class WideWorkload:
    """Shared set-up of the wide-union workloads: a pool of parsed unions for
    every (n, m) stratum of `strata()`, `per_stratum` deep; round r uses pool
    slot r."""

    per_stratum = 6
    sizes = WIDE_SIZES

    def __init__(self, rk: Rk, seed: int, sizes: tuple[int, ...] | None = None,
                 per_stratum: int | None = None):
        self.rk = rk
        self.sizes = sizes or self.sizes
        depth = per_stratum or self.per_stratum
        self.inputs = f"random.Random('wide:{seed}')"
        rng = random.Random(f"wide:{seed}")
        self.pool = {
            (n, m): [parse_wide(rk, make_wide_union(rng, n, m)) for _ in range(depth)]
            for n, m in self.strata()
        }

    def strata(self) -> list[tuple[int, int]]:
        return [(n, m) for n in self.sizes for m in CONFLICT_COUNTS]

    def union(self, n: int, m: int, r: int) -> WideUnion:
        slot = self.pool[(n, m)]
        return slot[r % len(slot)]

    def rounds(self) -> Iterator[list[Op]]:
        r = 0
        while True:
            yield self.round(r)
            r += 1

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


class WideFirst(WideWorkload):
    name = "wide-first"
    per_stratum = 20

    def round(self, r: int) -> list[Op]:
        return [revise_op(self.rk, self.union(n, m, r), "min-cardinality")
                for n in self.sizes for m in CONFLICT_COUNTS]


class WideFull(WideWorkload):
    name = "wide-full"

    def round(self, r: int) -> list[Op]:
        # every round has the same (n, m, kind) triples, each kind meeting
        # each conflict count across the sizes
        ops = []
        for n in self.sizes:
            for k, kind in enumerate(FULL_KINDS):
                wu = self.union(n, CONFLICT_COUNTS[(n + k) % len(CONFLICT_COUNTS)], r)
                ops.append(_listing_op(self.rk, wu) if kind == "listing"
                           else revise_op(self.rk, wu, kind))
        return ops


class WideMus(WideWorkload):
    name = "wide-mus"
    per_stratum = 24

    def strata(self) -> list[tuple[int, int]]:
        # one conflict count per size: kernel_set's cost also falls with the
        # conflict count, so all three per size would split the middle size
        # cluster into three small ones, and the median would sit in one of
        # five ops or so instead of the middle of a third of the run
        return [(n, CONFLICT_COUNTS[n % len(CONFLICT_COUNTS)]) for n in self.sizes]

    def round(self, r: int) -> list[Op]:
        return [_mus_op(self.rk, self.union(n, m, r)) for n, m in self.strata()]


# --- the postulate suite ------------------------------------------------------

# Trials per op: a multiple of 7, so one trial in seven runs the reversion
# check, as in the full suite.  Every check_propositions call also revises a
# fixed baseline fixture, which a 1000-trial suite pays once; at 28 trials it
# is about 4% of an op (16% at 7).
SUITE_BLOCK = 28


class Suite:
    """Blocks of consecutive seeds through `postulates.check_propositions`."""

    name = "suite"

    def __init__(self, rk: Rk, seed: int):
        self.rk = rk
        self.first = seed * 100_000
        self.inputs = f"GeneratorParams(seed={self.first}) onwards, {SUITE_BLOCK} trials per op"

    def op(self, start: int, trials: int = SUITE_BLOCK) -> Op:
        rk = self.rk
        params = rk.postulates.GeneratorParams(seed=start)

        def check(report: Any) -> bool:
            return report.trials == trials and not report.failures

        return Op(f"check_propositions@{start}",
                  lambda: rk.postulates.check_propositions(params, trials),
                  check, lambda rep: json.dumps(rep.as_dict(), sort_keys=True),
                  units=trials)

    def rounds(self) -> Iterator[list[Op]]:
        start = self.first
        while True:
            yield [self.op(start)]
            start += SUITE_BLOCK


# --- the scenario corpus through the CLI ---------------------------------------

CORPUS_ARGS = ["corpus", "--format=json"]
CORPUS_IDS = tuple(f"exp1-s{i}" for i in range(1, 10)) + tuple(f"exp2-s{i}" for i in range(1, 7))


def corpus_pattern_ok(text: str) -> bool:
    """The reported pattern: the categorical-only revision changes everything
    (measure exactly 1), so every entry is an exception; pattern rows carry
    their own coding and every run keeps the explanandum."""
    if not text.startswith("{"):
        return False
    report = json.loads(text)
    comparisons = report["comparisons"]
    patterns = [r for r in report["rows"] if r["run"].startswith("pattern:")]
    return (report["total_entries"] == len(CORPUS_IDS)
            and [c["id"] for c in comparisons] == list(CORPUS_IDS)
            and len(report["rows"]) == 2 * len(CORPUS_IDS) + 6
            and all(r["entails_explanandum"] for r in report["rows"])
            and all(r["classification"] == r["run"].split(":")[1] for r in patterns)
            and all(c["d_minimal"]["fraction"] == "1/1" for c in comparisons)
            and all(Fraction(c["d_non_minimal"]["fraction"]) < 1 for c in comparisons)
            and not any(c["non_minimal_changes_more"] for c in comparisons)
            and report["exceptions"] == list(CORPUS_IDS))


class Corpus:
    """One replay of the paper's 15-scenario corpus per op, via `cli.main`.
    The corpus is the paper's fixed input, so the seed changes nothing."""

    name = "corpus"

    def __init__(self, rk: Rk, seed: int):
        self.rk = rk
        self.inputs = "the embedded corpus (fixed)"

    def op(self) -> Op:
        rk = self.rk

        def run() -> str:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = rk.cli.main(list(CORPUS_ARGS))
            return out.getvalue() if code == 0 else f"exit {code}"

        def check(text: str) -> bool:
            # the digest is the byte-identical CLI JSON; the pattern check is
            # the semantic reference behind it
            return sha256(text) == recorded_digest(self.name) and corpus_pattern_ok(text)

        return Op("cli corpus --format=json", run, check, lambda text: text)

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            yield [self.op()]


# --- the belief-change measure on scaled scenario shapes -------------------------

MEASURE_ATOMS = (40, 60, 80, 100, 120)


@dataclass
class MeasureCase:
    """Scenario shape scaled over k constants: conditionals P(X) -> Qj(X)
    (r of them), categoricals P(e1..ek), explanation A(e1), A(X) -> !Q1(X).
    The minimal revision retracts P(e1), the non-minimal one P(X) -> Q1(X)."""

    k: int
    r: int
    minimal: bool
    base_text: str
    revised_text: str
    base: Any = None
    revised: Any = None

    @property
    def atoms(self) -> int:
        return (self.r + 2) * self.k

    def expected(self) -> tuple[int, int]:
        # |symmetric difference|, |union| of the two consequence sets
        k, r = self.k, self.r
        if self.minimal:
            return k + r + 3, (r + 2) * k + 2
        return k + 2, (r + 1) * k + 2


def make_measure_case(rng: random.Random, atoms: int, r: int, minimal: bool) -> MeasureCase:
    k = round(atoms / (r + 2))
    stems = rng.sample(_STEMS, r + 2)
    p, a, qs = stems[0], stems[1], stems[2:]
    ent = rng.choice(_CONSTANTS)
    consts = [f"{ent}{i}" for i in range(1, k + 1)]
    rng.shuffle(consts)
    conditionals = [f"{p}(X) -> {q}(X)." for q in qs]
    categoricals = [f"{p}({c})." for c in consts]
    explanation = [f"{a}({consts[0]}).", f"{a}(X) -> !{qs[0]}(X)."]
    dropped = categoricals[0] if minimal else conditionals[0]
    base = conditionals + categoricals
    revised = [s for s in base if s != dropped] + explanation
    return MeasureCase(k, r, minimal, "\n".join(base), "\n".join(revised))


class Measure:
    """`metrics.change_measure` between a scaled base and its minimal or
    non-minimal revision; a round covers every size with both patterns."""

    name = "measure"

    def __init__(self, rk: Rk, seed: int, sizes: tuple[int, ...] = MEASURE_ATOMS,
                 per_stratum: int = 4):
        self.rk = rk
        self.inputs = f"random.Random('measure:{seed}')"
        rng = random.Random(f"measure:{seed}")
        self.pool = {}
        for i, atoms in enumerate(sizes):
            for minimal in (True, False):
                # r alternates with size, fixed per stratum, like the union
                # shapes of the wide workloads
                r = 1 + i % 2
                cases = [make_measure_case(rng, atoms, r, minimal) for _ in range(per_stratum)]
                for case in cases:
                    case.base = rk.dsl.parse_base(case.base_text)
                    case.revised = rk.dsl.parse_base(case.revised_text)
                self.pool[(atoms, minimal)] = cases

    def op(self, case: MeasureCase) -> Op:
        rk = self.rk
        num, den = case.expected()

        def check(cm: Any) -> bool:
            return (cm.numerator, cm.denominator) == (num, den) and cm.value == Fraction(num, den)

        return Op(f"change_measure@{case.atoms}atoms",
                  lambda: rk.metrics.change_measure(case.base, case.revised),
                  check, lambda cm: f"{cm.numerator}/{cm.denominator}")

    def rounds(self) -> Iterator[list[Op]]:
        r = 0
        while True:
            yield [self.op(cases[r % len(cases)]) for cases in self.pool.values()]
            r += 1


WORKLOADS = {w.name: w for w in (Suite, WideFirst, WideFull, WideMus, Corpus, Measure)}


# --- digests of canonical outputs on fixed inputs ---------------------------------

def probe_ops(rk: Rk, name: str) -> list[Op]:
    """Fixed, seed-independent inputs whose canonical outputs are hashed."""
    if name == "suite":
        return [Suite(rk, 0).op(0, trials=21)]
    if name == "corpus":
        return [Corpus(rk, 0).op()]
    if name == "measure":
        m = Measure(rk, 0, sizes=(20, 40), per_stratum=1)
        return [m.op(cases[0]) for cases in m.pool.values()]
    if name == "wide-mus":
        # every conflict count, although a round of the workload has one per size
        wl = WideWorkload(rk, 0, sizes=(8,), per_stratum=1)
        return [_mus_op(rk, wl.union(8, m, 0)) for m in CONFLICT_COUNTS]
    wl = WORKLOADS[name](rk, 0, sizes=(8,), per_stratum=1)
    return wl.round(0)


def probe_digest(rk: Rk, name: str) -> str:
    return sha256("\n".join(op.canonical(op.run()) for op in probe_ops(rk, name)))


def recorded_digest(name: str) -> str:
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))[name]
