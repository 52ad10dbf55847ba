"""Span recorder for the traced run, kept outside the program under test.

`instrument` wraps the public functions of every revisekit module and rebinds
each wrapped name wherever a revisekit module holds it (so names imported with
``from .logic import is_consistent`` are traced too), for the duration of a
``with`` block only.  Each call becomes a span: name, start, end, parent span
and op id.  Spans stay in memory and are written out when the run ends.

A few private hooks only count (no span): candidates yielded by the
correction-set enumeration, admissibility tests, and generator attempts.  When
a later version of revisekit drops one, its counts read 0 and the run notes it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

TARGETS = {
    "dsl": ("parse_base", "parse_literals", "parse_scenario", "render"),
    "logic": ("collect_signature", "ground", "ground_formula", "is_consistent",
              "entails", "consequences", "enumerate_models"),
    "revision": ("validate_explanation", "union_elements", "correction_kernel",
                 "admissible_selections", "select", "revise"),
    "falappa": ("kernel_set", "incise", "revise_falappa"),
    "metrics": ("change_measure", "classify_revision", "statement_changes"),
    "postulates": ("random_instance", "check_postulates", "check_reversion",
                   "check_propositions"),
    "corpus": ("corpus_entries", "corpus_report", "pattern_revision"),
    "cli": ("main",),
}

SAT = ("logic.is_consistent", "logic.entails")

# layer metric prefix -> the spans whose self time and calls it sums
LAYERS = {
    "dsl.parse": ("dsl.parse_base", "dsl.parse_literals", "dsl.parse_scenario"),
    "logic.ground": ("logic.ground", "logic.ground_formula", "logic.collect_signature"),
    "logic.sat": SAT,
    "logic.consequences": ("logic.consequences",),
    "revision.validate": ("revision.validate_explanation",),
    "revision.revise": ("revision.revise",),
    "falappa.kernel_set": ("falappa.kernel_set",),
    "falappa.incise": ("falappa.incise",),
    "metrics.change_measure": ("metrics.change_measure",),
    "postulates.random_instance": ("postulates.random_instance",),
    "postulates.check_postulates": ("postulates.check_postulates",),
    "postulates.check_reversion": ("postulates.check_reversion",),
    "corpus.corpus_report": ("corpus.corpus_report",),
    "corpus.pattern_revision": ("corpus.pattern_revision",),
    "cli.main": ("cli.main",),
}

SETUP_OP = -2


class Recorder:
    """In-memory spans in parallel arrays, plus plain counters.  Spans read
    the wall clock, which costs a fifth of reading the thread's CPU time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.sizes: dict[int, int] = {}  # span -> formulas (SAT) or atoms (consequences)
        self.errors: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.op_id = SETUP_OP
        self._stack = [-1]
        self.t0 = perf_counter()

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def under(self, ancestor: str, names: tuple[str, ...]) -> int:
        """How many spans named in `names` ran inside an `ancestor` span."""
        hits = 0
        for i, name in enumerate(self.names):
            if name not in names:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            hits += p >= 0
        return hits

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span,name,start_s,end_s,parent,op\n")
            for i, name in enumerate(self.names):
                out.write(f"{i},{name},{self.starts[i] - self.t0:.7f},"
                          f"{self.ends[i] - self.t0:.7f},{self.parents[i]},{self.ops[i]}\n")


def _premises(args: tuple, kwargs: dict) -> tuple[tuple, dict, int]:
    """Materialize SAT premises (they may be a one-shot iterable) and count them."""
    if args:
        formulas = tuple(args[0])
        return (formulas,) + args[1:], kwargs, len(formulas)
    formulas = tuple(kwargs["formulas"])
    return args, dict(kwargs, formulas=formulas), len(formulas)


def _herbrand(args: tuple, kwargs: dict) -> tuple[tuple, dict, int]:
    sig = args[1] if len(args) > 1 else kwargs["sig"]
    return args, kwargs, sum(len(sig.constants) ** arity for _, arity in sig.predicates)


# span name -> how to size its call (recorded in Recorder.sizes)
SIZED = {"logic.is_consistent": _premises, "logic.entails": _premises,
         "logic.consequences": _herbrand}


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            # one span per resumption, so consumer code between items is not
            # charged to the generator
            it = fn(*args, **kwargs)
            try:
                while True:
                    i = rec.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec.close(i)
                    yield item
            finally:
                it.close()
        return gen_wrapper

    sized = SIZED.get(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if sized is not None:
            args, kwargs, size = sized(args, kwargs)
        i = rec.open(name)
        if sized is not None:
            rec.sizes[i] = size
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.errors[name] += 1
            raise
        finally:
            rec.close(i)
        if name == "falappa.kernel_set":
            rec.counters["falappa.muses"] += len(result)
        return result
    return wrapper


def _counting_hooks(rk: Any, rec: Recorder) -> list[tuple[Any, str, Callable]]:
    """(owner, attribute, replacement) for the private counting hooks present."""
    hooks = []
    ctx = getattr(rk.revision, "_UnionContext", None)
    kernel_indices = getattr(ctx, "kernel_indices", None)
    if kernel_indices is not None:
        def counted_kernel_indices(self: Any) -> Iterator[Any]:
            for indices in kernel_indices(self):
                rec.counters["revision.enum.candidates"] += 1
                yield indices
        hooks.append((ctx, "kernel_indices", counted_kernel_indices))
    entails_phi = getattr(ctx, "entails_phi", None)
    if entails_phi is not None:
        def counted_entails_phi(self: Any, indices: Any) -> bool:
            ok = entails_phi(self, indices)
            rec.counters["revision.admissible.tested"] += 1
            rec.counters["revision.admissible.found"] += ok
            return ok
        hooks.append((ctx, "entails_phi", counted_entails_phi))
    random_base = getattr(rk.postulates, "_random_base", None)
    if random_base is not None:
        def counted_random_base(*args: Any, **kwargs: Any) -> Any:
            rec.counters["postulates.attempts"] += 1
            return random_base(*args, **kwargs)
        hooks.append((rk.postulates, "_random_base", counted_random_base))
    return hooks


@contextmanager
def instrument(rk: Any, rec: Recorder) -> Iterator[list[str]]:
    """Trace revisekit's public functions inside the block; yields the names
    of targets or hooks this version of revisekit lacks."""
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "revisekit" or key.startswith("revisekit."))]
    patches: list[tuple[Any, str, Any]] = []
    missing = []
    for modname, fnames in TARGETS.items():
        mod = getattr(rk, modname)
        for fname in fnames:
            orig = getattr(mod, fname, None)
            if orig is None:
                missing.append(f"{modname}.{fname}")
                continue
            wrapper = _wrap(rec, f"{modname}.{fname}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)
    hooks = _counting_hooks(rk, rec)
    if len(hooks) < 3:
        missing.append("private counting hooks")
    for owner, attr, replacement in hooks:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)
    try:
        yield missing
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, scales: list[float], setup_scale: float,
                  overhead_pct: float) -> dict[str, float]:
    """Per-layer figures: per-op calls and self seconds over the traced ops,
    set-up parsing over one traced set-up, and the derived ratios.  Self
    times are scaled to the reference speed by their op's factor."""
    ops = len(scales)
    own = rec.self_times()
    self_s: Counter[str] = Counter()
    setup_s: Counter[str] = Counter()
    spans: Counter[str] = Counter()
    setup_spans: Counter[str] = Counter()
    for i, name in enumerate(rec.names):
        op = rec.ops[i]
        if op == SETUP_OP:
            setup_s[name] += own[i] * setup_scale
            setup_spans[name] += 1
        else:
            self_s[name] += own[i] * scales[op]
            spans[name] += 1

    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        out[f"{layer}.calls"] = _ratio(sum(spans[n] for n in names), ops)
        out[f"{layer}.self_s"] = _ratio(sum(self_s[n] for n in names), ops)
    parse = LAYERS["dsl.parse"]
    out["setup.dsl.parse.calls"] = float(sum(setup_spans[n] for n in parse))
    out["setup.dsl.parse.self_s"] = sum(setup_s[n] for n in parse)

    sat_sizes = [size for i, size in rec.sizes.items()
                 if rec.names[i] in SAT and rec.ops[i] != SETUP_OP]
    atom_sizes = [size for i, size in rec.sizes.items()
                  if rec.names[i] == "logic.consequences" and rec.ops[i] != SETUP_OP]
    out["logic.sat.formulas_mean"] = _ratio(sum(sat_sizes), len(sat_sizes))
    out["logic.consequences.atoms"] = _ratio(sum(atom_sizes), len(atom_sizes))

    c = rec.counters
    out["revision.sat_per_revise"] = _ratio(rec.under("revision.revise", SAT),
                                            spans["revision.revise"])
    out["revision.enum.candidates"] = _ratio(c["revision.enum.candidates"], ops)
    out["revision.admissible_ratio"] = _ratio(c["revision.admissible.found"],
                                              c["revision.admissible.tested"])
    kernel_sets = spans["falappa.kernel_set"]
    out["falappa.muses"] = _ratio(c["falappa.muses"], kernel_sets)
    out["falappa.sat_per_kernel_set"] = _ratio(rec.under("falappa.kernel_set", SAT), kernel_sets)
    instances = spans["postulates.random_instance"] - rec.errors["postulates.random_instance"]
    out["postulates.retries"] = _ratio(c["postulates.attempts"] - instances, ops)
    out["trace.overhead_pct"] = overhead_pct
    return out
