"""Scaling sweep over union size: where the exponential wall arrives.

    python3 perfbench/sweep.py [--seed N]

For every n from 6 to 14, one seeded union per conflict count (1, 2, 3) goes
through min-cardinality, max-cardinality and weighted `revise` and through
`falappa.kernel_set`; each output is checked against its planted reference.
The table gives the median wall-clock seconds over the conflict counts (not
scaled to the reference speed of run.py), the growth per added element, and
for each op the first n whose median reaches 0.1 s and 1 s.
Results go to perfbench/out/sweep-seed<N>.json.  The sweep is informational:
it is not a workload of BENCHMARK.json and gates nothing.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from time import perf_counter

import run
import workloads

OPS = ("min-cardinality", "max-cardinality", "weighted", "kernel_set")
SIZES = range(6, 15)
WALLS_S = (0.1, 1.0)


def time_op(rk: workloads.Rk, wu: workloads.WideUnion, kind: str) -> tuple[float, bool]:
    if kind == "kernel_set":
        t = perf_counter()
        ks = rk.falappa.kernel_set(wu.base, wu.explanation)
        dt = perf_counter() - t
        return dt, [tuple(sorted(el.canonical() for el in k)) for k in ks] == wu.expected_muses()
    op = workloads.revise_op(rk, wu, kind)
    t = perf_counter()
    result = op.run()
    dt = perf_counter() - t
    return dt, op.check(result)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rk = workloads.Rk()
    rng = random.Random(f"sweep:{args.seed}")
    rows = []
    wrong = 0
    print(f"{'n':>3} " + " ".join(f"{kind:>16}" for kind in OPS) + "   (median s over 1-3 conflicts)")
    for n in SIZES:
        unions = [workloads.parse_wide(rk, workloads.make_wide_union(rng, n, m))
                  for m in workloads.CONFLICT_COUNTS if workloads.fits(n, m)]
        row = {"n": n}
        for kind in OPS:
            times = []
            for wu in unions:
                dt, ok = time_op(rk, wu, kind)
                times.append(dt)
                wrong += not ok
            row[kind] = statistics.median(times)
        rows.append(row)
        print(f"{n:>3} " + " ".join(f"{row[kind]:>16.4f}" for kind in OPS), flush=True)

    summary = {}
    for kind in OPS:
        times = [row[kind] for row in rows]
        growth = [b / a for a, b in zip(times, times[1:]) if a > 0]
        walls = {f"{limit:g}s": next((row["n"] for row in rows if row[kind] >= limit), None)
                 for limit in WALLS_S}
        summary[kind] = {
            "growth_per_element": statistics.geometric_mean(growth) if growth else None,
            "wall_n": walls,
        }
        reached = ", ".join(f"{limit} at n = {n if n is not None else f'>{SIZES[-1]}'}"
                            for limit, n in walls.items())
        print(f"{kind:>16}: x{summary[kind]['growth_per_element']:.2f} per element; reaches {reached}")
    print(f"outputs checked against planted references: {'all correct' if not wrong else f'{wrong} wrong'}")

    run.OUT.mkdir(parents=True, exist_ok=True)
    out = run.OUT / f"sweep-seed{args.seed}.json"
    out.write_text(json.dumps({
        "provenance": run.provenance({"sweep": args.seed, "inputs": f"random.Random('sweep:{args.seed}')"}),
        "rows": rows,
        "summary": summary,
        "wrong": wrong,
    }, indent=2) + "\n", encoding="utf-8")
    print(f"written to {out.relative_to(workloads.ROOT)}")
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
