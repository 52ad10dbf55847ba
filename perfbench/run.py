"""revisekit benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; revisekit is imported from its ``src``.
A run sets up (generates and parses its inputs), warms up with one op, then
executes whole rounds of ops (see workloads.py) one after another in this
process until the ops have taken ``--seconds`` of CPU time at a reference
CPU speed.  Op times are the CPU time of this process and its children,
scaled to that speed (see calibrate.py); a run whose ops wait, so that CPU
time misses part of their wall time, is not valid.
Every op is checked against its reference outside the timed region; a seeded
sample is re-checked against the truth-table oracle; the canonical outputs of
fixed probe inputs are hashed in two subprocesses under different
PYTHONHASHSEED values and compared with perfbench/digests.json.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload
untraced, replays the same rounds traced, prints the per-layer metrics and
the tracing overhead, and writes the spans to perfbench/out/.  The last line
of standard output is one JSON object; a results file with provenance goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import calibrate
import tracing
import workloads
from workloads import ROOT, Op

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 5
ORACLE_SAMPLE = 2
HASH_SEEDS = ("0", "1")
SUBPROCESS_TIMEOUT = 60
RAW_LIMIT = 1.5
WAIT_LIMIT = 1.2  # median wall time over CPU time of an op kind

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _probe(*args: str, env: dict[str, str] | None = None) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(name: str, seed: int) -> list[float]:
    """Import plus input generation and parsing, each in a fresh interpreter."""
    return [_probe("setup", "--workload", name, "--seed", str(seed))["setup_s"]
            for _ in range(SETUP_REPEATS)]


def hash_seed_digests(name: str) -> dict[str, str]:
    out = {}
    for value in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=value)
        out[value] = _probe("digest", "--workload", name, env=env)["digest"]
    return out


class Done(NamedTuple):
    op: Op
    cpu_s: float
    start: float  # wall clock, for the speed window
    end: float
    passed: bool
    output: object


def run_rounds(wl: object, speed: calibrate.Speed, seconds: float,
               rounds: int | None = None, rec: tracing.Recorder | None = None,
               keep: frozenset[int] = frozenset()) -> list[Done]:
    """Execute whole rounds until the ops have taken `seconds` of CPU time at
    the reference speed (or exactly `rounds` rounds), running the calibration
    loop between ops.  An op's time is calibrate.cpu_clock(), which also
    charges other threads and waited-for child processes; wait_ratios()
    checks that the ops do not wait.  Stopping on scaled time keeps the number
    of rounds, and so the mix that the percentiles see, independent of host
    speed; on a host slower than RAW_LIMIT times the reference, unscaled time
    stops the run instead, to bound its length.  The output is kept only for the op
    indices in `keep`."""
    done: list[Done] = []
    busy = raw = since_sample = 0.0
    for r, ops in enumerate(wl.rounds()):
        if rounds is None and (busy >= seconds or raw >= RAW_LIMIT * seconds):
            break
        if rounds is not None and r >= rounds:
            break
        for op in ops:
            if not done or since_sample >= calibrate.EVERY_S:
                speed.sample()
                since_sample = 0.0
            if rec is not None:
                rec.op_id = len(done)
            start = perf_counter()
            t = calibrate.cpu_clock()
            try:
                output = op.run()
            except Exception as exc:  # a failed op counts against error_rate
                output = exc
            cpu = calibrate.cpu_clock() - t
            end = perf_counter()
            busy += cpu * speed.factor(start, end)
            raw += cpu
            since_sample += cpu
            passed = not isinstance(output, Exception) and bool(op.check(output))
            done.append(Done(op, cpu, start, end, passed, output if len(done) in keep else None))
    speed.sample()
    return done


def scaled(done: list[Done], speed: calibrate.Speed) -> list[float]:
    """Each op's CPU seconds at the reference speed."""
    return [d.cpu_s * speed.factor(d.start, d.end) for d in done]


def wait_ratios(done: list[Done]) -> dict[str, float]:
    """Per op kind (the part of Op.kind before "@"), the median of wall time
    over CPU time.  Ops that block or hand work to a process they do not wait
    for read above 1; host noise moves single ops, not the median."""
    by_kind: dict[str, list[float]] = {}
    for d in done:
        by_kind.setdefault(d.op.kind.split("@")[0], []).append(
            (d.end - d.start) / max(d.cpu_s, 1e-9))
    return {kind: statistics.median(r) for kind, r in by_kind.items()}


def count_rounds(wl: object, n_ops: int) -> int:
    total = rounds = 0
    for ops in wl.rounds():
        if total >= n_ops:
            return rounds
        total += len(ops)
        rounds += 1
    return rounds


def oracle_sample(wl: object, seed: int) -> frozenset[int]:
    """Seeded positions, within the first round, of ops to re-check."""
    first = next(wl.rounds())
    candidates = [i for i, op in enumerate(first) if op.oracle is not None]
    rng = random.Random(f"oracle:{seed}")
    return frozenset(rng.sample(candidates, min(ORACLE_SAMPLE, len(candidates))))


def oracle_failures(done: list[Done], sample: frozenset[int]) -> int:
    """Re-check the sampled ops against the truth-table oracle."""
    return sum(1 for i in sample if done[i].passed and not done[i].op.oracle(done[i].output))


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it:
    (value, percentile, samples)."""
    xs = sorted(latencies_ms)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def provenance(seeds: dict) -> dict:
    """Where and on what a results file was measured."""
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
        else:
            commit = ref
    sources = sorted((ROOT / "src" / "revisekit").rglob("*.py"))
    uname = os.uname()
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": {"system": uname.sysname, "release": uname.release,
                    "arch": uname.machine},
        "commit": commit,
        "source_sha256": workloads.sha256("".join(p.read_text(encoding="utf-8") for p in sources)),
        "seeds": seeds,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def traced_run(rk: workloads.Rk, wl: object, args: argparse.Namespace,
               speed: calibrate.Speed, done: list[Done],
               notes: list[str]) -> tuple[dict[str, float], list[Done]]:
    """Replay the rounds of `done` under tracing; per-layer metrics."""
    rec = tracing.Recorder()
    cls = type(wl)
    with tracing.instrument(rk, rec) as missing:
        speed.sample()
        start = perf_counter()
        cls(rk, args.seed)  # one traced set-up
        setup_scale = speed.factor(start, perf_counter())
        traced = run_rounds(wl, speed, args.seconds, rounds=count_rounds(wl, len(done)), rec=rec)
    notes += [f"not traced (absent in this revisekit): {m}" for m in missing]
    untraced_s = sum(scaled(done, speed))
    traced_s = sum(scaled(traced, speed))
    overhead = 100.0 * (traced_s - untraced_s) / untraced_s
    scales = [speed.factor(d.start, d.end) for d in traced]
    metrics = tracing.layer_metrics(rec, scales, setup_scale, overhead)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    rec.write(spans_file)
    notes.append(f"{len(rec.names)} spans written to {spans_file.relative_to(ROOT)}; "
                 f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    return metrics, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        rk = workloads.Rk()
    except workloads.MissingProgram as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    notes: list[str] = []

    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    wl = cls(rk, args.seed)
    warm = next(wl.rounds())[0]
    try:
        warm_ok = bool(warm.check(warm.run()))
    except Exception:  # counted like a failed timed op
        warm_ok = False

    speed = calibrate.Speed()
    sample = oracle_sample(wl, args.seed)
    done = run_rounds(wl, speed, args.seconds, keep=sample)
    checked = list(done)
    if args.trace:
        metrics, traced = traced_run(rk, wl, args, speed, done, notes)
        checked += traced
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(checked) + 1
    failed = sum(not d.passed for d in checked) + (not warm_ok)
    failed += oracle_failures(done, sample)

    recorded = workloads.recorded_digest(args.workload)
    digests = hash_seed_digests(args.workload)
    digest_ok = all(d == recorded for d in digests.values())
    if not digest_ok:
        notes.append(f"digest mismatch: recorded {recorded}, got {digests}")
    waits = wait_ratios(done)
    waiting = {kind: r for kind, r in waits.items() if r > WAIT_LIMIT}
    if waiting:
        notes.append(f"ops wait, so CPU time misses their waiting: median wall/CPU "
                     f"{waiting} above {WAIT_LIMIT}")
    correct = failed == 0 and digest_ok and not waiting

    latencies = [s * 1000.0 for s in scaled(done, speed)]
    units = sum(d.op.units for d in done)
    tail_ms, tail_pct, samples = tail(latencies)
    summary = {
        "ops": len(done),
        "rounds": count_rounds(wl, len(done)),
        "work_units": units,
        "tail_percentile": tail_pct,
        "samples": samples,
        "error_rate": failed / attempted,
        "cpu_latency_ms.p50": 1000.0 * statistics.median(d.cpu_s for d in done),
        "wall_latency_ms.p50": 1000.0 * statistics.median(d.end - d.start for d in done),
        "wall_over_cpu.p50": waits,
        "calibration_loop_ms.p50": 1000.0 * statistics.median(speed.cpu),
        "oracle_sample": sorted(sample),
        "digests": digests,
        "recorded_digest": recorded,
        "setup_samples_s": setup_samples,
    }
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": 1000.0 * units / sum(latencies),
            "latency_ms.p50": statistics.median(latencies),
            "latency_ms.tail": tail_ms,
            "peak_rss_mb": peak_rss_mb,
        }
    listed = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{summary['ops']} ops in {summary['rounds']} rounds, "
          f"{units} work units, error_rate {failed}/{attempted} = {summary['error_rate']:g}, "
          f"digest {'ok' if digest_ok else 'MISMATCH'} under PYTHONHASHSEED "
          f"{'/'.join(HASH_SEEDS)}, oracle re-checked {len(sample)}")
    for name, m in metrics.items():
        extra = ""
        if name == "latency_ms.tail":
            extra = f"  (p{tail_pct:.1f} of {samples} samples, 10 above it)"
        elif name == "setup_s":
            extra = f"  (median of {len(setup_samples)})"
        print(f"  {name:<36} {m['value']:>14.6f} {m['unit']}{extra}")
    print(f"  times are CPU time at the reference speed; unscaled median op: "
          f"{summary['cpu_latency_ms.p50']:.3f} ms CPU, {summary['wall_latency_ms.p50']:.3f} ms wall; "
          f"calibration loop median {summary['calibration_loop_ms.p50']:.3f} ms "
          f"(reference {1000 * calibrate.REFERENCE_S:g} ms)")
    for note in notes:
        print(f"  note: {note}")

    OUT.mkdir(parents=True, exist_ok=True)
    results = {
        "workload": args.workload,
        "why": next(w["why"] for w in BENCHMARK["workloads"] if w["name"] == args.workload),
        "trace": args.trace,
        "provenance": provenance({
            "run": args.seed, "seconds": args.seconds, "oracle_sample": f"oracle:{args.seed}",
            "inputs": wl.inputs}),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "summary": summary,
        "op_kinds": [d.op.kind for d in done],
        "latencies_ms": latencies,
        "ops_cpu_start_end": [(d.cpu_s, d.start, d.end) for d in done],
        "calibration_at_cpu": list(zip(speed.at, speed.cpu)),
        "notes": notes,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
