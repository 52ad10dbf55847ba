"""Fresh-interpreter probes for the benchmark, run as subprocesses.

    python3 perfbench/probe.py setup  --workload NAME --seed N
    python3 perfbench/probe.py digest --workload NAME

`setup` takes the CPU time (this process and its children, see
calibrate.cpu_clock) of importing revisekit plus generating and parsing the
workload's inputs, scaled to the reference speed.  `digest` prints the
SHA-256 of the canonical outputs of the workload's fixed probe inputs; run it
under different PYTHONHASHSEED values to check that outputs do not depend on
string hashing.  Each prints one JSON
line.
"""

from __future__ import annotations

import argparse
import json
import sys

import calibrate
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("probe", choices=("setup", "digest"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.probe == "setup":
        scale = calibrate.process_factor()
        t = calibrate.cpu_clock()
        rk = workloads.Rk()
        workloads.WORKLOADS[args.workload](rk, args.seed)
        print(json.dumps({"setup_s": (calibrate.cpu_clock() - t) * scale}))
    else:
        rk = workloads.Rk()
        print(json.dumps({"digest": workloads.probe_digest(rk, args.workload)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
