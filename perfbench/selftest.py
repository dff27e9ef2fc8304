"""Self-test of the benchmark: determinism across processes, trace wiring.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

For each workload (all by default) it makes two one-round untraced runs with
the same seed, each in its own process, and requires identical SHA-256
digests of every output (checkpoints, loss log, reports, embedding CSV,
gradcheck output).  The program promises bitwise determinism, so the two
runs are compared with each other, never with a stored copy.  It then makes
one traced run, which fails if a span or counter that the workload must
produce is missing.  Exits 0 only if every step passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).with_name("run.py")
RUNS = RUN.resolve().parent.parent / ".perfbench_runs"


def run(workload: str, seed: int, trace: int, tag: str) -> dict:
    record = RUNS / f"selftest-{workload}-{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace),
         "--record", str(record)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} ({tag}) exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(record.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()
    RUNS.mkdir(exist_ok=True)
    failures = []
    for name in args.workloads:
        first, second = (run(name, args.seed, 0, tag) for tag in ("a", "b"))
        digests = [{**r["setup_digests"], **r["digests"]}
                   for r in (first, second)]
        same = digests[0] == digests[1] and digests[0]
        print(f"{'PASS' if same else 'FAIL'} {name}: "
              f"{len(digests[0])} output digests identical across two runs")
        if not same:
            failures.append(name)
        traced = run(name, args.seed, 1, "traced")
        print(f"PASS {name}: traced run reports "
              f"{len(WORKLOADS[name].required)} required per-layer metrics "
              f"({len(traced['metrics'])} in all)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
