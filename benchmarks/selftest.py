"""Self-test of the benchmark; run from the repository root:

    python3 benchmarks/selftest.py [--seed 7]

For every workload it makes one short untraced run and two short traced
runs, and checks that
  - each prints every metric BENCHMARK.json names for its mode, with that
    unit, and reports no failed operation;
  - the traced and untraced runs print the same output digests, so the
    tracing wrappers change no behaviour;
  - the two traced runs report identical counts.
Exits 1 and names the problem when a check fails. Takes about three minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    """(result JSON, digests, counts) of one short run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stdout}")
    digests = dict(line.split()[1:3] for line in lines if line.startswith("digest "))
    counts = {}
    for line in lines:
        if line.startswith("fingerprint ") and "{" in line:
            counts = json.loads(line[line.index("{"):]).get("counts", {})
    return json.loads(lines[-1]), digests, counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Self-test of benchmarks/run.py")
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, args.seed, trace) for trace in (0, 1, 1)]
        for (result, _, _), trace in zip(runs, (0, 1, 1)):
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} --trace {trace}: metrics {got} != {want[trace]}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} --trace {trace}: {result['failed']} failed, "
                                f"correct={result['correct']}")
        if not runs[0][1] or runs[0][1] != runs[1][1]:
            problems.append(f"{workload}: digests {runs[0][1]} untraced vs {runs[1][1]} traced")
        if runs[1][2] != runs[2][2]:
            problems.append(f"{workload}: counts differ between traced runs: "
                            f"{runs[1][2]} vs {runs[2][2]}")
        print(f"{workload}: checked {len(runs)} runs, digests {runs[0][1]}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
