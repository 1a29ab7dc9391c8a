"""Self-test of the benchmark definition and of the traced run.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

1. BENCHMARK.json names exactly the workloads and metrics run.py produces.
2. For every workload, two traced runs (`run.py --trace 1`) with the same
   seed give identical counts: every per-layer metric that is not a time.
   Each traced run itself already gates that its traced outputs equal its
   untraced ones (same report sha256, same CLI stdout).
Exits 0 when everything holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from checkout import ROOT
from run import END_TO_END
from tracer import PER_LAYER
from workloads import WORKLOADS

COUNTS = [name for name, unit in PER_LAYER if unit != "s" and not name.startswith("trace.")]


def definition_problems() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from perfbench/run.py")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from perfbench/tracer.py")
    return problems


def traced_counts(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    result = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    out = json.loads(result.stdout.strip().splitlines()[-1])
    if result.returncode != 0 or not out["correct"]:
        raise SystemExit(f"{workload}: traced run failed\n{result.stdout}{result.stderr}")
    return {name: out["metrics"][name]["value"] for name in COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=4)
    args = parser.parse_args()
    problems = definition_problems()
    for workload in WORKLOADS:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        differing = [n for n in COUNTS if first[n] != second[n]]
        print(f"{workload}: {len(COUNTS) - len(differing)}/{len(COUNTS)} counts repeat exactly")
        problems += [f"{workload}: {n} {first[n]} != {second[n]}" for n in differing]
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
