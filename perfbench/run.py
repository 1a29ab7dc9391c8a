"""dcsums benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload audit-standard --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload reciprocity-stretch --trace 1

Workloads: audit-standard, reciprocity-stretch, cli-point-queries (see
perfbench/README.md).  Each runs closed loop, one client, one thread, for
--seconds of whole cycles after set-up.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones.  The exit code
is 0 when every correctness gate holds, 1 when one fails, and 2 when the
checkout cannot be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from statistics import median

# Set before anything imports dcsums, so no sweep and no child fans out.
os.environ.pop("DCSUM_THREADS", None)

from checkout import ROOT, Refused  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("wall_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Tally:
    """Every checked unit (operation, oracle comparison, gate) and its outcome."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.

    That is the sample at rank n-10 of n.  Below 21 samples it would sit at
    or under the median, so the median is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} samples, 10 beyond it"
    return median(ordered), f"{n} samples: no percentile above the median has 10 beyond it; median"


def label(op) -> str:
    return "dcsums " + " ".join(op) if op else "audit pass"


def measure(bench, seconds: float, run, tally: Tally, digests: dict, after_cycle=None):
    """Closed loop over whole cycles until `seconds` have passed (at least one cycle).

    Returns the (operation, wall seconds) samples and the last output.
    """
    samples: list[tuple] = []
    last = None
    start = time.perf_counter()
    while True:
        for op in bench.cycle():
            try:
                wall, output = run(op)
            except Exception:
                traceback.print_exc()
                tally.record(f"{label(op)} raised", False)
                continue
            tally.record(label(op), bench.check(op, output))
            samples.append((op, wall))
            digests[op] = bench.digest(output)
            last = output
        if after_cycle is not None:
            after_cycle()
        if time.perf_counter() - start >= seconds:
            return samples, last


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": nproc,
        "cpu": cpu_model(),
        "dcsums": sys.modules["dcsums"].__file__,
    }


def untraced(bench, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setup_samples = bench.setup_samples()
    bench.prepare()
    samples, last = measure(bench, seconds, bench.run, tally, {})
    walls = [wall for _, wall in samples]
    peak_rss = bench.peak_rss_mb()
    for gate, ok in bench.gates(last):
        tally.record(gate, ok)
    tail_value, tail_note = tail(walls)
    values = {
        "wall_s": median(walls),
        "wall_s_tail": tail_value,
        "setup_s": median(setup_samples),
        "peak_rss_mb": peak_rss,
    }
    notes = {
        "wall_s": f"median of {len(walls)} operations",
        "wall_s_tail": tail_note,
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "peak_rss_mb": bench.rss_scope,
    }
    by_command: dict[str, list[float]] = {}
    for op, wall in samples:
        if op:
            by_command.setdefault(op[0], []).append(wall)
    for command, command_walls in sorted(by_command.items()):
        notes["wall_s"] += f"; {command} {median(command_walls):.4g} s"
    return values, notes


def traced(bench, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Half the time untraced, half traced; counts are per cycle and exact."""
    bench.setup_samples()
    bench.prepare()
    plain_digests: dict = {}
    plain, _ = measure(bench, seconds / 2, bench.run, tally, plain_digests)
    tracer = Tracer()
    cycles: list[dict] = []
    traced_digests: dict = {}
    with bench.traced(tracer):
        tracer.snapshot()
        traced_samples, last = measure(
            bench, seconds / 2, lambda op: bench.run_traced(op, tracer), tally,
            traced_digests, after_cycle=lambda: cycles.append(tracer.snapshot()),
        )
    extras, probe = bench.layer_extras(last, tracer)
    for gate, ok in bench.gates(last):
        tally.record(gate, ok)
    tally.record("traced outputs equal untraced outputs", plain_digests == traced_digests)
    plain_walls = [wall for _, wall in plain]
    traced_walls = [wall for _, wall in traced_samples]
    values = layer_metrics(cycles, probe, extras, plain_walls, traced_walls)
    notes = {name: "" for name, _ in PER_LAYER}
    notes["trace.wall_s_traced"] = f"median of {len(traced_walls)} traced operations"
    notes["trace.wall_s_untraced"] = f"median of {len(plain_walls)} operations"
    return values, notes


def run_one(args) -> int:
    bench = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    try:
        if args.trace:
            values, notes = traced(bench, args.seconds, tally)
        else:
            values, notes = untraced(bench, args.seconds, tally)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    spec = PER_LAYER if args.trace else END_TO_END
    print(f"# run record: {json.dumps(run_record(args))}")
    print(f"# {bench.name}: closed loop, 1 client, 1 thread, trace={args.trace}")
    for name, unit in spec:
        note = f"  ({notes[name]})" if notes.get(name) else ""
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    failed = len(tally.failures)
    print(f"error_rate = {failed / tally.attempted:.6g} ({failed} failed of "
          f"{tally.attempted} operations, oracle comparisons and gates)")
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    print(json.dumps({"correct": not failed, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload)."""
    rows = {}
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(result.stdout)
        lines = result.stdout.strip().splitlines()
        if result.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {result.returncode} without a result", file=sys.stderr)
            return result.returncode or 1
        out = json.loads(lines[-1])
        rows[name] = out
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        for metric, value in out["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if not args.trace:
        names = [n for n, _ in END_TO_END]
        print("\n" + f"{'workload':22}" + "".join(f"{n:>14}" for n in names) + f"{'error_rate':>12}")
        for name, out in rows.items():
            cells = "".join(f"{out['metrics'][n]['value']:>14.5g}" for n in names)
            print(f"{name:22}{cells}{out['failed'] / out['attempted']:>12.3g}")
        print(" " * 22 + "".join(f"{'(' + u + ')':>14}" for _, u in END_TO_END))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
