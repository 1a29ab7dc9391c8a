"""The three benchmark workloads: generated inputs, one timed operation, checks.

Every workload runs closed loop with one client on one thread.  An
*operation* is one audit pass (``sweep`` + ``report_to_json``) or one CLI
invocation in a fresh process; a *cycle* is the list of operations the
loop repeats.  Outputs are checked between operations, outside the timed
interval, and a nonzero residual in a report is a finding, not an error:
only a report or value that differs from the pinned or oracle one fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import io
import json
import random
import resource
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from math import gcd

from checkout import ROOT, child_env, import_dcsums

HERE = ROOT / "perfbench"
CHILD_TIMEOUT_S = 170

# The standard-grid JSON report behind FINDINGS.md.
AUDIT_STANDARD_SHA256 = "c261e0b015e753e3156d9c47f464b9c78b2b590cea740ea66f9186eb875f776e"
# thm8_periodic over p in STRETCH_P, odd coprime h, k <= STRETCH_HK_MAX, with
# the grid written in ascending order; every instance holds.
STRETCH_SHA256 = "53fc6ff5e0f5434d18902a31b96a36cbac9f893b6e9f86b9a5d9e116a31d1622"
STRETCH_P = (3, 5, 7, 9)
STRETCH_HK_MAX = 17
AUDIT_ORACLE_SAMPLE = 40
STRETCH_ORACLE_SAMPLE = 12


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def oracles():
    """tests/oracles.py: direct sums over series-derived Euler/Bernoulli values."""
    spec = importlib.util.spec_from_file_location("dcsums_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # pascal() rebuilds the triangle on every call; memoizing the pure
    # function keeps the oracle pass short without sharing any dcsums code.
    module.pascal = lru_cache(maxsize=None)(module.pascal)
    return module


def run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child to completion from the checkout root; return (wall, result)."""
    start = time.perf_counter()
    result = subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start, result


def probe_setup(workload: str, seed: int) -> float:
    """setup_s of a fresh interpreter: import dcsums and one warm-up pass."""
    _, result = run_child([sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)])
    if result.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{result.stderr}")
    return json.loads(result.stdout)["setup_s"]


class SweepWorkload:
    """One operation = sweep(ids, grid) followed by report_to_json."""

    name = ""
    pinned = ""  # sha256 of the canonical report JSON
    oracle_sample = 0
    rss_scope = "workload process"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.dcsums = None

    def inputs(self):
        """(ids, grid) for this seed."""
        raise NotImplementedError

    def canonical_json(self, report, text: str) -> str:
        return text

    def report_ok(self, report) -> bool:
        return True

    def setup(self) -> None:
        self.dcsums = import_dcsums()
        self.ids, self.grid = self.inputs()
        self.run(None)

    def setup_samples(self) -> list[float]:
        start = time.perf_counter()
        self.setup()
        return [time.perf_counter() - start] + [probe_setup(self.name, self.seed) for _ in range(2)]

    def prepare(self) -> None:
        pass

    def cycle(self) -> list:
        return [None]

    def run(self, op):
        dcsums = self.dcsums
        start = time.perf_counter()
        report = dcsums.sweep(self.ids, self.grid)
        text = dcsums.report_to_json(report)
        return time.perf_counter() - start, (report, text)

    def run_traced(self, op, tracer):
        return self.run(op)

    @contextmanager
    def traced(self, tracer):
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()

    def digest(self, output) -> str:
        report, text = output
        return sha256(self.canonical_json(report, text))

    def check(self, op, output) -> bool:
        return self.digest(output) == self.pinned and self.report_ok(output[0])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def gates(self, last_output) -> list[tuple[str, bool]]:
        """Seeded oracle re-verification of evaluated instances of the last report."""
        report = last_output[0]
        evaluated = [r for r in report.results if not r.skipped]
        sample = random.Random(self.seed).sample(evaluated, self.oracle_sample)
        check_sides = oracles().check_sides
        return [
            (f"oracle {r.id}{tuple(r.params.values())}",
             check_sides(r.id, r.params) == (r.lhs, r.rhs))
            for r in sample
        ]

    def layer_extras(self, last_output, tracer) -> tuple[dict[str, float], dict]:
        """Per-layer facts of the last report, and the reporting-probe snapshot."""
        report, text = last_output
        evaluated = [r for r in report.results if not r.skipped]
        bits = max(
            (max(abs(q.numerator).bit_length(), q.denominator.bit_length())
             for r in evaluated for q in (r.lhs, r.rhs)),
            default=0,
        )
        extras = {
            "audit.enumerated": len(report.results),
            "audit.evaluated": len(evaluated),
            "audit.useful_ratio": len(evaluated) / len(report.results),
            "audit.value_bits_max": bits,
            "reporting.report_to_json.bytes": len(text.encode("utf-8")),
        }
        with self.traced(tracer):
            tracer.snapshot()
            self.dcsums.report_to_csv(report)
            self.dcsums.format_report_text(report)
            self.dcsums.report_from_json(text)
            probe = tracer.snapshot()
        return extras, probe


class AuditStandard(SweepWorkload):
    """The 19-check registry over standard_audit_grid(); the seed orders the ids."""

    name = "audit-standard"
    pinned = AUDIT_STANDARD_SHA256
    oracle_sample = AUDIT_ORACLE_SAMPLE

    def inputs(self):
        ids = self.dcsums.registry_ids()
        random.Random(self.seed).shuffle(ids)
        return ids, self.dcsums.standard_audit_grid()

    def gates(self, last_output):
        return super().gates(last_output) + [("FINDINGS.md regenerates", findings_regenerate())]


class ReciprocityStretch(SweepWorkload):
    """thm8_periodic over the stretch grid; the seed orders each grid axis."""

    name = "reciprocity-stretch"
    pinned = STRETCH_SHA256
    oracle_sample = STRETCH_ORACLE_SAMPLE

    def make_grid(self, shuffle: random.Random | None):
        def axis(values):
            values = list(values)
            if shuffle is not None:
                shuffle.shuffle(values)
            return tuple(values)

        hk = range(1, STRETCH_HK_MAX + 1)
        return self.dcsums.ParamGrid(
            p_values=axis(STRETCH_P), h_values=axis(hk), k_values=axis(hk),
            odd_only=True, coprime_only=True,
        )

    def inputs(self):
        return ["thm8_periodic"], self.make_grid(random.Random(self.seed))

    def canonical_json(self, report, text):
        # The report embeds the grid in the seeded axis order; pin it in
        # ascending order so every seed has one sha256.
        canonical = dataclasses.replace(report, grid=self.make_grid(None).description())
        return self.dcsums.report_to_json(canonical)

    def report_ok(self, report):
        return all(r.holds and not r.skipped for r in report.results)


class _Capture:
    """Stands in for generate_findings.OUT so nothing is written to disk."""

    text: str | None = None

    def write_text(self, text: str, encoding: str = "utf-8") -> None:
        self.text = text

    def __str__(self) -> str:
        return "FINDINGS.md (captured)"


def findings_regenerate() -> bool:
    """demos/generate_findings.py reproduces FINDINGS.md byte for byte, in memory."""
    spec = importlib.util.spec_from_file_location(
        "dcsums_generate_findings", ROOT / "demos" / "generate_findings.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = capture = _Capture()
    with redirect_stdout(io.StringIO()):
        module.main()
    committed = (ROOT / "FINDINGS.md").read_bytes()
    return capture.text is not None and capture.text.encode("utf-8") == committed


# --- cli-point-queries --------------------------------------------------------

# One slot per query: (command, p, nominal k or n).  The seed jitters each
# size by up to SIZE_JITTER and draws h and the order.  Five slots cost well
# under the middle three and five well over them (about 0.2-0.3 s, 0.45 s
# and 0.6-1.5 s on a 2 vCPU Xeon), so with whole cycles the median always
# falls among the middle three slots' samples, whatever the seed.
CLI_SLOTS = (
    ("gendedekind", 2, 1000), ("dedekind", None, 3000), ("eulernum", None, 151),
    ("gendedekind", 3, 2500), ("gendedekind", 5, 2000),
    ("dcsum", 3, 6000), ("dedekind", None, 10000), ("thm9rhs", 5, 1250),
    ("eulernum", None, 351), ("dedekind", None, 20000), ("dcsum", 5, 10000),
    ("thm9rhs", 7, 2000), ("dcsum", 7, 20000),
)
SIZE_JITTER = 0.03


def _coprime_h(rng: random.Random, k: int, hi: int) -> int:
    while True:
        h = rng.randint(2, hi)
        if gcd(h, k) == 1:
            return h


def cli_batch(seed: int) -> list[tuple[str, ...]]:
    """One dcsums argv per CLI_SLOTS entry, in seeded order."""
    rng = random.Random(seed)
    batch: list[tuple[str, ...]] = []
    for command, p, size in CLI_SLOTS:
        k = round(size * (1 + rng.uniform(-SIZE_JITTER, SIZE_JITTER)))
        if command == "dcsum":
            batch.append(("dcsum", str(p), str(rng.randint(2, 20)), str(k)))
        elif command == "dedekind":
            batch.append(("dedekind", str(_coprime_h(rng, k, 50)), str(k)))
        elif command == "gendedekind":
            batch.append(("gendedekind", str(p), str(_coprime_h(rng, k, 20)), str(k)))
        elif command == "eulernum":
            batch.append(("eulernum", str(k | 1)))  # odd n: E_n is nonzero
        else:
            batch.append(("umbral", "--form", "thm9rhs", "--p", str(p),
                          "--h", str(rng.randint(2, 20)), "--k", str(k)))
    rng.shuffle(batch)
    return batch


def oracle_value(query: tuple[str, ...], euler_numbers: list[Fraction]) -> Fraction:
    o = oracles()
    command, *args = query
    if command == "dcsum":
        return o.dc(*map(int, args))
    if command == "dedekind":
        return o.dedekind(*map(int, args))
    if command == "gendedekind":
        return o.gen_dedekind(*map(int, args))
    if command == "eulernum":
        return euler_numbers[int(args[0])]
    opts = dict(zip(args[0::2], args[1::2]))
    return o.t9_rhs(int(opts["--p"]), int(opts["--h"]), int(opts["--k"]))


class CliPointQueries:
    """Each operation is one `python -m dcsums <query>` in a fresh process."""

    name = "cli-point-queries"
    rss_scope = "largest child process"
    SETUP_REPEATS = 11

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.queries = cli_batch(seed)
        self.expected: dict[tuple[str, ...], str] = {}
        self.setup_checks: list[tuple[str, bool]] = []

    def setup_samples(self) -> list[float]:
        """setup_s = wall time of `python -m dcsums checks`, which every query pays."""
        dcsums = import_dcsums()
        listing = "".join(f"{cid}\n" for cid in dcsums.registry_ids())
        samples = []
        for _ in range(self.SETUP_REPEATS):
            wall, result = run_child([sys.executable, "-m", "dcsums", "checks"])
            samples.append(wall)
            self.setup_checks.append(
                ("dcsums checks", result.returncode == 0 and result.stdout == listing)
            )
        return samples

    def prepare(self) -> None:
        """Oracle value of every query, before timing starts."""
        eulers = [q for q in self.queries if q[0] == "eulernum"]
        numbers = oracles()._euler_numbers_series(max(int(q[1]) for q in eulers))
        for query in self.queries:
            self.expected[query] = f"{oracle_value(query, numbers)}\n"

    def cycle(self) -> list:
        return list(self.queries)

    def run(self, op):
        wall, result = run_child([sys.executable, "-m", "dcsums", *op])
        return wall, (result.returncode, result.stdout, result.stderr)

    def run_traced(self, op, tracer):
        wall, result = run_child([sys.executable, str(HERE / "child.py"), "cli", *op])
        if result.returncode != 0:
            return wall, (result.returncode, "", result.stderr)
        payload = json.loads(result.stdout)
        tracer.merge(payload["snapshot"])
        tracer.merge({
            "cli.main": {"calls": 1, "incl": payload["main_s"]},
            "cli.startup": {"calls": 1, "incl": wall - payload["main_s"]},
        })
        return wall, (payload["code"], payload["stdout"], result.stderr)

    @contextmanager
    def traced(self, tracer):
        yield

    def digest(self, output) -> str:
        code, stdout, _ = output
        return sha256(f"{code}\n{stdout}")

    def check(self, op, output) -> bool:
        code, stdout, stderr = output
        return code == 0 and stdout == self.expected[op] and "Traceback" not in stderr

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def gates(self, last_output) -> list[tuple[str, bool]]:
        return self.setup_checks

    def layer_extras(self, last_output, tracer):
        return {}, {}


WORKLOADS = {w.name: w for w in (AuditStandard, ReciprocityStretch, CliPointQueries)}
