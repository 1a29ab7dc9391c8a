"""Outside-in tracing of the dcsums layers, installed from the benchmark.

``src/`` is never edited.  Each traced public function is replaced by a
timing wrapper in *every* dcsums module that bound it (modules import with
``from .x import y``, so patching the defining module alone would miss most
calls), ``Poly.eval`` is wrapped on the class, and each ``REGISTRY`` entry is
rebuilt with ``dataclasses.replace`` so its lhs and rhs are timed as one
check.  A wrapper records calls, inclusive time and self time (inclusive
minus the time of traced callees); ``Fraction`` arithmetic cannot be wrapped
from outside and lands in the self time of whichever traced function runs it.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from statistics import median

# Traced public functions as (layer module, attribute); the metric key is
# "<layer>.<attribute>".
FUNCTIONS = (
    ("appell", "euler_number"),
    ("appell", "bernoulli_number"),
    ("periodic", "euler_function"),
    ("periodic", "sawtooth"),
    ("periodic", "bernoulli_function"),
    ("sums", "dc_sum"),
    ("sums", "theorem8_rhs"),
    ("sums", "dedekind_sum"),
    ("sums", "gen_dedekind_sum"),
    ("sums", "alt_power_sum"),
    ("umbral", "umbral_power"),
    ("umbral", "theorem9_rhs"),
    ("rationals", "binomial"),
    ("rationals", "format_rational"),
    ("rationals", "parse_rational"),
    ("audit", "sweep"),
    ("reporting", "report_to_json"),
    ("reporting", "report_to_csv"),
    ("reporting", "format_report_text"),
    ("reporting", "report_from_json"),
)
POLY_EVAL = "appell.poly_eval"
# Functions whose distinct argument tuples are counted: the ceiling on what
# a memo could save is 1 - distinct/calls.
DISTINCT = ("periodic.euler_function", "sums.dc_sum")
CACHES = ("euler_poly", "bernoulli_poly")
CHECK_IDS = (
    "cor4", "dedekind_recip", "eq10", "eq11", "eq12_13_corrected",
    "eq12_13_printed", "eq7_corrected", "eq7_printed", "lemma1_corrected",
    "lemma1_printed", "prop5", "thm2_printed", "thm2_slt", "thm3", "thm6",
    "thm7", "thm8_periodic", "thm8_poly", "thm9",
)

CALLS_AND_SELF = (
    POLY_EVAL, "appell.euler_number", "appell.bernoulli_number",
    "periodic.euler_function", "periodic.sawtooth", "periodic.bernoulli_function",
    "sums.dc_sum", "sums.theorem8_rhs", "sums.dedekind_sum",
    "sums.gen_dedekind_sum", "sums.alt_power_sum",
    "umbral.umbral_power", "umbral.theorem9_rhs",
    "rationals.binomial", "rationals.format_rational", "rationals.parse_rational",
)
# Whole-operation facts a workload reports next to the trace.
EXTRAS = (
    ("audit.enumerated", "count"),
    ("audit.evaluated", "count"),
    ("audit.useful_ratio", "ratio"),
    ("audit.value_bits_max", "bits"),
    ("reporting.report_to_json.bytes", "bytes"),
)
# Reporting calls timed once on the workload's report after the traced passes.
REPORT_PROBE = ("reporting.report_to_csv", "reporting.format_report_text",
                "reporting.report_from_json")


def _per_layer_spec() -> tuple[tuple[str, str], ...]:
    spec: list[tuple[str, str]] = []
    for key in CALLS_AND_SELF:
        spec += [(f"{key}.calls", "count"), (f"{key}.self_s", "s")]
        if key in DISTINCT:
            spec.append((f"{key}.distinct_ratio", "ratio"))
    spec += [(f"appell.{cache}.hit_ratio", "ratio") for cache in CACHES]
    spec += [(f"audit.check.{cid}.s", "s") for cid in CHECK_IDS]
    spec.append(("audit.sweep.self_s", "s"))
    spec += [("reporting.report_to_json.s", "s")]
    spec += [(f"{key}.s", "s") for key in REPORT_PROBE]
    spec += list(EXTRAS)
    spec += [("cli.startup_s", "s"), ("cli.main.s", "s")]
    spec += [
        ("trace.wall_s_untraced", "s"),
        ("trace.wall_s_traced", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return tuple(spec)


# Every per-layer metric, in output order, with its unit.
PER_LAYER = _per_layer_spec()


@dataclasses.dataclass
class Stat:
    calls: int = 0
    incl: float = 0.0
    self_s: float = 0.0
    distinct: int = 0
    hits: int = 0
    misses: int = 0

    def add(self, other: "Stat") -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def reset(self) -> None:
        # In place: the wrappers hold this object.
        for f in dataclasses.fields(self):
            setattr(self, f.name, f.default)


class Tracer:
    """Timing wrappers over the dcsums layers of this process.

    Counters accumulate until ``snapshot()``, which returns them and starts
    a fresh interval.  Child processes send their snapshots to ``merge()``.
    """

    def __init__(self) -> None:
        self._stats: dict[str, Stat] = {}
        self._args: dict[str, set] = {}
        self._stack: list[float] = []
        self._undo: list = []
        self._cache_base: dict[str, tuple[int, int]] = {}
        self._merged: dict[str, Stat] = {}

    def _stat(self, key: str) -> Stat:
        return self._stats.setdefault(key, Stat())

    def _wrap(self, key: str, fn):
        stat = self._stat(key)
        args_seen = self._args.setdefault(key, set()) if key in DISTINCT else None
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if args_seen is not None:
                args_seen.add((args, tuple(sorted(kwargs.items()))))
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.incl += elapsed
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    def _set(self, owner, name: str, value) -> None:
        old = getattr(owner, name)
        self._undo.append((owner, name, old))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every traced function wherever dcsums bound it."""
        modules = [m for n, m in sys.modules.items() if n == "dcsums" or n.startswith("dcsums.")]
        wrapper_of: dict[int, object] = {}
        for layer, name in FUNCTIONS:
            original = getattr(sys.modules[f"dcsums.{layer}"], name)
            wrapper = self._wrap(f"{layer}.{name}", original)
            wrapper_of[id(original)] = wrapper
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
        appell = sys.modules["dcsums.appell"]
        self._set(appell.Poly, "eval", self._wrap(POLY_EVAL, appell.Poly.eval))
        registry = sys.modules["dcsums.audit"].REGISTRY
        for cid, check in list(registry.items()):
            key = f"audit.check.{cid}"
            # A registry entry may hold a traced function itself (thm9's rhs).
            lhs = wrapper_of.get(id(check.lhs), check.lhs)
            rhs = wrapper_of.get(id(check.rhs), check.rhs)
            self._undo.append((registry, cid, check))
            registry[cid] = dataclasses.replace(
                check, lhs=self._wrap(key, lhs), rhs=self._wrap(key, rhs)
            )
        self._cache_base = self._cache_counts()

    def uninstall(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)

    @staticmethod
    def _cache_counts() -> dict[str, tuple[int, int]]:
        appell = sys.modules["dcsums.appell"]
        out = {}
        for cache in CACHES:
            info = getattr(appell, cache).cache_info()
            out[cache] = (info.hits, info.misses)
        return out

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Add a snapshot taken in another process to the current interval."""
        for key, fields in snapshot.items():
            self._merged.setdefault(key, Stat()).add(Stat(**fields))

    def snapshot(self) -> dict[str, dict]:
        """Counters since the last snapshot (JSON-ready), then reset them."""
        out: dict[str, Stat] = {}
        for key, stat in self._stats.items():
            if stat.calls:
                out[key] = dataclasses.replace(stat, distinct=len(self._args.get(key, ())))
            stat.reset()
        for args in self._args.values():
            args.clear()
        if self._cache_base:
            now = self._cache_counts()
            for cache, (hits, misses) in now.items():
                base_hits, base_misses = self._cache_base[cache]
                out[f"appell.{cache}"] = Stat(hits=hits - base_hits, misses=misses - base_misses)
            self._cache_base = now
        for key, stat in self._merged.items():
            out.setdefault(key, Stat()).add(stat)
        self._merged = {}
        return {key: dataclasses.asdict(stat) for key, stat in out.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    cycles: list[dict[str, dict]],
    probe: dict[str, dict],
    extras: dict[str, float],
    untraced_walls: list[float],
    traced_walls: list[float],
) -> dict[str, float]:
    """Assemble PER_LAYER values.

    Counts come from the first traced cycle (they repeat exactly for a seed);
    times are medians over the traced cycles.  Metrics of a layer the
    workload never reaches read 0.
    """

    def get(snap: dict, key: str, field: str) -> float:
        return snap.get(key, {}).get(field, 0)

    def timed(key: str, field: str) -> float:
        return median(get(c, key, field) for c in cycles)

    first = cycles[0]
    values: dict[str, float] = {}
    for key in CALLS_AND_SELF:
        values[f"{key}.calls"] = get(first, key, "calls")
        values[f"{key}.self_s"] = timed(key, "self_s")
        if key in DISTINCT:
            values[f"{key}.distinct_ratio"] = _ratio(
                get(first, key, "distinct"), get(first, key, "calls")
            )
    for cache in CACHES:
        hits = get(first, f"appell.{cache}", "hits")
        values[f"appell.{cache}.hit_ratio"] = _ratio(
            hits, hits + get(first, f"appell.{cache}", "misses")
        )
    for cid in CHECK_IDS:
        values[f"audit.check.{cid}.s"] = timed(f"audit.check.{cid}", "incl")
    values["audit.sweep.self_s"] = timed("audit.sweep", "self_s")
    values["reporting.report_to_json.s"] = timed("reporting.report_to_json", "incl")
    for key in REPORT_PROBE:
        values[f"{key}.s"] = get(probe, key, "incl")
    for name, _ in EXTRAS:
        values[name] = extras.get(name, 0)
    values["cli.startup_s"] = timed("cli.startup", "incl")
    values["cli.main.s"] = timed("cli.main", "incl")
    untraced, traced = median(untraced_walls), median(traced_walls)
    values["trace.wall_s_untraced"] = untraced
    values["trace.wall_s_traced"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_ratio"] = _ratio(traced - untraced, untraced)
    return values
