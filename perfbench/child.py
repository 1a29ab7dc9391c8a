"""Child-process entry points of the benchmark.

    python perfbench/child.py setup <workload> <seed>
        Time import + one warm-up pass in a fresh interpreter; print
        {"setup_s": ...}.
    python perfbench/child.py cli <dcsums argv...>
        Run one dcsums command in-process under the tracer; print its exit
        code, its stdout, the time spent in cli.main and the trace snapshot.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout


def setup(workload: str, seed: str) -> None:
    from workloads import WORKLOADS

    bench = WORKLOADS[workload](int(seed))
    start = time.perf_counter()
    bench.setup()
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def traced_cli(argv: list[str]) -> None:
    from checkout import import_dcsums
    from tracer import Tracer

    import_dcsums()
    import dcsums.cli

    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = dcsums.cli.main(argv)
    main_s = time.perf_counter() - start
    snapshot = tracer.snapshot()
    print(json.dumps({"code": code, "stdout": out.getvalue(), "main_s": main_s,
                      "snapshot": snapshot}))


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        setup(*rest)
    elif mode == "cli":
        traced_cli(rest)
    else:
        sys.exit(f"unknown mode {mode!r}")
