"""Locate the checkout under test and import dcsums from its ``src/`` only.

The benchmark measures the code of the checkout it sits in.  An installed
copy of dcsums that shadows ``src/`` is refused rather than measured.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Refused(RuntimeError):
    """The checkout cannot be measured (no dcsums under src/, or a shadowing copy)."""


def import_dcsums():
    """Import dcsums from ``ROOT/src`` and refuse any copy resolved elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import dcsums
    except ImportError as exc:
        raise Refused(f"cannot import dcsums from {SRC}: {exc}") from None
    location = Path(dcsums.__file__).resolve()
    if not location.is_relative_to(SRC.resolve()):
        raise Refused(
            f"dcsums resolves to {location}, outside the checkout under test "
            f"({ROOT}); refusing to measure an installed copy"
        )
    return dcsums


def child_env() -> dict[str, str]:
    """Environment for every child process: src/ first, no DCSUM_THREADS."""
    env = {k: v for k, v in os.environ.items() if k != "DCSUM_THREADS"}
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env
