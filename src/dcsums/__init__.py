"""Exact rational arithmetic for Euler/Bernoulli polynomials, Dedekind-type
DC sums, and an audit engine that measures every catalogued identity —
printed and corrected forms alike — as an exact rational residual.

No floating point anywhere: every value is an arbitrary-precision integer
or a canonical fraction, so residuals compare bit-exactly across runs.

The kernel layers load with the package.  ``audit`` and ``reporting`` (with
dataclasses, json and csv) sit in ``sys.modules`` as lazy modules whose
bodies run on first attribute access, so a value query never pays for them;
their public names resolve through the module ``__getattr__`` below.
"""

import importlib.util
import sys

from . import appell, periodic, rationals, sums, umbral
from .appell import *
from .periodic import *
from .rationals import *
from .sums import *
from .umbral import *

__version__ = "0.1.0"


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


audit = _lazy("audit")
reporting = _lazy("reporting")


def __getattr__(name: str):
    # Each public name is declared once, in the __all__ of its own module.
    if name == "__all__":
        return [*rationals.__all__, *appell.__all__, *periodic.__all__, *sums.__all__,
                *umbral.__all__, *audit.__all__, *reporting.__all__]
    for module in (audit, reporting):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
