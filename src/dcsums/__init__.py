"""Exact rational arithmetic for Euler/Bernoulli polynomials, Dedekind-type
DC sums, and an audit engine that measures every catalogued identity —
printed and corrected forms alike — as an exact rational residual.

No floating point anywhere: every value is an arbitrary-precision integer
or a canonical fraction, so residuals compare bit-exactly across runs.
"""

from . import appell, audit, periodic, rationals, reporting, sums, umbral
from .appell import *
from .audit import *
from .periodic import *
from .rationals import *
from .reporting import *
from .sums import *
from .umbral import *

__version__ = "0.1.0"

# Each public name is declared once, in the __all__ of its own module.
__all__ = [
    *rationals.__all__,
    *appell.__all__,
    *periodic.__all__,
    *sums.__all__,
    *umbral.__all__,
    *audit.__all__,
    *reporting.__all__,
]
