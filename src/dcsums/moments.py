"""Power moments of weighted point sets, kept for the length of a sweep.

A kernel that needs sum w P(x) over many weighted points x, for a
polynomial P(x) = sum_i p_i x^i, can take the power moments
M_i = sum w x^i once and read the sum as sum_i p_i M_i.  When the points
do not depend on P, one moment vector serves every P: the DC-sum kernels
of ``sums`` read E_p for every p of one parity from the moments of one
point set, and ``umbral.lattice_power_sum`` reads every p from one.

A kernel hands ``_moments`` a point walker, a generator function, and its
arguments, which together make the point set and its key.  The walker
yields one pair (w, x), a weight and a point, per point, and knows
nothing of pieces: ``_moments`` alone cuts the stream into pieces of
``_BLOCK`` points, sums each piece and drops it, so a call holds one
piece at a time.  A kernel asks for the degree its own p needs.  Inside
``_kept_in``, which ``sweep`` enters with its side table, the vector
alone is kept in that table under the key, and serves every later call
that needs no higher degree; ``sweep`` asks for each check's largest p
first, so it walks each point set once.  The scope is a ``ContextVar``,
set on entry and reset in ``finally``: each thread sees its own sweep's
table, and none after its sweep returns."""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import islice
from operator import mul
from typing import Callable, Iterator

# The side table of the running ``sweep``, if any; and the length of the
# pieces ``_moments`` cuts a point stream into.
_KEPT: ContextVar[dict | None] = ContextVar("_KEPT", default=None)
_BLOCK = 512


@contextmanager
def _kept_in(table: dict) -> Iterator[None]:
    """Keep the kernels' moment vectors in ``table``."""
    token = _KEPT.set(table)
    try:
        yield
    finally:
        _KEPT.reset(token)


def _moments(degree: int, points: Callable[..., Iterator[tuple[int, int]]], *args: object
             ) -> list[int]:
    """M_0..M_degree, M_i = sum w x^i over the pairs (w, x) of ``points(*args)``.

    The pairs are drawn and summed ``_BLOCK`` at a time.  Inside
    ``_kept_in`` the vector is kept under the key (points, *args), and a
    later call that needs no higher degree gets it back, longer than it
    asked for; one that needs more walks again and keeps its own.
    """
    kept = _KEPT.get()
    if kept is not None:
        key = (points, *args)
        vector = kept.get(key, ())
        if len(vector) > degree:
            return vector
    vector = [0] * (degree + 1)
    pairs = points(*args)
    while piece := list(islice(pairs, _BLOCK)):
        ws, xs = zip(*piece)
        vector[0] += sum(ws)
        for i in range(1, degree + 1):
            ws = list(map(mul, ws, xs))
            vector[i] += sum(ws)
    if kept is not None:
        kept[key] = vector
    return vector


def _dot(p: int, b: tuple[int, ...], points: Callable[..., Iterator[tuple[int, int]]],
         *args: object) -> int:
    """sum w Q(x) over the points, with b the Horner vector of E_p's Q (``Poly.centered``)."""
    return sum(map(mul, reversed(b), _moments(p // 2, points, *args)))
