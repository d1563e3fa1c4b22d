"""Small deterministic optimizer pieces: the iteration cap of the CGC solvers and golden-section search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError

__all__ = ["DescentConfig", "golden_section"]

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DescentConfig:
    max_iters: int = 100_000


def golden_section(fn, lo, hi, iters, seed):
    """Golden-section minimization on [lo, hi], tracking the best point ever seen.

    ``seed`` is an (x, f) pair that competes for the returned minimum, so
    refinement can never return something worse than it.
    """
    if not hi > lo:
        raise InvalidInputError(f"need hi > lo, got [{lo}, {hi}]")
    best = seed
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx < best[1]:
            best = (x, fx)
    for _ in range(max(iters - 2, 0)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
            if fc < best[1]:
                best = (c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
            if fd < best[1]:
                best = (d, fd)
    return best
