"""Small deterministic optimizer pieces: the iteration cap of the CGC solvers and a lattice line search."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import InvalidInputError

__all__ = ["DescentConfig", "golden_section"]

#: Fraction of the larger bracket segment a golden-section step covers, (3 - sqrt(5)) / 2.
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class DescentConfig:
    max_iters: int = 100_000


def golden_section(fn, lo, hi, width, seed):
    """Brent's minimizer on [lo, hi]: golden-section steps plus parabolic ones, on a lattice.

    ``seed`` is an (x, f) pair inside [lo, hi] that starts the search as its
    best point, so the result is never worse than it. Every trial point is
    ``seed_x + k * h`` with h = width / 2 and k an integer: a parabolic step is
    rounded to the lattice, so the rounding of ``fn``'s values moves a trial
    point only when it flips a comparison or carries the parabola's vertex
    across a lattice midpoint. A parabolic step is taken while it stays inside
    the bracket and moves less than half the step before last (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5); otherwise
    a golden-section step enters the larger segment. No lattice point is
    evaluated twice, and each replaces the best point only when strictly
    lower. The search stops once the bracket, whose ends are ``lo``, ``hi``
    or points seen, is at most ``width`` wide. Returns the best (x, f).
    """
    if not hi > lo:
        raise InvalidInputError(f"need hi > lo, got [{lo}, {hi}]")
    if not width > 0.0:
        raise InvalidInputError(f"need width > 0, got {width}")
    x0, fx = seed
    h = width / 2.0
    # positions in lattice units from the seed: the bracket ends a, b are reals,
    # the best point x, the next best w, the one w held before, v, and the trial point u integers
    a, b = (lo - x0) / h, (hi - x0) / h
    x = w = v = 0
    fw = fv = fx
    d = e = 0.0
    while b - a > 2.0:
        xm = 0.5 * (a + b)
        golden = True
        if abs(e) > 1.0:
            # parabola through x, w and v; its vertex is x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_before, e = e, d
            if abs(p) < abs(0.5 * q * e_before) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if x + d - a < 2.0 or b - x - d < 2.0:
                    d = math.copysign(1.0, xm - x)
        if golden:
            e = a - x if x >= xm else b - x
            d = _CGOLD * e
        # at least one lattice step: b - a > 2 keeps x +- 1 toward the middle inside
        u = x + (round(d) if abs(d) >= 1.0 else int(math.copysign(1.0, d)))
        d = float(u - x)
        fu = fn(x0 + u * h)
        if fu < fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x0 + x * h, fx
