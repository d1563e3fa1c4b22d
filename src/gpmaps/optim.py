"""Small deterministic optimizer pieces: the joint solves' iteration cap and slope search, and a lattice line search."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import InvalidInputError

__all__ = ["DescentConfig", "slope_search", "golden_section"]

#: Fraction of the larger bracket segment a golden-section step covers, (3 - sqrt(5)) / 2.
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class DescentConfig:
    max_iters: int = 100_000


def slope_search(evaluate, x, best, max_evals):
    """Walk downhill from ``x`` in steps doubling from 1e-3 to the slope's first sign change, then close the bracket.

    ``evaluate(x)`` returns an evaluation with the derivative at ``x`` as its
    ``slope``; ``best`` is the start's. The walk's last step brackets a root
    of the slope, and each later trial is :func:`_itp_trial`'s, strictly
    inside the bracket. The search stops once the bracket's ends are
    adjacent floats or it is at most machine epsilon times the last walk
    step wide (``bracket_closed``), at a zero slope (``zero_slope``) or
    after ``max_evals`` evaluations, the start's included (``max_iters``).
    Returns the last point evaluated on the start's side of the sign change,
    its evaluation, the evaluation count and the stop reason.
    """
    evals, direction, step, hi, closed = 1, (-1.0 if best.slope > 0.0 else 1.0), 1e-3, None, False
    while best.slope != 0.0 and evals < max_evals and not closed:
        if hi is None:
            trial = x + direction * step
            if trial == x:
                break
            step *= 2.0
        else:
            trial = _itp_trial(x, best.slope, hi, hi_slope, reach)
            reach *= 0.5
        evaluation = evaluate(trial)
        evals += 1
        if direction * evaluation.slope <= 0.0:
            x, best = trial, evaluation
        else:
            if hi is None:  # the first sign change: the bracket is the last walk step
                reach = abs(trial - x)
                tol = math.ulp(1.0) * reach
            hi, hi_slope = trial, evaluation.slope
        closed = hi is not None and (0.5 * (x + hi) in (x, hi) or abs(hi - x) <= tol)
    reason = "zero_slope" if best.slope == 0.0 else "bracket_closed" if closed else "max_iters"
    return x, best, evals, reason


def _itp_trial(x, slope, hi, hi_slope, reach):
    """The ITP trial point between ``x`` and ``hi``, whose slopes have opposite signs.

    The ITP method (I. F. D. Oliveira and R. H. C. Takahashi, ACM Trans.
    Math. Softw. 47(1), 2021) with kappa1 = 0.1, kappa2 = 2 and n0 = 1, in
    the walk's units (its first step is 1e-3). For a bracket of width w the
    secant root moves 0.1 w^2 toward the midpoint, or is replaced by the
    midpoint when that is nearer, and is then pulled to within ``reach`` -
    w/2 of the midpoint. ``reach`` starts at the first bracket's width and
    halves with each trial, so no bracket is wider than bisection's one
    trial earlier: in exact arithmetic the search takes at most one trial
    more than bisection.
    The move toward the midpoint is at least one ulp of the secant root. A
    smaller move rounds away, and where rounding leaves the slope's sign
    unsettled the trials would then close the bracket one float at a time.
    A trial that rounds onto an end becomes the midpoint.
    """
    width, mid = hi - x, 0.5 * (x + hi)
    secant = x - width * (slope / (hi_slope - slope))
    toward = math.copysign(1.0, mid - secant)
    shift = max(0.1 * width * width, math.ulp(secant))
    trial = secant + toward * shift if shift <= abs(mid - secant) else mid
    radius = max(reach - 0.5 * abs(width), 0.0)
    if abs(trial - mid) > radius:
        trial = mid - toward * radius
    return trial if min(x, hi) < trial < max(x, hi) else mid


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
