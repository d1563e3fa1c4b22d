"""Small deterministic optimizers: Armijo gradient descent and golden-section search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DivergedError, InvalidInputError

__all__ = ["DescentConfig", "DescentResult", "gradient_descent", "golden_section"]

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

#: Descent stops, converged, once every gradient entry is at most this in size.
GRAD_TOL = 1e-8
#: Descent stops, converged, once the backtracked step falls to this size.
STEP_TOL = 1e-16
#: Armijo sufficient-decrease constant.
ARMIJO = 1e-4
#: Step factor after a rejected trial, and after an accepted step.
SHRINK, GROW = 0.5, 1.3


@dataclass(frozen=True)
class DescentConfig:
    max_iters: int = 100_000


@dataclass
class DescentResult:
    x: np.ndarray
    loss_trace: list
    iterations: int
    converged: bool
    reason: str = ""


def gradient_descent(loss_fn, grad_fn, x0, config, precond):
    """Gradient descent with backtracking (Armijo) line search.

    ``precond`` is a fixed positive diagonal applied to the gradient to form
    the search direction; this is plain descent in linearly rescaled
    coordinates and keeps the accepted-step loss trace nonincreasing.
    The first trial step has unit length.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = float(loss_fn(x))
    if not np.isfinite(f):
        raise DivergedError("non-finite loss at the initial point", trace=[f])
    trace = [f]
    step = 1.0
    reason = "max_iters"
    converged = False
    it = 0
    for it in range(1, config.max_iters + 1):
        g = np.asarray(grad_fn(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise DivergedError("non-finite gradient", trace=trace)
        if np.max(np.abs(g)) <= GRAD_TOL:
            converged, reason = True, "grad_tol"
            break
        d = precond * g
        slope = float(g @ d)
        accepted = False
        while step > STEP_TOL:
            x_new = x - step * d
            f_new = float(loss_fn(x_new))
            if np.isfinite(f_new) and f_new <= f - ARMIJO * step * slope:
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            converged, reason = True, "step_tol"
            break
        x, f = x_new, f_new
        trace.append(f)
        step *= GROW
    return DescentResult(x=x, loss_trace=trace, iterations=it, converged=converged, reason=reason)


def golden_section(fn, lo, hi, iters, seed_points):
    """Golden-section minimization on [lo, hi], tracking the best point ever seen.

    ``seed_points`` is a nonempty list of (x, f) pairs that compete for the
    returned minimum, so refinement can never return something worse than
    its bracket.
    """
    if not hi > lo:
        raise InvalidInputError(f"need hi > lo, got [{lo}, {hi}]")
    best = min(seed_points, key=lambda p: p[1])
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
