"""Reference implementations that the tests check the library against.

No experiment runs these; each is written independently of the code it
checks. The naive leave-one-out loss factors one reduced Gram per removal
where :func:`gpmaps.kernel_learning.rho_loo` downdates one factorization.
A functional applied to a callable sums its terms point by point where a
fit folds them into a Gram. The truths' derivatives are written out by
hand, and the Brusselator and Hopf radial fields are plain right-hand sides
for :func:`gpmaps.dynamics.rk4`, where ``brusselator_trajectory`` sums Taylor
series and ``r_exact`` is the radial law's closed form. The bisecting
slope search closes its bracket one bit per evaluation where
:func:`gpmaps.optim.slope_search` interpolates.
"""

import math

import numpy as np

from gpmaps.exceptions import InvalidInputError
from gpmaps.gp import assemble_gram
from gpmaps.kernel_learning import LOO_NUGGET, _check_removable
from gpmaps.kernels import Matern52
from gpmaps.transforms import cole_hopf_truth


def _quadratic_form(gram, targets):
    m = gram.shape[0]
    return float(targets @ np.linalg.solve(gram + LOO_NUGGET * np.eye(m), targets))


def rho_loo_naive(theta, system, removable):
    """Naive path, one reduced factorization per removal; baseline for the downdate shortcut."""
    removable = _check_removable(system, removable)
    gram = assemble_gram(system.functionals, Matern52(theta))
    y = system.targets
    q_full = _quadratic_form(gram, y)
    if q_full <= 0.0:
        raise InvalidInputError("degenerate system: full quadratic form is nonpositive")
    total = 0.0
    for j in removable:
        keep = np.delete(np.arange(len(system)), j)
        q_j = _quadratic_form(gram[np.ix_(keep, keep)], y[keep])
        total += 1.0 - q_j / q_full
    return total / removable.size


def apply_functional(functional, fn):
    """Apply a linear functional to ``fn(u, deriv_order)``."""
    return float(sum(t.weight * fn(t.location, t.deriv_order) for t in functional.terms))


def constraint_residuals(interp, system):
    """|phi_i(D) - Y_i| for every constraint of a fitted system."""
    applied = np.array([apply_functional(f, interp.evaluate) for f in system.functionals])
    return np.abs(applied - system.targets)


def cole_hopf_truth_fn(nu):
    """Truth with derivatives, as ``fn(u, order)`` for order in {0, 1, 2}.

    Order 0 is :func:`gpmaps.transforms.cole_hopf_truth` itself.
    """
    if not nu > 0:
        raise InvalidInputError(f"nu must be positive, got {nu}")
    denom = 1.0 - np.exp(-1.0 / (2.0 * nu))

    def fn(u, order=0):
        if order == 0:
            return cole_hopf_truth(u, nu)
        return (-1.0 / (2.0 * nu)) ** order * np.exp(-np.asarray(u, dtype=float) / (2.0 * nu)) / denom

    return fn


def first_order_truth_fn():
    """First-order truth with derivatives, as ``fn(u, order)``."""

    def fn(u, order=0):
        u = np.asarray(u, dtype=float)
        g = np.exp((u**3 - 1.0) / 3.0)
        if order == 0:
            return g
        if order == 1:
            return u**2 * g
        return (2.0 * u + u**4) * g

    return fn


def brusselator_rhs(A, B):
    """Right-hand side of the Brusselator shifted so the equilibrium sits at the origin.

    ``A`` and ``B`` become Python floats, so the step stays on Python floats
    when they arrive as numpy scalars. Takes the state ``(u, v)`` as a
    sequence of floats and returns a tuple.
    """
    A = float(A)
    B = float(B)
    if A == 0:
        raise InvalidInputError("A must be nonzero")
    b_over_a = B / A
    b_plus_1 = B + 1.0

    def rhs(t, state):
        u, v = state
        p = u + A
        q = v + b_over_a
        ppq = p * p * q
        return (A + ppq - b_plus_1 * p, B * p - ppq)

    return rhs


def hopf_polar_rhs(mu):
    """dr/dt = (mu - r^2) r, on a one-element sequence; returns a one-element tuple."""
    mu = float(mu)  # mu_from_AB gives a numpy scalar; keep the step on Python floats

    def rhs(t, state):
        (r,) = state
        # r * r, not r**2: a float ** overflows with an untyped OverflowError
        return ((mu - r * r) * r,)

    return rhs


def bisection_slope_search(evaluate, x, best, max_evals):
    """:func:`gpmaps.optim.slope_search` with its bracket closed by bisection: the same walk, stop rules and return."""
    evals, direction, step, hi, closed = 1, (-1.0 if best.slope > 0.0 else 1.0), 1e-3, None, False
    while best.slope != 0.0 and evals < max_evals and not closed:
        trial = x + direction * step if hi is None else 0.5 * (x + hi)
        if trial == x:
            break
        step *= 2.0
        evaluation = evaluate(trial)
        evals += 1
        if direction * evaluation.slope <= 0.0:
            x, best = trial, evaluation
        elif hi is None:  # the first sign change: the bracket is the last walk step
            hi, tol = trial, math.ulp(1.0) * abs(trial - x)
        else:
            hi = trial
        closed = hi is not None and (0.5 * (x + hi) in (x, hi) or abs(hi - x) <= tol)
    reason = "zero_slope" if best.slope == 0.0 else "bracket_closed" if closed else "max_iters"
    return x, best, evals, reason
