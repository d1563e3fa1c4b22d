"""Joint GP regression over coupled unknowns sharing a data array.

Two instances are provided:

* :func:`cgc_pde_solve` learns a scalar map G together with the unknown
  coefficient ``a`` of the linear first-order target equation, by minimizing
  a loss combining G's RKHS norm, a Gaussian prior on ``a``, the equation
  residual on the data, and an anchor pinning G(1) = 1.
* :func:`nf_solve` learns a homogeneous-quartic map H from a planar
  oscillator trajectory to the radius variable of its rotation normal form,
  jointly with the radius samples themselves, coupling them through the
  radial decay law and an initial-condition anchor.

The first solve is exact: for a fixed ``a`` the best map is kernel ridge
regression on the weighted equation and anchor functionals, so the loss
profiles to a function of ``a``. One evaluation at ``a`` factors the scaled
Gram plus identity once (``gp._cholesky``, which raises rather than escalate
the identity nugget, a part of the loss) and gives the named loss terms,
their sum, the slope and the best map's coefficients. A 1-D root find on
the slope finishes the solve, which returns the map and the loss terms of
its last accepted evaluation. The second runs its own Armijo gradient
descent with a fixed diagonal rescaling, at one residual pass per trial
point, reading one residual function for its start weights, loss terms,
gradient and steps. Each problem builds its fixed matrices (the three kernel
blocks of the functionals' Gram, or the quartic features of the trajectory)
once, on first use. The time difference D of the decay law, its transpose
and diag(D^T D) live in :mod:`gpmaps.dynamics` beside ``first_difference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dynamics import _fd_column_norms, _fd_transpose, first_difference
from .exceptions import DivergedError, InvalidInputError
from .gp import ConstraintSystem, Interpolant, LinearFunctional, _cholesky, _factor_inverse, _flatten, fit
from .kernels import HomogeneousPolynomial, Matern52, homogeneous_features, homogeneous_norm_sq, k_deriv
from .optim import DescentConfig

__all__ = [
    "CgcPdeProblem",
    "CgcPdeState",
    "CgcPdeResult",
    "cgc_pde_loss",
    "cgc_pde_loss_terms",
    "cgc_pde_grad",
    "cgc_pde_solve",
    "NfProblem",
    "NfState",
    "NfResult",
    "nf_loss",
    "nf_loss_terms",
    "nf_grad",
    "nf_solve",
    "nf_h_values",
]

#: Balance factor used when loss weights are derived from the initial state.
BALANCE_FACTOR = 10.0

#: Kernel of the map G learned by :func:`cgc_pde_solve`.
PDE_KERNEL = Matern52(1.0)

#: Names of the weighted terms whose sum is the :func:`cgc_pde_solve` loss, in the order summed, then of the weights.
_PDE_TERM_NAMES = ("norm_g", "a_prior", "l1_weighted", "l2_weighted", "anchor_weighted", "lambda2", "lambda3")

#: Kernel of the radius map H learned by :func:`nf_solve`.
NF_KERNEL = HomogeneousPolynomial(4)


def _balanced(factor, norm, term):
    """The weight that makes ``term`` cost ``factor`` times the squared norm ``norm``, both floored away from 0."""
    return factor * max(norm, 1e-8) / max(term, 1e-12)


def _check_weights(problem, names):
    """Raise :class:`InvalidInputError` unless each named weight of ``problem`` is None or finite and nonnegative."""
    for name in names:
        w = getattr(problem, name)
        if w is not None and not (math.isfinite(w) and w >= 0):
            raise InvalidInputError(f"{name} must be finite and nonnegative when given, got {w}")


# ---------------------------------------------------------------------------
# learning the map and the unknown linear-PDE coefficient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CgcPdeProblem:
    """Fixed data and weights for the map-plus-coefficient problem.

    ``u_data`` is the fixed input column of the data array; the functionals
    sit at ``u_data`` and at the anchor point u = 1. Weights left as None are
    balanced against the identity map when solving.
    """

    u_data: np.ndarray
    gamma: float = 1.0
    lambda2: float | None = None
    lambda3: float | None = None

    def __post_init__(self):
        u = np.asarray(self.u_data, dtype=float)
        if u.ndim != 1 or u.size == 0:
            raise InvalidInputError("u_data must be a nonempty vector")
        if np.any(u == 0.0):
            raise InvalidInputError("u_data entries must be nonzero (the residual divides by u^2)")
        object.__setattr__(self, "u_data", u)
        if not self.gamma > 0:
            raise InvalidInputError("gamma must be positive")
        _check_weights(self, ("lambda2", "lambda3"))

    @property
    def nodes(self):
        return np.concatenate([self.u_data, [1.0]])

    @cached_property
    def _blocks(self):
        """B0, B1, B2: the Gram of the unscaled functionals at ``a`` is B0 + a B1 + a^2 B2.

        The functionals are G(u_i) + (a / u_i^2) G'(u_i) on the data and G(1);
        the blocks come from the kernel's (0, 0), (1, 0) and (1, 1) derivatives.
        """
        x = self.nodes
        c = np.r_[1.0 / self.u_data**2, 0.0]
        k10 = c[:, None] * k_deriv(PDE_KERNEL, x[:, None], x[None, :], 1, 0)
        k11 = np.outer(c, c) * k_deriv(PDE_KERNEL, x[:, None], x[None, :], 1, 1)
        return k_deriv(PDE_KERNEL, x[:, None], x[None, :], 0, 0), k10 + k10.T, k11


@dataclass(frozen=True)
class CgcPdeState:
    """Free variable: the coefficient a. The map is the best one for it."""

    a: float

    def __post_init__(self):
        if not np.isfinite(self.a):
            raise InvalidInputError("the coefficient a must be finite")


def _scales(problem, weights):
    """sqrt of each functional's weight: sqrt(lambda2) on the data, sqrt(lambda3) at the anchor."""
    _, lam2, lam3 = weights
    return np.r_[np.full(problem.u_data.size, np.sqrt(lam2)), np.sqrt(lam3)]


class _Evaluation(NamedTuple):
    """The profile at one ``a``: the named loss terms, their sum f(a), the slope f'(a) and the map's alpha~."""

    terms: dict
    loss: float
    slope: float
    alpha: np.ndarray


def _evaluate(problem, weights, a):
    """The :class:`_Evaluation` of the best map for ``a``, from one factorization of Phi~(a) + I.

    Phi~ = D (B0 + a B1 + a^2 B2) D is the Gram of the scaled functionals, y~
    their targets and alpha~ = (Phi~ + I)^-1 y~ the coefficients of the best
    map sum_j alpha~_j phi~_j. Its squared RKHS norm is alpha~^T Phi~ alpha~
    and its scaled residuals are Phi~ alpha~ - y~: the equation residual on
    the data (weight lambda2) and G(1) - 1 (lambda3). The data-fit term
    ``l1_weighted`` is identically zero: the output column of the data array
    is the map itself evaluated at the data. The loss
    f(a) = a^2 / gamma^2 + y~^T (Phi~ + I)^-1 y~ is the sum of the named
    terms, and its exact slope is
    f'(a) = 2a / gamma^2 - (D alpha~)^T (B1 + 2a B2) (D alpha~).
    """
    _, lam2, lam3 = weights
    b0, b1, b2 = problem._blocks
    d = _scales(problem, weights)
    phi = d[:, None] * (b0 + a * b1 + (a * a) * b2) * d[None, :]
    y = np.r_[np.zeros(d.size - 1), d[-1]]
    inverse = _factor_inverse(_cholesky(phi, 1.0, f"map system at a = {a!r}"))
    alpha = inverse.T @ (inverse @ y)
    fitted = phi @ alpha
    resid = fitted - y
    # the prior (a / gamma)^2 and its slope 2a / gamma^2 go through a / gamma: no float ** raises, no gamma^2 overflows
    a_scaled = a / problem.gamma
    values = (float(alpha @ fitted), float(a_scaled * a_scaled), 0.0, float(resid[:-1] @ resid[:-1]),
              float(resid[-1] ** 2))
    loss = values[0] + values[1] + values[2] + values[3] + values[4]
    z = d * alpha
    slope = 2.0 * a_scaled / problem.gamma - float(z @ ((b1 + (2.0 * a) * b2) @ z))
    return _Evaluation(dict(zip(_PDE_TERM_NAMES, (*values, lam2, lam3))), loss, slope, alpha)


def cgc_pde_loss_terms(problem, state, weights):
    """Named weighted loss terms of the best map for ``state.a`` (see :func:`_evaluate`)."""
    return _evaluate(problem, weights, state.a).terms


def cgc_pde_loss(problem, state, weights):
    """Profiled loss f(a) = a^2 / gamma^2 + y~^T (Phi~(a) + I)^-1 y~, as the sum of its terms."""
    return _evaluate(problem, weights, state.a).loss


def cgc_pde_grad(problem, state, weights):
    """Exact slope f'(a) = 2a / gamma^2 - (D alpha~)^T (B1 + 2a B2) (D alpha~) of the profiled loss."""
    return _evaluate(problem, weights, state.a).slope


@dataclass
class CgcPdeResult:
    state: CgcPdeState
    interpolant: Interpolant
    loss_trace: list
    terms: dict
    weights: tuple
    iterations: int
    converged: bool
    reason: str


def _start(problem):
    """Weights (0.0, lambda2, lambda3) and starting ``a``, both from the identity map G0.

    G0 is the fit of G(x) = x at the data and the anchor. Slot 0 of the
    weights would weight a data-fit term, which is identically zero here; it
    keeps the tuple in the solvers' common three-slot layout. Unset weights
    balance the equation term against ||G0||^2, and the anchor, a single
    sample, is weighted like the whole equation block. The start is the
    exact best ``a`` for G0: with z = G0'(u) / u^2 the ``a``-dependent part
    of its loss, a^2 / gamma^2 + lambda2 ||G0(u) + a z||^2, is a quadratic.
    """
    x, u = problem.nodes, problem.u_data
    g0 = fit(ConstraintSystem(tuple(map(LinearFunctional.dirac, x)), x), PDE_KERNEL)
    z1, z = g0(u), g0.evaluate(u, 1) / u**2
    norm, fit_sq = float(x @ g0.coefficients), float(z1 @ z1)
    lam2 = problem.lambda2 if problem.lambda2 is not None else _balanced(BALANCE_FACTOR, norm, fit_sq)
    lam3 = problem.lambda3 if problem.lambda3 is not None else lam2 * u.size
    return (0.0, lam2, lam3), float(-lam2 * (z1 @ z) / ((1.0 / problem.gamma) / problem.gamma + lam2 * (z @ z)))


def cgc_pde_solve(problem, config=None):
    """Minimize the joint loss exactly, in the basin of the identity map's best ``a``.

    For a fixed ``a`` the best map is kernel ridge regression on the scaled
    functionals sqrt(lambda2) (delta_(u_i) + (a / u_i^2) delta'_(u_i)),
    target 0, and sqrt(lambda3) delta_1, target sqrt(lambda3), so the loss
    profiles to f(a) (:func:`cgc_pde_loss`) with the exact slope
    :func:`cgc_pde_grad`; :func:`_evaluate` gives f, its slope, its terms
    and the best map from one factorization. From :func:`_start` the search walks
    downhill in steps doubling from 1e-3 to the slope's first sign change and
    bisects until the bracket's ends are adjacent floats or its width is at
    most machine epsilon times the last walk step (``bracket_closed``),
    unless the slope is 0 (``zero_slope``) or ``config.max_iters`` slopes are
    spent (``max_iters``). Each ``a`` it visits is evaluated once. The loss
    trace is [f at the start, f at the returned ``a``]; the terms and the
    interpolant, the best map with unit nugget, are those of the evaluation
    at the returned ``a``.
    """
    weights, a = _start(problem)
    best = _evaluate(problem, weights, a)
    trace = [best.loss]
    evals, direction, step, hi, closed = 1, (-1.0 if best.slope > 0.0 else 1.0), 1e-3, None, False
    cap = (config or DescentConfig()).max_iters
    while best.slope != 0.0 and evals < cap and not closed:
        trial = a + direction * step if hi is None else 0.5 * (a + hi)
        if trial == a:
            break
        step *= 2.0
        evaluation = _evaluate(problem, weights, trial)
        evals += 1
        if direction * evaluation.slope <= 0.0:
            a, best = trial, evaluation
        elif hi is None:  # the first sign change: the bracket is the last walk step
            hi, tol = trial, np.finfo(float).eps * abs(trial - a)
        else:
            hi = trial
        closed = hi is not None and (0.5 * (a + hi) in (a, hi) or abs(hi - a) <= tol)
    reason = "zero_slope" if best.slope == 0.0 else "bracket_closed" if closed else "max_iters"
    trace.append(best.loss)
    d = _scales(problem, weights)
    functionals = tuple(LinearFunctional.of_terms((u, 0, s), (u, 1, s * a / u**2)) for u, s in zip(problem.u_data, d))
    table = _flatten(functionals + (LinearFunctional.dirac(1.0, d[-1]),))
    interp = Interpolant(PDE_KERNEL, table, best.alpha, nugget=1.0)
    return CgcPdeResult(CgcPdeState(a), interp, trace, best.terms, weights, evals, reason != "max_iters", reason)


# ---------------------------------------------------------------------------
# learning the normal-form radius map from an oscillator trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NfProblem:
    """Trajectory data and weights for the radius-map problem.

    The anchor is the trajectory's first state: the map must send it to its
    radius. The sampling step, the anchor's radius and the quartic features of
    the trajectory are computed once and kept with the problem, so the
    trajectory must not be modified afterwards.
    """

    trajectory: object
    mu: float
    lambda1: float | None = None
    lambda2: float | None = None
    lambda3: float | None = None

    def __post_init__(self):
        t = self.trajectory.times
        dt = np.diff(t)
        if dt.size < 2 or np.max(np.abs(dt - dt[0])) > 1e-8 * dt[0]:
            raise InvalidInputError("trajectory must be uniformly sampled in time")
        if self.trajectory.states.shape[1] != 2:
            raise InvalidInputError("trajectory states must be planar (u, v)")
        if not math.isfinite(self.mu):
            raise InvalidInputError(f"mu must be finite, got {self.mu}")
        _check_weights(self, ("lambda1", "lambda2", "lambda3"))
        if self.r0_target == 0.0:
            # the exact radius r(t) would vanish identically, leaving no scale to learn or compare with
            raise InvalidInputError("the trajectory's first state (init_point) must differ from the fixed point (0, 0)")

    @cached_property
    def dt(self):
        """The uniform sampling step of the trajectory."""
        return float(self.trajectory.times[1] - self.trajectory.times[0])

    @cached_property
    def r0_target(self):
        """The radius of the anchor, the trajectory's first state."""
        u0, v0 = self.trajectory.states[0]
        return float(np.hypot(u0, v0))

    @cached_property
    def _features(self):
        """Quartic features of the trajectory states, and those of the first state (the anchor)."""
        phi = homogeneous_features(NF_KERNEL, self.trajectory.states)
        return phi, phi[0]


@dataclass(frozen=True)
class NfState:
    """Quartic coefficients of the map and the radius samples."""

    h_coeffs: np.ndarray
    r_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_coeffs", np.asarray(self.h_coeffs, dtype=float))
        object.__setattr__(self, "r_values", np.asarray(self.r_values, dtype=float))
        if not (np.all(np.isfinite(self.h_coeffs)) and np.all(np.isfinite(self.r_values))):
            raise InvalidInputError("state entries must be finite")


def _nf_residuals(problem, coeffs, r):
    """Fit residual H(x_t) - r_t, decay-law residual r' - (mu - r^2) r, and anchor residual H(x_0) - |x_0|."""
    phi, phi0 = problem._features
    ode = first_difference(r, problem.dt) - (problem.mu - r**2) * r
    return phi @ coeffs - r, ode, float(phi0 @ coeffs) - problem.r0_target


def _nf_loss_at(problem, coeffs, weights, residuals):
    """Weighted terms (norm_h, fit, decay law, anchor) from the residuals at ``coeffs``, and their sum."""
    fit, ode, anchor = residuals
    lam1, lam2, lam3 = weights
    terms = (homogeneous_norm_sq(NF_KERNEL, coeffs), lam1 * float(fit @ fit), lam2 * float(ode @ ode),
             lam3 * anchor**2)
    return terms, terms[0] + terms[1] + terms[2] + terms[3]


def _nf_gradient(problem, coeffs, r, weights, residuals):
    """Gradient w.r.t. (h_coeffs, r_values) from the residuals at that point."""
    lam1, lam2, lam3 = weights
    phi, phi0 = problem._features
    fit, ode, anchor = residuals
    grad_c = 2.0 * coeffs / NF_KERNEL.binomials + lam1 * 2.0 * (phi.T @ fit) + lam3 * 2.0 * anchor * phi0
    grad_r = -lam1 * 2.0 * fit + lam2 * 2.0 * (_fd_transpose(ode, problem.dt) - (problem.mu - 3.0 * r**2) * ode)
    return grad_c, grad_r


# Per-term factors applied on top of plain magnitude balancing. The radius
# map is not exactly representable by a homogeneous quartic, so the data-fit
# term is deliberately soft (it would otherwise drag the radius toward the
# map's expressibility errors, and in the extreme collapse everything to
# zero) while the decay-law term, whose late-time level is what identifies
# the limit-cycle radius, is weighted up.
NF_FIT_FACTOR = 0.1
NF_ODE_FACTOR = 100.0
NF_ANCHOR_FACTOR = 10.0


def _nf_weights(problem, raw):
    """Loss weights; each one left unset balances its term of ``raw``, the unit-weight terms at the start."""
    norm = raw[0]
    given = (problem.lambda1, problem.lambda2, problem.lambda3)
    factors = (NF_FIT_FACTOR, NF_ODE_FACTOR, NF_ANCHOR_FACTOR)
    return tuple(w if w is not None else _balanced(f, norm, t) for w, f, t in zip(given, factors, raw[1:]))


#: Names of the weighted terms that :func:`_nf_loss_at` returns, then of the three weights.
_NF_TERM_NAMES = ("norm_h", "l1_weighted", "l2_weighted", "anchor_weighted", "lambda1", "lambda2", "lambda3")


def nf_loss_terms(problem, state, weights):
    """Named weighted loss terms; their sum is :func:`nf_loss`."""
    residuals = _nf_residuals(problem, state.h_coeffs, state.r_values)
    return dict(zip(_NF_TERM_NAMES, (*_nf_loss_at(problem, state.h_coeffs, weights, residuals)[0], *weights)))


def nf_loss(problem, state, weights):
    return _nf_loss_at(problem, state.h_coeffs, weights, _nf_residuals(problem, state.h_coeffs, state.r_values))[1]


def nf_grad(problem, state, weights):
    """Hand-coded gradient w.r.t. (h_coeffs, r_values)."""
    residuals = _nf_residuals(problem, state.h_coeffs, state.r_values)
    return _nf_gradient(problem, state.h_coeffs, state.r_values, weights, residuals)


def _nf_default_init(problem):
    """Radius of the data as the radius guess; least-squares quartic through it."""
    states = problem.trajectory.states
    r = np.hypot(states[:, 0], states[:, 1])
    coeffs, *_ = np.linalg.lstsq(problem._features[0], r, rcond=None)
    return NfState(coeffs, r)


@dataclass
class NfResult:
    state: NfState
    xy: np.ndarray
    loss_trace: list
    terms: dict
    weights: tuple
    iterations: int
    converged: bool
    reason: str
    theta0: float = 0.0


def nf_h_values(problem, coeffs, points):
    """Evaluate the quartic map at the given (u, v) points."""
    return homogeneous_features(NF_KERNEL, points) @ np.asarray(coeffs, dtype=float)


#: Descent stops, converged, once every gradient entry is at most this in size.
GRAD_TOL = 1e-8
#: Descent stops, converged, once the backtracked step falls to this size.
STEP_TOL = 1e-16
#: Armijo sufficient-decrease constant.
ARMIJO = 1e-4
#: Step factor after a rejected trial, and after an accepted step.
SHRINK, GROW = 0.5, 1.3


def nf_solve(problem, config=None):
    """Minimize the radius-map loss and reconstruct the planar normal-form orbit.

    Gradient descent on x = [h_coeffs, r_values] along the gradient scaled by
    the fixed diagonal :func:`_nf_precond`, with Armijo backtracking from a
    step that grows after each accepted step; the first trial step has unit
    length. Each trial point costs one residual pass (one product with the
    quartic features of the trajectory and one first difference), and an
    accepted point's gradient and loss terms reuse its residuals; the start's
    one pass also sets the weights left unset. The accepted-step loss trace is
    nonincreasing. It stops at a small gradient (``grad_tol``), a
    vanishing step (``step_tol``) or after ``config.max_iters`` steps.

    The phase advances at unit rate from the angle of the initial point, so
    the reconstruction is x = r cos(t + theta0), y = r sin(t + theta0).
    """
    state0 = _nf_default_init(problem)
    n_c = state0.h_coeffs.size
    x = np.concatenate([state0.h_coeffs, state0.r_values])
    residuals = _nf_residuals(problem, x[:n_c], x[n_c:])
    # unit weights leave the raw terms
    weights = _nf_weights(problem, _nf_loss_at(problem, x[:n_c], (1.0, 1.0, 1.0), residuals)[0])
    precond = _nf_precond(problem, state0, weights)
    terms, f = _nf_loss_at(problem, x[:n_c], weights, residuals)
    if not np.isfinite(f):
        raise DivergedError("non-finite loss at the initial point", trace=[f])
    trace = [f]
    step, reason, it = 1.0, "max_iters", 0
    for it in range(1, (config or DescentConfig()).max_iters + 1):
        g = np.concatenate(_nf_gradient(problem, x[:n_c], x[n_c:], weights, residuals))
        if not np.all(np.isfinite(g)):
            raise DivergedError("non-finite gradient", trace=trace)
        if np.max(np.abs(g)) <= GRAD_TOL:
            reason = "grad_tol"
            break
        d = precond * g
        slope = float(g @ d)
        while step > STEP_TOL:
            x_new = x - step * d
            residuals_new = _nf_residuals(problem, x_new[:n_c], x_new[n_c:])
            terms_new, f_new = _nf_loss_at(problem, x_new[:n_c], weights, residuals_new)
            if np.isfinite(f_new) and f_new <= f - ARMIJO * step * slope:
                break
            step *= SHRINK
        else:
            reason = "step_tol"
            break
        x, f, terms, residuals = x_new, f_new, terms_new, residuals_new
        trace.append(f)
        step *= GROW
    state = NfState(x[:n_c], x[n_c:])
    theta0 = float(np.arctan2(problem.trajectory.states[0, 1], problem.trajectory.states[0, 0]))
    phase = problem.trajectory.times + theta0
    xy = np.stack([state.r_values * np.cos(phase), state.r_values * np.sin(phase)], axis=1)
    named = dict(zip(_NF_TERM_NAMES, (*terms, *weights)))
    return NfResult(state, xy, trace, named, weights, it, reason != "max_iters", reason, theta0)


def _nf_precond(problem, state, weights):
    lam1, lam2, lam3 = weights
    phi, phi0 = problem._features
    diag_c = 2.0 / NF_KERNEL.binomials + 2.0 * lam1 * np.sum(phi**2, axis=0) + 2.0 * lam3 * phi0**2
    dtd = _fd_column_norms(state.r_values.size, problem.dt)
    diag_r = 2.0 * lam1 + 2.0 * lam2 * ((problem.mu - 3.0 * state.r_values**2) ** 2 + dtd)
    return 1.0 / np.maximum(np.concatenate([diag_c, diag_r]), 1e-12)
