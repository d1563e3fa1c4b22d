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

The first solve is exact: for a fixed ``a`` the best map is one Cholesky
solve, and a 1-D root find on the slope in ``a`` finishes it. The second
runs its own Armijo gradient descent with a fixed diagonal rescaling, at
one residual pass per trial point. Each loss has one residual function,
which its loss terms, gradient and solver all read. Each problem builds its
fixed matrices (the node Gram factor and cross blocks, or the quartic
features of the trajectory) once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .dynamics import first_difference
from .exceptions import DivergedError, InvalidInputError, SingularSystemError
from .gp import Interpolant, LinearFunctional, default_nugget, _factor_with_escalation
from .kernels import HomogeneousPolynomial, Matern52, homogeneous_features, homogeneous_norm_sq, k_deriv
from .optim import DescentConfig

__all__ = [
    "CgcPdeProblem",
    "CgcPdeState",
    "CgcPdeResult",
    "cgc_pde_loss",
    "cgc_pde_loss_terms",
    "cgc_pde_grad",
    "cgc_pde_default_init",
    "cgc_pde_solve",
    "NfProblem",
    "NfState",
    "NfResult",
    "nf_loss",
    "nf_loss_terms",
    "nf_grad",
    "nf_default_init",
    "nf_solve",
    "nf_h_values",
]

#: Balance factor used when loss weights are derived from the initial state.
BALANCE_FACTOR = 10.0

#: Kernel of the map G learned by :func:`cgc_pde_solve`.
PDE_KERNEL = Matern52(1.0)

#: Kernel of the radius map H learned by :func:`nf_solve`.
NF_KERNEL = HomogeneousPolynomial(4)


# ---------------------------------------------------------------------------
# learning the map and the unknown linear-PDE coefficient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CgcPdeProblem:
    """Fixed data and weights for the map-plus-coefficient problem.

    ``u_data`` is the fixed input column of the data array; the map's node
    set is ``u_data`` plus the anchor point u = 1. Weights left as None are
    balanced against the initial term magnitudes when solving.
    """

    u_data: np.ndarray
    gamma: float = 1.0
    lambda2: float | None = None
    lambda3: float | None = None
    nugget: float | None = None

    def __post_init__(self):
        u = np.asarray(self.u_data, dtype=float)
        if u.ndim != 1 or u.size == 0:
            raise InvalidInputError("u_data must be a nonempty vector")
        if np.any(u == 0.0):
            raise InvalidInputError("u_data entries must be nonzero (the residual divides by u^2)")
        object.__setattr__(self, "u_data", u)
        if not self.gamma > 0:
            raise InvalidInputError("gamma must be positive")
        for name in ("lambda2", "lambda3"):
            w = getattr(self, name)
            if w is not None and w < 0:
                raise InvalidInputError(f"{name} must be nonnegative when given")

    @property
    def nodes(self):
        return np.concatenate([self.u_data, [1.0]])

    @cached_property
    def _context(self):
        return _PdeContext(self)


@dataclass(frozen=True)
class CgcPdeState:
    """Free variables: map values at the nodes (anchor last) and the coefficient a."""

    g_values: np.ndarray
    a: float

    def __post_init__(self):
        g = np.asarray(self.g_values, dtype=float)
        object.__setattr__(self, "g_values", g)
        if not np.all(np.isfinite(g)) or not np.isfinite(self.a):
            raise InvalidInputError("state entries must be finite")


class _PdeContext:
    """Precomputed matrices for one problem: node Gram factor and cross blocks."""

    def __init__(self, problem):
        self.problem = problem
        self.x = x = problem.nodes
        self.k_node = np.asarray(k_deriv(PDE_KERNEL, x[:, None], x[None, :], 0, 0), dtype=float)
        lam = problem.nugget if problem.nugget is not None else default_nugget(self.k_node)
        self.cf, self.lam = _factor_with_escalation(self.k_node, lam)
        self.k_reg = self.k_node + self.lam * np.eye(len(x))
        u = problem.u_data
        self.k_data = np.asarray(k_deriv(PDE_KERNEL, u[:, None], x[None, :], 0, 0), dtype=float)
        self.k_data_d1 = np.asarray(k_deriv(PDE_KERNEL, u[:, None], x[None, :], 1, 0), dtype=float)
        self.inv_u2 = 1.0 / u**2

    def beta_of_g(self, g):
        return cho_solve(self.cf, g)

    def weights(self, init_state):
        """Resolve (0.0, lambda2, lambda3), balancing unset ones at the init.

        Slot 0 would weight a data-fit term, which is identically zero here;
        it keeps the tuple in the solvers' common three-slot layout.
        """
        p = self.problem
        # unit weights leave the raw squared residual norms
        terms = cgc_pde_loss_terms(p, init_state, (0.0, 1.0, 1.0))
        base = max(terms["norm_g"] + terms["a_prior"], 1e-8)
        lam2 = p.lambda2 if p.lambda2 is not None else BALANCE_FACTOR * base / max(terms["l2_weighted"], 1e-12)
        # the anchor is a single sample; weight it like the whole equation block
        lam3 = p.lambda3 if p.lambda3 is not None else lam2 * p.u_data.size
        return 0.0, lam2, lam3


def _pde_residuals(ctx, state):
    """Coefficients beta = K_reg^-1 g, the equation residual G(u) + a G'(u) / u^2 on the data, and G'(u)."""
    beta = ctx.beta_of_g(state.g_values)
    z2 = ctx.k_data_d1 @ beta
    return beta, ctx.k_data @ beta + state.a * z2 * ctx.inv_u2, z2


def cgc_pde_loss_terms(problem, state, weights):
    """Named weighted loss terms; their sum is :func:`cgc_pde_loss`.

    The data-fit term ``l1_weighted`` is identically zero: the output column
    of the data array is the map itself evaluated at the data.
    """
    _, lam2, lam3 = weights
    beta, resid, _ = _pde_residuals(problem._context, state)
    return {
        "norm_g": float(state.g_values @ beta),
        "a_prior": float((state.a / problem.gamma) ** 2),
        "l1_weighted": 0.0,
        "l2_weighted": lam2 * float(resid @ resid),
        "anchor_weighted": lam3 * float((state.g_values[-1] - 1.0) ** 2),
        "lambda2": lam2,
        "lambda3": lam3,
    }


def cgc_pde_loss(problem, state, weights):
    """Total loss at a state."""
    t = cgc_pde_loss_terms(problem, state, weights)
    return t["norm_g"] + t["a_prior"] + t["l1_weighted"] + t["l2_weighted"] + t["anchor_weighted"]


def cgc_pde_grad(problem, state, weights):
    """Hand-coded gradient of the loss w.r.t. (g_values, a)."""
    ctx = problem._context
    _, lam2, lam3 = weights
    beta, resid, z2 = _pde_residuals(ctx, state)
    # d resid / d g, mapped back through the symmetric solve
    w_z1 = lam2 * 2.0 * resid
    w_z2 = w_z1 * state.a * ctx.inv_u2
    grad_g = 2.0 * beta + cho_solve(ctx.cf, ctx.k_data.T @ w_z1 + ctx.k_data_d1.T @ w_z2)
    grad_g[-1] += lam3 * 2.0 * (state.g_values[-1] - 1.0)
    return grad_g, _a_slope(ctx, state.a, lam2, resid, z2)


def _a_slope(ctx, a, lam2, resid, z2):
    """``a``-part of the loss gradient, 2a / gamma^2 + 2 lambda2 resid . (z2 / u^2), from the residual and G'(u)."""
    return 2.0 * a / ctx.problem.gamma**2 + lam2 * 2.0 * float(resid @ (z2 * ctx.inv_u2))


def cgc_pde_default_init(problem):
    """Zero coefficient and the identity map sampled at the nodes."""
    return CgcPdeState(problem.nodes, 0.0)


@dataclass
class CgcPdeResult:
    state: CgcPdeState
    interpolant: Interpolant
    loss_trace: list
    weights: tuple
    iterations: int
    converged: bool
    reason: str


def _best_a(ctx, beta, lam2):
    """Exact minimizer of the loss over ``a`` for the map with coefficients ``beta``.

    With z = G'(u) / u^2 the ``a``-dependent part is
    a^2 / gamma^2 + lam2 ||G(u) + a z||^2, a quadratic in ``a``.
    """
    z1 = ctx.k_data @ beta
    z = (ctx.k_data_d1 @ beta) * ctx.inv_u2
    return float(-lam2 * (z1 @ z) / (1.0 / ctx.problem.gamma**2 + lam2 * (z @ z)))


def _map_at(ctx, weights, a):
    """The best map for a fixed ``a``, as coefficients beta (node values K_reg beta), and the slope in ``a`` there.

    It solves H(a) beta = lambda3 k1, H(a) = K_reg + lambda2 M(a)^T M(a) + lambda3 k1 k1^T,
    where M(a) = k_data + a diag(1/u^2) k_data_d1 gives the equation residual
    and k1 is the anchor row of K_reg. At that map the ``a``-part of the
    joint gradient (:func:`_a_slope`) is the exact slope of the profiled loss
    (envelope theorem).
    """
    _, lam2, lam3 = weights
    k1 = ctx.k_reg[-1]
    m = ctx.k_data + a * ctx.inv_u2[:, None] * ctx.k_data_d1
    try:
        cf = cho_factor(ctx.k_reg + lam2 * (m.T @ m) + lam3 * np.outer(k1, k1))
    except LinAlgError as exc:
        raise SingularSystemError(f"map system not factorizable at a = {a!r}") from exc
    beta = cho_solve(cf, lam3 * k1)
    return beta, _a_slope(ctx, a, lam2, m @ beta, ctx.k_data_d1 @ beta)


def cgc_pde_solve(problem, init=None, config=None):
    """Minimize the joint loss exactly, in the basin of ``init`` (default: zero coefficient, identity map).

    Variable projection: :func:`_map_at` gives the best map at each ``a``.
    From the closed-form best ``a`` for the initial map, the search walks
    downhill in steps doubling from 1e-3 to the slope's first sign change and
    bisects to adjacent floats (``bracket_closed``), unless the slope is 0
    (``zero_slope``) or ``config.max_iters`` slopes are spent (``max_iters``).
    The loss trace is [loss at the initial map and its best ``a``, loss at the
    returned state, the last point whose slope still points downhill].
    """
    ctx = problem._context
    state0 = init if init is not None else cgc_pde_default_init(problem)
    weights = ctx.weights(state0)
    beta0 = ctx.beta_of_g(state0.g_values)
    a = _best_a(ctx, beta0, weights[1])
    beta, slope = _map_at(ctx, weights, a)
    trace = [cgc_pde_loss(problem, CgcPdeState(ctx.k_reg @ beta0, a), weights)]
    evals, direction, step, hi = 1, (-1.0 if slope > 0.0 else 1.0), 1e-3, None
    cap = (config or DescentConfig()).max_iters
    while slope != 0.0 and evals < cap:
        trial = a + direction * step if hi is None else 0.5 * (a + hi)
        if trial in (a, hi):
            break
        step *= 2.0
        trial_beta, trial_slope = _map_at(ctx, weights, trial)
        evals += 1
        if direction * trial_slope <= 0.0:
            a, beta, slope = trial, trial_beta, trial_slope
        else:
            hi = trial
    closed = hi is not None and 0.5 * (a + hi) in (a, hi)
    reason = "zero_slope" if slope == 0.0 else "bracket_closed" if closed else "max_iters"
    state = CgcPdeState(ctx.k_reg @ beta, a)
    interp = Interpolant(PDE_KERNEL, tuple(map(LinearFunctional.dirac, ctx.x)), beta, nugget=ctx.lam)
    trace.append(cgc_pde_loss(problem, state, weights))
    return CgcPdeResult(state, interp, trace, weights, evals, reason != "max_iters", reason)


# ---------------------------------------------------------------------------
# learning the normal-form radius map from an oscillator trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NfProblem:
    """Trajectory data and weights for the radius-map problem.

    The quartic features of the trajectory are built on first use and kept
    with the problem, so the trajectory must not be modified afterwards.
    """

    trajectory: object
    mu: float
    lambda1: float | None = None
    lambda2: float | None = None
    lambda3: float | None = None
    init_point: tuple = (0.1, -0.1)

    def __post_init__(self):
        t = self.trajectory.times
        dt = np.diff(t)
        if dt.size < 2 or np.max(np.abs(dt - dt[0])) > 1e-8 * dt[0]:
            raise InvalidInputError("trajectory must be uniformly sampled in time")
        if self.trajectory.states.shape[1] != 2:
            raise InvalidInputError("trajectory states must be planar (u, v)")
        for name in ("lambda1", "lambda2", "lambda3"):
            w = getattr(self, name)
            if w is not None and w < 0:
                raise InvalidInputError(f"{name} must be nonnegative when given")
        if self.r0_target == 0.0:
            # the exact radius r(t) would vanish identically, leaving no scale to learn or compare with
            raise InvalidInputError("init_point must differ from the fixed point (0, 0)")

    @property
    def dt(self):
        return float(self.trajectory.times[1] - self.trajectory.times[0])

    @property
    def r0_target(self):
        u0, v0 = self.init_point
        return float(np.hypot(u0, v0))

    @cached_property
    def _features(self):
        """Quartic features of the trajectory states and of ``init_point``."""
        phi = homogeneous_features(NF_KERNEL, self.trajectory.states)
        phi0 = homogeneous_features(NF_KERNEL, np.asarray(self.init_point))[0]
        return phi, phi0


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


def _fd_time_adjoint(w, dt):
    """Adjoint of :func:`first_difference` (checked against it in the test suite)."""
    out = np.zeros_like(w)
    out[2:] += w[1:-1] / (2 * dt)
    out[:-2] -= w[1:-1] / (2 * dt)
    out[0] += -3 * w[0] / (2 * dt)
    out[1] += 4 * w[0] / (2 * dt)
    out[2] += -w[0] / (2 * dt)
    out[-1] += 3 * w[-1] / (2 * dt)
    out[-2] += -4 * w[-1] / (2 * dt)
    out[-3] += w[-1] / (2 * dt)
    return out


def _nf_residuals(problem, coeffs, r):
    """Fit residual H(x_t) - r_t, decay-law residual r' - (mu - r^2) r, and anchor residual H(init_point) - r0."""
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
    grad_r = -lam1 * 2.0 * fit + lam2 * 2.0 * (_fd_time_adjoint(ode, problem.dt) - (problem.mu - 3.0 * r**2) * ode)
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


def _nf_weights(problem, init_state):
    # unit weights leave the raw terms
    t = nf_loss_terms(problem, init_state, (1.0, 1.0, 1.0))
    base = max(t["norm_h"], 1e-8)
    lam1 = problem.lambda1 if problem.lambda1 is not None else NF_FIT_FACTOR * base / max(t["l1_weighted"], 1e-12)
    lam2 = problem.lambda2 if problem.lambda2 is not None else NF_ODE_FACTOR * base / max(t["l2_weighted"], 1e-12)
    lam3 = (problem.lambda3 if problem.lambda3 is not None
            else NF_ANCHOR_FACTOR * base / max(t["anchor_weighted"], 1e-12))
    return lam1, lam2, lam3


def nf_loss_terms(problem, state, weights):
    """Named weighted loss terms; their sum is :func:`nf_loss`."""
    residuals = _nf_residuals(problem, state.h_coeffs, state.r_values)
    (norm_h, l1, l2, anchor), _ = _nf_loss_at(problem, state.h_coeffs, weights, residuals)
    lam1, lam2, lam3 = weights
    return {
        "norm_h": norm_h,
        "l1_weighted": l1,
        "l2_weighted": l2,
        "anchor_weighted": anchor,
        "lambda1": lam1,
        "lambda2": lam2,
        "lambda3": lam3,
    }


def nf_loss(problem, state, weights):
    return _nf_loss_at(problem, state.h_coeffs, weights, _nf_residuals(problem, state.h_coeffs, state.r_values))[1]


def nf_grad(problem, state, weights):
    """Hand-coded gradient w.r.t. (h_coeffs, r_values)."""
    residuals = _nf_residuals(problem, state.h_coeffs, state.r_values)
    return _nf_gradient(problem, state.h_coeffs, state.r_values, weights, residuals)


def nf_default_init(problem):
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


def nf_solve(problem, init=None, config=None):
    """Minimize the radius-map loss and reconstruct the planar normal-form orbit.

    Gradient descent on x = [h_coeffs, r_values] along the gradient scaled by
    the fixed diagonal :func:`_nf_precond`, with Armijo backtracking from a
    step that grows after each accepted step; the first trial step has unit
    length. Each trial point costs one residual pass (one product with the
    quartic features of the trajectory and one first difference), and an
    accepted point's gradient reuses its residuals. The accepted-step loss
    trace is nonincreasing. It stops at a small gradient (``grad_tol``), a
    vanishing step (``step_tol``) or after ``config.max_iters`` steps.

    The phase advances at unit rate from the angle of the initial point, so
    the reconstruction is x = r cos(t + theta0), y = r sin(t + theta0).
    """
    state0 = init if init is not None else nf_default_init(problem)
    weights = _nf_weights(problem, state0)
    precond = _nf_precond(problem, state0, weights)
    n_c = state0.h_coeffs.size
    x = np.concatenate([state0.h_coeffs, state0.r_values])
    residuals = _nf_residuals(problem, x[:n_c], x[n_c:])
    _, f = _nf_loss_at(problem, x[:n_c], weights, residuals)
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
            _, f_new = _nf_loss_at(problem, x_new[:n_c], weights, residuals_new)
            if np.isfinite(f_new) and f_new <= f - ARMIJO * step * slope:
                break
            step *= SHRINK
        else:
            reason = "step_tol"
            break
        x, f, residuals = x_new, f_new, residuals_new
        trace.append(f)
        step *= GROW
    state = NfState(x[:n_c], x[n_c:])
    theta0 = float(np.arctan2(problem.init_point[1], problem.init_point[0]))
    phase = problem.trajectory.times + theta0
    xy = np.stack([state.r_values * np.cos(phase), state.r_values * np.sin(phase)], axis=1)
    return NfResult(state, xy, trace, weights, it, reason != "max_iters", reason, theta0)


def _nf_precond(problem, state, weights):
    lam1, lam2, lam3 = weights
    phi, phi0 = problem._features
    diag_c = 2.0 / NF_KERNEL.binomials + 2.0 * lam1 * np.sum(phi**2, axis=0) + 2.0 * lam3 * phi0**2
    n = state.r_values.size
    dt = problem.dt
    # diagonal of D^T D for the one-sided/central first-derivative stencil
    dtd = np.full(n, 2.0, dtype=float)
    if n >= 6:
        dtd[:3] = (10.0, 17.0, 3.0)
        dtd[-3:] = (3.0, 17.0, 10.0)
    dtd /= (2.0 * dt) ** 2
    diag_r = 2.0 * lam1 + 2.0 * lam2 * ((problem.mu - 3.0 * state.r_values**2) ** 2 + dtd)
    return 1.0 / np.maximum(np.concatenate([diag_c, diag_r]), 1e-12)
