"""Joint GP regression over coupled unknowns sharing a data array.

Two instances are provided:

* :func:`cgc_pde_solve` learns a scalar map G together with the unknown
  coefficient ``a`` of the linear first-order target equation, by minimizing
  a loss combining G's RKHS norm, the standard Gaussian prior a^2 on ``a``,
  the equation residual on the data, and an anchor pinning G(1) = 1.
* :func:`nf_solve` learns a homogeneous-quartic map H from a planar
  oscillator trajectory to the radius r of its rotation normal form, with r
  on the closed form of the radial law from an unknown initial radius r0,
  coupling them through a data-fit term, the decay law and an anchor.

Both are exact in the map, so the loss profiles to a function of one
scalar, which :func:`gpmaps.optim.slope_search` minimizes from its exact
slope. The solvers balance their own loss weights; the public loss views
check the weights they are given (:func:`_checked_weights`). For a fixed
``a`` one factorization of the scaled Gram plus identity (``gp._cholesky``,
which raises rather than escalate the identity nugget, a part of the loss)
gives the loss terms, their sum, the slope and the best G. For a fixed r0
the best H solves a 5 x 5 system factored once per solve; r obeys the law,
so ``brusselator-nf``'s ``relative_l2`` is small by construction at the
paper configuration, while H misses its own r there by about 87%. Each
problem builds its fixed matrices (the kernel blocks of the
functionals' Gram, or the trajectory's quartic features) once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dynamics import _fd_transpose, _radius_law, first_difference
from .exceptions import DivergedError, InvalidInputError
from .gp import ConstraintSystem, Interpolant, LinearFunctional, _cholesky, _factor_inverse, _flatten, fit
from .kernels import HomogeneousPolynomial, Matern52, homogeneous_features, homogeneous_norm_sq, k_deriv
from .optim import DescentConfig, slope_search

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

#: Names of the three loss weights, in the order both solvers' weight tuples hold them.
_WEIGHT_NAMES = ("lambda1", "lambda2", "lambda3")

#: Names of the weighted terms whose sum is the :func:`cgc_pde_solve` loss, in the order summed.
_PDE_TERM_NAMES = ("norm_g", "a_prior", "l1_weighted", "l2_weighted", "anchor_weighted")

#: Kernel of the radius map H learned by :func:`nf_solve`.
NF_KERNEL = HomogeneousPolynomial(4)


def _balanced(factor, norm, term):
    """The weight that makes ``term`` cost ``factor`` times the squared norm ``norm``, both floored away from 0."""
    return factor * max(norm, 1e-8) / max(term, 1e-12)


def _checked_weights(weights):
    """``weights`` (lambda1, lambda2, lambda3), once there are three and each is finite and nonnegative.

    The problems hold no weights, so the public loss views check the ones
    they are given; the solvers balance their own (:func:`_start`,
    :func:`_nf_weights`) and evaluate unchecked.
    """
    if len(weights) != len(_WEIGHT_NAMES):
        raise InvalidInputError(f"need the three weights (lambda1, lambda2, lambda3), got {len(weights)}")
    for name, w in zip(_WEIGHT_NAMES, weights):
        if not (math.isfinite(w) and w >= 0):
            raise InvalidInputError(f"{name} must be finite and nonnegative, got {w}")
    return weights


# ---------------------------------------------------------------------------
# learning the map and the unknown linear-PDE coefficient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CgcPdeProblem:
    """Fixed data for the map-plus-coefficient problem.

    ``u_data`` is the fixed input column of the data array; the functionals
    sit at ``u_data`` and at the anchor point u = 1. The loss weights are
    always balanced against the identity map when solving (:func:`_start`).
    """

    u_data: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u_data, dtype=float)
        if u.ndim != 1 or u.size == 0:
            raise InvalidInputError("u_data must be a nonempty vector")
        if np.any(u == 0.0):
            raise InvalidInputError("u_data entries must be nonzero (the residual divides by u^2)")
        object.__setattr__(self, "u_data", u)

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


def _scaled(problem, weights):
    """The scales d and the targets y~ of the scaled functionals: fixed for a solve, so built once for it.

    d holds the square root of each functional's weight, sqrt(lambda2) on the
    data and sqrt(lambda3) at the anchor; y~ = (0, ..., 0, sqrt(lambda3)).
    """
    _, lam2, lam3 = weights
    d = np.r_[np.full(problem.u_data.size, np.sqrt(lam2)), np.sqrt(lam3)]
    return d, np.r_[np.zeros(d.size - 1), d[-1]]


class _Evaluation(NamedTuple):
    """The profile at one ``a``: the named loss terms, their sum f(a), the slope f'(a) and the map's alpha~."""

    terms: dict
    loss: float
    slope: float
    alpha: np.ndarray


def _evaluate(problem, scaled, a):
    """The :class:`_Evaluation` of the best map for ``a``, from one factorization of Phi~(a) + I.

    Phi~ = D (B0 + a B1 + a^2 B2) D is the Gram of the scaled functionals, y~
    their targets (``scaled`` is :func:`_scaled`'s pair of diag(D) and y~)
    and alpha~ = (Phi~ + I)^-1 y~ the coefficients of the best map
    sum_j alpha~_j phi~_j. Its squared RKHS norm is alpha~^T Phi~ alpha~
    and its scaled residuals are Phi~ alpha~ - y~: the equation residual on
    the data (weight lambda2) and G(1) - 1 (lambda3). The data-fit term
    ``l1_weighted`` is identically zero: the output column of the data array
    is the map itself evaluated at the data. The loss
    f(a) = a^2 + y~^T (Phi~ + I)^-1 y~ is the sum of the named terms, and
    its exact slope is f'(a) = 2a - (D alpha~)^T (B1 + 2a B2) (D alpha~).
    """
    b0, b1, b2 = problem._blocks
    d, y = scaled
    phi = d[:, None] * (b0 + a * b1 + (a * a) * b2) * d[None, :]
    inverse = _factor_inverse(_cholesky(phi, 1.0, f"map system at a = {a!r}"))
    alpha = inverse.T @ (inverse @ y)
    fitted = phi @ alpha
    resid = fitted - y
    values = (float(alpha @ fitted), float(a * a), 0.0, float(resid[:-1] @ resid[:-1]), float(resid[-1] ** 2))
    loss = values[0] + values[1] + values[2] + values[3] + values[4]
    z = d * alpha
    slope = 2.0 * a - float(z @ ((b1 + (2.0 * a) * b2) @ z))
    return _Evaluation(dict(zip(_PDE_TERM_NAMES, values)), loss, slope, alpha)


def cgc_pde_loss_terms(problem, state, weights):
    """Named weighted loss terms of the best map for ``state.a`` (see :func:`_evaluate`)."""
    return _evaluate(problem, _scaled(problem, _checked_weights(weights)), state.a).terms


def cgc_pde_loss(problem, state, weights):
    """Profiled loss f(a) = a^2 + y~^T (Phi~(a) + I)^-1 y~, as the sum of its terms."""
    return _evaluate(problem, _scaled(problem, _checked_weights(weights)), state.a).loss


def cgc_pde_grad(problem, state, weights):
    """Exact slope f'(a) = 2a - (D alpha~)^T (B1 + 2a B2) (D alpha~) of the profiled loss."""
    return _evaluate(problem, _scaled(problem, _checked_weights(weights)), state.a).slope


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
    slope: float


def _start(problem):
    """Weights (0.0, lambda2, lambda3) and starting ``a``, both from the identity map G0.

    G0 is the fit of G(x) = x at the data and the anchor. Slot 0 of the
    weights would weight a data-fit term, which is identically zero here; it
    keeps the tuple in the solvers' common three-slot layout. lambda2
    balances the equation term against ||G0||^2, and the anchor, a single
    sample, is weighted like the whole equation block: lambda3 = N lambda2.
    The start is the exact best ``a`` for G0: with z = G0'(u) / u^2 the
    ``a``-dependent part of its loss, a^2 + lambda2 ||G0(u) + a z||^2, is a
    quadratic.
    """
    x, u = problem.nodes, problem.u_data
    g0 = fit(ConstraintSystem(tuple(map(LinearFunctional.dirac, x)), x), PDE_KERNEL)
    z1, z = g0(u), g0.evaluate(u, 1) / u**2
    norm, fit_sq = float(x @ g0.coefficients), float(z1 @ z1)
    lam2 = _balanced(BALANCE_FACTOR, norm, fit_sq)
    return (0.0, lam2, lam2 * u.size), float(-lam2 * (z1 @ z) / (1.0 + lam2 * (z @ z)))


def cgc_pde_solve(problem, config=None):
    """Minimize the joint loss exactly, in the basin of the identity map's best ``a``.

    For a fixed ``a`` the best map is kernel ridge regression on the scaled
    functionals sqrt(lambda2) (delta_(u_i) + (a / u_i^2) delta'_(u_i)),
    target 0, and sqrt(lambda3) delta_1, target sqrt(lambda3), so the loss
    profiles to f(a) (:func:`cgc_pde_loss`, slope :func:`cgc_pde_grad`).
    From :func:`_start`, :func:`gpmaps.optim.slope_search` finds a local
    minimum of f in at most ``config.max_iters`` slope evaluations (16 at
    the paper configuration). The loss trace is [f at the start, f at the
    returned ``a``] and ``slope`` is f' there; the terms and the
    interpolant, the best map with unit nugget, are those of the evaluation
    at the returned ``a``. The functionals' scales and targets are built
    once per solve.
    """
    weights, a = _start(problem)
    scaled = _scaled(problem, weights)
    first = _evaluate(problem, scaled, a)
    a, best, evals, reason = slope_search(lambda trial: _evaluate(problem, scaled, trial), a, first,
                                          (config or DescentConfig()).max_iters)
    trace = [first.loss, best.loss]
    d = scaled[0]
    functionals = tuple(LinearFunctional.of_terms((u, 0, s), (u, 1, s * a / u**2)) for u, s in zip(problem.u_data, d))
    table = _flatten(functionals + (LinearFunctional.dirac(1.0, d[-1]),))
    interp = Interpolant(PDE_KERNEL, table, best.alpha, nugget=1.0)
    return CgcPdeResult(CgcPdeState(a), interp, trace, best.terms, weights, evals, reason != "max_iters", reason,
                        best.slope)


# ---------------------------------------------------------------------------
# learning the normal-form radius map from an oscillator trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NfProblem:
    """Trajectory data for the radius-map problem.

    The anchor is the trajectory's first state: the map must send it to its
    radius. The sampling step, the anchor's radius and the quartic features of
    the trajectory are computed once and kept with the problem, so the
    trajectory must not be modified afterwards. The loss weights are always
    balanced when solving (:func:`_nf_weights`).
    """

    trajectory: object
    mu: float

    def __post_init__(self):
        t = self.trajectory.times
        dt = np.diff(t)
        if dt.size < 2 or np.max(np.abs(dt - dt[0])) > 1e-8 * dt[0]:
            raise InvalidInputError("trajectory must be uniformly sampled in time")
        if self.trajectory.states.shape[1] != 2:
            raise InvalidInputError("trajectory states must be planar (u, v)")
        if not math.isfinite(self.mu):
            raise InvalidInputError(f"mu must be finite, got {self.mu}")
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
# is not exactly representable by a homogeneous quartic, so the data-fit
# term is deliberately soft: it would otherwise drag r0 toward the map's
# expressibility errors.
NF_FIT_FACTOR = 0.1
NF_ODE_FACTOR = 100.0
NF_ANCHOR_FACTOR = 10.0


def _nf_weights(raw):
    """Loss weights, each balancing its term of ``raw``, the unit-weight terms, against the norm ``raw[0]``."""
    factors = (NF_FIT_FACTOR, NF_ODE_FACTOR, NF_ANCHOR_FACTOR)
    return tuple(_balanced(f, raw[0], t) for f, t in zip(factors, raw[1:]))


#: Names of the weighted terms that :func:`_nf_loss_at` returns.
_NF_TERM_NAMES = ("norm_h", "l1_weighted", "l2_weighted", "anchor_weighted")


def nf_loss_terms(problem, state, weights):
    """Named weighted loss terms; their sum is :func:`nf_loss`."""
    weights = _checked_weights(weights)
    residuals = _nf_residuals(problem, state.h_coeffs, state.r_values)
    return dict(zip(_NF_TERM_NAMES, _nf_loss_at(problem, state.h_coeffs, weights, residuals)[0]))


def nf_loss(problem, state, weights):
    weights = _checked_weights(weights)
    return _nf_loss_at(problem, state.h_coeffs, weights, _nf_residuals(problem, state.h_coeffs, state.r_values))[1]


def nf_grad(problem, state, weights):
    """Hand-coded gradient w.r.t. (h_coeffs, r_values)."""
    weights = _checked_weights(weights)
    residuals = _nf_residuals(problem, state.h_coeffs, state.r_values)
    return _nf_gradient(problem, state.h_coeffs, state.r_values, weights, residuals)


def _nf_default_init(problem):
    """Radius of the data as the radius guess; least-squares quartic through it."""
    states = problem.trajectory.states
    r = np.hypot(states[:, 0], states[:, 1])
    coeffs, *_ = np.linalg.lstsq(problem._features[0], r, rcond=None)
    return NfState(coeffs, r)


class _NfEvaluation(NamedTuple):
    """The profile at s = ln r0: the law's radius, its best quartic, their loss terms, the terms' sum and f'(s)."""

    r: np.ndarray
    coeffs: np.ndarray
    terms: tuple
    loss: float
    slope: float


def _nf_profile(problem, weights):
    """The loss on the radial law as a function of s = ln r0: a map from s to its :class:`_NfEvaluation`.

    For r_t = ``r_exact(e^s, mu, t)`` the best quartic c solves
    (diag(1 / binom) + lambda1 Phi^T Phi + lambda3 phi0 phi0^T) c = lambda1 Phi^T r + lambda3 |x0| phi0,
    a fixed 5 x 5 system factored once here, as are the factors e^(-2 mu t).
    As the coefficient gradient vanishes at c, the slope is :func:`nf_grad`'s
    radius part times dr_t/ds = r_t^3 e^(-2 mu t) / r0^2. A non-finite loss
    or slope raises :class:`DivergedError`, with that loss as its trace.
    """
    lam1, _, lam3 = weights
    phi, phi0 = problem._features
    system = lam1 * (phi.T @ phi) + lam3 * np.outer(phi0, phi0) + np.diag(1.0 / NF_KERNEL.binomials)
    inverse = _factor_inverse(_cholesky(system, 0.0, "quartic coefficient system"))
    t = problem.trajectory.times
    decay = np.exp(-2.0 * problem.mu * t)
    # below the threshold (mu < 0) decay may overflow where r_t is 0: the slope's factor stays 0 there, not nan
    finite_decay = np.minimum(decay, np.finfo(float).max)

    def evaluate(s):
        r0 = np.exp(s)
        r = _radius_law(r0, problem.mu, t, decay)
        coeffs = inverse.T @ (inverse @ (lam1 * (phi.T @ r) + lam3 * problem.r0_target * phi0))
        residuals = _nf_residuals(problem, coeffs, r)
        terms, loss = _nf_loss_at(problem, coeffs, weights, residuals)
        grad_r = _nf_gradient(problem, coeffs, r, weights, residuals)[1]
        slope = float(grad_r @ (finite_decay * r**3) / (r0 * r0))
        if not (math.isfinite(loss) and math.isfinite(slope)):
            raise DivergedError(f"non-finite loss or slope at ln r0 = {s!r}", trace=[loss])
        return _NfEvaluation(r, coeffs, terms, loss, slope)

    return evaluate


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
    slope: float
    theta0: float
    r0: float


def nf_h_values(problem, coeffs, points):
    """Evaluate the quartic map at the given (u, v) points."""
    return homogeneous_features(NF_KERNEL, points) @ np.asarray(coeffs, dtype=float)


def nf_solve(problem, config=None):
    """Minimize the radius-map loss with r on its radial law, and reconstruct the planar orbit.

    :func:`gpmaps.optim.slope_search` minimizes the profile of
    :func:`_nf_profile` over s = ln r0 from r0 = |x0|, once the weights are
    balanced at :func:`_nf_default_init`, whose loss must be finite. The
    loss trace is [f at the start, f at the returned r0], ``slope`` is
    f'(ln r0) there and ``iterations`` counts the slope evaluations (24 at
    the paper configuration). r differs from the closed form from |x0| only
    through r0 (``relative_l2`` 0.0018 at the paper configuration); H misses
    its own r by about 87% there.

    The reconstruction turns from the initial angle theta0 at the
    trajectory's mean angular rate omega, its unwrapped angle change over
    its time span: x = r cos(theta0 + omega t), y = r sin(theta0 + omega t).
    """
    state0 = _nf_default_init(problem)
    residuals = _nf_residuals(problem, state0.h_coeffs, state0.r_values)
    # unit weights leave the raw terms
    weights = _nf_weights(_nf_loss_at(problem, state0.h_coeffs, (1.0, 1.0, 1.0), residuals)[0])
    f = _nf_loss_at(problem, state0.h_coeffs, weights, residuals)[1]
    if not np.isfinite(f):
        raise DivergedError("non-finite loss at the initial point", trace=[f])
    profile, s = _nf_profile(problem, weights), math.log(problem.r0_target)
    first = profile(s)
    s, best, evals, reason = slope_search(profile, s, first, (config or DescentConfig()).max_iters)
    t, states = problem.trajectory.times, problem.trajectory.states
    angle = np.unwrap(np.arctan2(states[:, 1], states[:, 0]))
    phase = angle[0] + (angle[-1] - angle[0]) / (t[-1] - t[0]) * t
    xy = np.stack([best.r * np.cos(phase), best.r * np.sin(phase)], axis=1)
    terms = dict(zip(_NF_TERM_NAMES, best.terms))
    return NfResult(NfState(best.coeffs, best.r), xy, [first.loss, best.loss], terms, weights, evals,
                    reason != "max_iters", reason, best.slope, float(angle[0]), float(np.exp(s)))
