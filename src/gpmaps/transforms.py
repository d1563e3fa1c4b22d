"""Builders that turn sampled trajectories into constraint systems.

Each experiment family has a builder producing a :class:`ConstraintSystem`
(the raw regression problem) and a problem wrapper bundling it with its
ground-truth map, evaluation points and bookkeeping for reports. The
relative-L2 metric and the RKHS-norm-growth existence diagnostic live here
as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Field1D, Grid1D, antiderivative, burgers_paper, burgers_step, diff, get_initial_condition
from .exceptions import InvalidInputError
from .gp import ConstraintSystem, FunctionalTerm, LinearFunctional, rkhs_norm_sq

__all__ = [
    "TransformProblem",
    "cole_hopf_truth",
    "first_order_truth",
    "build_cole_hopf_ode",
    "build_cole_hopf_discrete",
    "build_first_order",
    "relative_l2",
    "norm_growth_diagnostic",
    "corrupt_targets",
    "cole_hopf_problem",
    "cole_hopf_discrete_problem",
    "cole_hopf_multi_problem",
    "first_order_problem",
    "MULTI_IC_NAMES",
    "DIAGNOSTIC_NUGGET",
]

MULTI_IC_NAMES = ("multi-1", "multi-2", "multi-3", "multi-4")

#: The nugget of the norm-growth diagnostic's fits.
DIAGNOSTIC_NUGGET = 1e-10


@dataclass(frozen=True)
class TransformProblem:
    """One ready-to-fit regression problem plus its evaluation context.

    ``labels`` names the initial condition of each sample when a problem
    pools several; it is None otherwise.
    """

    system: ConstraintSystem
    truth: object
    eval_points: np.ndarray
    xs: np.ndarray
    us: np.ndarray
    interior: np.ndarray
    labels: tuple = None

    def __post_init__(self):
        pts = np.asarray(self.eval_points, dtype=float)
        if pts.size == 0:
            raise InvalidInputError("eval_points must be nonempty")
        object.__setattr__(self, "eval_points", pts)


def cole_hopf_truth(u, nu):
    """The unit-normalized exponential map taking heat-side data to Burgers-side data.

    Strictly decreasing, with value 1 at u = 0 and 0 at u = 1.
    """
    if not nu > 0:
        raise InvalidInputError(f"nu must be positive, got {nu}")
    u = np.asarray(u, dtype=float)
    denom = 1.0 - np.exp(-1.0 / (2.0 * nu))
    out = (np.exp(-u / (2.0 * nu)) - np.exp(-1.0 / (2.0 * nu))) / denom
    return float(out) if out.ndim == 0 else out


def first_order_truth(u):
    """Exponential-of-cubic map; equals 1 at u = 1."""
    u = np.asarray(u, dtype=float)
    out = np.exp((u**3 - 1.0) / 3.0)
    return float(out) if out.ndim == 0 else out


def _bracketed(interior_functionals):
    """Assemble [dirac(0) | interior | dirac(1)] with targets (1, 0, ..., 0)."""
    functionals = (LinearFunctional.dirac(0.0), *interior_functionals, LinearFunctional.dirac(1.0))
    targets = np.zeros(len(functionals))
    targets[0] = 1.0
    return ConstraintSystem(functionals, targets)


def _ode_functional(ui, nu):
    return LinearFunctional((FunctionalTerm(ui, 2, nu), FunctionalTerm(ui, 1, 0.5)))


def build_cole_hopf_ode(u_samples, nu):
    """ODE-limit constraint system: second-order map equation at each sample.

    Enforces nu*D'' + D'/2 = 0, the equation the exponential truth solves.
    """
    u = np.asarray(u_samples, dtype=float)
    if u.size == 0:
        raise InvalidInputError("need at least one sample")
    if not nu > 0:
        raise InvalidInputError(f"nu must be positive, got {nu}")
    return _bracketed([_ode_functional(ui, nu) for ui in u])


def build_cole_hopf_discrete(v0, nu, h):
    """Discrete-stepper constraint system from a gridded initial field.

    One Euler step of the diffusion on the map side is matched against the
    map applied after one Euler step of the advecting side; the spatial
    second difference of the composite is expanded into pure point
    evaluations, so each interior constraint touches exactly four locations:
    the three-point stencil through the antiderivative values and the
    stepped antiderivative value.

    Antiderivatives are anchored at the grid's left edge. Re-integrating the
    stepped field from that edge loses the O(h) motion of the potential's
    own left-edge value, so it is restored from the data
    (h * (nu*v0' - v0^2/2) at the edge); without it the system encodes a
    perturbed equation whose solution is O(1)-biased no matter how small h.

    Under the automatic nugget of :func:`gpmaps.gp.fit`, accuracy has a floor
    in h: that nugget is set by the two Dirac anchors (1.98e-10 at theta = 1
    for any h), while the interior Gram diagonal shrinks as h^2 (median 3.0e-9
    at h = 1e-6, dx = 0.01, nu = 0.5), so it over-regularizes every interior
    constraint: the error is 1.45e-5 at h = 1e-4 but 2.1e-2 at h = 1e-6 (2.0e-5
    with a nugget of 1e-8 times that median). With the stability bound
    h*nu/dx^2 <= 0.5 this leaves about 1e-5 <= h <= 1e-4 there. A diffusion
    number h*nu/dx^2 above 0.5 raises :class:`InvalidInputError`, since the
    explicit heat step is unstable there.
    """
    if not isinstance(v0, Field1D):
        raise InvalidInputError("v0 must be a Field1D")
    n = v0.grid.n
    if n < 5:
        raise InvalidInputError(f"need at least 5 grid nodes, got {n}")
    dx = v0.grid.dx
    c = h * nu / dx**2
    if c > 0.5:
        raise InvalidInputError(f"the diffusion number h*nu/dx^2 = {c:.3g} exceeds 0.5, where the explicit heat "
                                f"step is unstable; take h <= {0.5 * dx**2 / nu:.3g}")
    u0 = antiderivative(v0).values
    v1 = burgers_step(v0, nu, h)
    drift = h * (nu * diff(v0, 1).values[0] - 0.5 * v0.values[0] ** 2)
    u1 = antiderivative(v1, drift).values
    interior = []
    for i in range(1, n - 1):
        interior.append(
            LinearFunctional(
                (
                    FunctionalTerm(u0[i - 1], 0, c),
                    FunctionalTerm(u0[i], 0, 1.0 - 2.0 * c),
                    FunctionalTerm(u0[i + 1], 0, c),
                    FunctionalTerm(u1[i], 0, -1.0),
                )
            )
        )
    if len(interior) < 3:
        raise InvalidInputError("fewer than 3 usable interior points")
    return _bracketed(interior)


def build_first_order(u_samples):
    """First-order constraint system: G'(u)/u^2 - G(u) = 0 with anchor G(1) = 1."""
    u = np.asarray(u_samples, dtype=float)
    if u.size == 0:
        raise InvalidInputError("need at least one sample")
    if np.any(u == 0.0):
        raise InvalidInputError("samples must be nonzero (the constraint divides by u^2)")
    functionals = [LinearFunctional.dirac(1.0)]
    for ui in u:
        functionals.append(
            LinearFunctional((FunctionalTerm(ui, 1, 1.0 / ui**2), FunctionalTerm(ui, 0, -1.0)))
        )
    targets = np.zeros(len(functionals))
    targets[0] = 1.0
    return ConstraintSystem(tuple(functionals), targets)


def relative_l2(learned, truth, eval_points):
    """Discrete relative L2 distance ||learned - truth||_2 / ||truth||_2.

    Raises :class:`InvalidInputError` when the truth is not finite at every
    evaluation point (the Cole-Hopf truth is 0/0 once nu is so large that
    1 - exp(-1/(2 nu)) rounds to 0) or vanishes at all of them.
    """
    pts = np.asarray(eval_points, dtype=float)
    if pts.size == 0:
        raise InvalidInputError("eval_points must be nonempty")
    tv = np.asarray(truth(pts), dtype=float)
    if not np.isfinite(tv).all():
        raise InvalidInputError("truth is not finite at every evaluation point")
    denom = np.linalg.norm(tv)
    if denom == 0.0:
        raise InvalidInputError("truth vanishes on all evaluation points")
    return float(np.linalg.norm(np.asarray(learned(pts), dtype=float) - tv) / denom)


def norm_growth_diagnostic(builder, sample_counts, kernel, nugget=DIAGNOSTIC_NUGGET):
    """RKHS norm of the fitted map as the constraint count grows.

    A bounded sequence is evidence that a map matching the constraints
    exists; unbounded growth is evidence it does not. Returns the raw
    (N, norm) pairs; no classification decision is made here.
    """
    counts = list(sample_counts)
    if len(counts) == 0:
        raise InvalidInputError("sample_counts must be nonempty")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise InvalidInputError("sample_counts must be strictly increasing")
    return [(n, float(np.sqrt(rkhs_norm_sq(builder(n), kernel, nugget)))) for n in counts]


def corrupt_targets(system, indices, seed=0):
    """Replace the selected targets with standard Gaussian noise.

    Noise is the canonical inconsistent right-hand side: no map of the input
    alone can track independent values at ever-closer sample points, so the
    diagnostic norm of the corrupted system grows without bound.
    """
    rng = np.random.default_rng(seed)
    y = system.targets.copy()
    y[np.asarray(indices, dtype=int)] = rng.standard_normal(len(indices))
    return ConstraintSystem(system.functionals, y)


def _anchored_eval(u, nu):
    """Evaluation points: the data inside the anchored unit interval.

    The reported error of the anchored experiments is measured between the
    two uniqueness constraints (u in [0, 1]) where the map is normalized.
    Data with no point there (the heat-side values grow with ``nu``) raise
    :class:`InvalidInputError`: an error measured far from the anchors says
    nothing about the map they pin.
    """
    sel = (u >= 0.0) & (u <= 1.0)
    if not np.any(sel):
        raise InvalidInputError(f"no datum lies in the anchored interval [0, 1] at nu={nu!r}: "
                                f"the data span u in [{u.min():.4g}, {u.max():.4g}]")
    return u[sel]


def cole_hopf_problem(n_points, nu=0.5):
    """ODE-path problem on the paper's Burgers condition, collocated at interior x-points."""
    if n_points < 1:
        raise InvalidInputError("n_points must be >= 1")
    ic = burgers_paper(nu)
    xs = np.linspace(ic.x_lo, ic.x_hi, n_points + 2)[1:-1]
    us = ic.u0(xs)
    system = build_cole_hopf_ode(us, nu)
    return TransformProblem(
        system=system,
        truth=lambda u: cole_hopf_truth(u, nu),
        eval_points=_anchored_eval(us, nu),
        xs=xs,
        us=us,
        interior=np.arange(1, len(system) - 1),
    )


def cole_hopf_discrete_problem(dx=0.01, h=1e-4, nu=0.5):
    """Discrete-stepper problem on a uniform grid over the paper's Burgers condition; ``dx`` must divide [0, 1]."""
    if not (math.isfinite(dx) and dx > 0):
        raise InvalidInputError(f"dx must be finite and positive, got {dx}")
    ic = burgers_paper(nu)
    width = ic.x_hi - ic.x_lo
    n = int(round(width / dx)) + 1
    if abs((n - 1) * dx - width) > 1e-9 * width:
        raise InvalidInputError(f"dx = {dx} does not divide the interval [{ic.x_lo}, {ic.x_hi}]")
    grid = Grid1D(ic.x_lo, dx, n)
    v0 = Field1D(grid, ic.v0(grid.xs))
    system = build_cole_hopf_discrete(v0, nu, h)
    xs = grid.xs[1:-1]
    us = antiderivative(v0).values[1:-1]
    return TransformProblem(
        system=system,
        truth=lambda u: cole_hopf_truth(u, nu),
        eval_points=_anchored_eval(us, nu),
        xs=xs,
        us=us,
        interior=np.arange(1, len(system) - 1),
    )


def cole_hopf_multi_problem(ic_names=MULTI_IC_NAMES, points_per_ic=101, nu=0.5):
    """ODE constraints pooled over several initial conditions with one shared anchor pair.

    Each IC is named once and sampled once; the problem is evaluated on the full union.
    """
    if points_per_ic < 1:
        raise InvalidInputError("points_per_ic must be >= 1")
    if len(ic_names) == 0:
        raise InvalidInputError("ic_names must name at least one initial condition")
    repeated = sorted({name for name in ic_names if ic_names.count(name) > 1})
    if repeated:  # a repeat pools exact twin constraints
        raise InvalidInputError(f"ic_names must not repeat a condition: {', '.join(map(repr, repeated))}")
    samples = [get_initial_condition(name).sample(points_per_ic) for name in ic_names]
    xs = np.concatenate([x for x, _ in samples])
    us = np.concatenate([u for _, u in samples])
    system = build_cole_hopf_ode(us, nu)
    return TransformProblem(
        system=system,
        truth=lambda u: cole_hopf_truth(u, nu),
        eval_points=us,
        xs=xs,
        us=us,
        interior=np.arange(1, len(system) - 1),
        labels=tuple(name for name in ic_names for _ in range(points_per_ic)),
    )


def first_order_problem(n_points=100):
    """First-order problem sampled evenly over the interval of the ``firstorder-paper`` condition."""
    if n_points < 1:
        raise InvalidInputError("n_points must be >= 1")
    ic = get_initial_condition("firstorder-paper")
    xs, us = ic.sample(n_points)
    system = build_first_order(us)
    return TransformProblem(
        system=system,
        truth=first_order_truth,
        eval_points=us,
        xs=xs,
        us=us,
        interior=np.arange(1, len(system)),
    )
