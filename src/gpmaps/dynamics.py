"""Forward solvers and analytic oracles for the model equations.

Contains the deterministic machinery every experiment builds on: spatial
finite differences on uniform 1-D grids, a single explicit Euler step of
viscous Burgers, antiderivatives from the grid's left edge, classical RK4 for
ODE trajectories, the Brusselator right-hand side, its sampled trajectory
and the radial law of its Hopf normal form, closed-form reference solutions,
and a registry of built-in initial conditions with their exact
antiderivatives.

ODE right-hand sides ``rhs(t, y)`` receive the state as a list of Python
floats and return a sequence of floats; ``rk4`` steps every state length
with one loop over lists of Python floats. ``brusselator_trajectory`` does
not use it: the Brusselator field is polynomial, so the Taylor coefficients
of its solution follow a recurrence with two Cauchy products per order.
It takes one Taylor series per sample interval, with the order and any
equal substeps read off the coefficients, and raises
:class:`NumericalOverflowError` for non-finite coefficients or a substep
too small to move the clock. Only the samples are stored.
"""

from __future__ import annotations

import math
import numbers
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, NumericalOverflowError

__all__ = [
    "Grid1D",
    "Field1D",
    "Trajectory",
    "CflWarning",
    "first_difference",
    "diff",
    "burgers_step",
    "antiderivative",
    "rk4",
    "brusselator_rhs",
    "brusselator_trajectory",
    "hopf_polar_rhs",
    "mu_from_AB",
    "r_exact",
    "InitialCondition",
    "get_initial_condition",
    "list_initial_conditions",
]


class CflWarning(UserWarning):
    """Emitted when an explicit diffusion step exceeds the stability bound."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid with n >= 3 nodes starting at x0."""

    x0: float
    dx: float
    n: int

    def __post_init__(self):
        if not self.dx > 0:
            raise InvalidInputError(f"dx must be positive, got {self.dx}")
        if self.n < 3:
            raise InvalidInputError(f"need at least 3 grid nodes, got {self.n}")

    @property
    def xs(self):
        return self.x0 + self.dx * np.arange(self.n)


@dataclass(frozen=True)
class Field1D:
    """Values of a scalar field on a :class:`Grid1D`."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise InvalidInputError(f"values shape {v.shape} does not match grid size {self.grid.n}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Trajectory:
    """Time samples of an ODE state; times strictly increasing."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if t.ndim != 1 or s.shape[0] != t.shape[0]:
            raise InvalidInputError("times and states must have matching leading length")
        if np.any(np.diff(t) <= 0):
            raise InvalidInputError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def __len__(self):
        return self.times.shape[0]


#: The one-sided end rows of :func:`first_difference` as (columns, weights), the weights in units of 1 / (2h).
_FD_END_ROWS = (((0, 1, 2), (-3.0, 4.0, -1.0)), ((-1, -2, -3), (3.0, -4.0, 1.0)))


def first_difference(v, h):
    """Second-order first derivative of samples ``v`` (at least 3) spaced ``h`` apart.

    Central in the interior, one-sided second-order at the two end samples.
    """
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    for (i, j, k), (a, b, c) in _FD_END_ROWS:
        out[i] = (a * v[i] + b * v[j] + c * v[k]) / (2 * h)
    return out


def _fd_transpose(w, h):
    """D^T w for the matrix D of :func:`first_difference`."""
    out = np.zeros_like(w)
    out[2:] += w[1:-1] / (2 * h)
    out[:-2] -= w[1:-1] / (2 * h)
    for cols, weights in _FD_END_ROWS:
        end = float(w[cols[0]])  # a Python float keeps the scalar updates cheap; the gradient runs this every step
        for col, c in zip(cols, weights):
            out[col] += c * end / (2 * h)
    return out


def diff(field, order):
    """Spatial derivative of a gridded field, second order accurate.

    Central stencils in the interior; one-sided second-order stencils at the
    two boundary nodes, which keeps constraint building usable on
    non-periodic data.
    """
    v = field.values
    dx = field.grid.dx
    n = field.grid.n
    if order == 1:
        out = first_difference(v, dx)
    elif order == 2:
        if n < 4:
            raise InvalidInputError("second derivative needs at least 4 nodes for boundary stencils")
        out = np.empty_like(v)
        out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / dx**2
        out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / dx**2
        out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / dx**2
    else:
        raise InvalidInputError(f"derivative order must be 1 or 2, got {order}")
    return Field1D(field.grid, out)


def burgers_step(field, nu, h):
    """One explicit Euler step of viscous Burgers, v_t = nu v_xx - v v_x."""
    if not nu > 0:
        raise InvalidInputError(f"viscosity must be positive, got {nu}")
    if not h > 0:
        raise InvalidInputError(f"time step must be positive, got {h}")
    v = field.values
    cfl = h * nu / field.grid.dx**2
    if cfl > 0.5:
        warnings.warn(
            f"diffusion number h*nu/dx^2 = {cfl:.3g} exceeds 0.5; explicit step may be unstable",
            CflWarning,
            stacklevel=2,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = v + h * (nu * diff(field, 2).values - v * diff(field, 1).values)
    if not np.all(np.isfinite(out)):
        raise NumericalOverflowError("non-finite field after Euler step (CFL violation?)")
    return Field1D(field.grid, out)


def antiderivative(field, value_at_left=0.0):
    """Cumulative trapezoid integral from the grid's left edge, where it takes ``value_at_left``.

    With the default 0 on a grid starting at x = 0 this is the
    integral-from-zero operator used to build regression inputs.
    """
    xs = field.grid.xs
    v = field.values
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(xs))))
    return Field1D(field.grid, cum + value_at_left)


def rk4(rhs, y0, t0, t1, dt):
    """Classical 4th-order Runge-Kutta with a final partial step landing on t1.

    ``rhs(t, y)`` receives the state as a list of Python floats and returns a
    sequence of floats of the same length. The step runs on Python floats in
    the same operation order as the vector form
    ``y + (step / 6.0) * (k1 + 2*k2 + 2*k3 + k4)``, so IEEE arithmetic gives
    the same bits as numpy's elementwise operations. One loop serves every
    state length: each stage builds the next state as a list, one component
    at a time. A right-hand side that returns a numpy array also works, only
    more slowly.

    Raises :class:`InvalidInputError` for a ``y0`` that is not a nonempty
    1-D finite vector and for an ``rhs`` whose output length differs from the
    state's, and :class:`NumericalOverflowError` for a non-finite state.
    """
    if not dt > 0:
        raise InvalidInputError(f"dt must be positive, got {dt}")
    if not t1 > t0:
        raise InvalidInputError(f"need t1 > t0, got [{t0}, {t1}]")
    try:
        y = np.atleast_1d(np.asarray(y0, dtype=float))
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"y0 must be a vector of floats: {exc}") from exc
    if y.ndim != 1 or y.size == 0:
        raise InvalidInputError(f"y0 must be a nonempty 1-D vector, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("y0 must be finite")
    y = y.tolist()
    n = len(y)
    t_stop = t1 - 1e-12 * max(1.0, abs(t1))
    t = t0
    times = array("d", [t0])
    states = array("d", y)
    while t < t_stop:
        step = min(dt, t1 - t)
        half = 0.5 * step
        k1 = rhs(t, y)
        k2 = rhs(t + half, [yi + half * ki for yi, ki in zip(y, k1)])
        k3 = rhs(t + half, [yi + half * ki for yi, ki in zip(y, k2)])
        k4 = rhs(t + step, [yi + step * ki for yi, ki in zip(y, k3)])
        # zip would silently truncate to the shortest
        if not len(k1) == len(k2) == len(k3) == len(k4) == n:
            raise InvalidInputError(f"rhs must return one component per state component ({n})")
        sixth = step / 6.0
        y = [yi + sixth * (a + 2 * b + 2 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
        # Python float arithmetic yields inf/nan rather than raising; surface it typed
        if not all(map(math.isfinite, y)):
            raise NumericalOverflowError(f"non-finite state at t = {t + step}")
        t = t + step
        times.append(t)
        states.extend(y)
    return Trajectory(np.frombuffer(times), np.frombuffer(states).reshape(len(times), n))


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


#: Highest Taylor order of a substep; a series that has not converged by it splits its sample interval further.
_TAYLOR_MAX_ORDER = 30

#: A series stops once its last two terms at the step sum below this fraction of the state's size.
_TAYLOR_EPS = 2.0**-52


def brusselator_trajectory(A, B, init_point=(0.1, -0.1), n_samples=2000, sample_dt=0.1):
    """Shifted-Brusselator trajectory sampled on a uniform time grid, one Taylor series per substep.

    The field is polynomial, so the Taylor coefficients of the solution
    follow a recurrence. In p = u + A and q = v + B/A the system reads
    p' = A + p^2 q - (B+1) p and q' = B p - p^2 q; with (p^2)_k and
    (p^2 q)_k the two Cauchy products at order k,

        p_{k+1} = (A [k = 0] + (p^2 q)_k - (B+1) p_k) / (k+1),
        q_{k+1} = (B p_k - (p^2 q)_k) / (k+1).

    Orders are added until the last two terms at the step h, (|p_k| + |q_k|) h^k,
    sum below 2^-52 (|p| + |q| + h (|p_1| + |q_1|)), the state and its
    first-order change (the second keeps the bound positive at p = q = 0);
    the series is then summed by Horner's rule. Each sample interval starts
    as one step. A series still short of that at order ``_TAYLOR_MAX_ORDER``
    halves the interval's substeps, those taken included, and starts again
    from the same state, so the order and the step come from the coefficients
    alone. The samples are the states at ``sample_dt * k``, shifted back to
    (u, v). Far from the cycle the system is stiff, q relaxing onto B / p at
    rate p^2, and the substeps shrink with it: the cost of a start far out
    grows about as p^2.

    Raises :class:`InvalidInputError` for ``A = 0``, a ``sample_dt`` that is
    not finite and positive, an ``n_samples`` that is not an integer of at
    least 2 or an ``init_point`` that is not two finite floats, and
    :class:`NumericalOverflowError` naming the time t for non-finite
    coefficients or a substep too small to move the clock (t + h == t), so a
    series that never reaches its bound ends in an error, not in endless
    halving.
    """
    A = float(A)
    B = float(B)
    if A == 0:
        raise InvalidInputError("A must be nonzero")
    if not (math.isfinite(sample_dt) and sample_dt > 0):
        raise InvalidInputError(f"sample_dt must be finite and positive, got {sample_dt}")
    if not isinstance(n_samples, numbers.Integral) or n_samples < 2:
        raise InvalidInputError(f"n_samples must be an integer of at least 2, got {n_samples!r}")
    try:
        u, v = map(float, init_point)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"init_point must be two floats: {exc}") from exc
    if not (math.isfinite(u) and math.isfinite(v)):
        raise InvalidInputError("init_point must be finite")
    b_over_a = B / A
    b_plus_1 = B + 1.0
    p = u + A
    q = v + b_over_a
    mul = float.__mul__
    samples = array("d", (u, v))
    for i in range(1, n_samples):
        h = sample_dt
        substeps = 1
        taken = 0
        while taken < substeps:
            # order 1 is the field itself; P and S run from order 0, Pr and Qr from the highest order down
            s = p * p
            w = s * q
            pk = A + w - b_plus_1 * p
            qk = B * p - w
            tol = _TAYLOR_EPS * (abs(p) + abs(q) + (abs(pk) + abs(qk)) * h)
            P = [p, pk]
            Pr = [pk, p]
            Qr = [qk, q]
            S = [s]
            hk = h
            last = (abs(pk) + abs(qk)) * hk
            k = 1
            while True:
                S.append(sum(map(mul, P, Pr)))
                w = sum(map(mul, S, Qr))
                k += 1
                qk = (B * pk - w) / k
                pk = (w - b_plus_1 * pk) / k
                P.append(pk)
                Pr.insert(0, pk)
                Qr.insert(0, qk)
                hk *= h
                term = (abs(pk) + abs(qk)) * hk
                # a non-finite coefficient makes every later one non-finite, so a series that passes is finite
                if term + last < tol or k == _TAYLOR_MAX_ORDER:
                    break
                last = term
            if not term + last < tol:
                t = (i - 1) * sample_dt + taken * h
                if not (math.isfinite(pk) and math.isfinite(qk)):
                    raise NumericalOverflowError(f"non-finite Taylor coefficients at t = {t}")
                h *= 0.5
                substeps *= 2
                taken *= 2
                if t + h == t:
                    raise NumericalOverflowError(f"substep {h} too small to move the clock at t = {t}")
                continue
            p = q = 0.0  # Horner's rule, highest order first
            for a, b in zip(Pr, Qr):
                p = p * h + a
                q = q * h + b
            taken += 1
        samples.append(p - A)
        samples.append(q - b_over_a)
    return Trajectory(sample_dt * np.arange(n_samples), np.frombuffer(samples).reshape(n_samples, 2).copy())


def hopf_polar_rhs(mu):
    """dr/dt = (mu - r^2) r, on a one-element sequence; returns a one-element tuple."""
    mu = float(mu)  # mu_from_AB gives a numpy scalar; keep the step on Python floats

    def rhs(t, state):
        (r,) = state
        # r * r, not r**2: a float ** overflows with an untyped OverflowError
        return ((mu - r * r) * r,)

    return rhs


def mu_from_AB(A, B):
    """Bifurcation parameter of the normal form matching a Brusselator (A, B)."""
    d = B - A * A - 1.0  # squared as d * d: a float ** overflows with an untyped OverflowError
    radicand = 4.0 * A * A - d * d
    if radicand <= 0:
        raise InvalidInputError(f"4A^2 - (B - A^2 - 1)^2 = {radicand} must be positive")
    return (B - (A * A + 1.0)) / np.sqrt(radicand)


def r_exact(r0, mu, t):
    """Closed-form radius of dr/dt = (mu - r^2) r from r(0) = r0.

    Evaluated in an overflow-safe rearrangement; handles mu = 0 separately.
    """
    if r0 < 0:
        raise InvalidInputError(f"r0 must be nonnegative, got {r0}")
    t = np.asarray(t, dtype=float)
    return _radius_law(r0, mu, t, np.exp(-2.0 * mu * t))


def _radius_law(r0, mu, t, decay):
    """:func:`r_exact` at times ``t`` from their factors decay = exp(-2 mu t), for callers that vary r0 only."""
    if r0 == 0.0:
        return np.zeros_like(t)[()] if t.ndim == 0 else np.zeros_like(t)
    if mu == 0.0:
        return r0 / np.sqrt(1.0 + 2.0 * r0 * r0 * t)
    q = mu / (1.0 + (mu / r0**2 - 1.0) * decay)
    return np.sqrt(np.maximum(q, 0.0))


@dataclass(frozen=True)
class InitialCondition:
    """A named initial condition with closed forms on a fixed x-interval.

    ``u0`` is the exact antiderivative (the regression input); ``v0`` is the
    underlying field where one exists.
    """

    name: str
    x_lo: float
    x_hi: float
    u0: object
    v0: object = None

    def sample(self, n):
        """n evenly spaced x-points spanning the interval, with u0 values."""
        xs = np.linspace(self.x_lo, self.x_hi, n)
        return xs, self.u0(xs)


def _burgers_paper(nu):
    if nu is None:
        raise InvalidInputError("burgers-paper requires a viscosity nu")
    return InitialCondition("burgers-paper", 0.0, 1.0,
                            lambda x: (28.0 * nu / 3.2) * np.log(10.2 / (7.0 + 3.2 * np.cos(np.pi * x))),
                            lambda x: 28.0 * nu * np.pi * np.sin(np.pi * x) / (7.0 + 3.2 * np.cos(np.pi * x)))


_FIRSTORDER = InitialCondition("firstorder-paper", 0.0, 1.0,
                               lambda x: (3.0 * np.log(np.cosh(-x) * np.exp(x)) + 1.0) ** (1.0 / 3.0))


# Antiderivatives are anchored at each window's left edge (u(x_lo) = 0), so
# the four input ranges join into one connected interval through the
# anchored unit interval; anchoring all of them at x = 0 instead would leave
# ranges separated by gaps much wider than any workable lengthscale.
_MULTI = (
    InitialCondition("multi-1", -2.5, -1.5,
                     lambda x: 5.0 * (x + 2.5) + 1.5 * (x**2 - 6.25), lambda x: 5.0 + 3.0 * x),
    InitialCondition("multi-2", 0.0, 1.0,
                     lambda x: 5.0 * np.sin(x) + 2.0 * x, lambda x: 5.0 * np.cos(x) + 2.0),
    InitialCondition("multi-3", 15.0, 16.0,
                     lambda x: 0.03 * (np.exp(x / 3.0) - np.exp(5.0)), lambda x: np.exp(x / 3.0) / 100.0),
    InitialCondition("multi-4", 10.0, 11.0,
                     lambda x: 0.5 * (x**2 - 100.0), lambda x: np.asarray(x, dtype=float)),
)


#: Every built-in initial condition by name: the condition itself, or its builder from a viscosity nu.
_REGISTRY = {"burgers-paper": _burgers_paper, **{ic.name: ic for ic in _MULTI}, "firstorder-paper": _FIRSTORDER}


def list_initial_conditions():
    return tuple(_REGISTRY)


def get_initial_condition(name, nu=None):
    """Look up a built-in initial condition; ``burgers-paper`` needs nu."""
    if name not in _REGISTRY:
        raise InvalidInputError(f"unknown initial condition {name!r}; known: {list_initial_conditions()}")
    entry = _REGISTRY[name]
    return entry if isinstance(entry, InitialCondition) else entry(nu)
