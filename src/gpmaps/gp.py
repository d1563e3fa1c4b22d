"""Constrained RKHS regression on linear functionals of the unknown map.

A regression problem is a list of :class:`LinearFunctional` constraints
``phi_i(D) = Y_i`` on an unknown scalar map ``D``. Each functional is a
weighted sum of point evaluations of ``D`` or of its first two derivatives,
so the Gram matrix of the constraints only needs the kernel's closed-form
mixed partials. The relaxed minimum-norm solution

    D(u) = K(u, phi) (K(phi, phi) + lam I)^{-1} Y

is computed by a dense symmetric positive-definite factorization; the nugget
``lam`` keeps routinely ill-conditioned derivative Grams factorizable.

The Gram matrix is assembled in blocks of terms with equal derivative
orders, and an interpolant is read as a sum over those orders of kernel
derivative blocks times per-term coefficients; no (points x constraints)
matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .exceptions import InvalidInputError, SingularSystemError
from .kernels import k_deriv, k_derivs, kernel_from_config, kernel_to_config

__all__ = [
    "FunctionalTerm",
    "LinearFunctional",
    "ConstraintSystem",
    "Interpolant",
    "assemble_gram",
    "fit",
    "rkhs_norm_sq",
    "default_nugget",
    "interpolant_to_config",
    "interpolant_from_config",
]

#: Relative scale of the automatic nugget: lam = NUGGET_SCALE * trace(G) / M.
NUGGET_SCALE = 1e-8

#: Number of tenfold nugget escalations attempted before giving up.
MAX_JITTER_ESCALATIONS = 4


@dataclass(frozen=True)
class FunctionalTerm:
    """One ``weight * D^(deriv_order)(location)`` term of a linear functional."""

    location: float
    deriv_order: int = 0
    weight: float = 1.0

    def __post_init__(self):
        if self.deriv_order not in (0, 1, 2):
            raise InvalidInputError(f"deriv_order must be 0, 1 or 2, got {self.deriv_order}")
        if not math.isfinite(self.weight) or not math.isfinite(self.location):
            raise InvalidInputError("functional terms must have finite location and weight")


@dataclass(frozen=True)
class LinearFunctional:
    """A finite weighted sum of point evaluations with derivative orders."""

    terms: tuple

    def __post_init__(self):
        if len(self.terms) == 0:
            raise InvalidInputError("a linear functional needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))

    @classmethod
    def dirac(cls, location, weight=1.0):
        """The pure point-evaluation functional ``weight * D(location)``."""
        return cls((FunctionalTerm(location, 0, weight),))

    @classmethod
    def of_terms(cls, *spec):
        """Build from ``(location, deriv_order, weight)`` triples."""
        return cls(tuple(FunctionalTerm(*t) for t in spec))

    def apply(self, fn):
        """Apply the functional to ``fn(u, deriv_order)``."""
        return float(sum(t.weight * fn(t.location, t.deriv_order) for t in self.terms))


@dataclass(frozen=True)
class ConstraintSystem:
    """Ordered constraint functionals (at least one), their targets and the nugget.

    ``nugget=None`` means "auto": resolve to ``NUGGET_SCALE * trace(G) / M``
    once the Gram matrix of the kernel in use is known.
    """

    functionals: tuple
    targets: np.ndarray
    nugget: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "functionals", tuple(self.functionals))
        if len(self.functionals) == 0:
            raise InvalidInputError("a constraint system needs at least one functional")
        y = np.asarray(self.targets, dtype=float)
        if y.ndim != 1 or y.shape[0] != len(self.functionals):
            raise InvalidInputError(
                f"targets must match functionals: {y.shape} vs {len(self.functionals)}"
            )
        object.__setattr__(self, "targets", y)
        if self.nugget is not None and not self.nugget > 0:
            raise InvalidInputError(f"nugget must be positive, got {self.nugget}")

    def __len__(self):
        return len(self.functionals)


def _flatten(functionals):
    """Stack all terms of all functionals into parallel arrays."""
    locs, orders, weights, owner = [], [], [], []
    for i, f in enumerate(functionals):
        for t in f.terms:
            locs.append(t.location)
            orders.append(t.deriv_order)
            weights.append(t.weight)
            owner.append(i)
    return (
        np.asarray(locs, dtype=float),
        np.asarray(orders, dtype=int),
        np.asarray(weights, dtype=float),
        np.asarray(owner, dtype=int),
    )


def _order_groups(functionals):
    """Terms split by derivative order: ``{order: (locs, weights, owners)}``, owners sorted."""
    locs, orders, weights, owner = _flatten(functionals)
    return {int(a): (locs[orders == a], weights[orders == a], owner[orders == a]) for a in np.unique(orders)}


def _owner_index(owners):
    """Segment starts of the sorted owners, and the Gram index of each segment.

    The index is a slice when the segment owners are contiguous, else an array.
    """
    starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
    rows = owners[starts]
    if rows[-1] - rows[0] + 1 == rows.size:
        return starts, slice(int(rows[0]), int(rows[-1]) + 1)
    return starts, rows


def assemble_gram(functionals, kernel):
    """Gram matrix with entries [phi_i, K phi_j], symmetrized after assembly.

    Terms are grouped by derivative order. Only the blocks with orders
    a <= b are computed: the (b, a) block is the transpose of the (a, b)
    one, exactly, since x - y and y - x are exact negatives. Order groups on
    the same locations share one gap array and one exp (:func:`k_derivs`).
    The terms of one functional are summed with ``reduceat`` over the sorted
    owners, and the blocks are added in lexicographic (a, b) order. Each
    block is released once added (a < b blocks once their transpose is), so
    at most a few Gram-sized arrays are alive at a time.
    """
    m = len(functionals)
    groups = _order_groups(functionals)
    orders = sorted(groups)
    # the lowest order on the same locations stands for all of them
    home = {a: next(c for c in orders if np.array_equal(groups[c][0], groups[a][0])) for a in orders}
    pairs_by_home = {}
    for i, a in enumerate(orders):
        for b in orders[i:]:
            pairs_by_home.setdefault((home[a], home[b]), []).append((a, b))
    starts, place = {}, {}
    for a in orders:
        starts[a], place[a] = _owner_index(groups[a][2])
    gram = np.zeros((m, m))
    kernel_blocks, upper = {}, {}
    for a in orders:
        for b in orders:
            if a > b:
                block = upper.pop((b, a)).T
            else:
                if (a, b) not in kernel_blocks:
                    ha, hb = home[a], home[b]
                    kernel_blocks.update(k_derivs(kernel, groups[ha][0][:, None], groups[hb][0][None, :],
                                                  pairs_by_home[ha, hb]))
                block = kernel_blocks.pop((a, b)) * groups[a][1][:, None]
                block *= groups[b][1][None, :]
                if starts[a].size < block.shape[0]:
                    block = np.add.reduceat(block, starts[a], axis=0)
                if starts[b].size < block.shape[1]:
                    block = np.add.reduceat(block, starts[b], axis=1)
                if a < b:
                    upper[a, b] = block
            rows, cols = place[a], place[b]
            if not isinstance(rows, slice) and not isinstance(cols, slice):
                rows, cols = np.ix_(rows, cols)
            gram[rows, cols] += block
    gram += gram.T  # numpy buffers the overlapping transpose: this is G + G^T
    gram *= 0.5
    return gram


def default_nugget(gram):
    """Automatic nugget: ``NUGGET_SCALE * trace(G) / M`` (floored away from zero)."""
    m = gram.shape[0]
    return max(NUGGET_SCALE * float(np.trace(gram)) / max(m, 1), 1e-300)


def _factor_with_escalation(gram, lam):
    """Cholesky of G + lam*I, escalating lam tenfold on failure."""
    m = gram.shape[0]
    current = lam
    for _ in range(MAX_JITTER_ESCALATIONS + 1):
        try:
            cf = cho_factor(gram + current * np.eye(m), lower=True)
            return cf, current
        except LinAlgError:
            current *= 10.0
    cond = float(np.linalg.cond(gram + lam * np.eye(m)))
    raise SingularSystemError(
        f"constraint Gram not factorizable after {MAX_JITTER_ESCALATIONS} jitter escalations "
        f"(nugget reached {current / 10:.3e})",
        condition=cond,
    )


def _solve(system, kernel):
    """Shared solve path: returns (alpha, lam_used)."""
    gram = assemble_gram(system.functionals, kernel)
    lam = system.nugget if system.nugget is not None else default_nugget(gram)
    cf, lam_used = _factor_with_escalation(gram, lam)
    return cho_solve(cf, system.targets), lam_used


@dataclass(frozen=True)
class Interpolant:
    """Representer-theorem solution: D(u) = sum_i alpha_i [phi_i, K(u, .)]."""

    kernel: object
    functionals: tuple
    coefficients: np.ndarray
    nugget: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "functionals", tuple(self.functionals))
        a = np.asarray(self.coefficients, dtype=float)
        if a.shape != (len(self.functionals),):
            raise InvalidInputError("coefficient vector must match the functional list")
        object.__setattr__(self, "coefficients", a)

    @cached_property
    def _coefficients_by_order(self):
        """``{order: (locs, c)}`` with per-term coefficients c_t = w_t * alpha[owner_t]."""
        return {a: (locs, weights * self.coefficients[owner])
                for a, (locs, weights, owner) in _order_groups(self.functionals).items()}

    def evaluate(self, u, deriv_order=0):
        """Value (or derivative) of the fitted map at scalar or array ``u``.

        Sums ``k_deriv(u, locs_b, deriv_order, b) @ c_b`` over the term orders b.
        """
        points = np.atleast_1d(np.asarray(u, dtype=float))
        vals = np.zeros(points.shape[0])
        for b, (locs, c) in self._coefficients_by_order.items():
            vals += k_deriv(self.kernel, points[:, None], locs[None, :], deriv_order, b) @ c
        return float(vals[0]) if np.isscalar(u) or np.ndim(u) == 0 else vals

    def __call__(self, u):
        return self.evaluate(u, 0)


def fit(system, kernel):
    """Solve (G + lam I) alpha = Y and wrap the result as an :class:`Interpolant`."""
    alpha, lam_used = _solve(system, kernel)
    return Interpolant(kernel, system.functionals, alpha, nugget=lam_used)


def rkhs_norm_sq(system, kernel):
    """Regularized squared norm of the constrained minimizer: Y^T (G+lam I)^{-1} Y.

    This is also the optimal value of the relaxed problem, hence nondecreasing
    when constraints are appended and an upper-convergent estimate of the true
    map's squared RKHS norm when the constraints are consistent.
    """
    alpha, _ = _solve(system, kernel)
    return float(max(system.targets @ alpha, 0.0))


def constraint_residuals(interp, system):
    """|phi_i(D) - Y_i| for every constraint of a fitted system."""

    def fn(loc, order):
        return interp.evaluate(loc, order)

    applied = np.array([f.apply(fn) for f in system.functionals])
    return np.abs(applied - system.targets)


def interpolant_to_config(interp):
    """JSON-ready dictionary: kernel spec, functional terms and coefficients."""
    return {
        "kernel": kernel_to_config(interp.kernel),
        "functionals": [
            [[t.location, t.deriv_order, t.weight] for t in f.terms] for f in interp.functionals
        ],
        "alpha": [float(a) for a in interp.coefficients],
        "nugget": interp.nugget,
    }


def interpolant_from_config(cfg):
    """Inverse of :func:`interpolant_to_config`."""
    kernel = kernel_from_config(cfg["kernel"])
    functionals = tuple(
        LinearFunctional(tuple(FunctionalTerm(loc, int(order), w) for loc, order, w in terms))
        for terms in cfg["functionals"]
    )
    return Interpolant(kernel, functionals, np.asarray(cfg["alpha"], dtype=float), nugget=float(cfg.get("nugget", 0.0)))
