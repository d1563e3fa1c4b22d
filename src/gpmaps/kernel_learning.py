"""Kernel hyperparameter selection by a leave-one-out loss.

The leave-one-out loss rho measures, per removable constraint, how much the
regularized interpolation norm drops when that constraint's row and column
are deleted from the Gram matrix; a kernel is good when removal barely
changes the solution. Only interior constraints are removable: deleting a
uniqueness anchor would make the problem degenerate. The system's Gram
plan (:mod:`gpmaps.gp`) is built on the first evaluation and reused for
every lengthscale after it, so one evaluation of the loss costs the Matern
profile arithmetic and block adds of one Gram, one Cholesky factorization
(``gp._cholesky``, which raises rather than escalate ``LOO_NUGGET``, a part
of the loss) and one blocked inverse of its factor (``gp._factor_inverse``);
no reduced system is solved.
"""

from __future__ import annotations

import logging

import numpy as np

from .exceptions import InvalidInputError
from .gp import _cholesky, _factor_inverse, assemble_gram
from .kernels import Matern52
from .optim import golden_section

__all__ = ["THETA_GRID", "REFINE_WIDTH", "rho_loo", "rho_loo_naive", "learn_theta"]

#: Fixed nugget added to the Gram matrix of every leave-one-out solve.
LOO_NUGGET = 1e-8

#: Lengthscales of the grid search, half a decade apart. Lower edge 1e-1, not
#: smaller: once the lengthscale drops below the data spacing the constraints
#: decouple and rho develops a spurious minimum (nothing changes on removal
#: because nothing generalizes).
THETA_GRID = np.logspace(-1, 2, 7)

#: Width in log-theta at which the search around the best grid point stops,
#: the 2.303 * 0.618**22 = 5.80e-5 that 24 golden-section steps reached from
#: two grid spacings. Trial points lie on a lattice of half this spacing; on
#: one of a quarter, theta* of Table 1's N = 25 and N = 50 fits changes when
#: rho is read off an explicit inverse, since neighbouring points then differ
#: in rho by less than its rounding.
REFINE_WIDTH = 5.8e-5

_log = logging.getLogger(__name__)


def _quadratic_form(gram, targets):
    m = gram.shape[0]
    return float(targets @ np.linalg.solve(gram + LOO_NUGGET * np.eye(m), targets))


def _check_removable(system, removable):
    removable = np.asarray(removable, dtype=int)
    if removable.size < 2:
        raise InvalidInputError("need at least 2 removable interior constraints")
    if removable.min() < 0 or removable.max() >= len(system):
        raise InvalidInputError("removable indices out of range")
    return removable


def rho_loo(theta, system, removable):
    """Leave-one-out loss via block-inverse downdates of the full solve.

    With B = (G + lam I)^{-1} and q = Y^T B Y, deleting row and column j
    leaves the quadratic form q_{-j} with q - q_{-j} = (BY)_j^2 / B_jj for
    any targets Y (a Schur-complement identity), so the whole sum costs one
    Cholesky factorization plus a triangular inverse: with G + lam I = L L^T,
    BY is L^{-T} (L^{-1} Y) and the diagonal of B is the column sums of
    squares of L^{-1}. Matches :func:`rho_loo_naive` to floating-point
    accuracy.
    """
    removable = _check_removable(system, removable)
    l_inv = _factor_inverse(_cholesky(system._gram_plan.gram(Matern52(theta)), LOO_NUGGET,
                                      f"leave-one-out Gram at theta={float(theta)!r}"))
    y = system.targets
    by = l_inv.T @ (l_inv @ y)
    q_full = float(y @ by)
    if q_full <= 0.0:
        raise InvalidInputError("degenerate system: full quadratic form is nonpositive")
    b_diag = np.einsum("ij,ij->j", l_inv, l_inv)
    terms = by[removable] ** 2 / (b_diag[removable] * q_full)
    return float(np.mean(terms))


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


def learn_theta(system, removable):
    """Grid search over the Matern-5/2 lengthscale by rho, then Brent's method in log-theta.

    Searches :data:`THETA_GRID`, then refines between the best grid point's
    neighbours with :func:`gpmaps.optim.golden_section`, Brent's method on a
    lattice of half :data:`REFINE_WIDTH` through the best grid point, until
    the bracket is :data:`REFINE_WIDTH` wide. Returns (theta_star, rho_star);
    refinement can only improve on the best grid point. Logs a warning when
    the best grid point is an end of the grid, where rho may still be
    falling outside it.
    """

    def rho_of(theta):
        return rho_loo(theta, system, removable)

    values = np.array([rho_of(t) for t in THETA_GRID])
    i = int(np.argmin(values))
    if i in (0, len(THETA_GRID) - 1):
        _log.warning("best grid lengthscale %g is an end of THETA_GRID; rho may fall beyond it", THETA_GRID[i])
    lo = THETA_GRID[max(i - 1, 0)]
    hi = THETA_GRID[min(i + 1, len(THETA_GRID) - 1)]
    log_best, rho_best = golden_section(
        lambda s: rho_of(float(np.exp(s))),
        np.log(lo),
        np.log(hi),
        REFINE_WIDTH,
        seed=(np.log(THETA_GRID[i]), values[i]),
    )
    return float(np.exp(log_best)), float(rho_best)
