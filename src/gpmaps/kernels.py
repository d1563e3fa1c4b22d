"""Kernel definitions with closed-form mixed derivatives.

:class:`Matern52`, the single-lengthscale Matern-2.5 kernel on scalars, is
the kernel of every regression problem in this package. Its radial profile
is four times continuously differentiable at zero lag, so mixed partials up
to order (2, 2) exist in closed form; these are what derivative-constraint
Gram matrices are built from.

The normal form's radius map lives in the RKHS of the homogeneous quartic
kernel (s . t)^4 on planar vectors, which is exactly the span of the five
quartic monomials; :func:`homogeneous_features` and
:func:`homogeneous_norm_sq` are that feature map and its exact norm.

One coefficient table, ``_MATERN_PROFILE_COEFFS``, checked against central
finite differences, defines every Matern profile derivative; :func:`k_deriv`
(whose (0, 0) entry is the kernel's value) evaluates it directly, and the Gram
and interpolant reads through the five basis matrices it combines
(``gpmaps.gp._PROFILE_BASIS``), with no autodiff or numeric differentiation on
the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .exceptions import InvalidInputError, UnsupportedDerivativeError

__all__ = [
    "Matern52",
    "k_deriv",
    "QUARTIC_BINOMIALS",
    "homogeneous_features",
    "homogeneous_norm_sq",
]


@dataclass(frozen=True)
class Matern52:
    """Matern kernel with smoothness 5/2 and lengthscale ``theta``, a positive finite real number."""

    theta: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.theta, Real) and 0 < self.theta < np.inf):
            raise InvalidInputError(f"lengthscale must be a positive finite real number, got {self.theta!r}")


#: binom(4, k) for the quartic monomials u^(4-k) v^k; the squared norm of coefficients c is sum c_k^2 / binom(4, k).
QUARTIC_BINOMIALS = np.array([1, 4, 6, 4, 1])

#: Row n: (c0, c1, c2) with P_n(gap) = s^n sign(gap)^(n mod 2) (c0 + c1 sr + c2 sr^2) exp(-sr), sr = s|gap|,
#: s = sqrt(5) / theta: the n-th derivative of the Matern-5/2 profile, n = 0..4; odd rows have c0 = 0.
_MATERN_PROFILE_COEFFS = np.array([[1, 1, 1 / 3], [0, -1 / 3, -1 / 3], [-1 / 3, -1 / 3, 1 / 3], [0, 1, -1 / 3],
                                   [1, -5 / 3, 1 / 3]])


def k_deriv(spec, x, y, a, b):
    """Mixed partial d^a/dx^a d^b/dy^b K(x, y) of a Matern52 kernel, for all a, b <= 2.

    It is (-1)^b times the n-th derivative of the profile at the gap x - y,
    n = a + b: row n of :data:`_MATERN_PROFILE_COEFFS` times s^n on one basis
    g = s gap, sr = |g|, e = exp(-sr), that is (c0 + c1 sr + c2 sr^2) e for
    even n and (c1 + c2 sr) g e for odd n, exactly odd in the gap since
    sign(gap) sr is g.
    """
    if a not in (0, 1, 2) or b not in (0, 1, 2):
        raise UnsupportedDerivativeError(f"derivative orders must lie in {{0,1,2}}, got {(a, b)}")
    n = a + b
    s = np.sqrt(5.0) / spec.theta
    g = s * (np.asarray(x, float) - np.asarray(y, float))
    sr = np.abs(g)
    c0, c1, c2 = s ** n * _MATERN_PROFILE_COEFFS[n]
    if n % 2:
        p = c2 * sr
        p += c1
        p *= g
    else:  # summed from sr^2 down, not in Horner's form, which rounds differently, as the Gram
        # sums its even part (gp._GramPlan): a Gram of unit-weight Diracs is k_deriv's bit for bit
        p = sr * sr
        p *= c2
        p += c1 * sr
        p += c0
    p *= np.exp(-sr)
    return (-1) ** b * p


def homogeneous_features(points):
    """Quartic monomial features: each point (u, v) maps to (u^4, u^3 v, u^2 v^2, u v^3, v^4).

    With coefficient vector c the function H(u, v) = sum_k c_k u^(4-k) v^k
    carries the exact RKHS norm of :func:`homogeneous_norm_sq` under the
    kernel (s . t)^4.

    Parameters
    ----------
    points : array of shape (n, 2) or (2,)

    Returns
    -------
    array of shape (n, 5)
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2:
        raise InvalidInputError(f"expected points of dimension 2, got {pts.shape[1]}")
    u, v = pts[:, 0], pts[:, 1]
    return np.stack([u ** (4 - k) * v ** k for k in range(5)], axis=1)


def homogeneous_norm_sq(coeffs):
    """Exact squared RKHS norm of H = sum_k c_k u^(4-k) v^k under (s.t)^4.

    The monomials u^(4-k) v^k have squared norm 1/binom(4, k); the norm of a
    combination is the weighted coefficient sum since they are orthogonal.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (5,):
        raise InvalidInputError(f"expected 5 coefficients, got shape {coeffs.shape}")
    return float(np.sum(coeffs ** 2 / QUARTIC_BINOMIALS))
