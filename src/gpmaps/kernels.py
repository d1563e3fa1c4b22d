"""Kernel definitions with closed-form mixed derivatives.

Two kernels cover every regression problem in this package:

* :class:`Matern52` -- the single-lengthscale Matern-2.5 kernel on scalars.
  Its radial profile is four times continuously differentiable at zero lag,
  so mixed partials up to order (2, 2) exist in closed form; these are what
  derivative-constraint Gram matrices are built from.
* :class:`HomogeneousPolynomial` -- K(s, t) = (s . t)^d on planar vectors.
  Its RKHS is the span of the degree-d homogeneous monomials, which makes an
  explicit feature-space treatment possible (see :func:`homogeneous_features`).

All derivative formulas are hand-derived and regression-tested against
central finite differences; Gram assembly is the hot path and has to be
exact and deterministic, so no autodiff or numeric differentiation is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .exceptions import InvalidInputError, UnsupportedDerivativeError

__all__ = [
    "Matern52",
    "HomogeneousPolynomial",
    "k_eval",
    "k_deriv",
    "homogeneous_features",
    "homogeneous_norm_sq",
    "kernel_to_config",
    "kernel_from_config",
]


@dataclass(frozen=True)
class Matern52:
    """Matern kernel with smoothness 5/2 and lengthscale ``theta``."""

    theta: float = 1.0

    def __post_init__(self):
        if not self.theta > 0:
            raise InvalidInputError(f"lengthscale must be positive, got {self.theta}")


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """K(s, t) = (s . t)^degree on vectors of length 2."""

    degree: int = 4

    def __post_init__(self):
        if self.degree < 1 or int(self.degree) != self.degree:
            raise InvalidInputError(f"degree must be a positive integer, got {self.degree}")

    @cached_property
    def binomials(self):
        """binom(d, k) for the monomials u^(d-k) v^k; the squared norm of coefficients c is sum c_k^2 / binom(d, k)."""
        return np.array([comb(self.degree, k) for k in range(self.degree + 1)])


def _matern_profile_derivs(orders, gap, theta):
    """{n: n-th derivative of the Matern-5/2 profile at ``gap``} for n in the set ``orders``.

    Every order is a polynomial in s|gap| times exp(-s|gap|), so all
    requested orders share one |gap|, one exp and one sign. Zero-lag values
    are the analytic limits: odd orders vanish (sign(0) = 0) and the even
    orders reduce to -5/(3 theta^2) and 25/theta^4. Each returned array is
    freshly allocated, so a caller may scale it in place.
    """
    s = np.sqrt(5.0) / theta
    sign = np.sign(gap) if orders & {1, 3} else None
    r = np.abs(gap)
    del gap  # a gap the caller computed inline is freed here, before the even orders allocate
    sr = s * r
    e = np.exp(-sr)
    out = {}
    if 1 in orders:
        out[1] = sign * (-(s * s) * r / 3.0) * (1.0 + sr) * e
    if 3 in orders:
        out[3] = sign * (s ** 4) * r / 3.0 * (3.0 - sr) * e
    # only the odd orders read sign and r; free them before the even orders
    # allocate, since on a Gram each array is as large as the Gram
    del sign, r
    sr2 = sr * sr if orders & {0, 2, 4} else None
    if 0 in orders:
        out[0] = (1.0 + sr + sr2 / 3.0) * e
    if 2 in orders:
        out[2] = -(s * s) / 3.0 * (1.0 + sr - sr2) * e
    if 4 in orders:
        out[4] = (s ** 4) / 3.0 * (3.0 - 5.0 * sr + sr2) * e
    return out


#: Row n: (c0, c1, c2) with P_n(gap) = s^n sign(gap)^(n mod 2) (c0 + c1 sr + c2 sr^2) exp(-sr), sr = s|gap|,
#: s = sqrt(5) / theta, for the profile derivatives of :func:`_matern_profile_derivs`; odd rows have c0 = 0.
_MATERN_PROFILE_COEFFS = np.array([[1, 1, 1 / 3], [0, -1 / 3, -1 / 3], [-1 / 3, -1 / 3, 1 / 3], [0, 1, -1 / 3],
                                   [1, -5 / 3, 1 / 3]])


def _check_vector(v, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise InvalidInputError(f"{name} must be a vector of length 2, got shape {v.shape}")
    return v


def k_eval(spec, x, y):
    """Evaluate K(x, y) for any kernel spec.

    Matern52 takes scalars (arrays broadcast elementwise); HomogeneousPolynomial
    takes vectors of length 2.
    """
    if isinstance(spec, Matern52):
        return _matern_profile_derivs({0}, np.asarray(x, float) - np.asarray(y, float), spec.theta)[0]
    if isinstance(spec, HomogeneousPolynomial):
        xv = _check_vector(x, "x")
        yv = _check_vector(y, "y")
        return float(np.dot(xv, yv) ** spec.degree)
    raise InvalidInputError(f"unknown kernel spec {spec!r}")


def k_deriv(spec, x, y, a, b):
    """Mixed partial d^a/dx^a d^b/dy^b K(x, y) of a Matern52 kernel, for all a, b <= 2.

    The polynomial kernel is handled in feature space
    (:func:`homogeneous_features`) and has no entry here.
    """
    if a not in (0, 1, 2) or b not in (0, 1, 2):
        raise UnsupportedDerivativeError(f"derivative orders must lie in {{0,1,2}}, got {(a, b)}")
    if not isinstance(spec, Matern52):
        raise UnsupportedDerivativeError(f"k_deriv takes a Matern52 spec, got {spec!r}")
    return (-1) ** b * _matern_profile_derivs({a + b}, np.asarray(x, float) - np.asarray(y, float), spec.theta)[a + b]


def homogeneous_features(spec, points):
    """Monomial features of a 2-D homogeneous polynomial kernel.

    For degree d, maps each point (u, v) to (u^d, u^(d-1) v, ..., v^d); with
    coefficient vector c the function H(u, v) = sum_k c_k u^(d-k) v^k carries
    the exact RKHS norm of :func:`homogeneous_norm_sq`.

    Parameters
    ----------
    points : array of shape (n, 2) or (2,)

    Returns
    -------
    array of shape (n, d + 1)
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2:
        raise InvalidInputError(f"expected points of dimension 2, got {pts.shape[1]}")
    d = spec.degree
    u, v = pts[:, 0], pts[:, 1]
    return np.stack([u ** (d - k) * v ** k for k in range(d + 1)], axis=1)


def homogeneous_norm_sq(spec, coeffs):
    """Exact squared RKHS norm of H = sum_k c_k u^(d-k) v^k under (s.t)^d.

    The monomials u^(d-k) v^k have squared norm 1/binom(d, k); the norm of a
    combination is the weighted coefficient sum since they are orthogonal.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    d = spec.degree
    if coeffs.shape != (d + 1,):
        raise InvalidInputError(f"expected {d + 1} coefficients, got shape {coeffs.shape}")
    return float(np.sum(coeffs ** 2 / spec.binomials))


def kernel_to_config(spec):
    """Serialize a Matern52 spec (the kernel of every saved interpolant) to its config form."""
    if isinstance(spec, Matern52):
        return {"kind": "matern52", "theta": spec.theta}
    raise InvalidInputError(f"unknown kernel spec {spec!r}")


def kernel_from_config(cfg):
    """Inverse of :func:`kernel_to_config`."""
    kind = cfg.get("kind")
    if kind == "matern52":
        return Matern52(theta=float(cfg["theta"]))
    raise InvalidInputError(f"unknown kernel kind {kind!r}")
