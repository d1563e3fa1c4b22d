"""Kernel definitions with closed-form mixed derivatives.

Two kernels cover every regression problem in this package:

* :class:`Matern52` -- the single-lengthscale Matern-2.5 kernel on scalars.
  Its radial profile is four times continuously differentiable at zero lag,
  so mixed partials up to order (2, 2) exist in closed form; these are what
  derivative-constraint Gram matrices are built from.
* :class:`HomogeneousPolynomial` -- K(s, t) = (s . t)^d on planar vectors.
  Its RKHS is the span of the degree-d homogeneous monomials, which makes an
  explicit feature-space treatment possible (see :func:`homogeneous_features`).

One coefficient table, ``_MATERN_PROFILE_COEFFS``, checked against central
finite differences, defines every Matern profile derivative; the Gram,
:func:`k_eval`, :func:`k_deriv` and interpolant reads all evaluate it exactly,
with no autodiff or numeric differentiation on the hot path.
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
        if not 0 < self.theta < np.inf:
            raise InvalidInputError(f"lengthscale must be positive and finite, got {self.theta}")


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


#: Row n: (c0, c1, c2) with P_n(gap) = s^n sign(gap)^(n mod 2) (c0 + c1 sr + c2 sr^2) exp(-sr), sr = s|gap|,
#: s = sqrt(5) / theta: the n-th derivative of the Matern-5/2 profile, n = 0..4; odd rows have c0 = 0.
_MATERN_PROFILE_COEFFS = np.array([[1, 1, 1 / 3], [0, -1 / 3, -1 / 3], [-1 / 3, -1 / 3, 1 / 3], [0, 1, -1 / 3],
                                   [1, -5 / 3, 1 / 3]])


def _matern_profile_derivs(orders, gap, theta):
    """[n-th derivative of the Matern-5/2 profile at ``gap`` for n in the sequence ``orders``].

    Each is its row of :data:`_MATERN_PROFILE_COEFFS` times s^n on one basis
    g = s gap, sr = |g|, e = exp(-sr): (c0 + c1 sr + c2 sr^2) e for even n and
    (c1 + c2 sr) g e for odd n, exactly odd in the gap since sign(gap) sr is g.
    Every entry, a repeat included, is a new array that a caller may scale in place.
    """
    s = np.sqrt(5.0) / theta
    g = s * gap
    sr = np.abs(g)
    e = np.exp(-sr)
    out = []
    for n in orders:
        c0, c1, c2 = s ** n * _MATERN_PROFILE_COEFFS[n]
        if n % 2:
            p = c2 * sr
            p += c1
            p *= g
        else:  # summed from sr^2 down, not in Horner's form, which rounds differently; the
            # learned thetas of Table 1 and the pooled Cole-Hopf fit are the same bits either way
            p = sr * sr
            p *= c2
            p += c1 * sr
            p += c0
        p *= e
        out.append(p)
    return out


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
        return _matern_profile_derivs((0,), np.asarray(x, float) - np.asarray(y, float), spec.theta)[0]
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
    return (-1) ** b * _matern_profile_derivs((a + b,), np.asarray(x, float) - np.asarray(y, float), spec.theta)[0]


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
