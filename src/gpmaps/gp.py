"""Constrained RKHS regression on linear functionals of the unknown map.

A regression problem is a list of :class:`LinearFunctional` constraints
``phi_i(D) = Y_i`` on an unknown scalar map ``D``. Each functional is a
weighted sum of point evaluations of ``D`` or of its first two derivatives,
so the Gram matrix of the constraints only needs the kernel's closed-form
mixed partials. The relaxed minimum-norm solution

    D(u) = K(u, phi) (K(phi, phi) + lam I)^{-1} Y

is computed by a dense symmetric positive-definite factorization; the nugget
``lam`` keeps routinely ill-conditioned derivative Grams factorizable. It is
a setting of each solve, ``fit(system, kernel, nugget=None)``, not of the
constraints; None picks ``NUGGET_SCALE * trace(G) / M`` for the kernel in use.

Every factorization in the package is :func:`_cholesky`: factor a copy of
the matrix shifted by a nugget with ``numpy.linalg.cholesky``, or raise
:class:`SingularSystemError` naming it, with its condition number (inf when
the factor is not finite, which numpy does not raise on). Only fits
escalate the nugget on failure; the leave-one-out loss and the ``cgc-pde``
profile raise at once, since their nugget is part of the value they compute.
Every solve with a factor goes through its inverse, which
:func:`_factor_inverse` builds by blocks with ``matmul``, so the package
needs numpy alone.

One coefficient table, checked against finite differences, defines every
Matern profile derivative (see :mod:`gpmaps.kernels`). Every derivative it
defines is a combination of five basis matrices, g e, g sr e, e, sr e and
sr^2 e (g the scaled gap, sr = |g|, e = exp(-sr)), with the weights of
:data:`_PROFILE_BASIS`, and the Gram and the reads both work in that basis.

The Gram folds the terms of each distinct (functional, location) pair into
one row of per-order weights W. A :class:`ConstraintSystem` builds the
lengthscale-free part of that work once, on first use: the rows, W, and one
(rows x rows) gap array x - y. Each lengthscale then costs one exp, a few
elementwise products and one thin product W M_k W^T per basis, whatever mix
of derivative orders the functionals hold, and the owners' sums; a
lengthscale sweep, the fit that follows it and every fit at a fixed
lengthscale share one plan.

By the representer theorem a fitted map is K psi for the one functional
psi = sum_i alpha_i phi_i. An interpolant folds its term table once into
psi's order-0, 1 and 2 weights on the distinct term locations, then into
one (nodes x 3) weight matrix per basis, column d for order d. A read
computes orders 0, 1 and 2 together from one gap array, one exp, in-place
powers and five (points x 3) products, with no (points x terms) matrix, and
keeps the last point set's three results, so a read of another order at the
same points is a copy. A lone single-order read pays for all three orders'
products. A saved interpolant (:func:`interpolant_to_config`) is psi: the
nodes and three weights per node, loaded as psi with coefficient 1.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np
from numpy.linalg import LinAlgError, cholesky

from .exceptions import InvalidInputError, SingularSystemError, UnsupportedDerivativeError
from .kernels import _MATERN_PROFILE_COEFFS, Matern52

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

#: Row n: the weights of the basis matrices g e, g sr e, e, sr e and sr^2 e in P_n / s^n, from
#: :data:`~gpmaps.kernels._MATERN_PROFILE_COEFFS`: odd n weigh g e and g sr e by c1, c2, even n weigh
#: e, sr e and sr^2 e by c0, c1, c2.
_PROFILE_BASIS = np.array([[c1, c2, 0, 0, 0] if n % 2 else [0, 0, c0, c1, c2]
                           for n, (c0, c1, c2) in enumerate(_MATERN_PROFILE_COEFFS)])
#: n = b + d: the order-b terms of a read of order d weigh P_n.
_READ_POWERS = np.add.outer(np.arange(3), np.arange(3))
_READ_SIGNS = np.array([[1.0], [-1.0], [1.0]])  # d^b/dy^b of a profile in x - y carries (-1)^b


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


@dataclass(frozen=True)
class ConstraintSystem:
    """Ordered constraint functionals (at least one) and their targets."""

    functionals: tuple
    targets: np.ndarray

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

    def __len__(self):
        return len(self.functionals)

    @cached_property
    def _terms(self):
        """The term table of the functionals (see :func:`_flatten`), shared by the Gram plan and the fit."""
        return _flatten(self.functionals)

    @cached_property
    def _gram_plan(self):
        """The lengthscale-free part of this system's Gram, shared by every kernel it is solved with."""
        return _GramPlan(self._terms)


def _flatten(functionals):
    """The term table: the sorted distinct term locations, then per term its index into them, order, weight and owner.

    ``(nodes, node, orders, weights, owners)``: the term locations are
    ``nodes[node]``, bit for bit, and the owners are sorted. A saved map
    keeps the nodes (:func:`interpolant_to_config`), so a loaded one reads
    from the nodes it was fitted on.
    """
    locs, orders, weights, owner = [], [], [], []
    for i, f in enumerate(functionals):
        for t in f.terms:
            locs.append(t.location)
            orders.append(t.deriv_order)
            weights.append(t.weight)
            owner.append(i)
    nodes, node = np.unique(np.asarray(locs, dtype=float), return_inverse=True)
    return (
        nodes,
        node,
        np.asarray(orders, dtype=int),
        np.asarray(weights, dtype=float),
        np.asarray(owner, dtype=int),
    )


class _GramPlan:
    """The lengthscale-free part of the Matern Gram of a term table.

    Built once per system: the distinct (owner, node) pairs of the terms as
    rows, sorted by owner, with the owners' ``reduceat`` starts (None when
    each owner has one row); the (rows x orders) weight matrix W, W[r, a]
    the summed weights of row r's order-a terms; one (rows x rows) gap array
    x_r - x_c; and per basis matrix k of :data:`_PROFILE_BASIS` the
    (orders x orders) table M_k[a, b] = (-1)^b _PROFILE_BASIS[a + b, k] with
    the powers a + b of s that scale it. Every system uses the three even
    bases, since a + b is even for a = b; the two odd ones serve a system
    with orders of both parities. See :meth:`gram`.
    """

    def __init__(self, terms):
        nodes, node, orders, weights, owner = terms
        used = np.flatnonzero(np.bincount(orders))
        rows, row = np.unique(owner * nodes.size + node, return_inverse=True)
        self.weights = np.bincount(row * used.size + np.searchsorted(used, orders), weights,
                                   minlength=rows.size * used.size).reshape(-1, used.size)
        x = nodes[rows % nodes.size]
        self.gap = x[:, None] - x[None, :]
        row_owner = rows // nodes.size
        starts = np.flatnonzero(np.r_[True, row_owner[1:] != row_owner[:-1]])
        self.starts = starts if starts.size < rows.size else None
        self.powers = np.add.outer(used, used)
        self.tables = _PROFILE_BASIS[self.powers].transpose(2, 0, 1) * (-1.0) ** used  # (basis, a, b)
        self.odd = bool(self.tables[:2].any())

    def gram(self, kernel):
        """The Gram matrix at a Matern52 ``kernel``, as :func:`assemble_gram` defines it.

        With g = s gap, sr = |g| and e = exp(-sr), the row Gram is
        e (sr^2 R_4 + sr R_3 + R_2 + g (R_0 + sr R_1)), elementwise, where
        R_k = W (M_k s^(a+b)) W^T is one thin product per basis. The even part
        is summed from sr^2 down, as :func:`~gpmaps.kernels.k_deriv` sums it, so
        a system of unit-weight Diracs gets k_deriv's entries bit for bit. Each
        R_k is dropped once added, and the odd part, made first, drops g
        before the even part is made; e is made last, in sr's memory. The
        owners' ``reduceat`` and (G + G^T) / 2 finish the Gram.
        """
        s = math.sqrt(5.0) / kernel.theta
        scaled, w = self.tables * s ** self.powers, self.weights

        def product(k):
            return (w @ scaled[k]) @ w.T

        g = s * self.gap
        sr = np.abs(g)
        if self.odd:
            odd = product(1)
            odd *= sr
            odd += product(0)
            odd *= g
        del g
        gram = sr * sr
        gram *= product(4)
        term = product(3)
        term *= sr
        gram += term
        del term
        gram += product(2)
        if self.odd:
            gram += odd
            del odd
        np.negative(sr, out=sr)
        np.exp(sr, out=sr)
        gram *= sr
        if self.starts is not None:
            gram = np.add.reduceat(np.add.reduceat(gram, self.starts, axis=0), self.starts, axis=1)
        gram += gram.T  # numpy buffers the overlapping transpose: this is G + G^T
        gram *= 0.5
        return gram


def assemble_gram(functionals, kernel):
    """Gram matrix with entries [phi_i, K phi_j], symmetrized after assembly.

    Every Matern profile derivative P_(a+b) that an (a, b) term pair needs is
    a combination of the five basis matrices g e, g sr e, e, sr e and
    sr^2 e of :data:`_PROFILE_BASIS`, the same table the interpolant reads
    use. So the terms of each distinct (functional, location) pair are
    folded into one row of per-order weights, and the Gram of those rows
    costs one gap array, one exp and one thin weight product per basis,
    whatever mix of orders the functionals hold. The rows of one functional
    are summed with ``reduceat``. A :class:`ConstraintSystem` keeps the
    lengthscale-free part of this work and reuses it for every kernel it is
    solved with.
    """
    return _GramPlan(_flatten(functionals)).gram(kernel)


def default_nugget(gram):
    """Automatic nugget: ``NUGGET_SCALE * trace(G) / M`` (floored away from zero).

    A trace that is not finite (a Gram whose entries overflowed to inf or NaN)
    raises :class:`SingularSystemError`, since no nugget makes that Gram
    factorizable.
    """
    trace = float(np.trace(gram))
    if not math.isfinite(trace):
        raise SingularSystemError(f"constraint Gram has a non-finite trace ({trace!r})", condition=math.inf)
    return max(NUGGET_SCALE * trace / max(gram.shape[0], 1), 1e-300)


def _cholesky(matrix, lam, what):
    """Lower Cholesky factor, upper triangle zeroed, of a shifted copy ``matrix + lam*I`` of a symmetric matrix.

    On failure raises :class:`SingularSystemError` naming ``what``, with the shifted matrix's condition number.
    numpy factors a matrix with NaN or inf entries without raising, and a non-finite entry leaves a non-finite
    diagonal in the factor, so a factor with one raises too, with the condition reported as inf (the SVD that
    ``np.linalg.cond`` takes does not converge on NaN).
    """
    shifted = matrix.copy()
    shifted.ravel()[:: len(shifted) + 1] += lam  # the diagonal, through a view of the C-ordered copy
    try:
        factor = cholesky(shifted)
    except LinAlgError:
        raise SingularSystemError(f"{what} is not positive definite (nugget {lam:.3e})",
                                  condition=float(np.linalg.cond(shifted))) from None
    if not np.isfinite(np.diagonal(factor)).all():
        raise SingularSystemError(f"{what} has a non-finite Cholesky factor (nugget {lam:.3e})", condition=math.inf)
    return factor


def _factor_inverse(factor):
    """L^-1 of a contiguous lower-triangular factor L, by blocks with matmul; L's upper triangle is not read.

    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]] joins the inverses
    of two neighbouring diagonal blocks of width w into that of their block of
    width 2w. Starting from 1 / diag(L), one pass per w = 1, 2, 4, ... joins
    every whole pair of w-blocks at once, as batched products over strided
    views of the two diagonals, then the shorter last pair, if there is one.
    The inverse's upper triangle stays zero. Solves with L L^T are
    ``inv.T @ (inv @ y)``.
    """
    n = factor.shape[0]
    inverse = np.diag(1.0 / np.diagonal(factor))
    w = 1
    while w < n:
        pairs = n // (2 * w)
        if pairs:
            x, lower = _diagonal_blocks(inverse, 2 * w, pairs), _diagonal_blocks(factor, 2 * w, pairs)
            x[:, w:, :w] = -(x[:, w:, w:] @ (lower[:, w:, :w] @ x[:, :w, :w]))
        lo = 2 * w * pairs
        mid = lo + w
        if mid < n:
            inverse[mid:, lo:mid] = -(inverse[mid:, mid:] @ (factor[mid:, lo:mid] @ inverse[lo:mid, lo:mid]))
        w *= 2
    return inverse


def _diagonal_blocks(a, width, count):
    """A (count, width, width) view of the first ``count`` diagonal blocks of the contiguous square ``a``."""
    s0, s1 = a.strides
    return np.ndarray((count, width, width), a.dtype, a, 0, (width * (s0 + s1), s0, s1))


def _factor_with_escalation(gram, lam):
    """``(L, lam_used)``: :func:`_cholesky` of G + lam_used*I, lam escalated tenfold on each failure."""
    for _ in range(MAX_JITTER_ESCALATIONS):
        try:
            return _cholesky(gram, lam, "constraint Gram"), lam
        except SingularSystemError:
            lam *= 10.0
    return _cholesky(gram, lam, f"constraint Gram after {MAX_JITTER_ESCALATIONS} jitter escalations"), lam


@dataclass(frozen=True)
class Interpolant:
    """Representer-theorem solution: D(u) = sum_i alpha_i [phi_i, K(u, .)].

    The phi_i are held as one term table, ``terms``, laid out as :func:`_flatten`
    returns it, with each distinct term location once. A loaded map holds one
    functional, psi = sum_i alpha_i phi_i as it was saved, with coefficient 1:
    one term per node and order (see :func:`interpolant_from_config`).
    """

    kernel: Matern52
    terms: tuple
    coefficients: np.ndarray
    nugget: float = 0.0
    #: ``(key, values)`` of the last point set read; see :meth:`evaluate`.
    _last_read: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=float)
        if a.shape != (int(self.terms[4][-1]) + 1,):
            raise InvalidInputError("coefficient vector must match the functional list")
        object.__setattr__(self, "coefficients", a)

    @cached_property
    def functionals(self):
        """The functionals as :class:`LinearFunctional` objects, from the term table: the phi_i, or a loaded psi."""
        nodes, node, orders, weights, owners = self.terms
        rows = zip(owners.tolist(), nodes[node].tolist(), orders.tolist(), weights.tolist())
        return tuple(LinearFunctional.of_terms(*(row[1:] for row in group))
                     for _, group in groupby(rows, key=lambda row: row[0]))

    @cached_property
    def _folded(self):
        """``(nodes, c)``: psi = sum_i alpha_i phi_i as weights on the nodes, c[j, b] its order-b weight at node j.

        c[j, b] sums w_t * alpha[owner_t] over the order-b terms t at node j,
        added in term order from 0.0, so it is never -0.0. The reads and the
        saved map both use this one fold.
        """
        nodes, at, orders, weights, owner = self.terms
        c = np.bincount(3 * at + orders, weights * self.coefficients[owner], minlength=3 * nodes.size)
        return nodes, c.reshape(-1, 3)

    @cached_property
    def _read_plan(self):
        """``(s, s * nodes, w)``: the nodes of :attr:`_folded` and their (5, nodes, 3) read weights.

        A read of order d is sum_b (-1)^b P_(d+b)(u - nodes) @ c[:, b]. With
        g = s (u - node), sr = |g| and e = exp(-sr), every P_n is a combination
        of the five basis matrices g e, g sr e, e, sr e and sr^2 e
        (:data:`_PROFILE_BASIS`), so ``w[k][:, d]``, the weight of basis k in the
        read of order d, is one product of c with that table scaled by
        (-1)^b s^(d+b).
        """
        s = math.sqrt(5.0) / self.kernel.theta
        nodes, c = self._folded
        table = _PROFILE_BASIS[_READ_POWERS] * (_READ_SIGNS * s ** _READ_POWERS)[:, :, None]  # (b, d, basis)
        w = c @ table.transpose(0, 2, 1).reshape(3, 15)
        return s, s * nodes, np.ascontiguousarray(w.reshape(-1, 5, 3).transpose(1, 0, 2))

    def _read(self, u):
        """The map's orders 0, 1 and 2 at the 1-D points ``u``, as the rows of one (3, len(u)) array.

        One gap array, one exp, four in-place products and one (points x 3)
        product per basis matrix with its weights in ``_read_plan``.
        """
        s, nodes, w = self._read_plan
        g = s * u[:, None] - nodes[None, :]
        sr = np.abs(g)
        e = np.negative(sr)
        np.exp(e, out=e)
        g *= e
        vals = np.zeros((u.shape[0], 3))
        for k, basis in enumerate((g, g, e, e, e)):
            if k in (1, 3, 4):  # each later basis of a kind weighs one more power of sr
                basis *= sr
            vals += basis @ w[k]
        return vals.T

    def evaluate(self, u, deriv_order=0):
        """Value (or derivative) of the fitted map at a scalar or 1-D array ``u``.

        One read computes orders 0, 1 and 2 together (see :meth:`_read`): the
        three share one gap array, exp and powers of sr. The last
        point set's three results are kept, keyed by the shape and bytes of
        ``u`` as floats, so a read of another order at the same points is a
        copy; any other ``u`` (a new point, the same array changed in place,
        -0.0 for 0.0, a scalar for a one-element array) is read afresh. A lone
        single-order read therefore pays for all three orders' products.

        A value's last bits depend on the other points of the call, since BLAS
        sums a one-row and a many-row product in different orders: a point
        read alone and inside an array of 62 evenly spaced points differs by
        up to 2.1e-11 of the order's largest value on the saved pooled map,
        whose coefficients reach 1.1e5 and cancel (OpenBLAS 0.3.31, Haswell
        kernels).
        """
        if deriv_order not in (0, 1, 2):
            raise UnsupportedDerivativeError(f"reads take derivative orders 0-2, got {deriv_order}")
        u = np.asarray(u, dtype=float)
        if u.ndim > 1:
            raise InvalidInputError(f"reads take a scalar or a 1-D array of points, got shape {u.shape}")
        key = (u.shape, u.tobytes())
        last_key, vals = self._last_read
        if last_key != key:
            vals = self._read(np.atleast_1d(u))
            object.__setattr__(self, "_last_read", (key, vals))
        vals = vals[deriv_order]
        return float(vals[0]) if u.ndim == 0 else vals.copy()

    def __call__(self, u):
        return self.evaluate(u, 0)


def fit(system, kernel, nugget=None):
    """Solve (G + lam I) alpha = Y, lam = ``nugget`` or :func:`default_nugget`, as an :class:`Interpolant`.

    :func:`rkhs_norm_sq` reads the coefficients of this fit, so fits and RKHS norms share one solve.
    """
    if nugget is not None and not nugget > 0:
        raise InvalidInputError(f"nugget must be positive, got {nugget}")
    gram = system._gram_plan.gram(kernel)
    factor, lam_used = _factor_with_escalation(gram, nugget if nugget is not None else default_nugget(gram))
    inverse = _factor_inverse(factor)
    return Interpolant(kernel, system._terms, inverse.T @ (inverse @ system.targets), nugget=lam_used)


def rkhs_norm_sq(system, kernel, nugget=None):
    """Regularized squared norm of the constrained minimizer: Y^T (G+lam I)^{-1} Y, lam as in :func:`fit`.

    This is also the optimal value of the relaxed problem, hence nondecreasing
    when constraints are appended and an upper-convergent estimate of the true
    map's squared RKHS norm when the constraints are consistent.
    """
    return float(max(system.targets @ fit(system, kernel, nugget).coefficients, 0.0))


def interpolant_to_config(interp):
    """JSON-ready dictionary of the map itself: the nodes and psi's weights of :attr:`Interpolant._folded`.

    ``nodes`` holds the sorted distinct term locations; ``weights`` holds
    psi's order-0, 1 and 2 weights at each node in turn, zeros included, so
    ``weights[3 j + b]`` is the order-b weight at ``nodes[j]``.
    """
    nodes, c = interp._folded
    return {
        "kernel": {"kind": "matern52", "theta": interp.kernel.theta},
        "nodes": nodes.tolist(),
        "weights": c.ravel().tolist(),
        "nugget": interp.nugget,
    }


def interpolant_from_config(cfg):
    """Inverse of :func:`interpolant_to_config`: the map as the one functional psi, with coefficient 1.

    psi has one term per node and order, so the read fold adds one weight
    per bin and the loaded map reads bit for bit what the saved one read.
    Malformed input raises :class:`InvalidInputError`: a missing key (a file
    in an earlier layout has no ``weights``), a column that is not a flat
    list of numbers, a nugget that is not a number, a kernel kind other than
    ``matern52``, a lengthscale :class:`~gpmaps.kernels.Matern52` refuses, no
    node, not three weights per node, or a node, weight or nugget that is not
    finite (``json.load`` reads ``NaN`` and ``Infinity``).
    """
    try:
        kind, theta = cfg["kernel"]["kind"], cfg["kernel"]["theta"]
        # array("d", ...) takes numbers only: a string, None or a nested list raises TypeError
        nodes, weights = (np.asarray(array("d", cfg[key])) for key in ("nodes", "weights"))
        nugget = array("d", [cfg.get("nugget", 0.0)])[0]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed interpolant config: {exc!r}") from exc
    if kind != "matern52":
        raise InvalidInputError(f"unknown kernel kind {kind!r}")
    n = nodes.size
    if not (n and weights.size == 3 * n):
        raise InvalidInputError("an interpolant needs at least one node and three weights per node")
    if not (np.isfinite(nodes).all() and np.isfinite(weights).all() and math.isfinite(nugget)):
        raise InvalidInputError("an interpolant's nodes, weights and nugget must be finite")
    terms = (nodes, np.repeat(np.arange(n), 3), np.tile(np.arange(3), n), weights, np.zeros(3 * n, dtype=int))
    return Interpolant(Matern52(theta), terms, [1.0], nugget=nugget)
