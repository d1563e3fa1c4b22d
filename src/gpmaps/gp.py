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
:class:`SingularSystemError` naming it, with its condition number. Only fits
escalate the nugget on failure; the leave-one-out loss and the ``cgc-pde``
profile raise at once, since their nugget is part of the value they compute.
Every solve with a factor goes through its inverse, which
:func:`_factor_inverse` builds by blocks with ``matmul``, so the package
needs numpy alone.

The Gram matrix is assembled in blocks of terms with equal derivative
orders. A :class:`ConstraintSystem` builds the lengthscale-free part of that
work once, on first use: the terms flattened and grouped by order, their
Gram indices, and one gap array x - y per pair of location sets. Each
lengthscale then costs only the Matern profile arithmetic on those gap
arrays, the weighting and the block adds, so a lengthscale sweep, the fit
that follows it and every fit at a fixed lengthscale share one plan.

One coefficient table, checked against finite differences, defines every
Matern profile derivative (see :mod:`gpmaps.kernels`). The Gram evaluates it
on the plan's gap arrays. Every derivative it defines is a combination of
five basis matrices, g e, g sr e, e, sr e and sr^2 e (g the scaled gap,
sr = |g|, e = exp(-sr)), so an interpolant folds the table into the summed
term coefficients once, as one (nodes x 3) weight matrix per basis on the
distinct term locations, column d for order d. A read then computes orders
0, 1 and 2 of the map together from one gap array, one exp, in-place powers
and five (points x 3) products, with no (points x terms) matrix, and keeps
the last point set's three results, so a read of another order at the same
points is a copy. A lone single-order read pays for all three orders'
products.

A saved interpolant (:func:`interpolant_to_config`) is column-oriented: each
distinct term location once, in ``nodes``, and per term its index into
``nodes``, its order and its weight, so loading one parses flat lists only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np
from numpy.linalg import LinAlgError, cholesky

from .exceptions import InvalidInputError, SingularSystemError, UnsupportedDerivativeError
from .kernels import _MATERN_PROFILE_COEFFS, Matern52, _matern_profile_derivs, kernel_from_config, kernel_to_config

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

    def apply(self, fn):
        """Apply the functional to ``fn(u, deriv_order)``."""
        return float(sum(t.weight * fn(t.location, t.deriv_order) for t in self.terms))


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
    """The term table: all terms of all functionals as parallel arrays (locations, orders, weights, sorted owners)."""
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


def _order_groups(terms):
    """A term table split by derivative order: ``{order: (locs, weights, owners)}``, owners sorted."""
    locs, orders, weights, owner = terms
    groups = {}
    for a in np.flatnonzero(np.bincount(orders)):
        sel = orders == a
        groups[int(a)] = (locs[sel], weights[sel], owner[sel])
    return groups


def _owner_index(owners):
    """Segment starts of the sorted owners, and the Gram index of each segment.

    The index is a slice when the segment owners are contiguous, else an array.
    """
    starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
    rows = owners[starts]
    if rows[-1] - rows[0] + 1 == rows.size:
        return starts, slice(int(rows[0]), int(rows[-1]) + 1)
    return starts, rows


class _GramPlan:
    """The lengthscale-free part of the Matern Gram of a term table.

    Built once per system: the terms grouped by derivative order, each order's
    Gram index (a slice when its owners are contiguous) and ``reduceat``
    starts, and one gap array x - y per pair of "homes", where an order's
    home is the lowest order on the same locations. Evaluating the plan at a
    lengthscale computes the Matern profile derivatives on each gap array,
    weights them in place and adds the blocks; see :func:`assemble_gram`.
    """

    def __init__(self, terms):
        self.size = int(terms[3][-1]) + 1
        groups = _order_groups(terms)
        orders = sorted(groups)
        home = {a: next(c for c in orders if np.array_equal(groups[c][0], groups[a][0])) for a in orders}
        place, self.starts = {}, {}
        for a in orders:
            starts, place[a] = _owner_index(groups[a][2])
            self.starts[a] = starts if starts.size < groups[a][2].size else None
        self.pairs = {}  # home pair -> [(a, b, row weights, column weights, Gram index)] for a <= b
        for i, a in enumerate(orders):
            for b in orders[i:]:
                rows, cols = place[a], place[b]
                if not isinstance(rows, slice) and not isinstance(cols, slice):
                    rows, cols = np.ix_(rows, cols)
                # d^b/dy^b of a profile in x - y carries (-1)^b; negating the
                # row weights instead is exact
                row_w = -groups[a][1] if b % 2 else groups[a][1]
                self.pairs.setdefault((home[a], home[b]), []).append(
                    (a, b, row_w[:, None], groups[b][1][None, :], (rows, cols)))
        self.gaps = {(ha, hb): groups[ha][0][:, None] - groups[hb][0][None, :] for ha, hb in self.pairs}

    def gram(self, kernel):
        """The Gram matrix at a Matern52 ``kernel``, as :func:`assemble_gram` defines it."""
        if not isinstance(kernel, Matern52):
            raise UnsupportedDerivativeError(f"Gram assembly takes a Matern52 spec, got {kernel!r}")
        gram = np.zeros((self.size, self.size))
        for home_pair, pairs in self.pairs.items():
            profiles = _matern_profile_derivs([a + b for a, b, *_ in pairs], self.gaps[home_pair], kernel.theta)
            for (a, b, row_w, col_w, index), block in zip(pairs, profiles):
                block *= row_w
                block *= col_w
                if self.starts[a] is not None:
                    block = np.add.reduceat(block, self.starts[a], axis=0)
                if self.starts[b] is not None:
                    block = np.add.reduceat(block, self.starts[b], axis=1)
                gram[index] += block
                if a != b:  # the (b, a) block, this one's transpose, added through the transposed view
                    gram.T[index] += block
        gram += gram.T  # numpy buffers the overlapping transpose: this is G + G^T
        gram *= 0.5
        return gram


def assemble_gram(functionals, kernel):
    """Gram matrix with entries [phi_i, K phi_j], symmetrized after assembly.

    Terms are grouped by derivative order. Only the blocks with orders
    a <= b are computed: the (b, a) block is the transpose of the (a, b)
    one, exactly, since x - y and y - x are exact negatives. Order groups on
    the same locations share one gap array and one exp. The terms of one
    functional are summed with ``reduceat`` over the sorted owners. One pass
    over the pairs of location sets computes the blocks of each pair and adds
    each block, and its transpose when a < b, at once, so only one pair's
    blocks are alive at a time. A :class:`ConstraintSystem` keeps the
    lengthscale-free part of this work and reuses it for every kernel it is
    solved with.
    """
    return _GramPlan(_flatten(functionals)).gram(kernel)


def default_nugget(gram):
    """Automatic nugget: ``NUGGET_SCALE * trace(G) / M`` (floored away from zero)."""
    m = gram.shape[0]
    return max(NUGGET_SCALE * float(np.trace(gram)) / max(m, 1), 1e-300)


def _cholesky(matrix, lam, what):
    """Lower Cholesky factor, upper triangle zeroed, of a shifted copy ``matrix + lam*I`` of a symmetric matrix.

    On failure raises :class:`SingularSystemError` naming ``what``, with the shifted matrix's condition number.
    """
    shifted = matrix.copy()
    shifted.ravel()[:: len(shifted) + 1] += lam  # the diagonal, through a view of the C-ordered copy
    try:
        return cholesky(shifted)
    except LinAlgError:
        raise SingularSystemError(f"{what} is not positive definite (nugget {lam:.3e})",
                                  condition=float(np.linalg.cond(shifted))) from None


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
    returns it, so that loading a saved map makes no per-term objects.
    """

    kernel: object
    terms: tuple
    coefficients: np.ndarray
    nugget: float = 0.0
    #: ``(key, values)`` of the last point set read; see :meth:`evaluate`.
    _last_read: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=float)
        if a.shape != (int(self.terms[3][-1]) + 1,):
            raise InvalidInputError("coefficient vector must match the functional list")
        object.__setattr__(self, "coefficients", a)

    @cached_property
    def functionals(self):
        """The functionals phi_i as :class:`LinearFunctional` objects, rebuilt from the term table."""
        locs, orders, weights, owners = self.terms
        rows = zip(owners.tolist(), locs.tolist(), orders.tolist(), weights.tolist())
        return tuple(LinearFunctional.of_terms(*(row[1:] for row in group))
                     for _, group in groupby(rows, key=lambda row: row[0]))

    @cached_property
    def _read_plan(self):
        """``(s, s * nodes, w)``: the distinct term locations and their (5, nodes, 3) read weights.

        c[:, b] sums w_t * alpha[owner_t] over the order-b terms at a node, and
        a read of order d is sum_b (-1)^b P_(d+b)(u - nodes) @ c[:, b]. With
        g = s (u - node), sr = |g| and e = exp(-sr), every P_n is a combination
        of the five basis matrices g e, g sr e, e, sr e and sr^2 e
        (:data:`_PROFILE_BASIS`), so ``w[k][:, d]``, the weight of basis k in the
        read of order d, is one product of c with that table scaled by
        (-1)^b s^(d+b).
        """
        s = math.sqrt(5.0) / self.kernel.theta
        locs, orders, weights, owner = self.terms
        nodes, at = np.unique(locs, return_inverse=True)
        c = np.bincount(3 * at + orders, weights * self.coefficients[owner], minlength=3 * nodes.size)
        table = _PROFILE_BASIS[_READ_POWERS] * (_READ_SIGNS * s ** _READ_POWERS)[:, :, None]  # (b, d, basis)
        w = c.reshape(-1, 3) @ table.transpose(0, 2, 1).reshape(3, 15)
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
        up to 2.6e-11 of the order's largest value on the saved pooled map,
        whose coefficients reach 1.1e5 and cancel (OpenBLAS 0.3.31, Haswell
        kernels).
        """
        if deriv_order not in (0, 1, 2) or not isinstance(self.kernel, Matern52):
            raise UnsupportedDerivativeError(f"reads take orders 0-2 of a Matern52: {deriv_order}, {self.kernel!r}")
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


def constraint_residuals(interp, system):
    """|phi_i(D) - Y_i| for every constraint of a fitted system."""
    applied = np.array([f.apply(interp.evaluate) for f in system.functionals])
    return np.abs(applied - system.targets)


def interpolant_to_config(interp):
    """JSON-ready dictionary, one column per key: each distinct term location once, and per term its node.

    ``nodes`` holds the sorted distinct term locations; ``node``, ``order``
    and ``weight`` hold one entry per term, in term order; ``sizes`` the
    number of terms of each functional, in order; ``alpha`` one coefficient
    per functional. The term locations are ``nodes[node]``, bit for bit.
    """
    locs, orders, weights, owners = interp.terms
    nodes, node = np.unique(locs, return_inverse=True)
    return {
        "kernel": kernel_to_config(interp.kernel),
        "nodes": nodes.tolist(),
        "node": node.tolist(),
        "order": orders.tolist(),
        "weight": weights.tolist(),
        "sizes": np.bincount(owners).tolist(),
        "alpha": interp.coefficients.tolist(),
        "nugget": interp.nugget,
    }


def interpolant_from_config(cfg):
    """Inverse of :func:`interpolant_to_config`: each column read into an array once and checked as a whole.

    The term table is ``(nodes[node], order, weight, owners)``, with the
    owners repeated from ``sizes``. Malformed input raises
    :class:`InvalidInputError`: a missing key or a column that is not a flat
    list of numbers, a file in the nested layout of earlier versions (a
    ``functionals`` key in place of the columns), ``node``, ``order`` and
    ``weight`` not one entry per term or ``sizes`` not summing to their
    length, a functional without terms, a node index outside ``nodes``, an
    order other than 0, 1 or 2, not one coefficient per functional, or a
    location, weight, coefficient or nugget that is not finite (``json.load``
    reads ``NaN`` and ``Infinity``).
    """
    if isinstance(cfg, dict) and "functionals" in cfg:
        raise InvalidInputError("interpolant config in the nested layout of earlier versions: refit the map to save it")
    try:
        kernel = kernel_from_config(cfg["kernel"])
        nodes, node, order, weight, sizes, alpha = (
            np.asarray(cfg[key], dtype=float) for key in ("nodes", "node", "order", "weight", "sizes", "alpha"))
        nugget = float(cfg.get("nugget", 0.0))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed interpolant config: {exc!r}") from exc
    columns = (nodes, node, order, weight, sizes, alpha)
    if any(a.ndim != 1 for a in columns) or not (np.isfinite(np.concatenate(columns)).all() and math.isfinite(nugget)):
        raise InvalidInputError("interpolant columns must be flat lists of finite numbers, and its nugget finite")
    if not (sizes.size == alpha.size and node.size == order.size == weight.size == sizes.sum()
            and sizes.size and sizes.min() >= 1 and 0 <= node.min() and node.max() < nodes.size
            and 0 <= order.min() and order.max() <= 2):
        raise InvalidInputError("an interpolant needs one coefficient and at least one term per functional, "
                                "one node, order and weight per term, node indices into nodes and orders 0-2")
    at, orders, counts = (a.astype(int) for a in (node, order, sizes))  # bounded by the checks above
    if not ((at == node).all() and (orders == order).all() and (counts == sizes).all()):
        raise InvalidInputError("node indices, orders and sizes must be whole numbers")
    return Interpolant(kernel, (nodes[at], orders, weight, np.repeat(np.arange(counts.size), counts)), alpha,
                       nugget=nugget)
