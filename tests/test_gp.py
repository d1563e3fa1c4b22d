import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gpmaps import cgc, dynamics, gp
from gpmaps.exceptions import InvalidInputError, SingularSystemError, UnsupportedDerivativeError
from gpmaps.gp import (
    ConstraintSystem,
    FunctionalTerm,
    Interpolant,
    LinearFunctional,
    _cholesky,
    _factor_inverse,
    _factor_with_escalation,
    _flatten,
    assemble_gram,
    default_nugget,
    fit,
    interpolant_from_config,
    interpolant_to_config,
    rkhs_norm_sq,
)
from gpmaps.kernels import _MATERN_PROFILE_COEFFS, HomogeneousPolynomial, Matern52, k_deriv
from gpmaps.optim import DescentConfig
from gpmaps.transforms import (
    cole_hopf_discrete_problem,
    cole_hopf_multi_problem,
    cole_hopf_problem,
    first_order_problem,
)
from oracles import constraint_residuals

RNG = np.random.default_rng(11)
K1 = Matern52(1.0)


def dirac_system(locs, targets):
    return ConstraintSystem(tuple(LinearFunctional.dirac(x) for x in locs), targets)


class TestGram:
    def test_single_dirac(self):
        gram = assemble_gram((LinearFunctional.dirac(0.0),), K1)
        assert gram.shape == (1, 1) and gram[0, 0] == 1.0

    def test_duplicate_diracs_all_ones(self):
        gram = assemble_gram((LinearFunctional.dirac(0.0), LinearFunctional.dirac(0.0)), K1)
        np.testing.assert_allclose(gram, np.ones((2, 2)))

    def test_derivative_functional(self):
        gram = assemble_gram((LinearFunctional.of_terms((0.0, 1, 1.0)),), K1)
        assert gram[0, 0] == pytest.approx(5.0 / 3.0, rel=1e-14)

    def test_exactly_symmetric(self):
        prob = cole_hopf_problem(15)
        gram = assemble_gram(prob.system.functionals, K1)
        assert np.array_equal(gram, gram.T)

    def test_psd_before_nugget(self):
        prob = cole_hopf_problem(40)
        gram = assemble_gram(prob.system.functionals, K1)
        eig = np.linalg.eigvalsh(gram)
        assert eig.min() >= -1e-8 * eig.max()


def gram_reference(functionals, kernel):
    """Gram assembly by scatter-adds over all (a, b) order pairs, one term pair at a time."""
    m = len(functionals)
    nodes, node, orders, weights, owner = _flatten(functionals)
    locs = nodes[node]
    gram = np.zeros((m, m))
    present = np.unique(orders)
    for a in present:
        ia = np.nonzero(orders == a)[0]
        for b in present:
            ib = np.nonzero(orders == b)[0]
            block = k_deriv(kernel, locs[ia][:, None], locs[ib][None, :], int(a), int(b))
            block = np.asarray(block, dtype=float) * weights[ia][:, None] * weights[ib][None, :]
            np.add.at(gram, (owner[ia][:, None], owner[ib][None, :]), block)
    return 0.5 * (gram + gram.T)


def long_double_gram(functionals, theta):
    """The Gram of ``functionals`` at Matern52(theta), computed from the term table's float64 data in np.longdouble.

    The profile coefficients are the exact thirds of the kernel's table, each
    rounded once to np.longdouble; every term pair is evaluated and scatter-added
    on its own.
    """
    ld = np.longdouble
    nodes, node, orders, weights, owner = _flatten(functionals)
    locs, weights = nodes[node].astype(ld), weights.astype(ld)
    thirds = [[Fraction(c).limit_denominator(3) for c in row] for row in _MATERN_PROFILE_COEFFS]
    coeffs = [[ld(f.numerator) / ld(f.denominator) for f in row] for row in thirds]
    s = np.sqrt(ld(5)) / ld(theta)
    g = s * (locs[:, None] - locs[None, :])
    sr = np.abs(g)
    e = np.exp(-sr)
    n = np.add.outer(orders, orders)
    entries = np.zeros(g.shape, ld)
    for k in np.unique(n):
        c0, c1, c2 = coeffs[k]
        profile = (c1 + c2 * sr) * g if k % 2 else c0 + c1 * sr + c2 * sr * sr
        entries += np.where(n == k, profile * e * s ** int(k), 0)
    entries *= np.outer(weights, weights * np.where(orders % 2, -1, 1))  # d^b/dy^b carries (-1)^b
    gram = np.zeros((len(functionals),) * 2, ld)
    np.add.at(gram, (owner[:, None], owner[None, :]), entries)
    return (gram + gram.T) / 2


def functional_cross_reference(kernel, functionals, points, point_order=0):
    """(points x functionals) matrix of phi_j applied to d^q/du^q K(u_p, .), by scatter-adds."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    nodes, node, orders, weights, owner = _flatten(functionals)
    locs = nodes[node]
    out = np.zeros((points.shape[0], len(functionals)))
    for b in np.unique(orders):
        sel = orders == b
        block = k_deriv(kernel, points[:, None], locs[sel][None, :], point_order, int(b))
        block = np.asarray(block, dtype=float) * weights[sel][None, :]
        np.add.at(out.T, owner[sel], block.T)
    return out


@pytest.fixture(scope="module")
def exact_systems():
    # term orders {0, 1, 2} (Table 1's smallest and largest N), {1, 2} and {0, 1}
    return {
        "cole-hopf-25": cole_hopf_problem(25).system,
        "cole-hopf-200": cole_hopf_problem(200).system,
        "pooled": cole_hopf_multi_problem().system,
        "first-order": first_order_problem().system,
    }


LONG_DOUBLE = pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                                 reason="np.longdouble is no wider than float64 on this platform")


class TestGramMatchesReference:
    @LONG_DOUBLE
    @pytest.mark.parametrize("theta", [0.1, 1.0, 17.0, 100.0])
    def test_within_four_ulps_of_long_double(self, exact_systems, theta):
        # the assembly sums each entry's products in its own order; every entry
        # lies within 4 eps of the largest entry of a reference rounded far less
        for name, system in exact_systems.items():
            gram = assemble_gram(system.functionals, Matern52(theta))
            ref = long_double_gram(system.functionals, theta)
            assert np.max(np.abs(gram - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("theta", [0.1, 1.0, 17.0, 100.0])
    def test_unit_diracs_match_k_deriv_bits(self, theta):
        # one derivative order and unit weights: each entry is k_deriv's, summed in its order
        # (the cgc-pde start map is such a system)
        x = np.random.default_rng(3).uniform(0.1, 1.0, 100)
        gram = assemble_gram(tuple(map(LinearFunctional.dirac, x)), Matern52(theta))
        assert np.array_equal(gram, k_deriv(Matern52(theta), x[:, None], x[None, :], 0, 0))

    @LONG_DOUBLE
    @pytest.mark.parametrize("theta", [0.1, 1.0, 17.0, 100.0])
    def test_orders_at_shared_and_distinct_locations(self, theta):
        # terms drawn from six locations: one functional puts its orders at several
        # locations, or two orders at one, and the functionals share locations
        rng = np.random.default_rng(5)
        pool = rng.uniform(size=6)
        functionals = tuple(LinearFunctional.of_terms(*((pool[rng.integers(6)], order, rng.normal())
                                                        for order in orders))
                            for orders in ((0, 1, 2), (2, 2, 0), (1, 0), (0,), (2, 1, 1, 0)) * 6)
        gram = assemble_gram(functionals, Matern52(theta))
        ref = long_double_gram(functionals, theta)
        assert np.array_equal(gram, gram.T)
        assert np.max(np.abs(gram - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))

    @pytest.mark.parametrize("theta", [0.1, 1.0, 17.0, 100.0])
    def test_discrete_to_rounding(self, theta):
        # four order-0 terms per functional: their 16 products are summed in
        # another order than the scatter-adds
        functionals = cole_hopf_discrete_problem().system.functionals
        gram = assemble_gram(functionals, Matern52(theta))
        ref = gram_reference(functionals, Matern52(theta))
        assert np.max(np.abs(gram - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("theta", [0.1, 1.0, 17.0, 100.0])
    def test_three_order_functionals_to_rounding(self, theta):
        # no experiment mixes orders 0, 1 and 2 in one functional; for those an
        # entry sums its (a, b) blocks in another order than the scatter-adds
        rng = np.random.default_rng(7)
        functionals = tuple(LinearFunctional.of_terms(*((rng.uniform(), order, rng.normal()) for order in orders))
                            for orders in ((0, 1, 2), (2, 0, 1), (1, 2, 0, 1), (0, 2)) * 8)
        gram = assemble_gram(functionals, Matern52(theta))
        ref = gram_reference(functionals, Matern52(theta))
        assert np.array_equal(gram, gram.T)
        assert np.max(np.abs(gram - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_evaluate_matches_cross_times_alpha(self, exact_systems, order):
        pts = np.linspace(-0.2, 1.3, 57)
        for name, system in exact_systems.items():
            interp = fit(system, K1)
            ref = functional_cross_reference(K1, system.functionals, pts, order) @ interp.coefficients
            got = interp.evaluate(pts, order)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


@pytest.fixture(scope="module")
def read_systems():
    # the discrete system's 398 terms sit on 201 nodes and the pooled system's
    # 810 on 402, so a read sums coefficients on shared nodes first
    return {
        "discrete": cole_hopf_discrete_problem().system,
        "pooled": cole_hopf_multi_problem().system,
        "first-order": first_order_problem().system,
        "cole-hopf-200": cole_hopf_problem(200).system,
    }


class TestReadRounding:
    @pytest.mark.parametrize("theta", [0.3, 1.0, 17.0])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_evaluate_within_dot_product_rounding(self, read_systems, theta, order):
        # a read is a dot product of kernel entries with per-term coefficients;
        # summing its terms in another order moves it by at most a few ulps of
        # the sum of absolute products (a relative bound on the value fails on
        # the discrete system, whose coefficients reach 6.7e3 and cancel)
        kernel = Matern52(theta)
        pts = np.linspace(-0.2, 1.3, 57)
        for name, system in read_systems.items():
            interp = fit(system, kernel)
            nodes, node, orders, weights, owner = _flatten(system.functionals)
            locs = nodes[node]
            coeffs = np.abs(weights * interp.coefficients[owner])
            scale = sum(np.abs(k_deriv(kernel, pts[:, None], locs[orders == b][None, :], order, int(b)))
                        @ coeffs[orders == b] for b in np.unique(orders))
            ref = functional_cross_reference(kernel, system.functionals, pts, order) @ interp.coefficients
            got = interp.evaluate(pts, order)
            assert np.all(np.abs(got - ref) <= 1e-14 * scale), name

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_cgc_pde_map_within_dot_product_rounding(self, saved_kinds, order):
        # the saved cgc-pde map weighs its value and slope terms by the data's scales and a / u^2
        interp = saved_kinds["cgc-pde"]
        nodes, node, orders, weights, owner = interp.terms
        locs = nodes[node]
        pts = np.linspace(locs.min() - 0.1, locs.max() + 0.1, 57)
        coeffs = np.abs(weights * interp.coefficients[owner])
        scale = sum(np.abs(k_deriv(interp.kernel, pts[:, None], locs[orders == b][None, :], order, int(b)))
                    @ coeffs[orders == b] for b in np.unique(orders))
        ref = functional_cross_reference(interp.kernel, interp.functionals, pts, order) @ interp.coefficients
        assert np.all(np.abs(interp.evaluate(pts, order) - ref) <= 1e-14 * scale)


class TestFit:
    def test_empty_system_rejected(self):
        with pytest.raises(InvalidInputError):
            ConstraintSystem((), np.zeros(0))

    def test_zero_targets_give_zero_interpolant(self):
        sys0 = dirac_system([0.0, 0.4, 1.0], np.zeros(3))
        interp = fit(sys0, K1, nugget=1e-10)
        np.testing.assert_array_equal(interp.coefficients, 0.0)
        assert interp(0.7) == 0.0

    def test_interpolates_own_constraints(self):
        sys2 = dirac_system([0.0, 1.0], [1.0, 0.0])
        interp = fit(sys2, K1, nugget=1e-10)
        assert interp(0.0) == pytest.approx(1.0, abs=1e-6)
        assert interp(1.0) == pytest.approx(0.0, abs=1e-6)

    def test_cole_hopf_n25_error_in_band(self):
        # Table row (B), N=25: 1.9232e-2 within a factor of 10
        from gpmaps.transforms import relative_l2

        prob = cole_hopf_problem(25)
        interp = fit(prob.system, K1)
        rel = relative_l2(interp, prob.truth, prob.eval_points)
        assert 1.9232e-3 <= rel <= 1.9232e-1

    def test_residual_bound(self):
        prob = cole_hopf_problem(30)
        interp = fit(prob.system, K1)
        resid = constraint_residuals(interp, prob.system)
        lam = interp.nugget
        bound = 10 * lam * np.max(np.abs(interp.coefficients)) + 1e-10
        assert resid.max() <= bound

    def test_linearity_in_targets(self):
        sys1 = dirac_system([0.0, 0.5, 1.0], [1.0, 0.3, -0.2])
        sys3 = ConstraintSystem(sys1.functionals, 3.0 * sys1.targets)
        d1, d3 = fit(sys1, K1, nugget=1e-10), fit(sys3, K1, nugget=1e-10)
        pts = np.linspace(-0.5, 1.5, 17)
        np.testing.assert_allclose(d3.evaluate(pts), 3.0 * d1.evaluate(pts), rtol=1e-12)

    def test_ode_satisfied_at_collocation(self):
        # derivative evaluations of the fit plugged into the defining equation
        prob = cole_hopf_problem(25)
        interp = fit(prob.system, K1)
        u = prob.us
        resid = 0.5 * interp.evaluate(u, 2) + 0.5 * interp.evaluate(u, 1)
        bound = 10 * interp.nugget * max(1.0, np.max(np.abs(interp.coefficients)))
        assert np.max(np.abs(resid)) <= bound

    @pytest.mark.parametrize("solve", [fit, rkhs_norm_sq])
    @pytest.mark.parametrize("nugget", [0.0, -1.0])
    def test_nonpositive_nugget_rejected(self, solve, nugget):
        with pytest.raises(InvalidInputError, match="nugget"):
            solve(dirac_system([0.0, 1.0], [1.0, 0.0]), K1, nugget=nugget)

    def test_given_nugget_is_the_one_used(self):
        assert fit(dirac_system([0.0, 1.0], [1.0, 0.0]), K1, nugget=3e-9).nugget == 3e-9

    def test_evaluate_derivatives_match_fd(self):
        sys1 = dirac_system([0.0, 0.4, 0.8, 1.3], [1.0, 0.2, -0.4, 0.1])
        interp = fit(sys1, K1, nugget=1e-10)
        h = 1e-5
        for u in (0.21, 0.63, 1.05):
            fd1 = (interp(u + h) - interp(u - h)) / (2 * h)
            fd2 = (interp(u + h) - 2 * interp(u) + interp(u - h)) / h**2
            assert interp.evaluate(u, 1) == pytest.approx(fd1, rel=1e-4)
            assert interp.evaluate(u, 2) == pytest.approx(fd2, rel=1e-4, abs=1e-4)


class TestTermValidation:
    @pytest.mark.parametrize("location, weight", [
        (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.5, np.nan), (0.5, np.inf), (0.5, -np.inf),
    ])
    def test_nonfinite_term_rejected(self, location, weight):
        with pytest.raises(InvalidInputError):
            FunctionalTerm(location, 1, weight)

    def test_numpy_scalars_accepted(self):
        term = FunctionalTerm(np.float64(0.25), 2, np.float64(-3.0))
        assert (term.location, term.weight) == (0.25, -3.0)


class TestRkhsNorm:
    def test_zero_targets(self):
        assert rkhs_norm_sq(dirac_system([0.0, 1.0], np.zeros(2)), K1, nugget=1e-10) == 0.0

    def test_single_constraint_norm_is_inverse_prior(self):
        sys1 = dirac_system([0.0], [1.0])
        assert rkhs_norm_sq(sys1, K1, nugget=1e-14) == pytest.approx(1.0, rel=1e-10)

    def test_monotone_under_appended_constraints(self):
        prob = cole_hopf_problem(30)
        f = prob.system.functionals
        y = prob.system.targets
        order = RNG.permutation(len(f))
        prev = -np.inf
        for m in range(2, len(f) + 1, 5):
            keep = np.sort(order[:m])
            sub = ConstraintSystem(tuple(f[i] for i in keep), y[keep])
            q = rkhs_norm_sq(sub, K1, nugget=1e-10)
            assert q >= prev - 1e-10
            prev = q


class TestJitter:
    def test_escalation_recovers(self):
        m = np.diag([1.0, 1.0, -1e-8])
        _, lam_used = _factor_with_escalation(m, 1e-10)
        assert lam_used > 1e-10

    @pytest.mark.parametrize("shift", [0.0, -1e-5])
    def test_factor_is_lower_and_input_unchanged(self, shift):
        # the smallest eigenvalue of this Gram is 4.6e-6: shifted by -1e-5 it
        # factors only once the nugget has escalated to 1e-5
        gram = assemble_gram(dirac_system(np.linspace(0.0, 1.0, 12), np.zeros(12)).functionals, K1)
        gram[np.diag_indices_from(gram)] += shift
        before = gram.copy()
        factor, lam_used = _factor_with_escalation(gram, 1e-8)
        assert (lam_used > 1e-8) == (shift < 0)
        assert np.array_equal(gram, before)
        assert np.all(np.triu(factor, 1) == 0.0)
        np.testing.assert_allclose(factor @ factor.T, gram + lam_used * np.eye(12), rtol=0, atol=1e-14)

    def test_failure_raises_with_condition(self):
        m = np.diag([1.0, -1.0])
        with pytest.raises(SingularSystemError) as err:
            _factor_with_escalation(m, 1e-10)
        assert err.value.condition is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_factor_raises(self, bad):
        # numpy factors a NaN or inf entry without raising; the factor's diagonal shows it
        m = np.eye(3)
        m[2, 0] = m[0, 2] = bad
        with pytest.raises(SingularSystemError, match="test matrix has a non-finite") as err:
            _cholesky(m, 1e-8, "test matrix")
        assert err.value.condition == np.inf
        with pytest.raises(SingularSystemError, match="after 4 jitter escalations"):
            _factor_with_escalation(m, 1e-8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gram_raises_before_factoring(self, monkeypatch):
        # s^4 = (sqrt(5) / theta)^4 overflows, so the Gram and its trace are NaN: no nugget
        # can make it factorizable, and the fit raises without escalating a NaN nugget;
        # a fit given its nugget still factors and escalates it
        system = cole_hopf_problem(10).system
        with pytest.raises(SingularSystemError, match="after 4 jitter escalations"):
            fit(system, Matern52(1e-100), nugget=1e-8)
        calls = []
        monkeypatch.setattr(gp, "_cholesky", lambda *args: calls.append(args))
        with pytest.raises(SingularSystemError, match="non-finite trace") as err:
            fit(system, Matern52(1e-100))
        assert calls == [] and err.value.condition == np.inf
        with pytest.raises(SingularSystemError, match="non-finite trace"):
            default_nugget(np.array([[1.0, 0.0], [0.0, np.inf]]))


def solved_system(name):
    """(A, Y) of a system the package solves: a Table 1 fit ("N25"-"N200") or the pooled fit, as G + lam I at the
    fixed lengthscale and default nugget, or the cgc-pde map system Phi~ + I at its start a on 100 samples."""
    if name == "cgc-pde-start":
        _, u = dynamics.get_initial_condition("firstorder-paper").sample(100)
        problem = cgc.CgcPdeProblem(u_data=u)
        weights, a = cgc._start(problem)
        d, y = cgc._scaled(problem, weights)
        b0, b1, b2 = problem._blocks
        phi = d[:, None] * (b0 + a * b1 + (a * a) * b2) * d[None, :]
        return phi + np.eye(d.size), y
    system = cole_hopf_multi_problem().system if name == "pooled" else cole_hopf_problem(int(name[1:])).system
    gram = system._gram_plan.gram(K1)
    return gram + default_nugget(gram) * np.eye(len(system)), system.targets


class TestFactorInverse:
    # the inverse joins diagonal blocks pairwise at widths 1, 2, 4, ...: sizes at and around a
    # power of two have only whole pairs, or a short last pair at some widths
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 64, 65, 406])
    def test_matches_solve_on_random_factors(self, n):
        x = np.random.default_rng(n).standard_normal((n, n))
        factor = np.linalg.cholesky(x @ x.T / n + 1e-2 * np.eye(n))
        inverse = _factor_inverse(factor)
        reference = np.linalg.solve(factor, np.eye(n))
        assert np.all(np.triu(inverse, 1) == 0.0)
        assert np.linalg.norm(inverse - reference) <= 1e-14 * np.linalg.norm(reference)

    @pytest.mark.parametrize("name", ["N25", "N50", "N100", "N200", "pooled", "cgc-pde-start"])
    def test_solves_like_solve(self, name):
        # the pooled matrix has condition 4e9, so the two solutions agree to about cond * eps;
        # each is backward stable, with a residual below eps relative to ||A|| ||x||
        matrix, targets = solved_system(name)
        inverse = _factor_inverse(_cholesky(matrix, 0.0, "test matrix"))
        solution = inverse.T @ (inverse @ targets)
        reference = np.linalg.solve(matrix, targets)
        eps = np.finfo(float).eps
        assert np.linalg.norm(solution - reference) <= 50 * eps * np.linalg.cond(matrix) * np.linalg.norm(reference)
        residual = np.linalg.norm(matrix @ solution - targets)
        assert residual <= eps * np.linalg.norm(matrix, 2) * np.linalg.norm(solution)


class TestReadValidation:
    @pytest.mark.parametrize("order", [-1, 3])
    def test_unsupported_order_rejected(self, order):
        interp = fit(dirac_system([0.0, 1.0], [1.0, 0.0]), K1, nugget=1e-10)
        with pytest.raises(UnsupportedDerivativeError):
            interp.evaluate(0.5, order)

    def test_non_matern_kernel_rejected(self):
        interp = Interpolant(HomogeneousPolynomial(4), _flatten((LinearFunctional.dirac(0.0),)), [1.0])
        with pytest.raises(UnsupportedDerivativeError):
            interp.evaluate(0.5)

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (1, 1)])
    def test_two_dimensional_points_rejected(self, shape):
        interp = fit(cole_hopf_problem(10).system, K1)
        with pytest.raises(InvalidInputError, match="1-D"):
            interp.evaluate(np.full(shape, 0.5))


@pytest.fixture(scope="module")
def fitted_systems():
    """The system and lengthscale of each map-fit kind the CLI saves."""
    return {
        "pooled": (cole_hopf_multi_problem().system, 0.7),  # term orders {1, 2}
        "discrete": (cole_hopf_discrete_problem().system, 2.0),  # four order-0 terms each
        "first-order": (first_order_problem().system, 1.3),  # term orders {0, 1}
        "cole-hopf": (cole_hopf_problem(10).system, 2.0),  # term orders {0, 1, 2}
    }


@pytest.fixture(scope="module")
def saved_kinds(fitted_systems):
    """One interpolant of each kind the CLI saves and reads back."""
    _, u_data = dynamics.get_initial_condition("firstorder-paper").sample(100)
    pde = cgc.cgc_pde_solve(cgc.CgcPdeProblem(u_data=u_data), config=DescentConfig(max_iters=50))
    # cgc-pde: a value and a slope term at each datum, and a Dirac at the anchor u = 1
    return {"cgc-pde": pde.interpolant,
            **{kind: fit(system, Matern52(theta)) for kind, (system, theta) in fitted_systems.items()}}


def per_term_config(interp, functionals):
    """The config as a writer walking :class:`FunctionalTerm` objects lays it out."""
    terms = [t for f in functionals for t in f.terms]
    nodes = sorted({t.location for t in terms})
    index = {x: i for i, x in enumerate(nodes)}
    return {
        "kernel": {"kind": "matern52", "theta": interp.kernel.theta},
        "nodes": nodes,
        "node": [index[t.location] for t in terms],
        "order": [t.deriv_order for t in terms],
        "weight": [t.weight for t in terms],
        "sizes": [len(f.terms) for f in functionals],
        "alpha": [float(a) for a in interp.coefficients],
        "nugget": interp.nugget,
    }


def nested_config(cfg):
    """``cfg`` in the nested layout of earlier versions: a list of ``[location, order, weight]`` per functional."""
    rows = [[cfg["nodes"][i], a, w] for i, a, w in zip(cfg["node"], cfg["order"], cfg["weight"])]
    cuts = np.cumsum([0, *cfg["sizes"]]).tolist()
    return {"kernel": cfg["kernel"], "functionals": [rows[i:j] for i, j in zip(cuts, cuts[1:])],
            "alpha": cfg["alpha"], "nugget": cfg["nugget"]}


class TestSerialization:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["cgc-pde", "pooled", "discrete", "first-order", "cole-hopf"])
    def test_round_trip(self, saved_kinds, kind, order):
        # a reloaded interpolant reads bit for bit what the in-memory one reads
        interp = saved_kinds[kind]
        restored = interpolant_from_config(json.loads(json.dumps(interpolant_to_config(interp))))
        nodes, node = interp.terms[:2]
        locs = nodes[node]
        pts = np.r_[np.linspace(locs.min(), locs.max(), 57), locs[:5]]
        np.testing.assert_array_equal(restored.evaluate(pts, order), interp.evaluate(pts, order))

    def test_cgc_pde_map_has_value_and_slope_terms(self, saved_kinds):
        nodes, node, orders, _, owners = saved_kinds["cgc-pde"].terms
        locs = nodes[node]
        assert np.array_equal(np.bincount(orders), [101, 100])
        assert locs[-1] == 1.0 and orders[-1] == 0 and np.sum(owners == owners[-1]) == 1

    @pytest.mark.parametrize("kind", ["pooled", "discrete", "first-order", "cole-hopf"])
    def test_table_writes_the_per_term_bytes(self, saved_kinds, fitted_systems, kind):
        interp, system = saved_kinds[kind], fitted_systems[kind][0]
        assert interp.functionals == system.functionals
        expected = json.dumps(per_term_config(interp, system.functionals))
        assert json.dumps(interpolant_to_config(interp)) == expected
        assert json.dumps(interpolant_to_config(interpolant_from_config(json.loads(expected)))) == expected

    def test_is_json_serializable(self):
        interp = fit(ConstraintSystem((LinearFunctional((FunctionalTerm(0.0, 1, 2.0),)),), [0.5]), K1)
        doc = json.dumps(interpolant_to_config(interp))
        assert interpolant_from_config(json.loads(doc)).evaluate(0.3, 1) == interp.evaluate(0.3, 1)


def malformed(cfg):
    """Copies of a valid config, each broken in one way.

    The config holds the terms (0.5, 0, 1), (0.5, 1, 2) and (1, 0, 1) on the
    nodes [0.5, 1], in two functionals of sizes [2, 1]. The cases named after
    a term of the nested layout of earlier versions break a term's columns
    the same way.
    """
    def edit(change):
        doc = json.loads(json.dumps(cfg))
        change(doc)
        return doc

    def set_first(key, value):
        return edit(lambda doc: doc[key].__setitem__(0, value))

    return {
        "a list": [cfg],
        "order x": set_first("order", "x"),
        "order 1.5": set_first("order", 1.5),
        "order 3": set_first("order", 3),
        "order -1": set_first("order", -1),
        "infinite location": set_first("nodes", float("inf")),
        "nan weight": set_first("weight", float("nan")),
        "two-entry term": edit(lambda doc: doc["weight"].pop()),  # the last term has no weight
        "four-entry term": set_first("weight", [1.0, 2.0]),  # the first term has two weights
        "three-character term": edit(lambda doc: doc.update(order="100")),
        "empty functional": edit(lambda doc: (doc["sizes"].append(0), doc["alpha"].append(1.0))),
        "no functionals": edit(lambda doc: doc.update(nodes=[], node=[], order=[], weight=[], sizes=[], alpha=[])),
        "extra coefficient": edit(lambda doc: doc["alpha"].append(1.0)),
        "missing alpha": edit(lambda doc: doc.pop("alpha")),
        "nan alpha": set_first("alpha", float("nan")),
        "infinite alpha": set_first("alpha", float("inf")),
        "nan nugget": edit(lambda doc: doc.update(nugget=float("nan"))),
        "infinite theta": edit(lambda doc: doc["kernel"].update(theta=float("inf"))),
        "functionals not a list": edit(lambda doc: doc.update(sizes=3)),
        "node out of range": set_first("node", 2),
        "negative node": set_first("node", -1),
        "non-integral node": set_first("node", 0.5),
        "size zero": edit(lambda doc: doc.update(sizes=[3, 0])),
        "negative size": edit(lambda doc: doc.update(sizes=[4, -1])),
        "non-integral sizes": edit(lambda doc: doc.update(sizes=[1.5, 1.5])),
        "sizes short of the terms": edit(lambda doc: doc.update(sizes=[1, 1])),
        "order column longer": edit(lambda doc: doc["order"].append(0)),
        "nested layout": nested_config(cfg),
    }


class TestLoaderValidation:
    CFG = interpolant_to_config(fit(ConstraintSystem(
        (LinearFunctional.of_terms((0.5, 0, 1.0), (0.5, 1, 2.0)), LinearFunctional.dirac(1.0)), [0.0, 1.0]), K1))

    @pytest.mark.parametrize("case", sorted(malformed(CFG)))
    def test_malformed_config_rejected(self, case):
        with pytest.raises(InvalidInputError):
            interpolant_from_config(malformed(self.CFG)[case])

    def test_integral_float_orders_accepted(self):
        doc = json.loads(json.dumps(self.CFG))
        doc["order"][1] = 1.0
        assert interpolant_from_config(doc).evaluate(0.3, 1) == interpolant_from_config(self.CFG).evaluate(0.3, 1)


def fresh(interp):
    """A copy of ``interp`` that has read nothing yet."""
    return Interpolant(interp.kernel, interp.terms, interp.coefficients, interp.nugget)


class CountingExp:
    """Counts the ``np.exp`` calls made while it is installed."""

    def __init__(self, monkeypatch):
        self.calls, exp = 0, np.exp

        def counting(*args, **kwargs):
            self.calls += 1
            return exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counting)


class TestThreeOrderRead:
    @pytest.mark.parametrize("kind", ["cgc-pde", "pooled", "discrete", "first-order", "cole-hopf"])
    def test_any_order_sequence_reads_the_single_order_bits(self, saved_kinds, kind):
        interp = saved_kinds[kind]
        nodes, node = interp.terms[:2]
        locs = nodes[node]
        pts = np.r_[np.linspace(locs.min(), locs.max(), 57), locs[:5]]
        alone = [fresh(interp).evaluate(pts, order) for order in (0, 1, 2)]
        for orders in itertools.permutations((0, 1, 2)):
            reader = fresh(interp)
            for order in orders:
                np.testing.assert_array_equal(reader.evaluate(pts, order), alone[order])

    def test_one_exp_per_node_set(self, saved_kinds, monkeypatch):
        # the pooled map's order-1 and order-2 terms sit on two location sets, 402 distinct
        # locations in all; a read takes them as one node set, so orders 0-2 cost one exp
        interp = fresh(saved_kinds["pooled"])
        exp = CountingExp(monkeypatch)
        pts = np.linspace(0.0, 1.0, 200)
        for order in (0, 1, 2):
            interp.evaluate(pts, order)
        assert exp.calls == 1 and interp._read_plan[1].size == 402

    def test_other_points_are_read_afresh(self, saved_kinds, monkeypatch):
        interp = fresh(saved_kinds["cole-hopf"])
        pts = np.linspace(0.0, 1.0, 9)
        moved = pts.copy()
        moved[4] += 0.01
        expected = fresh(interp).evaluate(moved, 1)
        exp = CountingExp(monkeypatch)
        interp.evaluate(pts, 0)
        interp.evaluate(pts, 1)
        assert exp.calls == 1  # one exp per read
        pts[4] += 0.01  # the same array, changed in place
        np.testing.assert_array_equal(interp.evaluate(pts, 1), expected)
        assert exp.calls == 2
        interp.evaluate(np.linspace(0.0, 1.0, 8), 1)
        assert exp.calls == 3
        for u in (0.0, -0.0, np.array([-0.0]), -0.0, 0.0):
            interp.evaluate(u, 2)
        assert exp.calls == 8
        interp.evaluate(0.0, 0)
        assert exp.calls == 8

    def test_scalar_and_one_element_reads_keep_their_types(self, saved_kinds):
        interp = fresh(saved_kinds["first-order"])
        value = interp.evaluate(0.4, 1)
        array = interp.evaluate(np.array([0.4]), 1)
        assert isinstance(value, float) and array.shape == (1,) and array[0] == value

    def test_returned_array_is_the_callers(self, saved_kinds):
        interp = fresh(saved_kinds["cgc-pde"])
        pts = np.linspace(0.2, 1.0, 50)
        first = interp.evaluate(pts, 1)
        expected = first.copy()
        first[:] = 0.0
        np.testing.assert_array_equal(interp.evaluate(pts, 1), expected)
        assert interp.evaluate(pts, 1) is not interp.evaluate(pts, 1)

    def test_kept_vectors_bound_the_extra_memory(self):
        # traced peak of orders 0, 1, 2 read at the pooled map's 404 data points, less its three
        # 404 x 402 basis matrices: per-order reads peaked at 3,908,840 bytes, 20,696 over the
        # 404 x 401 matrices of each order's own nodes; the shared read on all 402 distinct
        # locations peaks at 3,921,841, 24,049 over them. The bound adds the kept vectors: three
        # results and the key, 4 x 404 floats
        problem = cole_hopf_multi_problem()
        interp = fit(problem.system, Matern52(0.7))
        # the read plan is built here, outside the traced reads
        basis = problem.us.size * interp._read_plan[1].size * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reads = [interp.evaluate(problem.us, order) for order in (0, 1, 2)]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert problem.us.size == 404 and len(reads) == 3
        assert peak - 3 * basis <= 20_696 + 4 * 404 * 8
