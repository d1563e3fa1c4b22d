import numpy as np
import pytest

from gpmaps.exceptions import InvalidInputError, SingularSystemError
from gpmaps.gp import (
    ConstraintSystem,
    FunctionalTerm,
    Interpolant,
    LinearFunctional,
    _factor_with_escalation,
    assemble_gram,
    constraint_residuals,
    fit,
    interpolant_from_config,
    interpolant_to_config,
    rkhs_norm_sq,
)
from gpmaps.kernels import Matern52
from gpmaps.transforms import cole_hopf_problem

RNG = np.random.default_rng(11)
K1 = Matern52(1.0)


def dirac_system(locs, targets, nugget=1e-10):
    return ConstraintSystem(tuple(LinearFunctional.dirac(x) for x in locs), targets, nugget=nugget)


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


class TestFit:
    def test_empty_system_rejected(self):
        with pytest.raises(InvalidInputError):
            ConstraintSystem((), np.zeros(0))

    def test_zero_targets_give_zero_interpolant(self):
        sys0 = dirac_system([0.0, 0.4, 1.0], np.zeros(3))
        interp = fit(sys0, K1)
        np.testing.assert_array_equal(interp.coefficients, 0.0)
        assert interp(0.7) == 0.0

    def test_interpolates_own_constraints(self):
        sys2 = dirac_system([0.0, 1.0], [1.0, 0.0])
        interp = fit(sys2, K1)
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
        sys3 = ConstraintSystem(sys1.functionals, 3.0 * sys1.targets, nugget=sys1.nugget)
        d1, d3 = fit(sys1, K1), fit(sys3, K1)
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

    def test_evaluate_derivatives_match_fd(self):
        sys1 = dirac_system([0.0, 0.4, 0.8, 1.3], [1.0, 0.2, -0.4, 0.1])
        interp = fit(sys1, K1)
        h = 1e-5
        for u in (0.21, 0.63, 1.05):
            fd1 = (interp(u + h) - interp(u - h)) / (2 * h)
            fd2 = (interp(u + h) - 2 * interp(u) + interp(u - h)) / h**2
            assert interp.evaluate(u, 1) == pytest.approx(fd1, rel=1e-4)
            assert interp.evaluate(u, 2) == pytest.approx(fd2, rel=1e-4, abs=1e-4)


class TestRkhsNorm:
    def test_zero_targets(self):
        assert rkhs_norm_sq(dirac_system([0.0, 1.0], np.zeros(2)), K1) == 0.0

    def test_single_constraint_norm_is_inverse_prior(self):
        sys1 = dirac_system([0.0], [1.0], nugget=1e-14)
        assert rkhs_norm_sq(sys1, K1) == pytest.approx(1.0, rel=1e-10)

    def test_monotone_under_appended_constraints(self):
        prob = cole_hopf_problem(30)
        f = prob.system.functionals
        y = prob.system.targets
        order = RNG.permutation(len(f))
        prev = -np.inf
        for m in range(2, len(f) + 1, 5):
            keep = np.sort(order[:m])
            sub = ConstraintSystem(tuple(f[i] for i in keep), y[keep], nugget=1e-10)
            q = rkhs_norm_sq(sub, K1)
            assert q >= prev - 1e-10
            prev = q


class TestJitter:
    def test_escalation_recovers(self):
        m = np.diag([1.0, 1.0, -1e-8])
        _, lam_used = _factor_with_escalation(m, 1e-10)
        assert lam_used > 1e-10

    def test_failure_raises_with_condition(self):
        m = np.diag([1.0, -1.0])
        with pytest.raises(SingularSystemError) as err:
            _factor_with_escalation(m, 1e-10)
        assert err.value.condition is not None


class TestSerialization:
    def test_round_trip(self):
        prob = cole_hopf_problem(10)
        interp = fit(prob.system, Matern52(2.0))
        restored = interpolant_from_config(interpolant_to_config(interp))
        pts = np.linspace(0, 2, 11)
        np.testing.assert_array_equal(restored.evaluate(pts), interp.evaluate(pts))

    def test_is_json_serializable(self):
        import json

        interp = Interpolant(K1, (LinearFunctional((FunctionalTerm(0.0, 1, 2.0),)),), [0.5])
        doc = json.dumps(interpolant_to_config(interp))
        assert interpolant_from_config(json.loads(doc)).evaluate(0.3, 1) == interp.evaluate(0.3, 1)
