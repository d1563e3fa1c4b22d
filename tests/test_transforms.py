import numpy as np
import pytest

from gpmaps.dynamics import Field1D, Grid1D, get_initial_condition
from gpmaps.exceptions import InvalidInputError
from gpmaps.gp import fit
from gpmaps.kernel_learning import learn_theta
from gpmaps.kernels import Matern52
from gpmaps.transforms import (
    MULTI_IC_NAMES,
    build_cole_hopf_discrete,
    build_cole_hopf_ode,
    build_first_order,
    cole_hopf_discrete_problem,
    cole_hopf_multi_problem,
    cole_hopf_problem,
    cole_hopf_truth,
    cole_hopf_truth_fn,
    corrupt_targets,
    first_order_problem,
    first_order_truth,
    first_order_truth_fn,
    norm_growth_diagnostic,
    relative_l2,
)

RNG = np.random.default_rng(5)


class TestTruthOracles:
    def test_cole_hopf_endpoints(self):
        assert cole_hopf_truth(0.0, 0.5) == pytest.approx(1.0, rel=1e-15)
        assert cole_hopf_truth(1.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_cole_hopf_midpoint(self):
        # direct evaluation: (e^-0.5 - e^-1) / (1 - e^-1)
        expected = (np.exp(-0.5) - np.exp(-1.0)) / (1.0 - np.exp(-1.0))
        assert cole_hopf_truth(0.5, 0.5) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.377541, abs=5e-7)

    def test_cole_hopf_strictly_decreasing(self):
        u = np.linspace(-2, 5, 100)
        assert np.all(np.diff(cole_hopf_truth(u, 0.5)) < 0)

    def test_cole_hopf_ode_annihilation(self):
        # nu*D'' + D'/2 = 0 exactly, at many random points, two nu values
        for nu in (0.5, 1.7):
            fn = cole_hopf_truth_fn(nu)
            u = RNG.uniform(-3, 6, 10_000)
            resid = nu * fn(u, 2) + 0.5 * fn(u, 1)
            scale = np.abs(nu * fn(u, 2))
            assert np.max(np.abs(resid) / scale) <= 1e-12

    def test_cole_hopf_truth_fn_value_is_the_truth(self):
        # one formula for the map's values, and the same positivity check on nu
        u = RNG.uniform(-3, 6, 1000)
        for nu in (0.5, 1.7):
            np.testing.assert_array_equal(cole_hopf_truth_fn(nu)(u), cole_hopf_truth(u, nu))
        for nu in (0.0, -0.5):
            with pytest.raises(InvalidInputError, match="nu"):
                cole_hopf_truth_fn(nu)

    def test_first_order_values(self):
        assert first_order_truth(1.0) == 1.0
        assert first_order_truth(0.0) == pytest.approx(np.exp(-1.0 / 3.0), rel=1e-15)
        assert np.exp(-1.0 / 3.0) == pytest.approx(0.716531, abs=5e-7)
        assert first_order_truth(4.0 ** (1.0 / 3.0)) == pytest.approx(np.e, rel=1e-12)

    def test_first_order_ode_annihilation(self):
        fn = first_order_truth_fn()
        u = RNG.uniform(0.2, 2.0, 10_000)
        resid = fn(u, 1) / u**2 - fn(u, 0)
        assert np.max(np.abs(resid) / np.abs(fn(u, 0))) <= 1e-12


class TestColeHopfOde:
    def test_size_and_target_pattern(self):
        system = build_cole_hopf_ode(np.linspace(0.1, 2.0, 25), 0.5)
        assert len(system) == 27
        assert system.targets[0] == 1.0
        assert np.all(system.targets[1:] == 0.0)

    def test_truth_annihilates_functionals(self):
        prob = cole_hopf_problem(20)
        fn = cole_hopf_truth_fn(0.5)
        resid = [abs(f.apply(fn) - y) for f, y in zip(prob.system.functionals, prob.system.targets)]
        assert max(resid) <= 1e-12

    def test_n100_error_in_band(self):
        # Table row (B), N=100: 1.3532e-3 within a factor of 10
        prob = cole_hopf_problem(100)
        rel = relative_l2(fit(prob.system, Matern52(1.0)), prob.truth, prob.eval_points)
        assert 1.3532e-4 <= rel <= 1.3532e-2

    def test_monotone_error_decay(self):
        errs = []
        for n in (25, 50, 100, 200):
            prob = cole_hopf_problem(n)
            errs.append(relative_l2(fit(prob.system, Matern52(1.0)), prob.truth, prob.eval_points))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_learned_theta_dominates(self):
        for n in (25, 50, 100):
            prob = cole_hopf_problem(n)
            theta, _ = learn_theta(prob.system, prob.interior)
            err_a = relative_l2(fit(prob.system, Matern52(theta)), prob.truth, prob.eval_points)
            err_b = relative_l2(fit(prob.system, Matern52(1.0)), prob.truth, prob.eval_points)
            assert err_a <= err_b

    def test_empty_samples_rejected(self):
        with pytest.raises(InvalidInputError):
            build_cole_hopf_ode(np.array([]), 0.5)


class TestColeHopfDiscrete:
    def test_structure(self):
        prob = cole_hopf_discrete_problem(dx=0.01, h=1e-4)
        interior = prob.system.functionals[1:-1]
        for f in interior:
            assert len(f.terms) == 4
            assert sum(t.weight for t in f.terms) == pytest.approx(0.0, abs=1e-12)

    def test_truth_residual_small(self):
        # stencil + stepper truncation only once the edge drift is restored
        prob = cole_hopf_discrete_problem(dx=0.01, h=1e-4)
        fn = cole_hopf_truth_fn(0.5)
        resid = [abs(f.apply(fn) - y) for f, y in zip(prob.system.functionals, prob.system.targets)]
        assert max(resid) <= 1e-3
        assert max(resid) <= 5e-6

    def test_agrees_with_ode_path(self):
        prob = cole_hopf_discrete_problem(dx=0.01, h=1e-4)
        d_disc = fit(prob.system, Matern52(1.0))
        ode = cole_hopf_problem(99)
        d_ode = fit(ode.system, Matern52(1.0))
        pts = prob.eval_points
        rel = np.linalg.norm(d_disc.evaluate(pts) - d_ode.evaluate(pts)) / np.linalg.norm(d_ode.evaluate(pts))
        assert rel <= 1e-2

    @pytest.mark.parametrize("dx", [np.nan, np.inf, 0.0, -0.01])
    def test_bad_dx_rejected(self, dx):
        with pytest.raises(InvalidInputError, match="dx"):
            cole_hopf_discrete_problem(dx=dx)

    @pytest.mark.parametrize("dx", [0.015, 0.03, 0.07])
    def test_dx_not_dividing_the_interval_rejected(self, dx):
        # the grid would end at x = 1.005, 0.99 or 0.98, not at the interval's end x = 1
        with pytest.raises(InvalidInputError, match="does not divide"):
            cole_hopf_discrete_problem(dx=dx)

    def test_too_small_grid(self):
        grid = Grid1D(0.0, 0.25, 4)
        with pytest.raises(InvalidInputError):
            build_cole_hopf_discrete(Field1D(grid, np.ones(4)), 0.5, 1e-4)


class TestMulti:
    def test_pooled_size(self):
        prob = cole_hopf_multi_problem(MULTI_IC_NAMES, 101, 0.5)
        assert len(prob.system) == 4 * 101 + 2
        assert prob.labels == tuple(name for name in MULTI_IC_NAMES for _ in range(101))

    def test_single_ic_reduces_to_ode_builder(self):
        # one IC at a time and all four pooled: the ODE builder on the concatenated samples
        samples = {name: get_initial_condition(name).sample(25)[1] for name in MULTI_IC_NAMES}
        for names in [(name,) for name in MULTI_IC_NAMES] + [MULTI_IC_NAMES]:
            s1 = build_cole_hopf_ode(np.concatenate([samples[name] for name in names]), 0.5)
            s2 = cole_hopf_multi_problem(names, 25, 0.5).system
            assert s1.functionals == s2.functionals
            np.testing.assert_array_equal(s1.targets, s2.targets)

    def test_unknown_ic(self):
        with pytest.raises(InvalidInputError):
            cole_hopf_multi_problem(["nope"], 10, 0.5)

    def test_no_ic_rejected(self):
        with pytest.raises(InvalidInputError, match="ic_names"):
            cole_hopf_multi_problem(ic_names=())

    def test_points_per_ic_must_be_positive(self):
        with pytest.raises(InvalidInputError, match="points_per_ic"):
            cole_hopf_multi_problem(points_per_ic=0)

    def test_pooled_fit_accuracy(self):
        prob = cole_hopf_multi_problem()
        theta, _ = learn_theta(prob.system, prob.interior)
        rel = relative_l2(fit(prob.system, Matern52(theta)), prob.truth, prob.eval_points)
        assert rel <= 1e-2


class TestFirstOrder:
    def test_size_and_targets(self):
        system = build_first_order(np.linspace(1.0, 1.7, 40))
        assert len(system) == 41
        assert system.targets[0] == 1.0
        assert np.all(system.targets[1:] == 0.0)

    def test_truth_annihilates(self):
        prob = first_order_problem(50)
        fn = first_order_truth_fn()
        resid = [abs(f.apply(fn) - y) for f, y in zip(prob.system.functionals, prob.system.targets)]
        assert max(resid) <= 1e-10

    def test_zero_sample_rejected(self):
        with pytest.raises(InvalidInputError, match="nonzero"):
            build_first_order(np.array([1.0, 0.0]))

    def test_fit_accuracy(self):
        prob = first_order_problem(100)
        rel = relative_l2(fit(prob.system, Matern52(1.0)), prob.truth, prob.eval_points)
        assert rel <= 1e-2


class TestRelativeL2:
    def test_exact_match(self):
        prob = first_order_problem(10)
        assert relative_l2(first_order_truth, prob.truth, prob.eval_points) == 0.0

    def test_double_truth(self):
        pts = np.linspace(1.0, 1.5, 7)
        assert relative_l2(lambda u: 2.0 * first_order_truth(u), first_order_truth, pts) == pytest.approx(1.0)

    def test_zero_learned(self):
        pts = np.linspace(1.0, 1.5, 7)
        assert relative_l2(lambda u: np.zeros_like(u), first_order_truth, pts) == pytest.approx(1.0)

    def test_empty_points_rejected(self):
        with pytest.raises(InvalidInputError):
            relative_l2(first_order_truth, first_order_truth, np.array([]))

    def test_zero_truth_rejected(self):
        with pytest.raises(InvalidInputError):
            relative_l2(first_order_truth, lambda u: np.zeros_like(u), np.linspace(0, 1, 5))


class TestNormGrowth:
    @staticmethod
    def _builder(inconsistent):
        def builder(n):
            prob = cole_hopf_problem(n)
            if inconsistent:
                return corrupt_targets(prob.system, prob.interior, seed=0)
            return prob.system

        return builder

    def test_consistent_bounded(self):
        pairs = norm_growth_diagnostic(self._builder(False), [100, 400], Matern52(1.0), nugget=1e-10)
        assert pairs[-1][1] / pairs[0][1] <= 1.5

    def test_inconsistent_grows(self):
        pairs = norm_growth_diagnostic(self._builder(True), [100, 400], Matern52(1.0), nugget=1e-10)
        assert pairs[-1][1] / pairs[0][1] >= 4.0

    def test_single_count(self):
        pairs = norm_growth_diagnostic(self._builder(False), [50], Matern52(1.0))
        assert len(pairs) == 1 and pairs[0][0] == 50

    def test_requires_increasing_counts(self):
        with pytest.raises(InvalidInputError):
            norm_growth_diagnostic(self._builder(False), [100, 100], Matern52(1.0))


class TestProblemWrappers:
    def test_structural_invariants_of_all_builders(self):
        from gpmaps.gp import assemble_gram

        problems = [
            cole_hopf_problem(12),
            cole_hopf_discrete_problem(dx=0.05, h=1e-4),
            cole_hopf_multi_problem(points_per_ic=11),
            first_order_problem(12),
        ]
        for prob in problems:
            assert prob.system.targets[0] == 1.0
            assert np.all(prob.system.targets[1:] == 0.0)
            gram = assemble_gram(prob.system.functionals, Matern52(1.0))
            eig = np.linalg.eigvalsh(gram)
            assert eig.min() >= -1e-8 * eig.max()
