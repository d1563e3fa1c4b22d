import logging

import numpy as np
import pytest

from gpmaps import gp, kernel_learning
from gpmaps.exceptions import InvalidInputError, SingularSystemError
from gpmaps.gp import ConstraintSystem, assemble_gram, fit
from gpmaps.kernel_learning import LOO_NUGGET, REFINE_WIDTH, THETA_GRID, learn_theta, rho_loo, rho_loo_naive
from gpmaps.kernels import Matern52
from gpmaps.transforms import (
    cole_hopf_multi_problem,
    cole_hopf_problem,
    corrupt_targets,
    first_order_problem,
    relative_l2,
)


@pytest.fixture(scope="module")
def cole25():
    return cole_hopf_problem(25)


#: Table 1's systems and the pooled fit, each with the number of rho evaluations learn_theta makes on it
SEARCHES = {
    "N25": (lambda: cole_hopf_problem(25), 17),
    "N50": (lambda: cole_hopf_problem(50), 19),
    "N100": (lambda: cole_hopf_problem(100), 15),
    "N200": (lambda: cole_hopf_problem(200), 18),
    "pooled": (cole_hopf_multi_problem, 16),
}


@pytest.fixture(scope="module", params=list(SEARCHES))
def searched(request):
    return SEARCHES[request.param][0]()


def learn_theta_recording(problem, monkeypatch):
    """learn_theta's result and every lengthscale it passes to rho_loo, in order."""
    thetas = []

    def recording(theta, system, removable):
        thetas.append(theta)
        return rho_loo(theta, system, removable)

    with monkeypatch.context() as patch:
        patch.setattr(kernel_learning, "rho_loo", recording)
        return learn_theta(problem.system, problem.interior), thetas


def rho_loo_inverse_reference(theta, system, removable):
    """The downdate loss read off an explicit inverse B = (G + lam I)^{-1}."""
    gram = assemble_gram(system.functionals, Matern52(theta))
    b = np.linalg.inv(gram + LOO_NUGGET * np.eye(len(system)))
    y = system.targets
    by = b @ y
    q_full = float(y @ by)
    return float(np.mean(by[removable] ** 2 / (np.diag(b)[removable] * q_full)))


class TestRhoLoo:
    @pytest.mark.parametrize("targets", ["clean", "corrupt"])
    def test_fast_matches_naive(self, cole25, targets):
        # the downdate identity holds for any targets, not only the zero
        # interior targets of the built-in problems
        system = cole25.system
        if targets == "corrupt":
            system = corrupt_targets(system, cole25.interior)
        for theta in (0.5, 1.0, 7.3, 40.0):
            a = rho_loo(theta, system, cole25.interior)
            b = rho_loo_naive(theta, system, cole25.interior)
            assert a == pytest.approx(b, rel=1e-10)

    def test_in_unit_interval_across_grid(self, cole25):
        for theta in np.logspace(-1, 2, 13):
            rho = rho_loo(theta, cole25.system, cole25.interior)
            assert 0.0 <= rho <= 1.0

    def test_duplicate_pairs_give_tiny_rho(self):
        # each interior constraint appears twice: removal leaves its twin
        prob = cole_hopf_problem(10)
        f = list(prob.system.functionals)
        doubled = [f[0]] + f[1:-1] + f[1:-1] + [f[-1]]
        y = np.zeros(len(doubled))
        y[0] = 1.0
        system = ConstraintSystem(tuple(doubled), y)
        removable = np.arange(1, len(doubled) - 1)
        assert rho_loo(1.0, system, removable) <= 1e-3

    def test_target_scaling_invariance(self, cole25):
        scaled = ConstraintSystem(cole25.system.functionals, 5.0 * cole25.system.targets)
        for theta in (0.3, 1.0, 12.0):
            r1 = rho_loo(theta, cole25.system, cole25.interior)
            r2 = rho_loo(theta, scaled, cole25.interior)
            assert r1 == pytest.approx(r2, rel=1e-9)

    def test_matches_inverse_reference(self, cole25):
        for theta in np.logspace(-1, 2, 7):
            a = rho_loo(theta, cole25.system, cole25.interior)
            b = rho_loo_inverse_reference(theta, cole25.system, cole25.interior)
            assert a == pytest.approx(b, rel=1e-9)

    def test_failed_factorization_raises_singular(self, cole25, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")  # numpy's report of a failed Cholesky

        monkeypatch.setattr(gp, "cholesky", failing)
        with pytest.raises(SingularSystemError, match="theta=7.3"):
            rho_loo(7.3, cole25.system, cole25.interior)

    def test_too_few_interior(self, cole25):
        with pytest.raises(InvalidInputError):
            rho_loo(1.0, cole25.system, [1])


class TestLearnTheta:
    def test_refinement_never_hurts(self, cole25):
        # refinement competes with the best grid point, so it can only improve on the grid
        _, rho_star = learn_theta(cole25.system, cole25.interior)
        assert rho_star <= min(rho_loo(t, cole25.system, cole25.interior) for t in THETA_GRID)

    def test_learned_beats_default_in_rho_and_error(self, cole25):
        theta, rho_star = learn_theta(cole25.system, cole25.interior)
        assert rho_star <= rho_loo(1.0, cole25.system, cole25.interior)
        err_learned = relative_l2(fit(cole25.system, Matern52(theta)), cole25.truth, cole25.eval_points)
        err_plain = relative_l2(fit(cole25.system, Matern52(1.0)), cole25.truth, cole25.eval_points)
        assert err_learned < err_plain

    @pytest.mark.parametrize("n", [25, 50])
    def test_same_theta_as_inverse_reference(self, n, monkeypatch):
        prob = cole_hopf_problem(n)
        theta, _ = learn_theta(prob.system, prob.interior)
        monkeypatch.setattr(kernel_learning, "rho_loo", rho_loo_inverse_reference)
        theta_ref, _ = learn_theta(prob.system, prob.interior)
        assert theta == theta_ref

    def test_deterministic(self, cole25):
        out1 = learn_theta(cole25.system, cole25.interior)
        out2 = learn_theta(cole25.system, cole25.interior)
        assert out1 == out2

    def test_theta_star_invariant_to_target_scaling(self, cole25):
        scaled = ConstraintSystem(cole25.system.functionals, -2.0 * cole25.system.targets)
        t1, _ = learn_theta(cole25.system, cole25.interior)
        t2, _ = learn_theta(scaled, cole25.interior)
        assert t1 == pytest.approx(t2, rel=1e-12)

    def test_theta_star_bit_identical_under_target_scaling(self, searched):
        # rho is invariant to the scale of the targets up to rounding; the search's
        # lattice keeps that rounding out of theta*
        theta, _ = learn_theta(searched.system, searched.interior)
        for scale in (-3.0, 0.7, 1e3, -1.3e-2):
            scaled = ConstraintSystem(searched.system.functionals, scale * searched.system.targets)
            assert learn_theta(scaled, searched.interior)[0] == theta, scale


class TestSearchBudget:
    def test_fewer_rho_evaluations_than_the_golden_section_search(self, monkeypatch):
        # 7 grid points and 24 golden-section steps made 31 on every system
        for name, (build, calls) in SEARCHES.items():
            _, thetas = learn_theta_recording(build(), monkeypatch)
            assert len(thetas) <= calls < 31, name

    def test_search_stops_at_the_refine_width(self, searched, monkeypatch):
        # the nearest points evaluated on either side of theta* bound the final bracket
        (theta, _), thetas = learn_theta_recording(searched, monkeypatch)
        logs = np.log(thetas) - np.log(theta)
        left, right = logs[logs < 0.0].max(), logs[logs > 0.0].min()
        assert right - left <= REFINE_WIDTH * (1.0 + 1e-9)

    @pytest.mark.parametrize("build, theta_61", [
        (lambda: cole_hopf_problem(25), 23.078539),
        (lambda: cole_hopf_problem(50), 18.863163),
        (lambda: cole_hopf_problem(100), 15.306284),
        (lambda: cole_hopf_problem(200), 12.360662),
        (cole_hopf_multi_problem, 17.218908),
    ], ids=["N25", "N50", "N100", "N200", "pooled"])
    def test_same_theta_as_the_61_evaluation_search(self, build, theta_61):
        # theta* of a 41-point grid with 20 golden steps, to within both brackets
        prob = build()
        theta, _ = learn_theta(prob.system, prob.interior)
        assert abs(np.log(theta / theta_61)) <= 5e-5


class TestEdgeDiagnostic:
    def test_warns_when_the_best_grid_point_is_the_upper_end(self, caplog):
        # rho of the first-order map is still falling at theta = 100 (2.8e-4, 1.3e-4 at 200)
        prob = first_order_problem(100)
        with caplog.at_level(logging.WARNING, logger="gpmaps"):
            theta, _ = learn_theta(prob.system, prob.interior)
        assert theta == pytest.approx(THETA_GRID[-1], rel=1e-12)
        assert [(r.name, r.levelname) for r in caplog.records] == [("gpmaps.kernel_learning", "WARNING")]
        assert "end of THETA_GRID" in caplog.text

    def test_silent_inside_the_grid(self, cole25, caplog):
        with caplog.at_level(logging.DEBUG, logger="gpmaps"):
            learn_theta(cole25.system, cole25.interior)
        assert caplog.records == []


class TestPlanReuse:
    def test_learn_theta_flattens_the_functionals_once(self, monkeypatch):
        # every rho evaluation of the grid and the refinement shares one Gram plan
        prob = cole_hopf_problem(25)
        flatten, calls = gp._flatten, []

        def counting(functionals):
            calls.append(len(functionals))
            return flatten(functionals)

        monkeypatch.setattr(gp, "_flatten", counting)
        learn_theta(prob.system, prob.interior)
        assert calls == [len(prob.system)]

    def test_cached_plan_gives_the_rho_of_a_fresh_system(self, cole25):
        # evaluating the plan must leave it as built: the system's plan, reused
        # across the whole grid, agrees bit for bit with a new plan per theta
        system = cole25.system
        for theta in THETA_GRID:
            fresh = ConstraintSystem(system.functionals, system.targets)
            assert rho_loo(theta, system, cole25.interior) == rho_loo(theta, fresh, cole25.interior)
