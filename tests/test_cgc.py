import numpy as np
import pytest

from gpmaps import cgc as cgc_module
from gpmaps import gp
from gpmaps.cgc import (
    CgcPdeProblem,
    CgcPdeState,
    NfProblem,
    NfState,
    cgc_pde_grad,
    cgc_pde_loss,
    cgc_pde_loss_terms,
    cgc_pde_solve,
    nf_grad,
    nf_h_values,
    nf_loss,
    nf_loss_terms,
    nf_solve,
)
from gpmaps.dynamics import (
    Trajectory,
    _fd_transpose,
    brusselator_trajectory,
    first_difference,
    mu_from_AB,
    r_exact,
)
from gpmaps.exceptions import DivergedError, InvalidInputError, SingularSystemError
from gpmaps.kernels import k_deriv
from gpmaps.optim import DescentConfig
from gpmaps.transforms import first_order_problem

RNG = np.random.default_rng(17)


@pytest.fixture(scope="module")
def u_data():
    return first_order_problem(40).us


@pytest.fixture(scope="module")
def small_traj():
    return brusselator_trajectory(1.0, 2.1, n_samples=80)


MU = mu_from_AB(1.0, 2.1)


@pytest.fixture(scope="module")
def paper_nf():
    """The paper configuration's problem and its solve under the benchmark's 1,000 cap."""
    prob = NfProblem(brusselator_trajectory(1.0, 2.1), MU)
    return prob, nf_solve(prob, config=DescentConfig(max_iters=1000))


def test_term_dicts_hold_the_summed_terms_only(u_data, small_traj):
    # the weights live in result.weights; a term dict names exactly the terms whose sum is the loss
    pde, nf = CgcPdeProblem(u_data=u_data), NfProblem(small_traj, MU)
    pde_res = cgc_pde_solve(pde, config=DescentConfig(max_iters=50))
    nf_res = nf_solve(nf, config=DescentConfig(max_iters=50))
    pde_names = ["norm_g", "a_prior", "l1_weighted", "l2_weighted", "anchor_weighted"]
    nf_names = ["norm_h", "l1_weighted", "l2_weighted", "anchor_weighted"]
    assert list(pde_res.terms) == list(cgc_pde_loss_terms(pde, pde_res.state, pde_res.weights)) == pde_names
    assert list(nf_res.terms) == list(nf_loss_terms(nf, nf_res.state, nf_res.weights)) == nf_names
    assert sum(pde_res.terms.values()) == pytest.approx(pde_res.loss_trace[-1], rel=1e-14)
    assert sum(nf_res.terms.values()) == pytest.approx(nf_res.loss_trace[-1], rel=1e-14)


def fd_gradient(loss, x, h=1e-6):
    out = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (loss(xp) - loss(xm)) / (2 * h)
    return out


class TestPdeLoss:
    def test_truth_state_residuals_tiny(self, u_data):
        # at the true coefficient heavy weights leave the best map on the
        # equation and the anchor: both terms cost at most the truth's norm
        prob = CgcPdeProblem(u_data=u_data)
        lam = 1e6
        terms = cgc_pde_loss_terms(prob, CgcPdeState(-1.0), weights=(0.0, lam, lam))
        assert terms["l2_weighted"] / lam <= 1e-5
        assert terms["anchor_weighted"] / lam <= 1e-6

    def test_paper_init_loss_larger_than_truth(self, u_data):
        # holds once the equation term carries real weight: at a = 0 the map
        # must vanish on the data yet equal 1 at the anchor
        prob = CgcPdeProblem(u_data=u_data)
        w = (0.0, 200.0, 20000.0)
        init, truth = CgcPdeState(0.0), CgcPdeState(-1.0)
        assert np.isfinite(cgc_pde_loss(prob, init, w))
        assert cgc_pde_loss(prob, init, w) > cgc_pde_loss(prob, truth, w)

    def test_prior_is_a_squared(self, u_data):
        # the standard Gaussian prior on a: the terms other than a^2 do not see it
        prob, w = CgcPdeProblem(u_data=u_data), (0.0, 3.0, 7.0)
        for a in (-1.9, 0.4):
            t = cgc_pde_loss_terms(prob, CgcPdeState(a), w)
            assert t["a_prior"] == a * a
            assert cgc_pde_loss(prob, CgcPdeState(a), w) == \
                t["norm_g"] + a * a + t["l1_weighted"] + t["l2_weighted"] + t["anchor_weighted"]

    def test_zero_u_rejected(self):
        with pytest.raises(InvalidInputError):
            CgcPdeProblem(u_data=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("name", ["lambda1", "lambda2", "lambda3"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, u_data, name, value):
        # NaN fails no comparison with 0, so a sign check alone lets it through;
        # unchecked, it would surface as a singular factorization, not as bad input
        prob = CgcPdeProblem(u_data=u_data)
        weights = tuple(value if n == name else 1.0 for n in ("lambda1", "lambda2", "lambda3"))
        for f in (cgc_pde_loss_terms, cgc_pde_loss, cgc_pde_grad):
            with pytest.raises(InvalidInputError, match=name):
                f(prob, CgcPdeState(0.3), weights)

    @pytest.mark.parametrize("name", ["lambda1", "lambda2", "lambda3"])
    def test_negative_weight_rejected(self, u_data, name):
        # the problem holds no weights: each loss view checks the ones it is given
        prob = CgcPdeProblem(u_data=u_data)
        weights = tuple(-1.0 if n == name else 1.0 for n in ("lambda1", "lambda2", "lambda3"))
        for f in (cgc_pde_loss_terms, cgc_pde_loss, cgc_pde_grad):
            with pytest.raises(InvalidInputError, match=name):
                f(prob, CgcPdeState(0.3), weights)

    @pytest.mark.parametrize("weights", [(1.0, 1.0), (0.0, 1.0, 1.0, 1.0)])
    def test_weight_count_checked(self, u_data, weights):
        with pytest.raises(InvalidInputError, match="three weights"):
            cgc_pde_loss(CgcPdeProblem(u_data=u_data), CgcPdeState(0.3), weights)

    def test_weights_are_not_options(self, u_data):
        # no run ever set them: the solve always balances its weights at the identity map
        for name in ("lambda2", "lambda3"):
            with pytest.raises(TypeError, match=name):
                CgcPdeProblem(u_data=u_data, **{name: 1.0})

    def test_public_functions_are_views_of_one_evaluation(self, u_data):
        prob = CgcPdeProblem(u_data=u_data)
        state, w = CgcPdeState(0.3), (0.0, 3.0, 7.0)
        ev = cgc_module._evaluate(prob, cgc_module._scaled(prob, w), state.a)
        assert (cgc_pde_loss_terms(prob, state, w), cgc_pde_loss(prob, state, w), cgc_pde_grad(prob, state, w)) \
            == (ev.terms, ev.loss, ev.slope)
        t = ev.terms
        assert ev.loss == t["norm_g"] + t["a_prior"] + t["l1_weighted"] + t["l2_weighted"] + t["anchor_weighted"]

    def test_failed_factorization_raises_singular(self, u_data, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")  # numpy's report of a failed Cholesky

        monkeypatch.setattr(gp, "cholesky", failing)
        with pytest.raises(SingularSystemError, match="a = 0.25") as err:
            cgc_pde_grad(CgcPdeProblem(u_data=u_data), CgcPdeState(0.25), (0.0, 3.0, 7.0))
        assert err.value.condition is not None

    @pytest.mark.parametrize("arbitrary_a", [True, False])
    def test_gradient_matches_fd(self, u_data, arbitrary_a):
        prob = CgcPdeProblem(u_data=u_data)
        res = cgc_pde_solve(prob)
        w = res.weights
        # the solver stops where the slope vanishes
        a0 = 0.6 if arbitrary_a else res.state.a
        grad_a = cgc_pde_grad(prob, CgcPdeState(a0), w)
        if not arbitrary_a:
            assert abs(grad_a) <= 1e-9
        h = 1e-4
        fd = (cgc_pde_loss(prob, CgcPdeState(a0 + h), w) - cgc_pde_loss(prob, CgcPdeState(a0 - h), w)) / (2 * h)
        assert grad_a == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestPdeSolve:
    def test_reaches_a_stationary_point_below_truth(self):
        # the truth solves the equation but is not a minimum of the stated
        # loss: gentler maps are cheaper, so the exact solve ends at a local
        # minimum near a = -1.8008, below the loss at a = -1
        prob = CgcPdeProblem(u_data=first_order_problem(100).us)
        res = cgc_pde_solve(prob)
        assert res.converged
        assert res.state.a == pytest.approx(-1.8008, abs=1e-4)
        assert res.loss_trace[-1] <= cgc_pde_loss(prob, CgcPdeState(-1.0), res.weights)
        assert abs(cgc_pde_grad(prob, res.state, res.weights)) <= 1e-8

    def test_capped_solve_stops_at_max_iters(self, u_data):
        prob = CgcPdeProblem(u_data=u_data)
        res = cgc_pde_solve(prob, config=DescentConfig(max_iters=3))
        assert (res.converged, res.reason, res.iterations) == (False, "max_iters", 3)
        # the trace holds the start and the returned state only
        assert len(res.loss_trace) == 2
        assert res.loss_trace[1] <= res.loss_trace[0]

    def test_returns_a_local_minimum_of_the_profile(self, u_data):
        prob = CgcPdeProblem(u_data=u_data)
        res = cgc_pde_solve(prob)
        assert res.converged
        loss = res.loss_trace[-1]
        for da in (-1e-3, 1e-3):
            assert cgc_pde_loss(prob, CgcPdeState(res.state.a + da), res.weights) >= loss
        assert abs(cgc_pde_grad(prob, res.state, res.weights)) <= 1e-8

    def test_trace_nonincreasing(self, u_data):
        prob = CgcPdeProblem(u_data=u_data)
        res = cgc_pde_solve(prob, config=DescentConfig(max_iters=300))
        trace = np.asarray(res.loss_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_interpolant_matches_state(self, u_data):
        # the returned map is the one the loss terms at the returned a measure
        prob = CgcPdeProblem(u_data=u_data)
        res = cgc_pde_solve(prob, config=DescentConfig(max_iters=200))
        terms = cgc_pde_loss_terms(prob, res.state, res.weights)
        g = res.interpolant
        resid = g(u_data) + res.state.a * g.evaluate(u_data, 1) / u_data**2
        _, lam2, lam3 = res.weights
        assert lam2 * float(resid @ resid) == pytest.approx(terms["l2_weighted"], rel=1e-8)
        assert lam3 * (g(1.0) - 1.0) ** 2 == pytest.approx(terms["anchor_weighted"], rel=1e-8)
        assert res.interpolant.nugget == 1.0

    @pytest.mark.parametrize("max_iters", [3, 100, 300])
    def test_final_loss_is_loss_at_returned_state(self, u_data, max_iters):
        # the returned terms and the trace's end come from the evaluation at the returned a
        prob = CgcPdeProblem(u_data=u_data)
        res = cgc_pde_solve(prob, config=DescentConfig(max_iters=max_iters))
        terms = res.terms
        total = terms["norm_g"] + terms["a_prior"] + terms["l1_weighted"] + terms["l2_weighted"] \
            + terms["anchor_weighted"]
        assert total == res.loss_trace[-1]
        assert terms == cgc_pde_loss_terms(prob, res.state, res.weights)

    def test_each_a_factored_once(self, u_data, monkeypatch):
        # one factorization per slope evaluation: no a is factored again for its loss, its map or its terms
        whats = []
        original = cgc_module._cholesky

        def counting(matrix, lam, what):
            whats.append(what)
            return original(matrix, lam, what)

        monkeypatch.setattr(cgc_module, "_cholesky", counting)
        res = cgc_pde_solve(CgcPdeProblem(u_data=u_data))
        assert res.converged
        assert len(whats) == len(set(whats)) == res.iterations

    def test_interpolant_is_the_evaluated_map(self, u_data):
        # the saved map's coefficients are the evaluation's alpha~, not those of a second fit
        prob = CgcPdeProblem(u_data=u_data)
        res = cgc_pde_solve(prob, config=DescentConfig(max_iters=200))
        expected = cgc_module._evaluate(prob, cgc_module._scaled(prob, res.weights), res.state.a)
        assert np.array_equal(res.interpolant.coefficients, expected.alpha)

    def test_kernel_blocks_built_once_per_problem(self, u_data, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[3:])
            return k_deriv(*args)

        monkeypatch.setattr(cgc_module, "k_deriv", counting)
        counts = []
        for max_iters in (100, 300):
            calls.clear()
            cgc_pde_solve(CgcPdeProblem(u_data=u_data), config=DescentConfig(max_iters=max_iters))
            counts.append(sorted(calls))
        assert counts == [[(0, 0), (1, 0), (1, 1)]] * 2


class TestFdTime:
    def test_adjoint_identity(self):
        # the two one-sided end rows share columns when n < 6
        for n in (3, 4, 5, 6, 7, 33, 100):
            r = RNG.normal(size=n)
            w = RNG.normal(size=n)
            lhs = np.dot(first_difference(r, 0.1), w)
            rhs = np.dot(r, _fd_transpose(w, 0.1))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_exact_on_linear(self):
        t = 0.1 * np.arange(20)
        np.testing.assert_allclose(first_difference(2.0 + 3.0 * t, 0.1), 3.0, rtol=1e-12)


class TestNfLoss:
    def test_nonuniform_grid_rejected(self):
        times = np.array([0.0, 0.1, 0.25, 0.4])
        states = np.zeros((4, 2))
        with pytest.raises(InvalidInputError):
            NfProblem(Trajectory(times, states), MU)

    def test_init_point_at_the_fixed_point_rejected(self, small_traj):
        # the anchor is the first state: a trajectory from the fixed point stays there
        with pytest.raises(InvalidInputError, match="init_point"):
            NfProblem(brusselator_trajectory(1.0, 2.1, init_point=(0.0, 0.0), n_samples=80), MU)

    @pytest.mark.parametrize("name", ["lambda1", "lambda3"])
    def test_negative_weight_rejected(self, small_traj, name):
        # the problem holds no weights: each loss function checks the ones it is given
        prob, state = NfProblem(small_traj, MU), NfState(np.zeros(5), np.zeros(len(small_traj)))
        weights = tuple(-1.0 if n == name else 1.0 for n in ("lambda1", "lambda2", "lambda3"))
        for f in (nf_loss_terms, nf_loss, nf_grad):
            with pytest.raises(InvalidInputError, match=name):
                f(prob, state, weights)

    @pytest.mark.parametrize("name", ["lambda1", "lambda3"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, small_traj, name, value):
        prob, state = NfProblem(small_traj, MU), NfState(np.zeros(5), np.zeros(len(small_traj)))
        weights = tuple(value if n == name else 1.0 for n in ("lambda1", "lambda2", "lambda3"))
        for f in (nf_loss_terms, nf_loss, nf_grad):
            with pytest.raises(InvalidInputError, match=name):
                f(prob, state, weights)

    def test_decay_law_weight_is_not_an_option(self, small_traj):
        # on the radial law the decay-law term is negligible, so its weight is always balanced,
        # and so are the fit and anchor weights: no run ever set them
        for name in ("lambda1", "lambda2", "lambda3"):
            with pytest.raises(TypeError, match=name):
                NfProblem(small_traj, MU, **{name: 1.0})

    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    def test_non_finite_mu_rejected(self, small_traj, mu):
        with pytest.raises(InvalidInputError, match="mu"):
            NfProblem(small_traj, mu)

    def test_h_at_origin_is_zero(self, small_traj):
        prob = NfProblem(small_traj, MU)
        coeffs = RNG.normal(size=5)
        assert nf_h_values(prob, coeffs, np.array([[0.0, 0.0]]))[0] == 0.0

    def test_zero_state_boundary_term(self, small_traj):
        # with everything zeroed only the anchor pays: (sqrt(0.02))^2 = 0.02
        prob = NfProblem(small_traj, MU)
        state = NfState(np.zeros(5), np.zeros(len(small_traj)))
        terms = nf_loss_terms(prob, state, (1.0, 1.0, 1.0))
        assert terms["l2_weighted"] == 0.0
        assert terms["anchor_weighted"] == pytest.approx(0.02, rel=1e-12)

    def test_exact_radius_has_small_ode_term(self, small_traj):
        prob = NfProblem(small_traj, MU)
        r = r_exact(np.sqrt(2) / 10, MU, small_traj.times)
        phi_fit = np.linalg.lstsq(
            np.stack([small_traj.states[:, 0] ** (4 - k) * small_traj.states[:, 1] ** k for k in range(5)], axis=1),
            r, rcond=None,
        )[0]
        terms = nf_loss_terms(prob, NfState(phi_fit, r), (1.0, 1.0, 1.0))
        assert terms["l2_weighted"] <= 1e-2 * float(r @ r)

    def test_gradient_matches_fd(self, small_traj):
        # moderate random state keeps every term O(10), so the FD oracle's
        # roundoff stays far below the 1e-5 relative target
        prob = NfProblem(small_traj, MU)
        w = (2.0, 3.0, 5.0)
        state = NfState(RNG.normal(size=5), 0.3 + 0.05 * RNG.normal(size=len(small_traj)))
        gc, gr = nf_grad(prob, state, w)

        def loss_vec(vec):
            return nf_loss(prob, NfState(vec[:5], vec[5:]), w)

        fd = fd_gradient(loss_vec, np.concatenate([state.h_coeffs, state.r_values]), h=1e-6)
        np.testing.assert_allclose(np.concatenate([gc, gr]), fd, rtol=1e-5, atol=1e-6)


class TestNfSolve:
    def test_small_problem_converges_toward_radius(self, small_traj):
        prob = NfProblem(small_traj, MU)
        res = nf_solve(prob, config=DescentConfig(max_iters=4000))
        trace = np.asarray(res.loss_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert np.isfinite(res.state.r_values).all()

    def test_reconstruction_geometry(self, small_traj):
        prob = NfProblem(small_traj, MU)
        res = nf_solve(prob, config=DescentConfig(max_iters=500))
        radii = np.hypot(res.xy[:, 0], res.xy[:, 1])
        np.testing.assert_allclose(radii, np.abs(res.state.r_values), rtol=1e-12)
        assert res.theta0 == pytest.approx(-np.pi / 4, rel=1e-12)

    @pytest.mark.parametrize("max_iters", [1, 50, 300])
    def test_final_loss_is_loss_at_returned_state(self, small_traj, max_iters):
        # the solve sums its terms in nf_loss's order, so the two agree bit for bit
        prob = NfProblem(small_traj, MU)
        res = nf_solve(prob, config=DescentConfig(max_iters=max_iters))
        assert len(res.loss_trace) == 2
        assert res.loss_trace[-1] == nf_loss(prob, res.state, res.weights)
        assert res.terms == nf_loss_terms(prob, res.state, res.weights)

    def test_one_residual_pass_per_evaluation(self, small_traj, monkeypatch):
        # one pass at the default start sets the unset weights; each slope evaluation takes one more
        passes = []
        residuals = cgc_module._nf_residuals

        def counting_residuals(*args):
            passes.append(1)
            return residuals(*args)

        monkeypatch.setattr(cgc_module, "_nf_residuals", counting_residuals)
        for max_iters in (1, 5, 300):
            passes.clear()
            res = nf_solve(NfProblem(small_traj, MU), config=DescentConfig(max_iters=max_iters))
            assert len(passes) == 1 + res.iterations
        assert res.iterations < 300

    def test_non_finite_initial_loss_diverges(self, small_traj):
        # the default start's radius is about 1e59 here: the squared decay-law residual overflows
        prob = NfProblem(Trajectory(small_traj.times, small_traj.states * 1e60), MU)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedError, match="initial point") as info:
                nf_solve(prob)
        assert len(info.value.trace) == 1 and not np.isfinite(info.value.trace[0])

    def test_features_built_once_per_problem(self, small_traj, monkeypatch):
        calls = []
        original = cgc_module.homogeneous_features

        def counting(kernel, points):
            calls.append(np.shape(points))
            return original(kernel, points)

        monkeypatch.setattr(cgc_module, "homogeneous_features", counting)
        counts = []
        for max_iters in (50, 150):
            calls.clear()
            nf_solve(NfProblem(small_traj, MU), config=DescentConfig(max_iters=max_iters))
            counts.append(len(calls))
        # the trajectory's features, whose first row is the anchor's
        assert counts == [1, 1]

    def test_step_and_anchor_radius_computed_once_per_problem(self, small_traj, monkeypatch):
        # dt and r0_target are read by every residual pass; they are computed
        # once per problem, so neither the times nor np.hypot is touched per
        # evaluation, and the radial law's time factors are built once per solve
        reads = {"times": 0, "hypot": 0, "decay": 0}
        hypot, exp = np.hypot, np.exp

        class CountingTrajectory:
            states = small_traj.states

            @property
            def times(self):
                reads["times"] += 1
                return small_traj.times

        def counting_hypot(*args):
            reads["hypot"] += 1
            return hypot(*args)

        def counting_exp(x):
            reads["decay"] += np.shape(x) == small_traj.times.shape
            return exp(x)

        counts = []
        for max_iters in (5, 300):
            prob = NfProblem(CountingTrajectory(), MU)
            monkeypatch.setattr(np, "hypot", counting_hypot)
            monkeypatch.setattr(np, "exp", counting_exp)
            reads.update(times=0, hypot=0, decay=0)
            nf_solve(prob, config=DescentConfig(max_iters=max_iters))
            monkeypatch.undo()
            counts.append(dict(reads))
        # per solve: dt's two reads of the times, the profile's one and the phase's one;
        # the default start's radii; the factors e^(-2 mu t) of the radial law
        assert counts == [{"times": 4, "hypot": 1, "decay": 1}] * 2


class TestNfProfile:
    @pytest.mark.parametrize("r0", [0.003, 0.05, 0.3])
    def test_slope_matches_central_differences(self, paper_nf, r0):
        prob, res = paper_nf
        profile = cgc_module._nf_profile(prob, res.weights)
        s, h = np.log(r0), 1e-4
        fd = (profile(s + h).loss - profile(s - h).loss) / (2 * h)
        assert profile(s).slope == pytest.approx(fd, rel=1e-6)

    def test_returned_r0_is_a_local_minimum(self, paper_nf):
        prob, res = paper_nf
        profile = cgc_module._nf_profile(prob, res.weights)
        s = np.log(res.r0)
        assert profile(s).loss == res.loss_trace[-1]
        for d in (1e-4, 1e-2):
            assert profile(s - d).loss > res.loss_trace[-1] < profile(s + d).loss

    def test_coefficient_gradient_vanishes_at_the_returned_state(self, paper_nf):
        # the best quartic for the returned radius: the 5 x 5 solve leaves no coefficient slope
        prob, res = paper_nf
        grad_c, grad_r = nf_grad(prob, res.state, res.weights)
        assert np.max(np.abs(grad_c)) <= 1e-12 * np.max(np.abs(grad_r))

    def test_radius_is_the_radial_law_bit_for_bit(self, paper_nf):
        prob, res = paper_nf
        expected = r_exact(res.r0, MU, prob.trajectory.times)
        assert res.state.r_values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("max_iters", [1000, 15000])
    def test_paper_config_closes_its_bracket(self, paper_nf, max_iters):
        prob, res = paper_nf
        if max_iters != 1000:
            res = nf_solve(prob, config=DescentConfig(max_iters=max_iters))
        assert res.reason == "bracket_closed" and res.converged
        assert res.iterations < 100
        assert res.loss_trace[-1] <= 97111.1 < res.loss_trace[0]
        assert res.r0 == pytest.approx(0.011652, rel=1e-4)

    def test_decay_overflow_below_the_threshold_keeps_the_slope_finite(self):
        # mu < 0: e^(-2 mu t) overflows past t = 614, where the law's radius is 0 and so is its slope factor
        mu = mu_from_AB(1.0, 1.0)
        traj = brusselator_trajectory(1.0, 1.0, n_samples=7000)
        with np.errstate(over="ignore"):
            res = nf_solve(NfProblem(traj, mu))
        assert res.reason == "bracket_closed" and np.all(np.isfinite(res.loss_trace))
        assert res.state.r_values[-1] == 0.0

    def test_non_finite_loss_during_the_walk_diverges(self, small_traj, monkeypatch):
        # the third residual pass is the walk's first step, after the default start and the search's start
        passes = []
        residuals = cgc_module._nf_residuals

        def failing_third(*args):
            passes.append(1)
            fit, ode, anchor = residuals(*args)
            return (fit, ode * np.nan, anchor) if len(passes) == 3 else (fit, ode, anchor)

        monkeypatch.setattr(cgc_module, "_nf_residuals", failing_third)
        with pytest.raises(DivergedError, match="ln r0") as info:
            nf_solve(NfProblem(small_traj, MU))
        assert len(info.value.trace) == 1 and np.isnan(info.value.trace[0])

    def test_non_finite_slope_during_the_walk_diverges(self, small_traj, monkeypatch):
        calls = []
        gradient = cgc_module._nf_gradient

        def failing_second(*args):
            calls.append(1)
            grad_c, grad_r = gradient(*args)
            return grad_c, grad_r * np.inf if len(calls) == 2 else grad_r

        monkeypatch.setattr(cgc_module, "_nf_gradient", failing_second)
        with np.errstate(invalid="ignore"), pytest.raises(DivergedError, match="ln r0") as info:
            nf_solve(NfProblem(small_traj, MU))
        assert len(info.value.trace) == 1 and np.isfinite(info.value.trace[0])
