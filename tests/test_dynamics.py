import time
import tracemalloc

import numpy as np
import pytest

from gpmaps import dynamics
from gpmaps.dynamics import (
    CflWarning,
    Field1D,
    Grid1D,
    antiderivative,
    brusselator_trajectory,
    burgers_paper,
    burgers_step,
    diff,
    get_initial_condition,
    list_initial_conditions,
    mu_from_AB,
    r_exact,
    rk4,
)
from gpmaps.exceptions import InvalidInputError, NumericalOverflowError
from oracles import brusselator_rhs, hopf_polar_rhs

RNG = np.random.default_rng(3)


def field(fn, x0=0.0, dx=0.01, n=101):
    grid = Grid1D(x0, dx, n)
    return Field1D(grid, fn(grid.xs))


class TestDiff:
    def test_constant_field(self):
        f = field(lambda x: np.full_like(x, 3.7))
        np.testing.assert_allclose(diff(f, 1).values, 0.0, atol=1e-12)
        np.testing.assert_allclose(diff(f, 2).values, 0.0, atol=1e-9)

    def test_linear_field_exact(self):
        f = field(lambda x: 2.5 * x - 1.0)
        np.testing.assert_allclose(diff(f, 1).values, 2.5, rtol=1e-12)
        np.testing.assert_allclose(diff(f, 2).values, 0.0, atol=1e-10)

    def test_sine_first_derivative(self):
        f = field(np.vectorize(lambda x: np.sin(np.pi * x)), dx=1e-3, n=1001)
        expected = np.pi * np.cos(np.pi * f.grid.xs)
        assert np.max(np.abs(diff(f, 1).values - expected)) <= 1e-4

    def test_too_small_grid(self):
        with pytest.raises(InvalidInputError):
            Grid1D(0.0, 0.1, 2)
        g = Grid1D(0.0, 0.1, 3)
        with pytest.raises(InvalidInputError):
            diff(Field1D(g, np.zeros(3)), 2)


class TestPdeStep:
    def test_constant_field_burgers_unchanged(self):
        f = field(lambda x: np.full_like(x, 1.3))
        out = burgers_step(f, 0.5, 1e-5)
        np.testing.assert_array_equal(out.values, f.values)

    def test_euler_first_order_convergence(self):
        # halving h halves the fixed-horizon error against a fine reference
        ic = burgers_paper(0.5)
        grid = Grid1D(0.0, 0.02, 51)
        v0 = Field1D(grid, ic.v0(grid.xs))

        def advance(h, t_end):
            f = v0
            steps = int(round(t_end / h))
            for _ in range(steps):
                f = burgers_step(f, 0.5, h)
            return f.values

        t_end = 0.016
        ref = advance(1.25e-5, t_end)
        e1 = np.linalg.norm(advance(2e-4, t_end) - ref)
        e2 = np.linalg.norm(advance(1e-4, t_end) - ref)
        assert 1.8 <= e1 / e2 <= 2.2

    def test_cfl_warning(self):
        f = field(lambda x: np.sin(np.pi * x))
        with pytest.warns(CflWarning):
            burgers_step(f, 0.5, 2e-4)

    @pytest.mark.parametrize("nu, h", [(0.0, 1e-5), (-0.5, 1e-5), (float("nan"), 1e-5), (0.5, 0.0)])
    def test_nonpositive_viscosity_or_step_rejected(self, nu, h):
        f = field(lambda x: np.sin(np.pi * x))
        with pytest.raises(InvalidInputError):
            burgers_step(f, nu, h)

    def test_overflow_detection(self):
        grid = Grid1D(0.0, 1e-3, 101)
        alternating = 1e300 * np.where(np.arange(101) % 2 == 0, 1.0, -1.0)
        with np.errstate(over="ignore"), pytest.raises(NumericalOverflowError), pytest.warns(CflWarning):
            burgers_step(Field1D(grid, alternating), 0.5, 1e3)


class TestAntiderivative:
    def test_constant_integrand(self):
        f = field(lambda x: np.ones_like(x))
        out = antiderivative(f)
        np.testing.assert_allclose(out.values, f.grid.xs, atol=1e-14)

    def test_linear_integrand(self):
        f = field(lambda x: x)
        out = antiderivative(f)
        np.testing.assert_allclose(out.values, f.grid.xs**2 / 2.0, atol=1e-14)

    def test_cosine(self):
        f = field(lambda x: np.cos(np.pi * x), dx=1e-3, n=1001)
        out = antiderivative(f)
        assert np.max(np.abs(out.values - np.sin(np.pi * f.grid.xs) / np.pi)) <= 1e-5

    def test_linear_in_integrand(self):
        f1 = field(lambda x: np.sin(x))
        f2 = field(lambda x: np.cos(2 * x))
        combo = Field1D(f1.grid, 2.0 * f1.values - 0.5 * f2.values)
        lhs = antiderivative(combo).values
        rhs = 2.0 * antiderivative(f1).values - 0.5 * antiderivative(f2).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_value_at_left_offsets_every_node(self):
        f = field(lambda x: np.cos(x), x0=-0.3)
        out = antiderivative(f, 5.0)
        assert out.values[0] == 5.0
        np.testing.assert_array_equal(out.values, antiderivative(f).values + 5.0)


def rk4_numpy_reference(rhs, y0, t0, t1, dt):
    """RK4 vectorised over numpy arrays: ``rk4``'s operations in the same order."""
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    t = t0
    times = [t0]
    states = [y.copy()]
    while t < t1 - 1e-12 * max(1.0, abs(t1)):
        step = min(dt, t1 - t)
        k1 = np.asarray(rhs(t, y))
        k2 = np.asarray(rhs(t + 0.5 * step, y + 0.5 * step * k1))
        k3 = np.asarray(rhs(t + 0.5 * step, y + 0.5 * step * k2))
        k4 = np.asarray(rhs(t + step, y + step * k3))
        y = y + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + step
        times.append(t)
        states.append(y.copy())
    return np.asarray(times), np.asarray(states)


LINEAR_3 = [[-0.3, 1.1, 0.0], [-1.1, -0.3, 0.2], [0.05, 0.0, -0.7]]


def linear_3_rhs(t, y):
    return tuple(sum(a * yi for a, yi in zip(row, y)) for row in LINEAR_3)


def linear_2_rhs(t, y):
    u, v = y
    return (-0.2 * u + 1.3 * v, -1.3 * u - 0.2 * v)


def brusselator_numpy_rhs(t, y):
    # returns a numpy array, as a right-hand side written in numpy would
    u, v = y
    p = u + 1.0
    q = v + 2.1
    return np.array([1.0 + p * p * q - 3.1 * p, 2.1 * p - p * p * q])


class TestRk4:
    @pytest.mark.parametrize(
        "rhs, y0, t1, dt",
        [
            # 2,503 steps, the last a partial step of 3e-4
            (brusselator_rhs(1.0, 2.1), [0.1, -0.1], 2.5023, 1e-3),
            (hopf_polar_rhs(mu_from_AB(1.0, 2.1)), [np.sqrt(2) / 10], 3.0, 1e-3),
            (linear_3_rhs, [1.0, -0.5, 0.25], 1.05, 1e-2),
            # 101 steps, the last a partial step of 3.7e-2; steps this coarse
            # leave the rounding of each reordered sum visible in the state
            (linear_2_rhs, [1.0, -0.5], 10.037, 0.1),
            (brusselator_numpy_rhs, [0.1, -0.1], 1.0, 1e-3),
        ],
        ids=["brusselator", "hopf", "linear-3", "linear-2", "numpy-rhs-2"],
    )
    def test_bit_identical_to_numpy_loop(self, rhs, y0, t1, dt):
        ref_times, ref_states = rk4_numpy_reference(rhs, y0, 0.0, t1, dt)
        traj = rk4(rhs, y0, 0.0, t1, dt)
        assert np.array_equal(traj.times, ref_times)
        assert np.array_equal(traj.states, ref_states)

    @pytest.mark.parametrize(
        "rhs, y0",
        [
            (hopf_polar_rhs(0.05), [1e200]),
            (lambda t, y: (y[0] * y[0], -y[1]), [1e200, 1.0]),
        ],
        ids=["1-d", "2-d"],
    )
    def test_overflow_raises_typed_error(self, rhs, y0):
        with pytest.raises(NumericalOverflowError):
            rk4(rhs, y0, 0.0, 1.0, 1e-3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("n_out", [-1, 1], ids=["one-fewer", "one-more"])
    def test_wrong_rhs_length_rejected(self, n, n_out):
        # one component too few or too many; zip used to truncate silently
        out = (1.0,) * (n + n_out)
        with pytest.raises(InvalidInputError):
            rk4(lambda t, y: out, [0.5] * n, 0.0, 1.0, 0.1)

    @pytest.mark.parametrize("y0", [[[0.1, -0.1]], [], [0.1, np.nan], [[1.0], [2.0, 3.0]]],
                             ids=["2-d", "empty", "nan", "ragged"])
    def test_bad_initial_state_rejected(self, y0):
        with pytest.raises(InvalidInputError):
            rk4(lambda t, y: y, y0, 0.0, 1.0, 0.1)

    def test_rhs_value_error_passes_through(self):
        # an error raised inside rhs is the caller's, not a length mismatch
        def rhs(t, y):
            raise ValueError("from rhs")

        for y0 in ([0.1], [0.1, -0.1]):
            with pytest.raises(ValueError, match="from rhs") as info:
                rk4(rhs, y0, 0.0, 1.0, 0.1)
            assert not isinstance(info.value, InvalidInputError)

    def test_zero_rhs(self):
        traj = rk4(lambda t, y: np.zeros_like(y), [1.0, -2.0], 0.0, 1.0, 0.1)
        np.testing.assert_array_equal(traj.states[-1], [1.0, -2.0])

    def test_exponential(self):
        traj = rk4(lambda t, y: y, [1.0], 0.0, 1.0, 1e-3)
        assert abs(traj.states[-1, 0] - np.e) <= 1e-10

    def test_fourth_order_convergence(self):
        def err(dt):
            traj = rk4(lambda t, y: y, [1.0], 0.0, 1.0, dt)
            return abs(traj.states[-1, 0] - np.e)

        ratio = err(0.1) / err(0.05)
        assert 12.8 <= ratio <= 19.2

    def test_final_time_hit_exactly(self):
        traj = rk4(lambda t, y: y, [1.0], 0.0, 0.35, 0.1)
        assert traj.times[-1] == pytest.approx(0.35, abs=1e-12)

    def test_polar_fixed_point(self):
        mu = 0.3
        traj = rk4(hopf_polar_rhs(mu), [np.sqrt(mu)], 0.0, 5.0, 1e-3)
        assert np.max(np.abs(traj.states[:, 0] - np.sqrt(mu))) <= 1e-10


class TestBrusselator:
    def test_origin_is_equilibrium(self):
        rhs = brusselator_rhs(1.0, 2.1)
        np.testing.assert_array_equal(np.asarray(rhs(0.0, [0.0, 0.0])), np.zeros(2))

    def test_frozen_value(self):
        # hand-evaluated once: u+A=1.1, v+B/A=2.0 -> (0.01, -0.11)
        rhs = brusselator_rhs(1.0, 2.1)
        out = rhs(0.0, [0.1, -0.1])
        np.testing.assert_allclose(np.asarray(out), [0.01, -0.11], atol=1e-12)

    def test_sum_identity(self):
        # du/dt + dv/dt = A - (u + A), an algebraic identity of the vector field
        rhs = brusselator_rhs(1.3, 2.6)
        for _ in range(20):
            state = RNG.uniform(-1, 1, 2).tolist()
            out = rhs(0.0, state)
            assert sum(out) == pytest.approx(1.3 - (state[0] + 1.3), rel=1e-12, abs=1e-12)

    def test_same_bits_as_field_formula(self):
        # the field written out in one expression per component; the closure's
        # precomputed B / A, B + 1.0 and p * p * q must give the same bits
        A, B = 1.3, 2.6
        rhs = brusselator_rhs(A, B)
        for u, v in RNG.uniform(-1, 1, (50, 2)).tolist():
            p = u + A
            q = v + B / A
            assert rhs(0.0, [u, v]) == (A + p * p * q - (B + 1.0) * p, B * p - p * p * q)

    def test_zero_A_rejected(self):
        with pytest.raises(InvalidInputError):
            brusselator_rhs(0.0, 2.0)

    def test_trajectory_shape_and_grid(self):
        traj = brusselator_trajectory(1.0, 2.1, n_samples=200)
        assert len(traj) == 200
        assert traj.states.shape == (200, 2)
        np.testing.assert_allclose(np.diff(traj.times), 0.1, rtol=1e-12)

    def test_numpy_scalar_parameters_same_bits(self):
        # A and B become Python floats; each expression keeps its IEEE result
        as_float = rk4(brusselator_rhs(1.0, 2.1), [0.1, -0.1], 0.0, 2.0, 1e-3)
        as_numpy = rk4(brusselator_rhs(np.float64(1.0), np.float64(2.1)), [0.1, -0.1], 0.0, 2.0, 1e-3)
        assert np.array_equal(as_numpy.times, as_float.times)
        assert np.array_equal(as_numpy.states, as_float.states)

    # the five configs the trajectory is checked on; the last keeps the sample_dt of a former gen_dt = 1e-2 case
    TRAJECTORY_CASES = [
        (1.0, 2.1, {}),
        (1.0, 2.1, {"n_samples": 200}),
        (1.3, 2.6, {"n_samples": 60}),
        (1.0, 2.1, {"sample_dt": 0.05}),
        (1.0, 2.1, {"sample_dt": 0.3, "init_point": (0.3, 0.2)}),
    ]
    TRAJECTORY_IDS = ["paper", "200-samples", "A1.3-B2.6", "sample-dt-0.05", "sample-dt-0.3"]

    @pytest.mark.parametrize("A, B, kwargs", TRAJECTORY_CASES, ids=TRAJECTORY_IDS)
    def test_trajectory_agrees_with_four_substeps_per_sample(self, A, B, kwargs):
        # the same integrator on a grid four times finer, read at every fourth sample
        n_samples = kwargs.get("n_samples", 2000)
        sample_dt = kwargs.get("sample_dt", 0.1)
        traj = brusselator_trajectory(A, B, **kwargs)
        assert np.array_equal(traj.times, sample_dt * np.arange(n_samples))
        fine = brusselator_trajectory(A, B, init_point=kwargs.get("init_point", (0.1, -0.1)),
                                      n_samples=4 * (n_samples - 1) + 1, sample_dt=sample_dt / 4)
        assert np.max(np.abs(traj.states - fine.states[::4])) <= 1e-12

    @pytest.mark.parametrize(
        "A, B, kwargs, bound",
        # twice the largest error of rk4 at step 1e-3 against four Taylor substeps per sample:
        # 8.1e-11, 3.3e-13, 4.2e-14, 6.2e-11 and 3.9e-12
        [(*case, bound) for case, bound in zip(TRAJECTORY_CASES, [1.7e-10, 7e-13, 9e-14, 1.3e-10, 8e-12])],
        ids=TRAJECTORY_IDS,
    )
    def test_trajectory_agrees_with_rk4_to_its_error(self, A, B, kwargs, bound):
        n_samples = kwargs.get("n_samples", 2000)
        sample_dt = kwargs.get("sample_dt", 0.1)
        fine = rk4(brusselator_rhs(A, B), kwargs.get("init_point", (0.1, -0.1)), 0.0,
                   (n_samples - 1) * sample_dt, 1e-3)
        stride = int(round(sample_dt / 1e-3))
        traj = brusselator_trajectory(A, B, **kwargs)
        assert np.max(np.abs(traj.states - fine.states[::stride][:n_samples])) <= bound

    @pytest.mark.parametrize("A, B, kwargs", TRAJECTORY_CASES, ids=TRAJECTORY_IDS)
    def test_trajectory_from_the_equilibrium_stays_there(self, A, B, kwargs):
        # every coefficient past order 0 is exactly 0, so each Horner sum returns the state's bits
        traj = brusselator_trajectory(A, B, **{**kwargs, "init_point": (0.0, 0.0)})
        assert np.array_equal(traj.states, np.zeros((len(traj), 2)))

    def test_trajectory_owns_its_samples(self):
        # only the samples are stored, in an array of their own
        traj = brusselator_trajectory(1.0, 2.1, n_samples=200)
        assert traj.states.base is None and traj.states.flags.owndata

    def test_trajectory_overflow_raises_typed_error(self):
        # (1e200)^2 overflows in the first coefficient of the first step
        with pytest.raises(NumericalOverflowError, match=r"non-finite Taylor coefficients at t = 0\.0$"):
            brusselator_trajectory(1.0, 2.1, init_point=(1e200, 1e200))

    def test_trajectory_needing_ever_smaller_substeps_raises_in_bounded_time(self, monkeypatch):
        # The Brusselator has no finite-time blow-up to integrate towards: p' = A + p^2 q - (B+1) p and
        # q' = B p - p^2 q pull q onto q = B / p at rate p^2. A zero tolerance makes every series fall short
        # of it instead, so the first interval halves its substep until the step no longer moves the clock.
        monkeypatch.setattr(dynamics, "_TAYLOR_EPS", 0.0)
        start = time.perf_counter()
        with pytest.raises(NumericalOverflowError, match=r"substep 0\.0 too small to move the clock at t = 0\.0$"):
            brusselator_trajectory(1.0, 2.1, n_samples=5)
        assert time.perf_counter() - start < 10.0

    def test_trajectory_past_its_substep_budget_raises(self):
        # 64 substeps per sample interval on average: (100, 0) takes 16.6 over 101 samples, (300, 0) 130.4
        assert len(brusselator_trajectory(1.0, 2.1, init_point=(100.0, 0.0), n_samples=101)) == 101
        with pytest.raises(NumericalOverflowError, match=r"^the budget of 6400 substeps \(64 per sample interval\) "
                                                         r"is spent: from init_point \(300\.0, 0\.0\) the trajectory "
                                                         r"reached t = \S+, with substep \S+$"):
            brusselator_trajectory(1.0, 2.1, init_point=(300.0, 0.0), n_samples=101)

    @pytest.mark.parametrize(
        "A, kwargs",
        [
            (0.0, {}),
            (1.0, {"n_samples": 1}),
            (1.0, {"init_point": (0.1, -0.1, 0.0)}),
            (1.0, {"init_point": (0.1, np.nan)}),
            (1.0, {"sample_dt": np.nan}),
            (1.0, {"sample_dt": np.inf}),
            (1.0, {"sample_dt": 0.0}),
            (1.0, {"n_samples": 10.5}),
        ],
        ids=["zero-A", "one-sample", "three-components", "nan", "nan-sample-dt", "inf-sample-dt", "zero-sample-dt",
             "fractional-n-samples"],
    )
    def test_trajectory_bad_input_rejected(self, A, kwargs):
        with pytest.raises(InvalidInputError):
            brusselator_trajectory(A, 2.1, **kwargs)

    def test_trajectory_stores_only_its_samples(self):
        # the 50 samples take 0.8 kB; each step's series lives only for its step.
        # Tracing slows the loop 5-100x, so this is not the paper's 2000
        tracemalloc.start()
        try:
            brusselator_trajectory(1.0, 2.1, n_samples=50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20_000


class TestHopf:
    def test_polar_zeros(self):
        mu = 0.25
        rhs = hopf_polar_rhs(mu)
        assert rhs(0.0, [0.0])[0] == 0.0
        assert rhs(0.0, [float(np.sqrt(mu))])[0] == pytest.approx(0.0, abs=1e-15)


class TestMuAndRExact:
    def test_paper_parameters(self):
        assert mu_from_AB(1.0, 2.1) == pytest.approx(0.1 / np.sqrt(3.99), rel=1e-12)
        assert mu_from_AB(1.0, 2.1) == pytest.approx(0.0500626, abs=1e-6)

    def test_bifurcation_point(self):
        assert mu_from_AB(1.3, 1.3**2 + 1.0) == 0.0

    def test_below_bifurcation(self):
        # mirrored parameters: B - A^2 - 1 = -0.1
        assert mu_from_AB(1.0, 1.9) == pytest.approx(-0.1 / np.sqrt(3.99), rel=1e-12)

    def test_invalid_radicand(self):
        with pytest.raises(InvalidInputError):
            mu_from_AB(0.1, 5.0)

    def test_r_exact_fixed_point_and_limit(self):
        mu = 0.3
        assert r_exact(np.sqrt(mu), mu, 7.7) == pytest.approx(np.sqrt(mu), rel=1e-12)
        assert r_exact(0.05, mu, 1e4) == pytest.approx(np.sqrt(mu), rel=1e-10)
        assert r_exact(0.0, mu, 3.0) == 0.0

    def test_r_exact_mu_zero(self):
        r0, t = 0.4, 2.5
        assert r_exact(r0, 0.0, t) == pytest.approx(r0 / np.sqrt(1 + 2 * r0**2 * t), rel=1e-12)

    def test_r_exact_matches_rk4(self):
        mu = 0.1 / np.sqrt(3.99)
        r0 = np.sqrt(2) / 10
        traj = rk4(hopf_polar_rhs(mu), [r0], 0.0, 10.0, 1e-3)
        expected = r_exact(r0, mu, traj.times)
        assert np.max(np.abs(traj.states[:, 0] - expected)) <= 1e-6

    def test_r_exact_long_horizon_no_overflow(self):
        vals = r_exact(np.sqrt(2) / 10, 0.05, np.linspace(0, 200, 50))
        assert np.all(np.isfinite(vals))


class TestRegistry:
    def test_names(self):
        assert set(list_initial_conditions()) == {
            "multi-1", "multi-2", "multi-3", "multi-4", "firstorder-paper",
        }

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            get_initial_condition("nope")

    def test_burgers_needs_nu(self):
        # its field scales with nu, so burgers_paper(nu) builds it and the registry of fixed conditions leaves it out
        with pytest.raises(InvalidInputError, match="unknown initial condition 'burgers-paper'"):
            get_initial_condition("burgers-paper")

    def test_antiderivatives_match_quadrature(self):
        # closed-form u0 vs dense trapezoid integration of v0 over the window
        multi = (get_initial_condition(name) for name in ("multi-1", "multi-2", "multi-3", "multi-4"))
        for ic in (burgers_paper(0.5), *multi):
            grid = Grid1D(ic.x_lo, (ic.x_hi - ic.x_lo) / 4000, 4001)
            numeric = antiderivative(Field1D(grid, ic.v0(grid.xs))).values
            closed = ic.u0(grid.xs) - ic.u0(np.array([grid.x0]))[0]
            assert np.max(np.abs(numeric - closed)) <= 1e-5

    def test_firstorder_values(self):
        ic = get_initial_condition("firstorder-paper")
        assert ic.u0(np.array([0.0]))[0] == pytest.approx(1.0, rel=1e-12)
