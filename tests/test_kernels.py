import numpy as np
import pytest

from gpmaps.exceptions import InvalidInputError, UnsupportedDerivativeError
from gpmaps.kernels import (
    HomogeneousPolynomial,
    Matern52,
    _matern_profile_derivs,
    homogeneous_features,
    homogeneous_norm_sq,
    k_deriv,
    k_eval,
    kernel_from_config,
    kernel_to_config,
)

RNG = np.random.default_rng(7)


def _nested_fd(spec, x, y, a, b, h):
    """Nested central differences of k_eval for the (a, b) mixed partial."""

    def dx(f, order):
        if order == 0:
            return f
        if order == 1:
            return lambda xx, yy: (f(xx + h, yy) - f(xx - h, yy)) / (2 * h)
        return lambda xx, yy: (f(xx + h, yy) - 2 * f(xx, yy) + f(xx - h, yy)) / h**2

    def dy(f, order):
        if order == 0:
            return f
        if order == 1:
            return lambda xx, yy: (f(xx, yy + h) - f(xx, yy - h)) / (2 * h)
        return lambda xx, yy: (f(xx, yy + h) - 2 * f(xx, yy) + f(xx, yy - h)) / h**2

    return dy(dx(lambda xx, yy: k_eval(spec, xx, yy), a), b)(x, y)


def fd_mixed(spec, x, y, a, b, h):
    """Richardson-extrapolated central differences (kills the h^2 error term)."""
    return (4.0 * _nested_fd(spec, x, y, a, b, h / 2) - _nested_fd(spec, x, y, a, b, h)) / 3.0


class TestMatern:
    def test_self_value_is_one(self):
        spec = Matern52(1.0)
        assert k_eval(spec, 0.0, 0.0) == 1.0
        assert k_eval(spec, 2.3, 2.3) == 1.0

    def test_unit_gap_value(self):
        # direct evaluation of the closed form (1 + sqrt5 + 5/3) exp(-sqrt5)
        expected = (1 + np.sqrt(5) + 5 / 3) * np.exp(-np.sqrt(5))
        assert k_eval(Matern52(1.0), 0.0, 1.0) == pytest.approx(expected, rel=1e-14)
        assert k_eval(Matern52(1.0), 0.0, 1.0) == pytest.approx(0.523994, abs=5e-7)

    def test_range(self):
        spec = Matern52(0.7)
        for _ in range(50):
            x, y = RNG.uniform(-5, 5, 2)
            v = k_eval(spec, x, y)
            assert 0.0 < v <= 1.0

    def test_symmetry(self):
        spec = Matern52(1.3)
        for _ in range(50):
            x, y = RNG.uniform(-5, 5, 2)
            assert k_eval(spec, x, y) == k_eval(spec, y, x)

    def test_stationarity(self):
        spec = Matern52(2.0)
        for _ in range(20):
            x, y, shift = RNG.uniform(-3, 3, 3)
            assert k_eval(spec, x + shift, y + shift) == pytest.approx(k_eval(spec, x, y), rel=1e-15)

    def test_zero_lag_derivatives(self):
        spec = Matern52(1.0)
        assert k_deriv(spec, 0.3, 0.3, 1, 0) == 0.0
        assert k_deriv(spec, 0.3, 0.3, 1, 1) == pytest.approx(5.0 / 3.0, rel=1e-14)
        assert k_deriv(spec, 0.3, 0.3, 2, 2) == pytest.approx(25.0, rel=1e-14)
        theta = 1.7
        assert k_deriv(Matern52(theta), 0.0, 0.0, 1, 1) == pytest.approx(5 / (3 * theta**2), rel=1e-14)
        assert k_deriv(Matern52(theta), 0.0, 0.0, 2, 2) == pytest.approx(25 / theta**4, rel=1e-14)

    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("b", [0, 1, 2])
    def test_derivatives_match_finite_differences(self, a, b):
        # Totals <= 2 difference k_eval directly. Higher totals would drown in
        # the eps/h^4 roundoff of a nested stencil, so they apply one central
        # difference to the already-validated next-lower closed form. The steps
        # scale with theta, the length on which the kernel varies: fixed steps
        # drown the (0, 2) and (2, 0) cases in roundoff at theta = 17.
        for theta in (0.3, 1.0, 17.0):
            spec = Matern52(theta)
            checked = 0
            while checked < 100:
                x, y = RNG.uniform(-2, 2, 2)
                if abs(x - y) < 0.05:
                    continue
                checked += 1
                cf = k_deriv(spec, x, y, a, b)
                if a + b <= 2:
                    fd = fd_mixed(spec, x, y, a, b, (2e-4 if a + b == 2 else 1e-6) * theta)
                else:
                    h = 1e-6 * theta

                    def lower(xx):
                        return k_deriv(spec, xx, y, a - 1, b)

                    fd = (lower(x + h) - lower(x - h)) / (2 * h)
                assert cf == pytest.approx(fd, rel=1e-5, abs=1e-8), f"theta={theta}"

    def test_mixed_derivative_symmetry(self):
        spec = Matern52(0.9)
        for _ in range(30):
            x, y = RNG.uniform(-3, 3, 2)
            for a in range(3):
                for b in range(3):
                    assert k_deriv(spec, x, y, a, b) == pytest.approx(
                        k_deriv(spec, y, x, b, a), rel=1e-13, abs=1e-15
                    )

    def test_gram_psd(self):
        spec = Matern52(1.0)
        pts = np.unique(RNG.uniform(-4, 4, 50))
        gram = np.asarray(k_eval(spec, pts[:, None], pts[None, :]))
        eig = np.linalg.eigvalsh(gram)
        assert eig.min() >= -1e-8 * eig.max()

    def test_invalid_theta(self):
        with pytest.raises(InvalidInputError):
            Matern52(0.0)
        with pytest.raises(InvalidInputError):
            Matern52(float("inf"))

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedDerivativeError):
            k_deriv(Matern52(1.0), 0.0, 1.0, 3, 0)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 17.0])
    def test_profile_parity_is_exact(self, theta):
        # the Gram computes each (b, a) block as the transpose of the (a, b) one,
        # which needs P_n(-gap) == (-1)^n P_n(gap) to the last bit
        gap = np.concatenate([RNG.uniform(-3, 3, 200) * theta, [-2.5, -0.1, 0.0, 0.1, 2.5]])
        orders = range(5)
        for n, pos, neg in zip(orders, _matern_profile_derivs(orders, gap, theta),
                               _matern_profile_derivs(orders, -gap, theta)):
            assert np.array_equal(neg, (-1) ** n * pos), f"order {n}"

    def test_repeated_orders_get_separate_arrays(self):
        # a Gram block scales its profile array in place, so two pairs of one order need two arrays
        gap = np.array([[-0.4, 0.0], [0.3, 1.2]])
        first, second = _matern_profile_derivs([2, 2], gap, 1.3)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, second)


class TestPolynomial:
    def test_orthogonal_inputs(self):
        spec = HomogeneousPolynomial(4)
        assert k_eval(spec, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_parallel_inputs(self):
        spec = HomogeneousPolynomial(4)
        assert k_eval(spec, np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 16.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            k_eval(HomogeneousPolynomial(4), np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))

    def test_derivatives_unsupported(self):
        # the polynomial kernel is handled through its feature expansion only
        for a, b in ((0, 0), (1, 0)):
            with pytest.raises(UnsupportedDerivativeError):
                k_deriv(HomogeneousPolynomial(4), np.array([1.0, 0.0]), np.array([0.0, 1.0]), a, b)

    def test_features_reproduce_kernel(self):
        spec = HomogeneousPolynomial(4)
        pts = RNG.uniform(-1, 1, (12, 2))
        phi = homogeneous_features(spec, pts)
        binoms = np.array([1, 4, 6, 4, 1], dtype=float)
        gram_feat = phi @ np.diag(binoms) @ phi.T
        for i in range(12):
            for j in range(12):
                assert gram_feat[i, j] == pytest.approx(k_eval(spec, pts[i], pts[j]), rel=1e-12, abs=1e-14)

    def test_norm_matches_pseudoinverse_quadratic_form(self):
        # RKHS norm of H via features equals g^T K^+ g on 5 independent points
        spec = HomogeneousPolynomial(4)
        angles = np.array([0.2, 0.9, 1.7, 2.3, 2.9])
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        coeffs = RNG.normal(size=5)
        gvals = homogeneous_features(spec, pts) @ coeffs
        gram = np.array([[k_eval(spec, p, q) for q in pts] for p in pts])
        quad = gvals @ np.linalg.pinv(gram) @ gvals
        assert homogeneous_norm_sq(spec, coeffs) == pytest.approx(quad, rel=1e-8)


def test_config_round_trip():
    spec = Matern52(3.2)
    assert kernel_from_config(kernel_to_config(spec)) == spec
