"""Acceptance suite: every release criterion, one printed pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines. Criterion 4 is known-failing: the coefficient-recovery loss does not
have its minimum near the reported value (see the comment at its test); it
is asserted as stated rather than weakened.
"""

import time

import numpy as np
import pytest

from gpmaps import cgc, dynamics, transforms
from gpmaps.cli import run_experiment, run_table1
from gpmaps.gp import ConstraintSystem, assemble_gram, fit
from gpmaps.kernel_learning import learn_theta, rho_loo
from gpmaps.kernels import Matern52, k_deriv
from gpmaps.optim import DescentConfig
from oracles import constraint_residuals, cole_hopf_truth_fn, first_order_truth_fn, hopf_polar_rhs, rho_loo_naive

PAPER_B = {25: 1.9232e-2, 50: 5.2601e-3, 100: 1.3532e-3, 200: 3.4103e-4}
PAPER_A = {25: 2.9675e-4, 50: 7.6794e-5, 100: 1.9450e-5}


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def in_band(value, reference, factor=10.0):
    return reference / factor <= value <= reference * factor


def test_criterion_1_table_trend_no_learning():
    errors = {}
    slowest = 0.0
    for n in (25, 50, 100, 200):
        prob = transforms.cole_hopf_problem(n)
        start = time.perf_counter()
        interp = fit(prob.system, Matern52(1.0))
        slowest = max(slowest, time.perf_counter() - start)
        errors[n] = transforms.relative_l2(interp, prob.truth, prob.eval_points)
    decreasing = all(errors[b] < errors[a] for a, b in ((25, 50), (50, 100), (100, 200)))
    ok = in_band(errors[25], PAPER_B[25]) and in_band(errors[100], PAPER_B[100]) and decreasing and slowest < 5.0
    shown = {n: float("%.3e" % e) for n, e in errors.items()}
    report(1, ok, f"errors={shown}, slowest fit {slowest:.2f}s")
    assert in_band(errors[25], PAPER_B[25]), f"N=25 error {errors[25]:.4e} outside band of {PAPER_B[25]}"
    assert in_band(errors[100], PAPER_B[100]), f"N=100 error {errors[100]:.4e} outside band of {PAPER_B[100]}"
    assert decreasing, f"errors not strictly decreasing: {errors}"
    assert slowest < 5.0


def test_criterion_2_table_trend_with_learning(tmp_path):
    start = time.perf_counter()
    summary = run_table1({"N_list": [25, 50, 100], "output_dir": str(tmp_path)})
    elapsed = time.perf_counter() - start
    m = summary["metrics"]
    ok = elapsed < 600.0
    for n in (25, 50, 100):
        ok = ok and in_band(m[f"learning_N{n}"], PAPER_A[n]) and m[f"learning_N{n}"] < m[f"no_learning_N{n}"]
    shown = [float("%.3e" % m[f"learning_N{n}"]) for n in (25, 50, 100)]
    report(2, ok, f"learned errors={shown}, table1 wall time {elapsed:.1f}s")
    for n in (25, 50, 100):
        assert in_band(m[f"learning_N{n}"], PAPER_A[n]), f"N={n}: {m[f'learning_N{n}']:.4e} vs {PAPER_A[n]}"
        assert m[f"learning_N{n}"] < m[f"no_learning_N{n}"]
    assert elapsed < 600.0


def test_criterion_3_first_order():
    prob = transforms.first_order_problem(100)
    rel = transforms.relative_l2(fit(prob.system, Matern52(1.0)), prob.truth, prob.eval_points)
    ok = rel <= 1e-2
    report(3, ok, f"relative L2 vs exp((u^3-1)/3) = {rel:.3e} (<= 1e-2)")
    assert ok


def test_criterion_4_cgc_coefficient_recovery(tmp_path):
    # Known red: the exact solve converges to a = -1.80084 (loss 9.0428), a
    # local minimum of the stated loss; its global minimum lies near
    # a = +0.74 (loss 2.219), on the wrong-sign branch, and the best map at
    # a = -1 costs 10.460. Asserted as stated.
    start = time.perf_counter()
    summary = run_experiment({"experiment": "cgc-pde", "output_dir": str(tmp_path)})
    elapsed = time.perf_counter() - start
    a = summary["metrics"]["a_learned"]
    ok = abs(a + 1.0) <= 0.05 and elapsed < 120.0
    report(4, ok, f"a_learned = {a:.5f}, |a+1| = {abs(a + 1):.4f} (<= 0.05), wall {elapsed:.0f}s (< 120s)")
    assert elapsed < 120.0, f"run took {elapsed:.0f}s"
    assert abs(a + 1.0) <= 0.05, (
        f"|a_learned + 1| = {abs(a + 1):.4f} > 0.05: the joint loss does not identify the "
        "coefficient; its minima lie near a = -1.80 and a = +0.74"
    )


def test_criterion_5_normal_form():
    mu = dynamics.mu_from_AB(1.0, 2.1)
    traj = dynamics.brusselator_trajectory(1.0, 2.1)
    problem = cgc.NfProblem(traj, mu)
    result = cgc.nf_solve(problem, config=DescentConfig(max_iters=15000))
    r = result.state.r_values
    late = traj.times >= 100.0
    r_ex = dynamics.r_exact(problem.r0_target, mu, traj.times)
    mean_dev = abs(np.mean(r[late]) - np.sqrt(mu)) / np.sqrt(mu)
    rel = np.linalg.norm(r[late] - r_ex[late]) / np.linalg.norm(r_ex[late])
    h_origin = cgc.nf_h_values(problem, result.state.h_coeffs, np.array([[0.0, 0.0]]))[0]
    recon_radius = np.hypot(result.xy[late, 0], result.xy[late, 1])
    max_dev = np.max(np.abs(recon_radius - np.sqrt(mu)))
    ok = mean_dev <= 0.10 and rel <= 0.10 and h_origin == 0.0 and max_dev <= 0.1 * np.sqrt(mu)
    report(5, ok, f"mean-r deviation {mean_dev:.3f} (<= 0.1), relL2 {rel:.3f} (<= 0.1), "
           f"max cycle-radius deviation {max_dev:.4f} (<= {0.1 * np.sqrt(mu):.4f}), H(0,0) = {h_origin}")
    assert mean_dev <= 0.10
    assert rel <= 0.10
    assert max_dev <= 0.1 * np.sqrt(mu)
    assert h_origin == 0.0


def test_criterion_6_multi_ic():
    prob = transforms.cole_hopf_multi_problem()
    theta, _ = learn_theta(prob.system, prob.interior)
    rel = transforms.relative_l2(fit(prob.system, Matern52(theta)), prob.truth, prob.eval_points)
    ok = rel <= 1e-2
    report(6, ok, f"pooled 4x101 fit: relative L2 = {rel:.3e} (<= 1e-2), theta = {theta:.2f}")
    assert ok


def test_criterion_7_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    k1 = Matern52(1.0)

    def value(x, y):
        return k_deriv(k1, x, y, 0, 0)

    # kernel derivatives vs finite differences of the value (see test_kernels for the full grid)
    for a, b in ((1, 0), (1, 1), (2, 0)):
        for _ in range(25):
            x, y = rng.uniform(-2, 2, 2)
            if abs(x - y) < 0.05:
                continue
            h = 1e-6 if a + b < 2 else 2e-4
            if a + b < 2:
                fd = (value(x + h, y) - value(x - h, y)) / (2 * h)
            elif (a, b) == (1, 1):
                fd = (value(x + h, y + h) - value(x + h, y - h)
                      - value(x - h, y + h) + value(x - h, y - h)) / (4 * h * h)
            else:
                fd = (value(x + h, y) - 2 * value(x, y) + value(x - h, y)) / h**2
            assert k_deriv(k1, x, y, a, b) == pytest.approx(fd, rel=1e-5, abs=1e-7)

    # Gram symmetry and PSD; representer residual; target-scaling linearity
    prob = transforms.cole_hopf_problem(40)
    gram = assemble_gram(prob.system.functionals, k1)
    assert np.array_equal(gram, gram.T)
    eig = np.linalg.eigvalsh(gram)
    assert eig.min() >= -1e-8 * eig.max()
    interp = fit(prob.system, k1)
    resid = constraint_residuals(interp, prob.system)
    assert resid.max() <= 10 * interp.nugget * np.max(np.abs(interp.coefficients)) + 1e-10
    scaled = fit(ConstraintSystem(prob.system.functionals, 2.0 * prob.system.targets), k1)
    np.testing.assert_allclose(scaled.evaluate(prob.us), 2.0 * interp.evaluate(prob.us), rtol=1e-12)

    # rho in [0, 1], fast path, and invariance of theta* under target scaling
    for theta in (0.3, 1.0, 10.0):
        rho = rho_loo(theta, prob.system, prob.interior)
        assert 0.0 <= rho <= 1.0
        assert rho == pytest.approx(rho_loo_naive(theta, prob.system, prob.interior), rel=1e-10)
    t1, _ = learn_theta(prob.system, prob.interior)
    t2, _ = learn_theta(ConstraintSystem(prob.system.functionals, -3.0 * prob.system.targets), prob.interior)
    assert t1 == pytest.approx(t2, rel=1e-12)

    # Euler first order / RK4 fourth order
    ic = dynamics.burgers_paper(0.5)
    grid = dynamics.Grid1D(0.0, 0.02, 51)
    v0 = dynamics.Field1D(grid, ic.v0(grid.xs))

    def advance(h, t_end=0.016):
        f = v0
        for _ in range(int(round(t_end / h))):
            f = dynamics.burgers_step(f, 0.5, h)
        return f.values

    ref = advance(1.25e-5)
    euler_ratio = np.linalg.norm(advance(2e-4) - ref) / np.linalg.norm(advance(1e-4) - ref)
    assert 1.8 <= euler_ratio <= 2.2

    def rk4_err(dt):
        return abs(dynamics.rk4(lambda t, y: y, [1.0], 0.0, 1.0, dt).states[-1, 0] - np.e)

    rk4_ratio = rk4_err(0.1) / rk4_err(0.05)
    assert 12.8 <= rk4_ratio <= 19.2

    # closed-form radius vs RK4 over the full experiment horizon
    mu = dynamics.mu_from_AB(1.0, 2.1)
    traj = dynamics.rk4(hopf_polar_rhs(mu), [np.sqrt(2) / 10], 0.0, 200.0, 1e-3)
    assert np.max(np.abs(traj.states[:, 0] - dynamics.r_exact(np.sqrt(2) / 10, mu, traj.times))) <= 1e-6

    # truth oracles annihilate their defining functionals
    fn_d = cole_hopf_truth_fn(0.5)
    u = rng.uniform(-3, 6, 10_000)
    assert np.max(np.abs(0.5 * fn_d(u, 2) + 0.5 * fn_d(u, 1)) / np.abs(0.5 * fn_d(u, 2))) <= 1e-12
    fn_g = first_order_truth_fn()
    u = rng.uniform(0.2, 2.0, 10_000)
    assert np.max(np.abs(fn_g(u, 1) / u**2 - fn_g(u, 0)) / np.abs(fn_g(u, 0))) <= 1e-12

    # CGC gradients vs finite differences
    pde_prob = cgc.CgcPdeProblem(u_data=transforms.first_order_problem(30).us)
    w = (10.0, 1.3, 7.0)
    h = 1e-4
    for a in (0.6, -1.0, 2.0):
        fd_a = (cgc.cgc_pde_loss(pde_prob, cgc.CgcPdeState(a + h), w)
                - cgc.cgc_pde_loss(pde_prob, cgc.CgcPdeState(a - h), w)) / (2 * h)
        assert cgc.cgc_pde_grad(pde_prob, cgc.CgcPdeState(a), w) == pytest.approx(fd_a, rel=1e-5)

    small_traj = dynamics.brusselator_trajectory(1.0, 2.1, n_samples=60)
    nf_prob = cgc.NfProblem(small_traj, mu)
    nf_state = cgc.NfState(rng.normal(size=5), 0.3 + 0.05 * rng.normal(size=60))
    grad_c, grad_r = cgc.nf_grad(nf_prob, nf_state, w)
    packed = np.concatenate([nf_state.h_coeffs, nf_state.r_values])
    for idx in (0, 4, 20, 59):
        xp, xm = packed.copy(), packed.copy()
        xp[idx] += 1e-6
        xm[idx] -= 1e-6
        fd = (cgc.nf_loss(nf_prob, cgc.NfState(xp[:5], xp[5:]), w)
              - cgc.nf_loss(nf_prob, cgc.NfState(xm[:5], xm[5:]), w)) / 2e-6
        assert np.concatenate([grad_c, grad_r])[idx] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    # norm-growth diagnostic separates consistent from inconsistent systems
    def builder(inconsistent):
        def build(n):
            p = transforms.cole_hopf_problem(n)
            return transforms.corrupt_targets(p.system, p.interior, seed=0) if inconsistent else p.system

        return build

    consistent = transforms.norm_growth_diagnostic(builder(False), [100, 400], k1, nugget=1e-10)
    inconsistent = transforms.norm_growth_diagnostic(builder(True), [100, 400], k1, nugget=1e-10)
    ratio_c = consistent[-1][1] / consistent[0][1]
    ratio_i = inconsistent[-1][1] / inconsistent[0][1]
    assert ratio_c <= 1.5
    assert ratio_i >= 4.0

    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(7, ok, f"all property suites passed in {elapsed:.1f}s (< 60s); "
           f"euler ratio {euler_ratio:.2f}, rk4 ratio {rk4_ratio:.1f}, "
           f"norm growth {ratio_c:.2f} vs {ratio_i:.2f}")
    assert ok
