"""Learn the radius map of an oscillator's rotation normal form from one trajectory.

A planar chemical-oscillator model just past its oscillation threshold is
integrated from a small initial point; the goal is a quartic map H(u, v)
whose output behaves like the radius variable r of the canonical rotation
form dr/dt = (mu - r^2) r, dtheta/dt = omega. The radius samples follow the
closed form of that radial law from an unknown initial radius r0, tied to H
by a data-fit term; one anchor matches H at the initial point. For each r0
the best quartic solves one 5 x 5 linear system, and a slope search on
ln r0 finishes the solve. Since the radius obeys the law exactly, its
relative L2 error against the closed form from the initial point is small
by construction; H itself misses its own radius by about 87%, because the
anchor term carries most of the loss.
"""

import numpy as np

from gpmaps.cgc import NfProblem, nf_h_values, nf_solve
from gpmaps.dynamics import brusselator_trajectory, mu_from_AB, r_exact

A, B = 1.0, 2.1
mu = mu_from_AB(A, B)
print(f"mu = {mu:.6f}, limit-cycle radius sqrt(mu) = {np.sqrt(mu):.4f}")

trajectory = brusselator_trajectory(A, B)
problem = NfProblem(trajectory, mu)
result = nf_solve(problem)

r = result.state.r_values
late = trajectory.times >= 100.0
r_true = r_exact(problem.r0_target, mu, trajectory.times)
h_values = nf_h_values(problem, result.state.h_coeffs, trajectory.states)
print(f"initial radius r0 = {result.r0:.6f} after {result.iterations} slope evaluations ({result.reason})")
print(f"learned quartic coefficients: {np.round(result.state.h_coeffs, 2)}")
print(f"mean learned radius on t in [100, 200]: {r[late].mean():.4f}")
print(f"relative L2 vs the closed-form radius:  {np.linalg.norm(r[late] - r_true[late]) / np.linalg.norm(r_true[late]):.4f}")
print(f"relative L2 of H against its own radius: {np.linalg.norm(h_values - r) / np.linalg.norm(r):.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 3, figsize=(13, 4))
    axes[0].plot(trajectory.states[:, 0], trajectory.states[:, 1], lw=0.3)
    axes[0].set_title("oscillator data (u, v)")
    axes[1].plot(trajectory.times, r_true, label="closed form")
    axes[1].plot(trajectory.times, r, "--", label="learned")
    axes[1].set_title("radius vs time")
    axes[1].legend()
    axes[2].plot(result.xy[late, 0], result.xy[late, 1], lw=0.5)
    circle = np.linspace(0, 2 * np.pi, 200)
    axes[2].plot(np.sqrt(mu) * np.cos(circle), np.sqrt(mu) * np.sin(circle), "k:", lw=1)
    axes[2].set_title("reconstructed limit cycle")
    axes[2].set_aspect("equal")
    fig.tight_layout()
    fig.savefig("hopf_normal_form.png", dpi=120)
    print("wrote hopf_normal_form.png")
except ImportError:
    pass
