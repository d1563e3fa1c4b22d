"""Learn the map between one advecting initial condition and its heat-side image.

The input data is a single initial condition of the viscous advection
equation on [0, 1]. Its antiderivative u0 supplies collocation values, the
map equation nu*D'' + D'/2 = 0 supplies one constraint per point, and two
point anchors D(0)=1, D(1)=0 normalize the solution. The script fits the map
with a fixed Matern-5/2 lengthscale and with a lengthscale learned by the
leave-one-out loss, then prints the error table both ways.
"""

import numpy as np

from gpmaps import Matern52, fit, learn_theta, relative_l2
from gpmaps.transforms import cole_hopf_problem

for n in (25, 50, 100, 200):
    problem = cole_hopf_problem(n, nu=0.5)
    plain = relative_l2(fit(problem.system, Matern52(1.0)), problem.truth, problem.eval_points)
    theta, rho = learn_theta(problem.system, problem.interior)
    learned = relative_l2(fit(problem.system, Matern52(theta)), problem.truth, problem.eval_points)
    print(f"N={n:4d}  fixed theta=1: {plain:.3e}   learned theta={theta:6.2f}: {learned:.3e}")

problem = cole_hopf_problem(25, nu=0.5)
interp = fit(problem.system, Matern52(1.0))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    u = np.linspace(0.0, problem.us.max(), 400)
    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    axes[0].plot(problem.xs, problem.truth(problem.us), label="true")
    axes[0].plot(problem.xs, interp(problem.us), "--", label="learned")
    axes[0].set_xlabel("x")
    axes[0].set_ylabel("w")
    axes[0].legend()
    axes[1].plot(u, problem.truth(u), label="true")
    axes[1].plot(u, interp(u), "--", label="learned")
    axes[1].plot(problem.us, interp(problem.us), ".", ms=3, label="collocation")
    axes[1].set_xlabel("u")
    axes[1].legend()
    fig.tight_layout()
    fig.savefig("cole_hopf_single.png", dpi=120)
    print("wrote cole_hopf_single.png")
except ImportError:
    pass
