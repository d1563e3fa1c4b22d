"""Pool constraints from four different initial conditions into one regression.

Each trajectory contributes 101 map-equation constraints on its own
antiderivative range; a single shared pair of anchors normalizes the map.
The pooled input ranges join into one connected interval, so the recovered
map is valid far beyond what any single trajectory covers.
"""

import numpy as np

from gpmaps import Matern52, fit, learn_theta, relative_l2
from gpmaps.transforms import cole_hopf_multi_problem

problem = cole_hopf_multi_problem()
labels = np.array(problem.labels)
print(f"pooled system size: {len(problem.system)}")
for name in sorted(set(labels)):
    sel = labels == name
    print(f"  {name}: u in [{problem.us[sel].min():7.3f}, {problem.us[sel].max():7.3f}]")

theta, _ = learn_theta(problem.system, problem.interior)
interp = fit(problem.system, Matern52(theta))
print(f"learned lengthscale: {theta:.2f}")
print("relative L2 over the union:", relative_l2(interp, problem.truth, problem.eval_points))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    u = np.linspace(problem.us.min(), problem.us.max(), 600)
    ax.plot(u, problem.truth(u), "k", lw=1, label="true")
    for name in sorted(set(labels)):
        sel = labels == name
        ax.plot(problem.us[sel], interp(problem.us[sel]), ".", ms=2, label=name)
    ax.set_xlabel("u")
    ax.set_ylabel("w")
    ax.legend()
    fig.tight_layout()
    fig.savefig("multiple_initial_conditions.png", dpi=120)
    print("wrote multiple_initial_conditions.png")
except ImportError:
    pass
