"""The stepper-based construction of the same map, no closed-form equation used.

Instead of the exact map equation, this variant takes one explicit Euler
step on each side of the diagram: the advecting field is stepped and
re-integrated, the map side is stepped by the diffusion operator, and the
mismatch of the two one-step images is forced to zero. Every constraint is
then a weighted sum of pure point evaluations of the map, so the Gram matrix
needs no kernel derivatives at all.

The explicit Euler step of the diffusion is stable only while the diffusion
number h*nu/dx^2 is at most 0.5; with dx = 0.01 and nu = 0.5 that means
h <= 1e-4, so the h sweep below stays at or under that bound. (A larger h
makes ``burgers_step`` emit a ``CflWarning``.)

Smaller steps do not keep helping under the automatic nugget: it is set by
the two anchor constraints (2.0e-10 at theta = 1), while an interior
constraint's prior variance shrinks as h^2 (3.0e-9 at h = 1e-6), so the
nugget over-regularizes the interior constraints as h shrinks. The gap to
the equation-limit fit is 4.1e-4 at h = 1e-5 but 2.0e-2 at h = 1e-6, which
is why the sweep stops at 1e-5.
"""

import numpy as np

from gpmaps import Matern52, fit, relative_l2
from gpmaps.transforms import cole_hopf_discrete_problem, cole_hopf_problem

discrete = cole_hopf_discrete_problem(dx=0.01, h=1e-4, nu=0.5)
d_disc = fit(discrete.system, Matern52(1.0))
print("interior constraints:", len(discrete.system) - 2)
print("relative L2 vs truth:", relative_l2(d_disc, discrete.truth, discrete.eval_points))

# cross-check against the equation-limit path on matching data
ode = cole_hopf_problem(99, nu=0.5)
d_ode = fit(ode.system, Matern52(1.0))
pts = discrete.eval_points
gap = np.linalg.norm(d_disc.evaluate(pts) - d_ode.evaluate(pts)) / np.linalg.norm(d_ode.evaluate(pts))
print("relative gap to the equation-limit fit:", gap)

# the h -> 0 limit: the two constructions converge to each other (below
# h = 1e-5 the automatic nugget outweighs the interior constraints' prior
# variance and the gap grows again, to 2e-2 at h = 1e-6)
for h in (1e-4, 5e-5, 2e-5, 1e-5):
    p = cole_hopf_discrete_problem(dx=0.01, h=h, nu=0.5)
    d = fit(p.system, Matern52(1.0))
    gap = np.linalg.norm(d.evaluate(pts) - d_ode.evaluate(pts)) / np.linalg.norm(d_ode.evaluate(pts))
    print(f"h={h:.0e}: gap {gap:.3e}")
