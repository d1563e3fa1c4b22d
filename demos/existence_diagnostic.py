"""Does a map matching the constraints exist at all? Watch the norm.

When the constraints are consistent with some map, the fitted RKHS norm
converges from below as collocation points are added; when no map of the
chosen inputs can match them, the norm grows without bound. This gives a
cheap screen for whether a transformation between two equations exists
before trying to learn it.
"""

from gpmaps import Matern52, norm_growth_diagnostic
from gpmaps.transforms import cole_hopf_problem, corrupt_targets


def consistent(n):
    return cole_hopf_problem(n).system


def inconsistent(n):
    problem = cole_hopf_problem(n)
    # targets replaced by noise: no function of u alone can track independent
    # values at ever-closer sample points
    return corrupt_targets(problem.system, problem.interior, seed=0)


counts = [50, 100, 200, 400]
for name, builder in (("consistent", consistent), ("inconsistent", inconsistent)):
    pairs = norm_growth_diagnostic(builder, counts, Matern52(1.0), nugget=1e-10)
    norms = "  ".join(f"N={n}: {v:9.3f}" for n, v in pairs)
    ratio = pairs[-1][1] / pairs[0][1]
    print(f"{name:>12}:  {norms}   growth x{ratio:.2f}")
