"""Joint recovery of the map and an unknown coefficient of the target equation.

Here the target equation's advection coefficient ``a`` is treated as unknown
(true value -1) with a unit Gaussian prior, and the loss couples it to the
map through the equation residual on the data. The script solves exactly,
with the `cgc-pde` experiment's weights, balanced at the identity map: for
each ``a`` the best map is one kernel ridge regression, which leaves a loss
f(a) of ``a`` alone, and a 1-D root find on its slope finishes it.

A caveat worth knowing before reading the numbers: the joint loss does not
identify the coefficient. For every a != 0 there is a map G_a satisfying the
equation term and the anchor exactly; along that family the loss trades the
map's norm against the prior. f has local minima at a = -1.80084 (loss
9.04283), where the solve ends, and at a = +0.74073 (2.21865), its global
minimum, on the wrong-sign branch, while f(-1) = 10.45996: the truth is not
a minimum of the stated loss. See the README's note on acceptance criterion 4.
"""

from gpmaps.cgc import CgcPdeProblem, CgcPdeState, cgc_pde_loss, cgc_pde_loss_terms, cgc_pde_solve
from gpmaps.transforms import first_order_problem

problem = CgcPdeProblem(u_data=first_order_problem(100).us)

res = cgc_pde_solve(problem)
print(f"from the identity map's best a:   a = {res.state.a:+.5f}   loss {res.loss_trace[-1]:.5f}")
print(f"on the wrong-sign branch:         f(+0.74073) = {cgc_pde_loss(problem, CgcPdeState(0.74073), res.weights):.5f}")
print(f"at the true coefficient:          f(-1) = {cgc_pde_loss(problem, CgcPdeState(-1.0), res.weights):.5f}")

# the best map's terms along a: larger |a| meets the equation and the anchor
# more cheaply, until the prior outweighs them
print("\nthe best map for each a:")
for a in (-0.75, -1.0, -1.8, -3.0, -4.0, 0.74):
    t = cgc_pde_loss_terms(problem, CgcPdeState(a), res.weights)
    print(f"  a={a:5.2f}: map norm {t['norm_g']:5.2f}  equation {t['l2_weighted']:5.2f}  "
          f"anchor {t['anchor_weighted']:5.2f}  prior {t['a_prior']:5.2f}")
