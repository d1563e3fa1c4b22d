"""gpmaps: learning maps between trajectories of differential equations with GP regression.

The package fits scalar maps constrained by linear functionals (point values
and derivatives) in a reproducing-kernel Hilbert space, selects kernel
lengthscales by a leave-one-out loss, and runs joint optimizations that
recover unknown equation coefficients and normal-form radius maps from
trajectory data.
"""

import logging

from .cgc import (
    CgcPdeProblem,
    CgcPdeState,
    NfProblem,
    NfState,
    cgc_pde_loss,
    cgc_pde_solve,
    nf_loss,
    nf_solve,
)
from .dynamics import (
    Field1D,
    Grid1D,
    Trajectory,
    antiderivative,
    brusselator_trajectory,
    diff,
    get_initial_condition,
    mu_from_AB,
    r_exact,
    rk4,
)
from .gp import (
    ConstraintSystem,
    FunctionalTerm,
    Interpolant,
    LinearFunctional,
    assemble_gram,
    fit,
    rkhs_norm_sq,
)
from .kernel_learning import learn_theta, rho_loo
from .kernels import Matern52, k_deriv
from .transforms import (
    build_cole_hopf_discrete,
    build_cole_hopf_ode,
    build_first_order,
    cole_hopf_truth,
    first_order_truth,
    norm_growth_diagnostic,
    relative_l2,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
