"""Numerical and symbolic laboratory for wall-shear collapse of a marched
boundary layer under an adverse pressure gradient.

The package marches the streamfunction form of the stationary wall
equation to separation, extracts the collapse law of the wall shear and
its modulation rate, re-derives the exact rational profile algebra, and
audits the quantitative inequalities (curvature bounds, comparison
solutions, diffusion-balance bounds) on the computed solutions.
"""

__version__ = "0.1.0"

from .gridfields import Field, Grid, cumint, diff  # noqa: F401
from .profiles import (InitialData, build_initial_data,  # noqa: F401
                       check_wellprepared, eval_uapp)
from .ratpoly import (RationalPoly, algebra_certificate,  # noqa: F401
                      apply_L, leading_V_coefficients, next_iterate,
                      prandtl_residual, profile_coefficients,
                      remainder_decomposition)
from .vonmises import (MarchConfig, Snapshot, Trajectory,  # noqa: F401
                       VMState, compute_F, from_von_mises, march_step,
                       solve_until_separation, to_von_mises, wall_shear)
