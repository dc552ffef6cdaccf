"""fracburgers: numerical laboratory for time-fractional quadratic blow-up.

Solves the scalar memory-kernel problem ^C D^alpha v = v^2 and its
conservation-law counterparts, brackets the finite-time blow-up numerically,
and evaluates the closed-form analytic bounds on the blow-up time so the two
routes cross-validate each other.
"""

__version__ = "0.1.0"

from .bounds import (
    ConsistencyError,
    LowerBoundConstants,
    envelope_w,
    envelope_z,
    limit_upper_bound,
    lower_bound_T,
    lower_bound_constants,
    monotonicity_scan_b,
    upper_bound_b,
)
from .fode import (
    BlowupEstimate,
    NoBlowupDetected,
    Nonlinearity,
    RungRecord,
    SolverConfig,
    Trajectory,
    estimate_blowup,
    solve,
    solve_capped,
    volterra_residual,
)
from .frac_ops import (
    FractionalOrder,
    PowerTestFunction,
    SampledFunction,
    TimeGrid,
    caputo_left,
    classical_derivative,
    phi_test_integrals,
    rl_fractional_integral,
    rl_right_derivative_phi,
)
from .impulse import (
    ImpulseTable,
    ImpulseTrain,
    fractional_impulse_solution,
    impulse_table,
    step_solution,
)
from .pde import (
    BoundaryRule,
    CflError,
    FieldHistory,
    MarketParams,
    RescaledField,
    SpatialGrid,
    market_density,
    rescale_field,
    rho_to_u,
    separable_solution,
    solve_rho,
    solve_u,
    u_to_rho,
)
from .specfun import euler_mascheroni, gamma, log_gamma

__all__ = [
    "__version__",
    # specfun
    "gamma",
    "log_gamma",
    "euler_mascheroni",
    # frac_ops
    "FractionalOrder",
    "TimeGrid",
    "SampledFunction",
    "PowerTestFunction",
    "caputo_left",
    "classical_derivative",
    "rl_fractional_integral",
    "rl_right_derivative_phi",
    "phi_test_integrals",
    # fode
    "Nonlinearity",
    "SolverConfig",
    "Trajectory",
    "RungRecord",
    "BlowupEstimate",
    "NoBlowupDetected",
    "solve",
    "solve_capped",
    "estimate_blowup",
    "volterra_residual",
    # bounds
    "ConsistencyError",
    "LowerBoundConstants",
    "upper_bound_b",
    "limit_upper_bound",
    "lower_bound_constants",
    "lower_bound_T",
    "envelope_w",
    "envelope_z",
    "monotonicity_scan_b",
    # impulse
    "ImpulseTrain",
    "ImpulseTable",
    "step_solution",
    "fractional_impulse_solution",
    "impulse_table",
    # pde
    "SpatialGrid",
    "BoundaryRule",
    "MarketParams",
    "FieldHistory",
    "RescaledField",
    "CflError",
    "solve_u",
    "solve_rho",
    "rho_to_u",
    "u_to_rho",
    "separable_solution",
    "market_density",
    "rescale_field",
]
