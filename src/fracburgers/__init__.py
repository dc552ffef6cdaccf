"""fracburgers: numerical laboratory for time-fractional quadratic blow-up.

Solves the scalar memory-kernel problem ^C D^alpha v = v^2 and its
conservation-law counterparts, brackets the finite-time blow-up numerically,
and evaluates the closed-form analytic bounds on the blow-up time so the two
routes cross-validate each other.

The package exports each module's ``__all__``, in the order below.
"""

__version__ = "0.1.0"

from . import bounds, fode, frac_ops, impulse, pde, specfun
from .bounds import *
from .fode import *
from .frac_ops import *
from .impulse import *
from .pde import *
from .specfun import *

__all__ = [
    "__version__",
    *specfun.__all__,
    *frac_ops.__all__,
    *fode.__all__,
    *bounds.__all__,
    *impulse.__all__,
    *pde.__all__,
]
