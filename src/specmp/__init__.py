"""Limiting spectral distributions of sample covariance matrices whose rows
are linear processes (ARMA / FARIMA), plus Monte Carlo validation tools.

The pipeline: a model's spectral density determines the eigenvalue limit of
its autocovariance Toeplitz matrix (``gamma_lsd``); that limit feeds the
fixed-point equation for the Stieltjes transform of the sample-covariance
limit law (``solve_fixed_point``), which is inverted to a density
(``invert_to_density``); simulations check the result (``simulator``).

The runtime needs NumPy and the standard library only: importing ``specmp``
(and ``specmp.cli``) loads nothing else, and neither does any command.  SciPy
is a test dependency, for oracles that only the tests call.

The package exports exactly each module's ``__all__``.
"""

from .linear_process import *
from .simulator import *
from .stieltjes import *
from .toeplitz_lsd import *

__version__ = "0.1.0"
