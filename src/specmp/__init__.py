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
"""

from .linear_process import (
    ARMAModel,
    FARIMAModel,
    ModelSpecError,
    PiecewiseSpectralDensity,
    SpectralDensity,
    autocovariances,
    ma_coefficients,
    model_from_spec,
    model_to_spec,
    spectral_density,
)
from .simulator import (
    INNOVATION_LAWS,
    EmpiricalSpectrum,
    SimulationPlan,
    ks_distance,
    sample_cov_eigenvalues,
    simulate_matrix,
)
from .stieltjes import (
    ConvergenceError,
    LimitingDensity,
    StieltjesSolution,
    arma11_residual,
    default_grid,
    estimate_support_upper,
    invert_to_density,
    lsd_cdf,
    mp_density,
    mp_stieltjes,
    mp_support,
    solve_fixed_point,
)
from .toeplitz_lsd import (
    AbsContinuousLSD,
    AtomicLSD,
    Rule,
    TangentialRootWarning,
    arma11_gamma_density,
    arma11_support,
    atomic_lsd,
    gamma_cdf,
    gamma_density,
    gamma_lsd,
    support_bounds,
)

__version__ = "0.1.0"
