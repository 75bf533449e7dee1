"""fwlab: a pseudo-spectral laboratory for the two-component
Fornberg-Whitham system in Besov spaces.

Subpackages:
    spectral  - periodic grid, FFT conventions, Fourier multipliers
    besov     - Littlewood-Paley partition, Besov norms, mollifiers
    transport - linear transport solver and a priori estimate checks
    fw        - the nonlinear system, iteration scheme and experiments
    harness   - configs, CSV reports and the experiment runner
"""

__version__ = "0.1.0"

from .spectral import (
    Grid,
    GridFunction,
    MultiplierSymbol,
    make_grid,
    apply_multiplier,
    ddx,
    lambda_inv_dx,
    dealias,
    lp_norm,
)
from .besov import (
    LPPartition,
    BesovParams,
    MollifierKernel,
    build_partition,
    dyadic_block,
    low_cutoff,
    besov_norm,
    mollify,
)
from .transport import (
    TransportProblem,
    TransportTrajectory,
    solve_transport,
    verify_transport_estimate,
    fit_transport_constant,
)
from .fw import (
    SchemeConfig,
    IterationTrace,
    fw_rhs,
    solve_fw_direct,
    lifespan,
    run_scheme,
    empirical_lifespan,
    stability_experiment,
    continuity_experiment,
    scheme_direct_distance,
)

__all__ = [
    "Grid", "GridFunction", "MultiplierSymbol", "make_grid",
    "apply_multiplier", "ddx", "lambda_inv_dx", "dealias", "lp_norm",
    "LPPartition", "BesovParams", "MollifierKernel", "build_partition",
    "dyadic_block", "low_cutoff", "besov_norm", "mollify",
    "TransportProblem", "TransportTrajectory", "solve_transport",
    "verify_transport_estimate", "fit_transport_constant",
    "SchemeConfig", "IterationTrace", "fw_rhs",
    "solve_fw_direct", "lifespan", "run_scheme", "empirical_lifespan",
    "stability_experiment", "continuity_experiment", "scheme_direct_distance",
]
