"""Exact HMC sampling of piecewise Gaussian densities on piecewise affine
constraint manifolds.

The pieces: ``model`` defines the problem (regions, potentials, lookup
table), ``subspace`` the constrained linear algebra, ``dynamics`` the exact
trajectories and boundary rules, ``sampler`` the chain loop, ``oracle``
independent ground truths for testing, and ``cli`` the command-line tools.
"""

__version__ = "0.1.0"

from .errors import (
    ContractError,
    DegenerateNormalError,
    ModelFormatError,
    StallError,
)
from .model import (
    ModelSpec,
    RegionBoundary,
    ell,
    load_model,
    load_model_file,
    region_boundaries,
    region_membership,
    validate_model,
)
from .subspace import (
    boundary_normal,
    continuity_check,
    ode_param,
)
from .dynamics import (
    boundary_dynamics,
    evolve_to_boundary,
    region_table,
    wall_dynamics,
)
from .sampler import (
    ChainConfig,
    ChainOutput,
    initial_point_check,
    refresh_velocity,
    run_chain,
)
from .oracle import (
    ConditionalMoments,
    conditional_gaussian_moments,
    exact_sample,
    grid_hit_time,
    occupancy_quadrature_line,
)
from . import zoo

__all__ = [
    "__version__",
    "ContractError", "DegenerateNormalError", "ModelFormatError", "StallError",
    "ModelSpec", "RegionBoundary", "ell", "load_model", "load_model_file",
    "region_boundaries", "region_membership", "validate_model",
    "boundary_normal", "continuity_check", "ode_param",
    "boundary_dynamics", "evolve_to_boundary", "region_table",
    "wall_dynamics",
    "ChainConfig", "ChainOutput", "initial_point_check",
    "refresh_velocity", "run_chain",
    "ConditionalMoments", "conditional_gaussian_moments", "exact_sample",
    "grid_hit_time", "occupancy_quadrature_line",
    "zoo",
]
