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
    cell_slack,
    ell,
    load_model,
    load_model_file,
    validate_model,
)
from .sampler import (
    ChainConfig,
    ChainOutput,
    EventLog,
    run_chain,
)
from .oracle import conditional_gaussian_moments, exact_sample
from . import zoo

__all__ = [
    "__version__",
    "ContractError", "DegenerateNormalError", "ModelFormatError", "StallError",
    "ModelSpec", "cell_slack", "ell", "load_model", "load_model_file",
    "validate_model",
    "ChainConfig", "ChainOutput", "EventLog", "run_chain",
    "conditional_gaussian_moments", "exact_sample",
    "zoo",
]
