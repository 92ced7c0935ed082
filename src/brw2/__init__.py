"""Two-type branching random walks on Z^d.

Subpackages:
    lattice    jump kernels, Fourier symbols, transition probabilities
    branching  branching laws, derived constants, criticality
    moments    first/second moment engines (Fourier fast path + ODE oracle)
    simulate   event-driven Monte-Carlo with replay-deterministic history
    clusters   survival curves, cluster/gap and degenerate-cell statistics
    epidemic   infected/immune model: closed forms, Duhamel M2, correlations
    config     YAML run configuration and figure presets
    cli        command-line entry point (simulate/moments/clusters/epidemic)
"""

__version__ = "0.1.0"

from .branching import (BranchingLaw, Classification, DerivedConstants, TwoTypeModel,
                        classify_criticality, derive_constants, theta_coefficients)
from .lattice import (JumpKernel, ThetaGrid, fourier_symbol, gamma_constant,
                      gaussian_asymptote, simple_kernel, transition_probability,
                      uniform_range_kernel)

__all__ = [
    "__version__",
    "JumpKernel", "ThetaGrid", "fourier_symbol", "transition_probability",
    "gaussian_asymptote", "gamma_constant", "simple_kernel", "uniform_range_kernel",
    "BranchingLaw", "DerivedConstants", "TwoTypeModel", "Classification",
    "derive_constants", "classify_criticality", "theta_coefficients",
]
