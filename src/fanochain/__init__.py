"""Complex spectral analysis of a two-level impurity in a tight-binding chain.

Solves the nonlinear complex eigenvalue problem of the impurity coupled to
a semi-infinite (or infinite) chain, locates bound states in the
continuum and exceptional points, traces eigenvalue trajectories, and
reconstructs the Fano absorption spectrum from the discrete resonance
states.
"""

from .dispersion import (
    DiscreteState,
    StateClass,
    bic_energies,
    discrete_states,
    eta,
    eta_deriv,
)
from .errors import (
    BranchPointError,
    ConvergenceError,
    FanochainError,
    ModelError,
    NearExceptionalPointError,
    RootCountError,
)
from .model import ChainModel, validate
from .selfenergy import (
    Sheet,
    SheetedEnergy,
    band_energy,
    coupling,
    self_energy,
    self_energy_deriv,
    sqrt_branch,
)
from .spectrum import (
    SpectrumGrid,
    decompose,
    default_grid,
    degree_of_asymmetry,
    fano_profile,
    fano_q,
    green_spectrum,
    resonance_component,
)
from .states import attach_norms, bound_weight, normalization
from .sweep import (
    EpResult,
    Trajectory,
    find_ep,
    scan_for_ep_seeds,
    trace,
)

__version__ = "0.1.0"

__all__ = [
    "BranchPointError",
    "ChainModel",
    "ConvergenceError",
    "DiscreteState",
    "EpResult",
    "FanochainError",
    "ModelError",
    "NearExceptionalPointError",
    "RootCountError",
    "Sheet",
    "SheetedEnergy",
    "SpectrumGrid",
    "StateClass",
    "Trajectory",
    "attach_norms",
    "band_energy",
    "bic_energies",
    "bound_weight",
    "coupling",
    "decompose",
    "default_grid",
    "degree_of_asymmetry",
    "discrete_states",
    "eta",
    "eta_deriv",
    "fano_profile",
    "fano_q",
    "find_ep",
    "green_spectrum",
    "normalization",
    "resonance_component",
    "scan_for_ep_seeds",
    "self_energy",
    "self_energy_deriv",
    "sqrt_branch",
    "trace",
    "validate",
]
