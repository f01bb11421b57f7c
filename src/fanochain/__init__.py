"""Complex spectral analysis of a two-level impurity in a tight-binding chain.

Solves the nonlinear complex eigenvalue problem of the impurity coupled to
a semi-infinite (or infinite) chain, locates bound states in the
continuum and exceptional points, traces eigenvalue trajectories, and
reconstructs the Fano absorption spectrum from the discrete resonance
states.

The public names below load their submodule on first use (PEP 562), so
importing the package, or one submodule, loads only what is used.  Each
access reads the name from its submodule and is not cached here, so a
name rebound in the submodule is what the package returns.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = {
    "dispersion": ["DiscreteState", "StateClass", "bic_energies", "discrete_states", "eta", "eta_deriv"],
    "errors": [
        "BranchPointError",
        "ConvergenceError",
        "FanochainError",
        "ModelError",
        "NearExceptionalPointError",
        "RootCountError",
    ],
    "model": ["ChainModel", "validate"],
    "selfenergy": [
        "Sheet",
        "SheetedEnergy",
        "band_energy",
        "coupling",
        "self_energy",
        "self_energy_deriv",
        "sqrt_branch",
    ],
    "spectrum": [
        "SpectrumGrid",
        "decompose",
        "default_grid",
        "degree_of_asymmetry",
        "fano_profile",
        "fano_q",
        "green_spectrum",
        "resonance_component",
    ],
    "states": ["attach_norms", "bound_weight", "normalization"],
    "sweep": ["EpResult", "Trajectory", "find_ep", "scan_for_ep_seeds", "trace"],
}
_SUBMODULE = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
