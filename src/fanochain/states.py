"""Complex normalization constants and transition weights of discrete states.

The residue of the impurity Green's function at a discrete eigenvalue,

    N = 1 / (1 - g^2 * dSigma/dz),

is simultaneously the product of left/right eigenvector overlaps with the
impurity orbital and the parametric derivative dz/de_d of the eigenvalue.
It is complex for resonances (their eigenvectors live outside the Hilbert
space) and this single number carries everything the spectrum needs: no
eigenvector components are ever materialized.
"""

from __future__ import annotations

from dataclasses import replace

from .dispersion import ROOT_TOL, DiscreteState, StateClass, eta_deriv
from .errors import FanochainError, NearExceptionalPointError
from .model import ChainModel

#: |1 - g^2 Sigma'| below this counts as sitting on an exceptional point.
EP_GUARD = 1e-10


def normalization(model: ChainModel, state: DiscreteState) -> complex:
    """Residue/normalization constant at the state's eigenvalue.

    Equals dz/de_d, which makes it directly testable by finite differences
    and makes it the natural predictor for parameter continuation.

    Raises
    ------
    NearExceptionalPointError
        If 1 - g^2 Sigma' is smaller than EP_GUARD in magnitude: the
        normalization constant diverges at an exceptional point.
    FanochainError
        For BIC-classified states (their convention is fixed separately)
        or a state whose residual exceeds the root tolerance.
    """
    if state.state_class is StateClass.BIC:
        raise FanochainError("BIC states carry unit norm by convention; see attach_norms()")
    if state.residual > 10 * ROOT_TOL:
        raise FanochainError(
            f"state residual {state.residual:.3e} too large for a trustworthy residue"
        )
    denom = eta_deriv(model, state.sheeted())
    if abs(denom) < EP_GUARD:
        raise NearExceptionalPointError(
            f"|1 - g^2 Sigma'| = {abs(denom):.3e} at z = {state.z}: "
            "normalization constant diverges at the exceptional point"
        )
    return 1.0 / denom


def bound_weight(model: ChainModel, state: DiscreteState) -> float:
    """Spectral weight |<d|phi>|^2 of a physical-sheet bound state.

    This is the (real, positive) residue of the Green's function at the
    real pole; it multiplies the delta line the state contributes to the
    spectrum.  Virtual states have no physical-sheet pole and are refused.
    """
    if state.state_class is not StateClass.BOUND_I:
        raise FanochainError(
            f"bound_weight needs a {StateClass.BOUND_I.value} state, got "
            f"{state.state_class.value}"
        )
    w = normalization(model, state)
    if abs(w.imag) > 1e-10 or w.real <= 0:
        raise FanochainError(f"bound-state residue should be real positive, got {w}")
    return w.real


def bic_line_weight(model: ChainModel, state: DiscreteState) -> float:
    """Delta-line weight of a BIC state inside the band.

    Sigma vanishes and Sigma' stays finite (and real) at a BIC energy, so
    the Green's-function residue formula is regular there and yields a
    real weight in (0, 1); using it keeps the spectral sum rule exact even
    when the impurity level is parked exactly on a BIC.
    """
    if state.state_class is not StateClass.BIC:
        raise FanochainError(f"expected a BIC state, got {state.state_class.value}")
    return (1.0 / eta_deriv(model, state.sheeted())).real


def attach_norms(model: ChainModel, states: list[DiscreteState]) -> list[DiscreteState]:
    """Copy of the state list with the norm field filled in.

    A BIC state carries unit norm by convention.
    """
    out = []
    for s in states:
        n = 1 + 0j if s.state_class is StateClass.BIC else normalization(model, s)
        out.append(replace(s, norm=n))
    return out
