"""Complex normalization constants and transition weights of discrete states.

The residue of the impurity Green's function at a discrete eigenvalue,

    N = 1 / (1 - g^2 * dSigma/dz) = dz/de_d,

is simultaneously the product of left/right eigenvector overlaps with the
impurity orbital and the parametric derivative of the eigenvalue.  It is
read off p(w) at the state's root w by the rate kernel that also drives
trajectories (dispersion._rate_terms), with no self-energy evaluated.  It is
complex for resonances (their eigenvectors live outside the Hilbert space)
and this single number carries everything the spectrum needs: no
eigenvector components are ever materialized.
"""

from __future__ import annotations

import numpy as np

from .dispersion import EP_TOL, DiscreteState, StateClass, _rate_terms
from .errors import FanochainError, NearExceptionalPointError
from .model import ChainModel


@np.errstate(divide="ignore", invalid="ignore")  # an infinite or nan norm meets the guards
def _norms(model: ChainModel, states: list[DiscreteState]) -> list[complex]:
    """dz/de_d = (w^2 - 1)/(2 w^2) dw/de_d at each state's root w of p, one _rate_terms call
    for the list; exactly 1 at g = 0 (z = e_d), where dw/de_d is 0/0 for a level at w = +-1.

    The states are checked in list order, each for its norm, so the first bad state
    raises what normalization would raise for it alone."""
    if model.g == 0.0 or not states:
        norms = [1 + 0j] * len(states)
    else:
        w = np.array([[s.w for s in states]], dtype=complex)
        minus_dp, slope = _rate_terms(model, "e_d", w, np.array([model.e_d]), np.array([model.g]))
        norms = ((w * w - 1.0) / (2.0 * w * w) * minus_dp / slope)[0].tolist()
    for s, n in zip(states, norms):
        if abs(n) > 1 / EP_TOL:
            raise NearExceptionalPointError(
                f"|1 - g^2 Sigma'| = {1 / abs(n):.3e} at z = {s.z}: "
                "normalization constant diverges at the exceptional point"
            )
        if not abs(n) <= 1 / EP_TOL:
            raise FanochainError(f"normalization constant {n} at z = {s.z} is not a number")
    return norms


def normalization(model: ChainModel, state: DiscreteState) -> complex:
    """Residue/normalization constant at the state's eigenvalue.

    Equals dz/de_d, which makes it directly testable by finite differences
    and makes it the natural predictor for parameter continuation.

    Raises
    ------
    NearExceptionalPointError
        If |de_d/dz| = |1 - g^2 Sigma'| is smaller than EP_TOL: the
        normalization constant diverges at an exceptional point.
    FanochainError
        For BIC-classified states (their convention is fixed separately) or a nan norm.
    """
    if state.state_class is StateClass.BIC:
        raise FanochainError("BIC states carry unit norm by convention; see attach_norms()")
    return _norms(model, [state])[0]


def bound_weight(model: ChainModel, state: DiscreteState) -> float:
    """Spectral weight |<d|phi>|^2 of a physical-sheet bound state.

    This is the (real, positive) residue of the Green's function at the
    real pole, the state's norm (computed if it carries none); it
    multiplies the delta line the state contributes to the spectrum.
    Virtual states have no physical-sheet pole and are refused.
    """
    if state.state_class is not StateClass.BOUND_I:
        raise FanochainError(
            f"bound_weight needs a {StateClass.BOUND_I.value} state, got "
            f"{state.state_class.value}"
        )
    w = state.norm if state.norm is not None else normalization(model, state)
    if not (abs(w.imag) <= 1e-10 and w.real > 0):
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
    return _norms(model, [state])[0].real


def attach_norms(model: ChainModel, states: list[DiscreteState]) -> list[DiscreteState]:
    """Copy of the state list with the norm field filled in.

    A BIC state carries unit norm by convention.
    """
    norms = iter(_norms(model, [s for s in states if s.state_class is not StateClass.BIC]))
    # built directly: dataclasses.replace costs about a fifth of this function
    return [DiscreteState(s.z, s.sheet, s.state_class, s.residual,
                          1 + 0j if s.state_class is StateClass.BIC else next(norms),
                          s.near_degenerate, s.label, s.w) for s in states]
