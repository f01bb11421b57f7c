"""Absorption spectrum: exact Green's-function curve and its decomposition.

The exact spectrum is the boundary value

    F(Omega) = -(w/pi) * Im [ 1 / (Omega - e_d - g^2 Sigma(Omega + i0)) ]

on the physical sheet.  Each resonance contributes

    f = fS + fA,
    fS = (w/pi) *  gamma/((Omega-eps)^2 + gamma^2) * d(eps)/d(e_d),
    fA = (w/pi) * (Omega-eps)/((Omega-eps)^2 + gamma^2) * d(gamma)/d(e_d),

with both parametric derivatives read off the complex normalization
constant.  Physical-sheet bound states (and a BIC, if the impurity level
sits exactly on one) appear as discrete (energy, weight) lines that are
never broadened onto the grid, so the spectral sum rule stays exact.  The
continuum term is obtained by completeness as total minus the resonance
sum, rather than from explicit continuum eigenstates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dispersion import DiscreteState, StateClass, discrete_states
from .errors import BranchPointError, FanochainError
from .model import ChainModel, validate
from .selfenergy import Sheet, _sigma
from .states import bic_line_weight, bound_weight, normalization

#: Default Omega grid: resolves widths down to ~1e-3 across the open band.
DEFAULT_GRID_POINTS = 2001
DEFAULT_GRID_SPAN = 0.999

#: Sentinel returned by fano_q for a symmetric Lorentzian (DA = 0).
Q_INFINITE = math.inf


@dataclass(frozen=True)
class ResonanceMeta:
    """Per-resonance numbers quoted alongside its spectral component."""

    label: str
    epsilon: float
    gamma: float
    norm: complex
    da: float
    q: float
    near_degenerate: bool


@dataclass(frozen=True)
class SpectrumGrid:
    """Sampled spectrum with its resonance-by-resonance decomposition."""

    omega: np.ndarray
    total: np.ndarray
    resonance_f: dict[str, np.ndarray]
    resonance_fs: dict[str, np.ndarray]
    resonance_fa: dict[str, np.ndarray]
    continuum_residual: np.ndarray
    bound_lines: list[tuple[float, float]]
    per_state_meta: list[ResonanceMeta] = field(default_factory=list)

    @property
    def resonance_sum(self) -> np.ndarray:
        out = np.zeros_like(self.omega)
        for f in self.resonance_f.values():
            out = out + f
        return out


def default_grid(
    points: int = DEFAULT_GRID_POINTS, span: float = DEFAULT_GRID_SPAN
) -> np.ndarray:
    return np.linspace(-span, span, points)


def green_spectrum(model: ChainModel, omega) -> np.ndarray:
    """Exact absorption curve from the impurity Green's function.

    Points outside the open band return 0 (that weight lives in the
    discrete lines); points exactly at +-1 are refused.
    """
    validate(model)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(np.abs(omega) == 1.0):
        raise BranchPointError("grid point exactly at a band edge")
    out = np.zeros_like(omega)
    inside = np.abs(omega) < 1.0
    if np.any(inside):
        z = omega[inside].astype(complex)  # imag +0.0: the +i0 boundary value
        (sig,) = _sigma(z, Sheet.I, model.n_d, model.v)
        num = -model.g**2 * sig.imag  # = -Im Sigma >= 0
        den = (omega[inside] - model.e_d - model.g**2 * sig.real) ** 2 + (
            model.g**2 * sig.imag
        ) ** 2
        vals = np.zeros_like(num)
        ok = den > 0.0
        # num = den = 0 happens only on a BIC pole, whose weight is a line
        vals[ok] = (model.transition_weight / np.pi) * num[ok] / den[ok]
        out[inside] = vals
    return out


def resonance_component(
    model: ChainModel, state: DiscreteState, omega
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, fS, fA) of one resonance on the given grid.

    The symmetric part carries d(eps)/d(e_d), the antisymmetric part
    d(gamma)/d(e_d); their sum is exactly -(w/pi) Im[N/(Omega - z)].
    """
    if state.state_class is not StateClass.RESONANCE:
        raise FanochainError(f"resonance_component needs a resonance, got {state.state_class.value}")
    n = state.norm if state.norm is not None else normalization(model, state)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    eps, gam = state.epsilon, state.gamma
    w = model.transition_weight
    denom = (omega - eps) ** 2 + gam**2
    fs = (w / np.pi) * gam / denom * n.real
    fa = (w / np.pi) * (omega - eps) / denom * (-n.imag)
    return fs + fa, fs, fa


def degree_of_asymmetry(norm: complex) -> float:
    """DA = d(gamma)/d(eps) along the trajectory, from the normalization.

    Returns a signed infinity when the trajectory runs parallel to the
    imaginary axis (d(eps)/d(e_d) = 0).
    """
    d_eps = norm.real
    d_gam = -norm.imag
    if d_eps == 0.0:
        return math.copysign(math.inf, d_gam) if d_gam != 0.0 else 0.0
    return d_gam / d_eps


def fano_q(da: float, sign_dgamma: float) -> float:
    """Asymmetry parameter q from the degree of asymmetry.

    q = (1 +/- sqrt(1 + DA^2)) / DA with the sign following
    d(gamma)/d(e_d).  DA = 0 is the symmetric-Lorentzian limit and
    returns the infinity sentinel; |DA| -> infinity drives |q| -> 1.
    """
    if da == 0.0:
        return Q_INFINITE
    if math.isinf(da):
        return math.copysign(1.0, da) if sign_dgamma >= 0 else -math.copysign(1.0, da)
    s = 1.0 if sign_dgamma >= 0 else -1.0
    return (1.0 + s * math.sqrt(1.0 + da * da)) / da


def fano_profile(x, q: float):
    """The classic asymmetric line shape (x + q)^2 / (x^2 + 1)."""
    x = np.asarray(x, dtype=float)
    return (x + q) ** 2 / (x * x + 1.0)


def decompose(
    model: ChainModel,
    omega=None,
    states: list[DiscreteState] | None = None,
) -> SpectrumGrid:
    """Full spectrum decomposition on a grid.

    total      -- exact Green's-function curve;
    per-resonance f/fS/fA keyed by branch label;
    bound_lines -- (energy, weight) delta lines of physical-sheet bound
                   states (and of a BIC, which keeps the sum rule exact);
    continuum_residual = total - sum of resonance components.

    Near-degenerate resonance pairs (an exceptional point nearby) are
    decomposed all the same -- their components are individually huge and
    cancel -- and carry the near_degenerate flag in the metadata.
    """
    validate(model)
    if omega is None:
        omega = default_grid()
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if states is None:
        states = discrete_states(model)

    total = green_spectrum(model, omega)

    f_by, fs_by, fa_by, meta = {}, {}, {}, []
    res_sum = np.zeros_like(total)
    for s in states:
        if s.state_class is not StateClass.RESONANCE:
            continue
        n = s.norm if s.norm is not None else normalization(model, s)
        f, fs, fa = resonance_component(model, s, omega)
        label = s.label or f"z={s.z:.6g}"
        f_by[label], fs_by[label], fa_by[label] = f, fs, fa
        res_sum = res_sum + f
        da = degree_of_asymmetry(n)
        meta.append(
            ResonanceMeta(
                label=label,
                epsilon=s.epsilon,
                gamma=s.gamma,
                norm=n,
                da=da,
                q=fano_q(da, -n.imag),
                near_degenerate=s.near_degenerate,
            )
        )

    lines: list[tuple[float, float]] = []
    for s in states:
        if s.state_class is StateClass.BOUND_I:
            lines.append((s.epsilon, model.transition_weight * bound_weight(model, s)))
        elif s.state_class is StateClass.BIC:
            lines.append((s.epsilon, model.transition_weight * bic_line_weight(model, s)))
    lines.sort()

    return SpectrumGrid(
        omega=omega,
        total=total,
        resonance_f=f_by,
        resonance_fs=fs_by,
        resonance_fa=fa_by,
        continuum_residual=total - res_sum,
        bound_lines=lines,
        per_state_meta=meta,
    )
