"""Absorption spectrum: exact Green's-function curve and its decomposition.

The exact spectrum is the boundary value

    F(Omega) = -(w/pi) * Im [ 1 / (Omega - e_d - g^2 Sigma(Omega + i0)) ]

on the physical sheet.  Inside the band s(Omega + i0) = i r with
r = sqrt(1 - Omega) sqrt(1 + Omega), so the curve is evaluated from the
band form Sigma = -i (v^2/r) [1 - w^(2 n_d)], with the uniformizing
variable w = Omega - i r: no complex square root or division, and bit
for bit the complex closed form at Omega + 0j.  Each resonance
contributes

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
from .model import ChainModel
from .selfenergy import _band_sigma
from .states import _norms, bic_line_weight, bound_weight, normalization

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


#: decompose's grid when it is given none; each call gets a copy.
_DEFAULT_GRID = default_grid()


def green_spectrum(model: ChainModel, omega) -> np.ndarray:
    """Exact absorption curve from the impurity Green's function.

    Points outside the open band return 0 (that weight lives in the
    discrete lines), and so does a BIC pole inside it, where the curve is
    0/0 (its weight is a line too); points exactly at +-1 are refused.
    The curve is computed on the whole grid, and one np.where zeroes both
    kinds of point.

    Sigma(Omega + i0) is the band form -i (v^2/r) [1 - w^(2 n_d)] of
    selfenergy._band_sigma, with r = sqrt(1 - Omega) sqrt(1 + Omega) and
    w = Omega - i r: no complex square root or division, and bit for bit
    the complex Sigma of selfenergy._sigma at Omega + 0j.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    abs_omega = np.abs(omega)
    if (abs_omega == 1.0).any():
        raise BranchPointError("grid point exactly at a band edge")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sig = _band_sigma(omega, model.n_d, model.v)
        g2 = model.g * model.g
        im_shift = g2 * sig.imag  # = g^2 Im Sigma <= 0
        den = (omega - model.e_d - g2 * sig.real) ** 2 + im_shift**2
        vals = (-model.transition_weight / np.pi) * im_shift / den
    return np.where((abs_omega < 1.0) & (den > 0.0), vals, 0.0)


def _component(omega: np.ndarray, eps: float, gam: float, n: complex, weight: float):
    """(f, fS, fA) of a resonance at eps - i gam with normalization n.

    Where (Omega - eps)^2 overflows the components are exactly 0; the
    caller silences that overflow, once per grid rather than per resonance.
    """
    d = omega - eps
    denom = d**2 + gam**2
    fs = (weight / np.pi) * gam / denom * n.real
    fa = (weight / np.pi) * d / denom * (-n.imag)
    return fs + fa, fs, fa


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
    with np.errstate(over="ignore"):
        return _component(omega, state.epsilon, state.gamma, n, model.transition_weight)


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
    cancel -- and carry the near_degenerate flag in the metadata.  A
    continuum residual that is not finite (a nan Omega or norm) raises
    FanochainError.
    """
    omega = _DEFAULT_GRID.copy() if omega is None else np.atleast_1d(np.asarray(omega, dtype=float))
    if states is None:
        states = discrete_states(model)

    total = green_spectrum(model, omega)

    resonances = [s for s in states if s.state_class is StateClass.RESONANCE]
    missing = iter(_norms(model, [s for s in resonances if s.norm is None]))
    f_by, fs_by, fa_by, meta = {}, {}, {}, []
    res_sum = np.zeros_like(total)
    with np.errstate(over="ignore"):  # far from a resonance its components are 0
        for s in resonances:
            n = s.norm if s.norm is not None else next(missing)
            f, fs, fa = _component(omega, s.epsilon, s.gamma, n, model.transition_weight)
            label = s.label or f"z={s.z:.6g}"
            f_by[label], fs_by[label], fa_by[label] = f, fs, fa
            res_sum += f
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

    continuum = total - res_sum
    bad = ~(np.abs(continuum) < np.inf)
    if bad.any():
        raise FanochainError(f"continuum residual is not finite at Omega = {omega[bad][0]}")

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
        continuum_residual=continuum,
        bound_lines=lines,
        per_state_meta=meta,
    )
