"""Discrete solutions of the nonlinear dispersion relation.

The eigenvalue condition is

    eta(z) = z - e_d - g^2 * Sigma(z) = 0

on the two-sheeted Riemann surface of s(z) = sqrt(z^2 - 1).  The
uniformizing variable w = z - s(z) maps that surface one-to-one onto the
w-plane: z = (w + 1/w)/2, sheet I is |w| < 1, sheet II is |w| > 1 and the
band is the unit circle.  There the self-energy is a plain polynomial,
Sigma = 2 v^2 w sum_{k<n_d} w^(2k), and 2 w eta is, exactly and without
squaring, the real polynomial

    p(w) = (w^2 - 2 e_d w + 1) - 4 g^2 v^2 w^2 sum_{k<n_d} w^(2k)

of degree 2 n_d (the infinite chain, Sigma = 2 v^2 w / (1 - w^2), gives
the quartic (w^2 - 2 e_d w + 1)(1 - w^2) - 4 g^2 v^2 w^2).  Each root of
p is one discrete state, and its sheet is read off from |w|.

Generic census for the semi-infinite chain: n_d - 1 decaying resonances in
the lower half of sheet II, their growing conjugate partners above, and
two real solutions pinned near the band edges.  The real pair sits on
sheet I (true bound states) only when the impurity level is pushed far
enough outside the band; for an in-band impurity the finite band-edge
self-energy Sigma(+-1) = +-2*n_d*v^2 leaves eta nonzero outside the band
on sheet I and the pair lives on sheet II instead (virtual states).  Both
placements are detected and reported honestly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev

from .errors import BranchPointError, ConvergenceError, ModelError, RootCountError
from .model import ChainModel, validate
from .selfenergy import Sheet, SheetedEnergy, self_energy, self_energy_deriv

#: Default acceptance threshold on |eta| at a reported root.
ROOT_TOL = 1e-12

#: Roots closer than this are one root reported twice.
DEDUP_TOL = 1e-9

#: Pairs surviving dedup but closer than this are flagged near-degenerate.
NEAR_DEGENERATE_TOL = 1e-6

#: |Im z| below this counts as a real *polished* root.
REAL_TOL = 1e-9


class StateClass(enum.Enum):
    """Classification of a discrete eigenvalue."""

    BOUND_I = "boundI"          # real, outside the band, physical sheet
    BOUND_II = "boundII"        # real, outside the band, second sheet (virtual)
    RESONANCE = "resonance"     # Im z < 0, second sheet
    ANTIRESONANCE = "antiresonance"  # Im z > 0, conjugate continuation
    BIC = "bic"                 # real, inside the band, zero width


@dataclass(frozen=True)
class DiscreteState:
    """One discrete eigenvalue record."""

    z: complex
    sheet: Sheet
    state_class: StateClass
    residual: float
    norm: complex | None = None
    near_degenerate: bool = False
    label: str | None = None

    @property
    def epsilon(self) -> float:
        """Resonance position Re z."""
        return self.z.real

    @property
    def gamma(self) -> float:
        """Decay rate, -Im z (positive for resonances)."""
        return -self.z.imag

    def sheeted(self) -> SheetedEnergy:
        return SheetedEnergy(self.z, self.sheet)


def bic_energies(model: ChainModel) -> list[float]:
    """Energies where the coupling vanishes inside the band.

    These are -cos(pi*k/n_d) for k = 1 .. n_d - 1, where the impurity
    decouples by interference with the wall.  The infinite chain has none.
    """
    validate(model)
    if not model.is_semi_infinite:
        raise ModelError("no BIC in the infinite chain")
    n = model.n_d
    return sorted(-math.cos(math.pi * k / n) for k in range(1, n))


def eta(model: ChainModel, z: SheetedEnergy) -> complex:
    """Dispersion function z - e_d - g^2 Sigma(z) on the tagged sheet."""
    return z.value - model.e_d - model.g**2 * self_energy(model, z)


def eta_deriv(model: ChainModel, z: SheetedEnergy, order: int = 1) -> complex:
    """d(eta)/dz (order 1) or d^2(eta)/dz^2 (order 2)."""
    if order == 1:
        return 1.0 - model.g**2 * self_energy_deriv(model, z, 1)
    if order == 2:
        return -model.g**2 * self_energy_deriv(model, z, 2)
    raise ValueError(f"order must be 1 or 2, got {order}")


def _w_coefficients(model: ChainModel) -> np.ndarray:
    """Ascending real coefficients of p(w), the dispersion relation in w.

    Trailing zeros (the g = 0 degeneration) are trimmed.
    """
    G = model.g**2 * model.v**2
    if model.is_semi_infinite:
        coeffs = np.zeros(2 * model.n_d + 1)
        coeffs[:3] = 1.0, -2.0 * model.e_d, 1.0
        coeffs[2::2] -= 4.0 * G
    else:
        # (w^2 - 2 e_d w + 1)(1 - w^2) - 4 G w^2, expanded
        coeffs = np.array([1.0, -2.0 * model.e_d, -4.0 * G, 2.0 * model.e_d, -1.0])
    return np.trim_zeros(coeffs, "b")


def polynomial_coefficients(model: ChainModel) -> np.ndarray:
    """Monic real coefficients (descending powers) of the dispersion relation in z.

    The roots are those of eta on *both* sheets: with a the autocorrelation
    of the coefficients of p(w),

        p(w) p(1/w) = a_0 + 2 sum_m a_m T_m(z),   z = (w + 1/w)/2,

    which is a polynomial in z of degree 2 n_d (4 for the infinite chain).
    """
    validate(model)
    coeffs = _w_coefficients(model)
    a = np.correlate(coeffs, coeffs, "full")[len(coeffs) - 1 :]
    a[1:] *= 2.0
    z_poly = chebyshev.cheb2poly(a)[::-1]
    return z_poly / z_poly[0]


def newton_polish(
    model: ChainModel,
    z0: complex,
    sheet: Sheet,
    tol: float = ROOT_TOL,
    max_iter: int = 80,
) -> tuple[complex, float]:
    """Newton iteration on eta from z0 on a fixed sheet.

    Returns the final iterate and |eta| there.  Raises ConvergenceError
    (with the iterate trace) if the residual never drops below tol.
    """
    z = complex(z0)
    trace = [z]
    best_res = float("inf")
    for _ in range(max_iter):
        try:
            f = eta(model, SheetedEnergy(z, sheet))
        except BranchPointError:
            z += 1e-14 + 1e-14j
            f = eta(model, SheetedEnergy(z, sheet))
        res = abs(f)
        best_res = min(best_res, res)
        if res < tol:
            return z, res
        fp = eta_deriv(model, SheetedEnergy(z, sheet))
        if fp == 0:
            break
        z = z - f / fp
        trace.append(z)
    raise ConvergenceError(
        f"Newton on eta stalled at |eta| = {best_res:.3e} (sheet {sheet.name})",
        trace=trace,
    )


def _w_roots(coeffs: np.ndarray) -> np.ndarray:
    """Companion-matrix roots of p(w), Newton-polished on p itself.

    A Newton step is kept only where it lowers |p|.  Real coefficients
    keep real roots exactly real and conjugate pairs exactly conjugate.
    """
    desc = coeffs[::-1]
    deriv = np.polyder(desc)
    w = np.roots(desc)
    f = np.abs(np.polyval(desc, w))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            trial = w - np.polyval(desc, w) / np.polyval(deriv, w)
            f_trial = np.abs(np.polyval(desc, trial))
            better = f_trial < f
            w = np.where(better, trial, w)
            f = np.where(better, f_trial, f)
    return w


def discrete_states(
    model: ChainModel,
    root_tol: float = ROOT_TOL,
    include_antiresonances: bool | None = None,
) -> list[DiscreteState]:
    """All discrete eigenvalues: the roots of the dispersion relation in w.

    The roots of p(w) (see the module docstring) come from its companion
    matrix and are Newton-polished on p.  Each maps to z = (w + 1/w)/2 on
    a sheet fixed by w alone: a real w is a real state outside the band,
    on sheet I (bound state) if |w| < 1 and on sheet II (virtual state)
    otherwise; a complex w is a sheet-II resonance (Im z < 0) or
    anti-resonance (Im z > 0).  When e_d sits exactly on a BIC energy the
    conjugate pair on |w| = 1 collapses to that one zero-width state.
    Every state must meet |eta(z)| < root_tol on its declared sheet.

    By default the anti-resonances are dropped from the semi-infinite
    output (leaving the n_d + 1 physical solutions) and kept for the
    infinite chain (whose four roots are conventionally quoted together).
    Pass ``include_antiresonances`` to override.

    Raises
    ------
    RootCountError
        If a root misses the |eta| gate (typically a real root so close to
        a band edge that no double z resolves it), or the states do not
        account for every root of p with resonances and anti-resonances
        paired.
    """
    validate(model)
    if include_antiresonances is None:
        include_antiresonances = not model.is_semi_infinite

    if model.g == 0.0:
        # Decoupled impurity: the single eigenvalue sits at e_d.
        inside = abs(model.e_d) < 1.0
        cls = StateClass.BIC if inside else StateClass.BOUND_I
        state = DiscreteState(
            z=complex(model.e_d, 0.0),
            sheet=Sheet.I,
            state_class=cls,
            residual=0.0,
        )
        return [state]

    coeffs = _w_coefficients(model)
    degree = len(coeffs) - 1
    e_bic = None
    if model.is_semi_infinite:
        e_bic = next((e for e in bic_energies(model) if abs(e - model.e_d) < 1e-12), None)

    accepted: list[DiscreteState] = []
    rejected: list[tuple[complex, float]] = []
    reasons: list[str] = []
    for w in _w_roots(coeffs):
        z = complex(0.5 * (w + 1.0 / w))
        if e_bic is not None and abs(z - e_bic) < 1e-6:
            # Impurity level exactly on a BIC: Sigma vanishes there, so the
            # conjugate pair on |w| = 1 is the one zero-width state z = e_d.
            z, sheet, cls = complex(e_bic, 0.0), Sheet.I, StateClass.BIC
        elif w.imag == 0.0:
            z = complex(z.real, 0.0)
            sheet = Sheet.I if abs(w) < 1.0 else Sheet.II
            cls = StateClass.BOUND_I if sheet is Sheet.I else StateClass.BOUND_II
        else:
            sheet = Sheet.II
            cls = StateClass.RESONANCE if z.imag < 0 else StateClass.ANTIRESONANCE
        try:
            res = abs(eta(model, SheetedEnergy(z, sheet)))
        except BranchPointError:
            res = float("inf")
        if res < root_tol:
            accepted.append(DiscreteState(z=z, sheet=sheet, state_class=cls, residual=res))
            continue
        # eta has a square-root singularity at z = +-1: this close to a band
        # edge, one ulp of z moves |eta| by far more than root_tol.
        rejected.append((z, res))
        reasons.append(
            f"z = {z:.17g} on sheet {sheet.name}, {min(abs(z - 1), abs(z + 1)):.1e} from "
            f"the band edge: |eta| = {res:.1e} >= root_tol = {root_tol:.1e}"
        )

    if rejected:
        raise RootCountError(
            f"{len(rejected)} of {degree} roots failed the |eta| gate: " + "; ".join(reasons),
            candidates=rejected,
        )

    accepted = _dedup(accepted)
    accepted = _flag_near_degenerate(accepted)

    # Structural audit: every root of p is one state, except that a BIC
    # absorbs the conjugate pair it came from.  (The physics census --
    # n_d - 1 resonances plus two real solutions for an in-band impurity
    # level -- is parameter-dependent: outside the band at weak coupling a
    # resonance pair degenerates into two extra real virtual states.  That
    # census is asserted where it holds, not here.)
    expected_total = degree - (e_bic is not None)
    if len(accepted) != expected_total:
        raise RootCountError(
            f"polynomial of degree {degree} yielded {len(accepted)} classified "
            f"states (expected {expected_total})",
            candidates=[(s.z, s.residual) for s in accepted],
        )
    resonances = [s for s in accepted if s.state_class is StateClass.RESONANCE]
    antis = [s for s in accepted if s.state_class is StateClass.ANTIRESONANCE]
    if len(resonances) != len(antis):
        raise RootCountError(
            f"unpaired resonances: {len(resonances)} vs {len(antis)} anti-resonances",
            candidates=[(s.z, s.residual) for s in accepted],
        )

    if not include_antiresonances:
        accepted = [s for s in accepted if s.state_class is not StateClass.ANTIRESONANCE]

    return _sort_and_label(accepted)


def _dedup(states: list[DiscreteState]) -> list[DiscreteState]:
    out: list[DiscreteState] = []
    for s in states:
        dup = next(
            (t for t in out if t.state_class is s.state_class and abs(t.z - s.z) < DEDUP_TOL),
            None,
        )
        if dup is None:
            out.append(s)
    return out


def _flag_near_degenerate(states: list[DiscreteState]) -> list[DiscreteState]:
    flagged = list(states)
    for i in range(len(flagged)):
        for j in range(i + 1, len(flagged)):
            a, b = flagged[i], flagged[j]
            if a.state_class is b.state_class and abs(a.z - b.z) < NEAR_DEGENERATE_TOL:
                flagged[i] = replace(a, near_degenerate=True)
                flagged[j] = replace(b, near_degenerate=True)
    return flagged


_ROMAN = ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x"]


def roman_label(index: int) -> str:
    return _ROMAN[index] if index < len(_ROMAN) else f"r{index + 1}"


def _sort_and_label(states: list[DiscreteState]) -> list[DiscreteState]:
    """Deterministic order and branch labels.

    Resonances are labelled (i), (ii), ... by ascending width, matching
    how the narrowest (dominant) state is singled out in spectra; real
    solutions get b1, b2, ... by ascending energy, anti-resonances a1, ...
    """
    resonances = sorted(
        (s for s in states if s.state_class is StateClass.RESONANCE),
        key=lambda s: (s.gamma, s.epsilon),
    )
    bics = sorted((s for s in states if s.state_class is StateClass.BIC), key=lambda s: s.epsilon)
    reals = sorted(
        (s for s in states if s.state_class in (StateClass.BOUND_I, StateClass.BOUND_II)),
        key=lambda s: s.epsilon,
    )
    antis = sorted(
        (s for s in states if s.state_class is StateClass.ANTIRESONANCE),
        key=lambda s: (-s.z.imag, s.epsilon),
    )
    out = []
    for idx, s in enumerate(resonances):
        out.append(replace(s, label=roman_label(idx)))
    for idx, s in enumerate(bics):
        out.append(replace(s, label=f"bic{idx + 1}"))
    for idx, s in enumerate(reals):
        out.append(replace(s, label=f"b{idx + 1}"))
    for idx, s in enumerate(antis):
        out.append(replace(s, label=f"a{idx + 1}"))
    return out


def polish_seeds(
    model: ChainModel,
    seeds: list[tuple[complex, Sheet]],
    root_tol: float = ROOT_TOL,
) -> list[DiscreteState]:
    """Newton-polish user-supplied (z, sheet) seeds and classify the results.

    Used by the CLI round trip, where previously exported roots are
    re-ingested verbatim.
    """
    validate(model)
    out = []
    for z0, sheet in seeds:
        z, res = newton_polish(model, z0, sheet, root_tol)
        if abs(z.imag) < REAL_TOL:
            z = complex(z.real, 0.0)
            if abs(z.real) > 1.0:
                cls = StateClass.BOUND_I if sheet is Sheet.I else StateClass.BOUND_II
            else:
                cls = StateClass.BIC
        elif z.imag < 0:
            cls = StateClass.RESONANCE
        else:
            cls = StateClass.ANTIRESONANCE
        out.append(DiscreteState(z=z, sheet=sheet, state_class=cls, residual=res))
    return _sort_and_label(_flag_near_degenerate(_dedup(out)))
