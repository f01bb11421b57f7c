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

from .errors import ConvergenceError, ModelError, RootCountError
from .model import ChainModel, validate
from .selfenergy import Sheet, SheetedEnergy, _sigma, _sigma_at, self_energy, self_energy_deriv

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


def _w_coefficients(model: ChainModel, e_d: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Ascending real coefficients of p(w), one row per (e_d, g^2) pair."""
    G = g2 * model.v**2
    if model.is_semi_infinite:
        coeffs = np.zeros((len(e_d), 2 * model.n_d + 1))
        coeffs[:, 0], coeffs[:, 1], coeffs[:, 2] = 1.0, -2.0 * e_d, 1.0
        coeffs[:, 2::2] -= 4.0 * G[:, None]
        return coeffs
    # (w^2 - 2 e_d w + 1)(1 - w^2) - 4 G w^2, expanded
    one = np.ones_like(e_d)
    return np.stack([one, -2.0 * e_d, -4.0 * G, 2.0 * e_d, -one], axis=1)


def newton_polish(
    model: ChainModel,
    z0: complex,
    sheet: Sheet,
    tol: float = ROOT_TOL,
    max_iter: int = 80,
) -> tuple[complex, float]:
    """Newton iteration on eta from z0 on a fixed sheet.

    Returns the final iterate and |eta| there.  Raises ConvergenceError
    (with the iterate trace) if the residual never drops below tol, and
    BranchPointError if an iterate lands exactly on z = +-1.
    """
    z = complex(z0)
    trace = [z]
    best_res = float("inf")
    g2 = model.g**2
    for _ in range(max_iter):
        sig, sig1 = _sigma_at(model, SheetedEnergy(z, sheet), 1)
        f = z - model.e_d - g2 * sig
        res = abs(f)
        best_res = min(best_res, res)
        if res < tol:
            return z, res
        fp = 1.0 - g2 * sig1
        if fp == 0:
            break
        z = z - f / fp
        trace.append(z)
    raise ConvergenceError(
        f"Newton on eta stalled at |eta| = {best_res:.3e} (sheet {sheet.name})",
        trace=trace,
    )


def _horner(desc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.polyval row by row: row i of desc (descending) at every x[i, :]."""
    y = np.zeros_like(x)
    for c in desc.T:
        y = y * x + c[:, None]
    return y


def _w_roots(coeffs: np.ndarray) -> np.ndarray:
    """Companion-matrix roots of a stack of polynomials p(w), Newton-polished on p.

    coeffs is an (N, deg + 1) stack of ascending coefficients with nonzero
    leading terms; row i of the (N, deg) result holds the roots of row i.
    The companion matrices are built as np.roots builds them and go to one
    np.linalg.eigvals call, and the Horner loop starts from zero as
    np.polyval does, so a single row gives bit for bit the roots np.roots
    and np.polyval would.  A Newton step is kept only where it lowers |p|.
    Real coefficients keep real roots exactly real and conjugate pairs
    exactly conjugate.
    """
    desc = coeffs[:, ::-1]
    n, deg = desc.shape[0], desc.shape[1] - 1
    companion = np.zeros((n, deg, deg))
    companion[:, :1, :] = (-desc[:, 1:] / desc[:, :1])[:, None, :]
    companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    w = np.linalg.eigvals(companion)
    deriv = desc[:, :-1] * np.arange(deg, 0, -1)
    p = _horner(desc, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            trial = w - p / _horner(deriv, w)
            p_trial = _horner(desc, trial)
            better = np.abs(p_trial) < np.abs(p)
            w = np.where(better, trial, w)
            p = np.where(better, p_trial, p)
    return w


#: StateClass by the integer code the batched census uses.
_CLASSES = tuple(StateClass)
_BOUND_I, _BOUND_II, _RESONANCE, _ANTIRESONANCE, _BIC = range(len(_CLASSES))

#: Census faults, in the order discrete_states checks them.
_OK, _GATE, _COUNT, _PAIRING = range(4)


@dataclass(frozen=True)
class _Census:
    """Classified roots of p(w) for a stack of (e_d, g) rows of one chain.

    Only the rows listed in ``rows`` are solved: those with g > 0 whose
    leading coefficient survives.  All other arrays have one row per
    solved row and one column per root of p.
    """

    rows: np.ndarray             # indices into the (e_d, g) input
    z: np.ndarray                # complex energy of each root
    sheet_ii: np.ndarray         # root lies on sheet II
    cls: np.ndarray              # StateClass code, index into _CLASSES
    residual: np.ndarray         # |eta(z)| on the declared sheet
    kept: np.ndarray             # not a duplicate of an earlier root
    near_degenerate: np.ndarray  # kept, with a same-class partner within NEAR_DEGENERATE_TOL
    expected: np.ndarray         # states the row must yield: deg, less one at a BIC e_d
    fault: np.ndarray            # _OK or the first audit the row fails


def _census(model: ChainModel, e_d, g, root_tol: float) -> _Census:
    """Roots of p(w) for every (e_d, g) row of one chain, classified and audited.

    This is the per-root work of discrete_states done on arrays: map each
    root to z = (w + 1/w)/2, read the sheet from |w|, collapse the |w| = 1
    pair at an exact BIC e_d, gate on |eta(z)| < root_tol, drop duplicates
    and audit the count and the resonance/anti-resonance pairing.  A row
    whose ``fault`` is not _OK is one where discrete_states raises.

    Rows with g = 0 (one decoupled state, handled by discrete_states) and
    rows whose leading coefficient cancels (n_d = 1 at 4 g^2 v^2 = 1, when
    other rows keep the full degree) are not solved.
    """
    e_d = np.asarray(e_d, dtype=float)
    g = np.asarray(g, dtype=float)
    rows = np.flatnonzero(g > 0)
    # Python's float power, as the scalar model code squares g: numpy
    # squares by multiplication, which can differ in the last bit.
    g2 = np.array([x**2 for x in g[rows].tolist()])
    coeffs = _w_coefficients(model, e_d[rows], g2)
    # Powers of w that vanish in every row go, as np.roots strips them; a
    # row that still loses its leading term is left out.
    coeffs = coeffs[:, : np.flatnonzero(coeffs.any(axis=0)).max(initial=0) + 1]
    full = coeffs[:, -1] != 0
    rows, g2, coeffs = rows[full], g2[full], coeffs[full]
    e_d = e_d[rows][:, None]
    g2 = g2[:, None]
    w = _w_roots(coeffs)
    deg = w.shape[1]

    with np.errstate(divide="ignore", invalid="ignore"):
        z = (0.5 * (w + 1.0 / w)).astype(complex)
    real_w = w.imag == 0.0
    sheet_ii = ~real_w | (np.abs(w) >= 1.0)
    cls = np.where(
        real_w,
        np.where(sheet_ii, _BOUND_II, _BOUND_I),
        np.where(z.imag < 0, _RESONANCE, _ANTIRESONANCE),
    )
    e_bic = np.full(e_d.shape, np.nan)
    if model.is_semi_infinite:
        energies = np.array(bic_energies(model))
        # The BIC energies lie far apart: a row hits at most one.
        i, k = np.nonzero(np.abs(energies - e_d) < 1e-12)
        e_bic[i, 0] = energies[k]
    # Impurity level exactly on a BIC: Sigma vanishes there, so the
    # conjugate pair on |w| = 1 is the one zero-width state z = e_d.
    bic = np.abs(z - e_bic) < 1e-6
    z = np.where(bic, e_bic, np.where(real_w, z.real, z))
    sheet_ii &= ~bic
    cls = np.where(bic, _BIC, cls)

    # |eta| on the declared sheet, with real z on the +i0 side of the cut;
    # eta is singular at the branch points.
    branch = (z == 1.0) | (z == -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        (sigma,) = _sigma(np.where(z.imag == 0.0, z.real, z), sheet_ii, model.n_d, model.v)
        residual = np.where(branch, np.inf, np.abs(z - e_d - g2 * sigma))

    kept, near = _dedup(z, cls)
    expected = deg - ~np.isnan(e_bic[:, 0])
    res = (kept & (cls == _RESONANCE)).sum(axis=1)
    anti = (kept & (cls == _ANTIRESONANCE)).sum(axis=1)
    fault = np.where(
        ~(residual < root_tol).all(axis=1),
        _GATE,
        np.where(kept.sum(axis=1) != expected, _COUNT, np.where(res != anti, _PAIRING, _OK)),
    )
    return _Census(rows, z, sheet_ii, cls, residual, kept, near, expected, fault)


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

    census = _census(model, [model.e_d], [model.g], root_tol)
    states = [
        DiscreteState(
            z=complex(z),
            sheet=Sheet.II if ii else Sheet.I,
            state_class=_CLASSES[c],
            residual=float(r),
            near_degenerate=bool(near),
        )
        for z, ii, c, r, near in zip(
            census.z[0], census.sheet_ii[0], census.cls[0], census.residual[0],
            census.near_degenerate[0],
        )
    ]
    degree = len(states)
    fault = census.fault[0]
    if fault == _GATE:
        # eta has a square-root singularity at z = +-1: this close to a band
        # edge, one ulp of z moves |eta| by far more than root_tol.
        rejected = [s for s in states if not s.residual < root_tol]
        reasons = [
            f"z = {s.z:.17g} on sheet {s.sheet.name}, "
            f"{min(abs(s.z - 1), abs(s.z + 1)):.1e} from the band edge: "
            f"|eta| = {s.residual:.1e} >= root_tol = {root_tol:.1e}"
            for s in rejected
        ]
        raise RootCountError(
            f"{len(rejected)} of {degree} roots failed the |eta| gate: " + "; ".join(reasons),
            candidates=[(s.z, s.residual) for s in rejected],
        )

    # Structural audit: every root of p is one state, except that a BIC
    # absorbs the conjugate pair it came from.  (The physics census --
    # n_d - 1 resonances plus two real solutions for an in-band impurity
    # level -- is parameter-dependent: outside the band at weak coupling a
    # resonance pair degenerates into two extra real virtual states.  That
    # census is asserted where it holds, not here.)
    accepted = [s for s, kept in zip(states, census.kept[0]) if kept]
    if fault == _COUNT:
        raise RootCountError(
            f"polynomial of degree {degree} yielded {len(accepted)} classified "
            f"states (expected {census.expected[0]})",
            candidates=[(s.z, s.residual) for s in accepted],
        )
    if fault == _PAIRING:
        n_res = sum(s.state_class is StateClass.RESONANCE for s in accepted)
        n_anti = sum(s.state_class is StateClass.ANTIRESONANCE for s in accepted)
        raise RootCountError(
            f"unpaired resonances: {n_res} vs {n_anti} anti-resonances",
            candidates=[(s.z, s.residual) for s in accepted],
        )

    if not include_antiresonances:
        accepted = [s for s in accepted if s.state_class is not StateClass.ANTIRESONANCE]

    return _sort_and_label(accepted)


def _dedup(z: np.ndarray, cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep and near-degenerate flags for rows of classified roots.

    A root is dropped when an earlier root of its row has the same class
    and lies within DEDUP_TOL; two kept roots of one class closer than
    NEAR_DEGENERATE_TOL are both flagged near-degenerate.
    """
    n = z.shape[-1]
    same = cls[..., :, None] == cls[..., None, :]
    gap = np.abs(z[..., :, None] - z[..., None, :])
    kept = ~(same & (gap < DEDUP_TOL) & np.tri(n, k=-1, dtype=bool)).any(axis=-1)
    near = same & (gap < NEAR_DEGENERATE_TOL) & ~np.eye(n, dtype=bool) & kept[..., None, :]
    return kept, near.any(axis=-1) & kept


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
    kept, near = _dedup(
        np.array([s.z for s in out], dtype=complex),
        np.array([s.state_class for s in out], dtype=object),
    )
    out = [replace(s, near_degenerate=bool(n)) for s, k, n in zip(out, kept, near) if k]
    return _sort_and_label(out)
