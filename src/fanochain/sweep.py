"""Trajectory tracing and exceptional-point location.

Continuation uses the identity dz/de_d = N (the normalization constant)
as a free analytic Euler predictor, followed by Newton correction on the
dispersion function; g-sweeps use the corresponding dz/dg = 2 g Sigma N.
Exceptional points are double roots of the dispersion relation, solved as
the four-real-unknown system {Re eta, Im eta, Re eta', Im eta'} = 0 in
(Re z, Im z, g, e_d) by damped Newton with closed-form derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dispersion import (
    _OK,
    _RESONANCE,
    ROOT_TOL,
    DiscreteState,
    StateClass,
    _census,
    discrete_states,
    eta,
    eta_deriv,
    newton_polish,
    roman_label,
)
from .errors import ConvergenceError, FanochainError, ModelError
from .model import ChainModel, validate
from .selfenergy import Sheet, SheetedEnergy, self_energy, self_energy_deriv

#: Residual bound on |eta| and |eta'| at a reported exceptional point.
EP_TOL = 1e-10

#: Two corrected branches closer than this are flagged as colliding.
COLLISION_TOL = 1e-6

#: Cap on cells * deg^2 for one batched census of the EP scan, where deg is
#: the degree of p(w): 2 n_d, or 4 for the infinite chain.  The census holds
#: several (cells, deg, deg) arrays, so this bounds the scan's memory
#: whatever the grid and n_d; a 16 x 16 grid up to n_d = 22 is one block.
SCAN_BLOCK = 2**19


@dataclass(frozen=True)
class TrajectoryPoint:
    """One sampled point of one branch."""

    value: float
    z: complex
    bic: bool = False          # branch pinned on the real axis (zero width)
    collision: bool = False    # another branch claimed (nearly) the same root
    crossed_axis: bool = False  # passed through a BIC pinch since last sample


@dataclass(frozen=True)
class TrajectoryBranch:
    label: str
    points: list[TrajectoryPoint]


@dataclass(frozen=True)
class Trajectory:
    """Resonance trajectories over one swept parameter."""

    parameter: str
    values: np.ndarray
    branches: list[TrajectoryBranch] = field(default_factory=list)


@dataclass(frozen=True)
class EpSeed:
    """Starting guess for the double-root Newton solve."""

    g: float
    e_d: float
    z: complex
    pair_distance: float


@dataclass(frozen=True)
class EpResult:
    """A located exceptional point with its defining residuals."""

    g: float
    e_d: float
    z: complex
    residual_eta: float
    residual_eta_prime: float


def _predictor(model: ChainModel, z: complex, parameter: str) -> complex:
    n = 1.0 / eta_deriv(model, SheetedEnergy(z, Sheet.II))
    if parameter == "e_d":
        return n
    # eta = z - e_d - g^2 Sigma  =>  dz/dg = 2 g Sigma / eta'
    return 2.0 * model.g * self_energy(model, SheetedEnergy(z, Sheet.II)) * n


def _model_at(model: ChainModel, parameter: str, value: float) -> ChainModel:
    """Copy of the model at one parameter value, not re-validated: trace
    validates the ends of the sweep, and a sorted sweep stays inside them."""
    return replace(model, **{parameter: float(value)})


def trace(
    model: ChainModel,
    parameter: str,
    values,
    root_tol: float = 1e-12,
    max_halvings: int = 18,
) -> Trajectory:
    """Trace every resonance branch over the sorted parameter values.

    Branches are labelled (i), (ii), ... by ascending Re z at the first
    value and followed by predictor-corrector continuation with adaptive
    sub-stepping (the step is halved whenever the Newton correction
    exceeds 10% of the predicted move).  A branch that dives through the
    real axis at a BIC pinch is reflected back to its decaying conjugate
    and the passage is marked; a branch sampled exactly at a pinch is
    pinned to the axis and marked as the singular BIC point.
    """
    if parameter not in ("e_d", "g"):
        raise FanochainError(f"parameter must be 'e_d' or 'g', got {parameter!r}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise FanochainError("need at least two parameter values")
    if not np.all(np.diff(values) > 0):
        raise FanochainError("parameter values must be strictly increasing")
    validate(model)
    start_model = validate(_model_at(model, parameter, values[0]))
    validate(_model_at(model, parameter, values[-1]))
    start_states = [
        s for s in discrete_states(start_model) if s.state_class is StateClass.RESONANCE
    ]
    start_states.sort(key=lambda s: s.epsilon)
    branches: list[list[TrajectoryPoint]] = []
    current: list[complex] = []
    for s in start_states:
        branches.append([TrajectoryPoint(values[0], s.z)])
        current.append(s.z)

    for v_prev, v_next in zip(values[:-1], values[1:]):
        new_points = []
        for z in current:
            new_points.append(
                _continue_branch(model, parameter, z, v_prev, v_next, root_tol, max_halvings)
            )
        # collision check: two branches on (nearly) the same root
        for i in range(len(new_points)):
            for j in range(i + 1, len(new_points)):
                if abs(new_points[i].z - new_points[j].z) < COLLISION_TOL:
                    new_points[i] = replace(new_points[i], collision=True)
                    new_points[j] = replace(new_points[j], collision=True)
        for br, pt in zip(branches, new_points):
            br.append(pt)
        current = [pt.z for pt in new_points]

    labelled = [
        TrajectoryBranch(label=roman_label(k), points=pts) for k, pts in enumerate(branches)
    ]
    return Trajectory(parameter=parameter, values=values, branches=labelled)


def _continue_branch(model, parameter, z, v_from, v_to, root_tol, max_halvings):
    """Advance one branch from v_from to v_to with adaptive sub-steps."""
    v, cur = float(v_from), complex(z)
    m_here = _model_at(model, parameter, v)
    h = v_to - v_from
    halvings = 0
    crossed = False
    while v < v_to - 1e-15:
        h = min(h, v_to - v)
        pred = cur + _predictor(m_here, cur, parameter) * h
        m_next = _model_at(model, parameter, v + h)
        try:
            zc, _res = newton_polish(m_next, pred, Sheet.II, root_tol)
        except ConvergenceError:
            if halvings < max_halvings:
                h *= 0.5
                halvings += 1
                continue
            raise
        correction = abs(zc - pred)
        move = abs(pred - cur)
        if correction > 0.1 * move + 1e-12 and halvings < max_halvings:
            h *= 0.5
            halvings += 1
            continue
        if zc.imag > 1e-12:
            # went through a BIC pinch onto the growing side; the physical
            # resonance continues on the conjugate
            zc = zc.conjugate()
            crossed = True
        cur, v, m_here = zc, v + h, m_next
        h *= 2.0
        halvings = max(0, halvings - 1)

    bic = abs(cur.imag) <= 1e-12
    if bic:
        cur = complex(cur.real, 0.0)
    return TrajectoryPoint(value=float(v_to), z=cur, bic=bic, crossed_axis=crossed)


def find_ep(
    model: ChainModel,
    seed: EpSeed | tuple,
    ep_tol: float = EP_TOL,
    max_iter: int = 200,
) -> EpResult:
    """Solve the double-root system for an exceptional point near the seed.

    Unknowns are (Re z, Im z, g, e_d); the Jacobian is assembled from the
    closed-form first and second self-energy derivatives.  Steps are
    damped by halving until the residual norm decreases.

    Raises
    ------
    ConvergenceError
        If the residuals do not drop below ep_tol, or the solution drifts
        to a non-positive coupling.
    """
    validate(model)
    if isinstance(seed, EpSeed):
        g, e_d, z = seed.g, seed.e_d, complex(seed.z)
    else:
        g, e_d, z = float(seed[0]), float(seed[1]), complex(seed[2])

    trace_pts = [(z, g, e_d)]
    for _ in range(max_iter):
        m = model.with_params(g=g, e_d=e_d)
        se = SheetedEnergy(z, Sheet.II)
        sig = self_energy(m, se)
        sig1 = self_energy_deriv(m, se, 1)
        sig2 = self_energy_deriv(m, se, 2)
        f1 = z - e_d - g * g * sig          # eta
        f2 = 1.0 - g * g * sig1             # eta'
        F = np.array([f1.real, f1.imag, f2.real, f2.imag])
        if abs(f1) < ep_tol and abs(f2) < ep_tol:
            if g <= 0:
                raise ConvergenceError(
                    f"double-root Newton converged to non-physical g = {g}", trace=trace_pts
                )
            return EpResult(g=g, e_d=e_d, z=z, residual_eta=abs(f1), residual_eta_prime=abs(f2))

        d1z = f2                    # d(eta)/dz = eta'
        d1g = -2.0 * g * sig
        d2z = -g * g * sig2         # d(eta')/dz
        d2g = -2.0 * g * sig1
        jac = np.array(
            [
                [d1z.real, -d1z.imag, d1g.real, -1.0],
                [d1z.imag, d1z.real, d1g.imag, 0.0],
                [d2z.real, -d2z.imag, d2g.real, 0.0],
                [d2z.imag, d2z.real, d2g.imag, 0.0],
            ]
        )
        try:
            step = np.linalg.solve(jac, -F)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian in EP solve: {exc}", trace=trace_pts)

        norm0 = np.linalg.norm(F)
        lam = 1.0
        for _damp in range(40):
            z_t = z + lam * complex(step[0], step[1])
            g_t = g + lam * step[2]
            e_t = e_d + lam * step[3]
            try:
                m_t = model.with_params(g=max(g_t, 1e-12), e_d=e_t)
                f1_t = eta(m_t, SheetedEnergy(z_t, Sheet.II))
                f2_t = eta_deriv(m_t, SheetedEnergy(z_t, Sheet.II))
                if (
                    np.linalg.norm([f1_t.real, f1_t.imag, f2_t.real, f2_t.imag])
                    < norm0
                ):
                    break
            except FanochainError:
                pass
            lam *= 0.5
        z = z + lam * complex(step[0], step[1])
        g = g + lam * step[2]
        e_d = e_d + lam * step[3]
        if g <= 0:
            raise ConvergenceError(
                f"EP Newton drifted to non-physical g = {g}; rejected", trace=trace_pts
            )
        trace_pts.append((z, g, e_d))

    raise ConvergenceError(
        f"EP Newton did not reach residual {ep_tol} within {max_iter} iterations "
        f"(final |eta| = {abs(f1):.3e}, |eta'| = {abs(f2):.3e})",
        trace=trace_pts,
    )


def _closest_pairs(model: ChainModel, gs: np.ndarray, eds: np.ndarray):
    """Closest resonance-pair distance and midpoint on the (g, e_d) grid.

    Cells with fewer than two resonances, and cells where discrete_states
    would raise, get distance inf.  The cells are solved in blocks of at
    most SCAN_BLOCK / deg^2.
    """
    g_cells, ed_cells = (c.ravel() for c in np.meshgrid(gs, eds, indexing="ij"))
    dist = np.full(g_cells.size, np.inf)
    mid = np.zeros(g_cells.size, dtype=complex)
    deg = 2 * model.n_d if model.is_semi_infinite else 4
    block = max(1, SCAN_BLOCK // deg**2)
    for start in range(0, g_cells.size, block):
        cells = slice(start, start + block)
        census = _census(model, ed_cells[cells], g_cells[cells], ROOT_TOL)
        z = census.z
        resonance = census.kept & (census.cls == _RESONANCE) & (census.fault == _OK)[:, None]
        a, b = np.triu_indices(z.shape[1], 1)
        gap = np.where(resonance[:, a] & resonance[:, b], np.abs(z[:, a] - z[:, b]), np.inf)
        if gap.size:  # empty when no cell was solved or p has fewer than two roots
            best = gap.argmin(axis=1)
            k = np.arange(len(z))
            dist[start + census.rows] = gap[k, best]
            mid[start + census.rows] = 0.5 * (z[k, a[best]] + z[k, b[best]])
    return dist.reshape(len(gs), len(eds)), mid.reshape(len(gs), len(eds))


def scan_for_ep_seeds(
    model: ChainModel,
    g_range: tuple[float, float],
    ed_range: tuple[float, float],
    n_g: int = 16,
    n_ed: int = 16,
    threshold: float = 0.2,
) -> list[EpSeed]:
    """Grid scan for near-coalescing resonance pairs, as EP Newton seeds.

    Every returned cell is a local minimum of the closest-pair distance
    over the grid and lies below the threshold.  Seeds are sorted by pair
    distance, closest first.

    The whole grid is solved at once: its dispersion polynomials differ
    only in the e_d and g coefficients, so they form one stack of
    companion matrices for a single eigenvalue call, classified and
    audited as discrete_states does.  A cell where discrete_states would
    raise (a root failing the |eta| gate, or a failed count or pairing
    audit) holds no pair and is skipped, as is a cell with g = 0.

    The threshold is deliberately generous: the pair splitting grows like
    the square root of the parameter distance to the coalescence point
    (about 1.0 * sqrt(delta) for the semi-infinite chain), so any grid of
    desk-scale resolution sees minima of order 0.05-0.2, all of which sit
    comfortably inside the Newton basin of the double-root solve.

    Raises
    ------
    ModelError
        If a range endpoint is not finite or the g range starts below 0.
    """
    validate(model)
    if n_g <= 0 or n_ed <= 0:
        raise FanochainError("grid sizes must be positive")
    if not all(math.isfinite(x) for x in (*g_range, *ed_range)):
        raise ModelError(f"scan ranges must be finite, got g {g_range}, e_d {ed_range}")
    if g_range[0] < 0:
        raise ModelError(f"g must be >= 0, got g range {g_range}")
    if g_range[0] > g_range[1] or ed_range[0] > ed_range[1]:
        return []
    gs = np.linspace(g_range[0], g_range[1], n_g)
    eds = np.linspace(ed_range[0], ed_range[1], n_ed)

    dist, mid = _closest_pairs(model, gs, eds)
    seeds = []
    for i in range(n_g):
        for j in range(n_ed):
            d = dist[i, j]
            if not np.isfinite(d) or d >= threshold:
                continue
            neighbours = [
                dist[i + di, j + dj]
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
                if (di or dj) and 0 <= i + di < n_g and 0 <= j + dj < n_ed
            ]
            if all(d <= nb for nb in neighbours):
                seeds.append(
                    EpSeed(g=float(gs[i]), e_d=float(eds[j]), z=complex(mid[i, j]), pair_distance=float(d))
                )
    seeds.sort(key=lambda s: s.pair_distance)
    return seeds
