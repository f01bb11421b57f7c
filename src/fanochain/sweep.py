"""Trajectory tracing and exceptional-point location.

A trajectory solves its sweep as one stack of dispersion polynomials p(w)
(the batched census of the EP scan in sweep mode): every 4th value by its
companion matrix, and each value between from its anchor's roots, moved
by their Euler step and Newton-polished on p, wherever the result is
certified (pairwise disjoint inclusion discs, one root in each), else
by its companion matrix too.  It then links each branch from one value
to the next in w, where both sheets form one plane and roots move
continuously through the band: to the root nearest its Euler prediction,
with dw/dq = -(dp/dq)/p'(w) read off p in closed form (in z this is the
identity dz/de_d = N, the normalization).
Exceptional points are double roots of p.  Since p is linear in (e_d, g^2),
p = p' = 0 gives both in closed form at every w, and the EP is the w where
both come out real: Newton in w alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dispersion import _BOUND_I, _BOUND_II, _RESONANCE, ROOT_TOL, roman_label
from .dispersion import _audit, _census, _rate_terms, _residual, _w_coefficients, _w_rows
from .errors import ConvergenceError, ModelError
from .model import ChainModel
from .selfenergy import Sheet, SheetedEnergy, _sigma_at, sqrt_branch

#: Residual bound on |eta| and |eta'| at a reported exceptional point.
EP_TOL = 1e-10

#: Two corrected branches closer than this are flagged as colliding.
COLLISION_TOL = 1e-6

#: Cap on rows * deg^2 for one batched census of an EP scan or a trace, where
#: deg is the degree of p(w): 2 n_d, or 4 for the infinite chain.  The census
#: holds several (rows, deg, deg) arrays, so this bounds the memory whatever
#: the grid, sweep and n_d; a 16 x 16 grid up to n_d = 22 is one block.
SCAN_BLOCK = 2**19


class TrajectoryPoint(NamedTuple):
    """One sampled point of one branch (a named tuple: immutable, equal by fields)."""

    value: float
    z: complex
    bic: bool = False          # branch pinned on the real axis inside the band (zero width)
    collision: bool = False    # another branch claimed (nearly) the same root
    crossed_axis: bool = False  # linked to an anti-resonance (Im w > 0), went on from its conjugate


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


def _census_block(model: ChainModel) -> tuple[int, int]:
    """The degree deg of p(w) and the most rows one batched census holds, SCAN_BLOCK / deg^2."""
    deg = _w_rows(model).shape[1] - 1
    return deg, max(1, SCAN_BLOCK // deg**2)


def trace(model: ChainModel, parameter: str, values, root_tol: float = ROOT_TOL) -> Trajectory:
    """Trace every resonance branch over the sorted parameter values.

    The whole sweep is solved as one stack of polynomials p(w), in blocks
    of at most SCAN_BLOCK / deg^2 values (a block that starts between
    anchors solves its anchor too).  Every 4th value of the sweep is an
    anchor, solved by its companion matrix; each value between starts from
    its anchor's roots moved by their rate, and keeps the Newton-polished
    roots only where they are certified (_certified_roots: every root's
    Newton stalled, backward errors at rounding level, pairwise disjoint
    inclusion discs), else it too is a companion-matrix solve.  So a
    value's roots depend only on its own parameters and its anchor's, and
    the blocks do not change the result.  Branches are the resonances of
    its first row, classed as discrete_states classes them and labelled
    (i), (ii), ... by ascending Re z (then ascending width).  Each branch
    is linked in w to the root nearest its Euler prediction
    w + (dw/dq) dq at the next value, sheet-I roots aside.
    At a BIC pinch the decaying root only touches |w| = 1.  A link to an
    anti-resonance (Im w > 0) goes on from its conjugate and is marked
    crossed_axis.  Past a real-axis EP a branch follows, of the real roots
    nearer it than any other root was, the one with the larger |w|.  A
    point within 1e-12 of the axis is pinned to it, and marked bic if it
    lies inside the band (|Re z| < 1); branches closer than COLLISION_TOL are marked collision.

    The census of the sweep is not audited as discrete_states audits a
    model: the |eta| < root_tol gate reads only the start roots and the
    roots the branches link to (before a crossed_axis conjugation), once
    each block is linked, and no other root is gated.

    Raises
    ------
    ModelError
        If the parameter is not 'e_d' or 'g', if there are fewer than two
        values or they are not strictly increasing, or if the model at the
        first or last value is invalid.
    ConvergenceError
        If a start or linked root misses |eta| < root_tol (the message
        names the first such value and, there, the lowest branch), or if a
        root passes through w = infinity (at n_d = 1, where 4 g^2 v^2 = 1).
    """
    if parameter not in ("e_d", "g"):
        raise ModelError(f"parameter must be 'e_d' or 'g', got {parameter!r}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise ModelError("need at least two parameter values")
    if not np.all(np.diff(values) > 0):
        raise ModelError("parameter values must be strictly increasing")
    model.with_params(**{parameter: float(values[0])})
    model.with_params(**{parameter: float(values[-1])})
    n = len(values)
    fixed = np.full(n, float(getattr(model, "g" if parameter == "e_d" else "e_d")))
    e_d, g = (values, fixed) if parameter == "e_d" else (fixed, values)
    # The leading coefficient of p changes sign where a root passes w = infinity.
    lead = _w_coefficients(_w_rows(model), e_d, g * g)[:, -1]
    through = np.flatnonzero(lead[:-1] * lead[1:] <= 0)
    deg, block = _census_block(model)
    links = max(1, block - 1)
    # Blocks overlap by one value, so each block links its own values.
    for first in range(0, n - 1, links):
        rows = np.arange(first, min(first + links, n - 1) + 1)
        census = _census(model, e_d, g, sweep=(parameter, first, rows[-1] + 1))
        if first == 0:
            if census.rows[:1].tolist() != [0]:  # a first value the census leaves out
                return Trajectory(parameter=parameter, values=values)
            current = np.flatnonzero(census.cls[0] == _RESONANCE)
            z0 = census.z[0, current]
            current = current[np.lexsort((-z0.imag, z0.real))].tolist()
            if not current:
                return Trajectory(parameter=parameter, values=values)
            if through.size:
                a, b = values[through[0] : through[0] + 2]
                raise ConvergenceError(
                    f"a root of p(w) passes w = infinity for {parameter} in [{a}, {b}]"
                )
            linked, crossed = [census.z[0, current].tolist()], [[False] * len(current)]
        minus_dp, slope = _rate_terms(model, parameter, census.w, e_d[rows], g[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = minus_dp / slope
        rate[~np.isfinite(rate)] = 0.0  # at an exact double root: predict no move
        pred = census.w[:-1] + rate[:-1] * np.diff(values[rows])[:, None]
        gap = np.abs(census.w[1:, None, :] - pred[:, :, None])
        gap[np.broadcast_to((census.cls == _BOUND_I)[1:, None, :], gap.shape)] = np.inf
        nearest = gap.argmin(axis=-1).tolist()
        z, w, cls = census.z.tolist(), census.w.tolist(), census.cls.tolist()
        # the start roots, then the root each branch links to at each step, before a conjugation
        gated = current[:] if first == 0 else []
        for k in range(len(rows) - 1):
            here, up = [], []
            for j in current:
                m = nearest[k][j]
                if cls[k + 1][m] == _BOUND_II and w[k][j].imag != 0.0:  # past a real-axis EP
                    last, now = w[k], w[k + 1]
                    split = [c for c in range(deg) if cls[k + 1][c] == _BOUND_II
                             and abs(now[c] - last[j]) <= min(abs(now[c] - x) for x in last)]
                    m = max(split, key=lambda c: abs(now[c]), default=m)
                gated.append(m)
                up.append(w[k + 1][m].imag > 0.0)
                if up[-1]:
                    conj = w[k + 1][m].conjugate()
                    m = min(range(deg), key=lambda c: abs(w[k + 1][c] - conj))
                here.append(m)
            current = here
            linked.append([z[k + 1][m] for m in here])
            crossed.append(up)
        step = np.repeat(np.arange(first > 0, len(rows)), len(current))
        residual = _residual(model, census.z[step, gated], census.sheet_ii[step, gated],
                             census.e_d[step, 0], census.g2[step, 0])
        failed = np.flatnonzero(~(residual < root_tol))
        if failed.size:
            f = int(failed[0])
            k, i = step[f], f % len(current)
            raise ConvergenceError(
                f"branch {roman_label(i)} at {parameter} = {values[rows[k]]}: |eta| = "
                f"{residual[f]:.3e} >= root_tol at z = {z[k][gated[f]]}"
            )

    zs = np.array(linked)
    pinned = np.abs(zs.imag) <= 1e-12
    pinned[0] = False  # the start states carry no flags
    zs = np.where(pinned, zs.real, zs)
    bic = pinned & (np.abs(zs.real) < 1.0)  # a pinned point outside the band is a virtual state
    collision = (np.abs(zs[:, :, None] - zs[:, None, :]) < COLLISION_TOL).sum(axis=-1) > 1
    collision[0] = False
    columns = zip(zs.T.tolist(), bic.T.tolist(), collision.T.tolist(), zip(*crossed))
    point = TrajectoryPoint._make
    branches = [
        TrajectoryBranch(roman_label(i), list(map(point, zip(values.tolist(), *cols))))
        for i, cols in enumerate(columns)
    ]
    return Trajectory(parameter=parameter, values=values, branches=branches)


def find_ep(
    model: ChainModel,
    seed: EpSeed | tuple,
    ep_tol: float = EP_TOL,
    max_iter: int = 200,
) -> EpResult:
    """Locate the exceptional point nearest the seed as a double root of p(w).

    p is linear in (e_d, g^2), so at a double root p = p' = 0 gives both in
    closed form, e_d(w) and g^2(w), and differentiating p' = 0 gives their
    w-derivatives from p''.  Newton in w alone, from the seed's z on sheet
    II (its g and e_d are not used), drives Im e_d(w) = Im g^2(w) = 0 until
    the step is below 1e-12 |w|.  The residuals |eta| and |eta'| of the EP
    (sqrt(g^2), e_d, (w + 1/w)/2) are taken on sheet II.

    Raises
    ------
    ConvergenceError
        If Newton does not settle within max_iter steps or meets a singular
        system, or settles at g^2 <= 0 or with a residual not below ep_tol.
        The trace holds (z, g^2(w), e_d(w)) at each iterate.
    """
    z = complex(seed.z if isinstance(seed, EpSeed) else seed[2])
    w = z - sqrt_branch(SheetedEnergy(z, Sheet.II))
    # base, d_ed, d_g2 (rows) and their first two derivatives (layers), against w^k
    rows = _w_rows(model)
    k = np.arange(rows.shape[1])
    stack = np.zeros((3,) + rows.shape)
    stack[0] = rows
    stack[1, :, :-1] = rows[:, 1:] * k[1:]
    stack[2, :, :-2] = rows[:, 2:] * (k[2:] * k[1:-1])

    trace_pts = []
    settled = False
    for _ in range(max_iter):
        powers = np.full(len(k), w)
        powers[0] = 1.0
        (b, e, c), (b1, e1, c1), (b2, e2, c2) = (stack @ powers.cumprod()).tolist()
        det = e * c1 - c * e1
        if det == 0:
            raise ConvergenceError(f"singular double-root system at w = {w}", trace=trace_pts)
        e_d, g2 = (c * b1 - b * c1) / det, (b * e1 - e * b1) / det
        trace_pts.append((0.5 * (w + 1.0 / w), g2, e_d))
        if settled:
            break
        p2 = b2 + e_d * e2 + g2 * c2
        de, dg2 = c * p2 / det, -e * p2 / det
        # the step with Im(de * step) = -Im e_d and Im(dg2 * step) = -Im g^2
        den = (de * dg2.conjugate()).imag
        if den == 0:
            raise ConvergenceError(f"singular EP Newton step at w = {w}", trace=trace_pts)
        step = (g2.imag * de.conjugate() - e_d.imag * dg2.conjugate()) / den
        w += step
        settled = abs(step) <= 1e-12 * abs(w)
    else:
        raise ConvergenceError(f"EP Newton unsettled after {max_iter} steps", trace=trace_pts)

    if not g2.real > 0:
        raise ConvergenceError(f"EP Newton settled at g^2 = {g2.real} <= 0", trace=trace_pts)
    g, e_d, z = math.sqrt(g2.real), e_d.real, 0.5 * (w + 1.0 / w)
    sig, sig1 = _sigma_at(model, SheetedEnergy(z, Sheet.II), 1)
    res_eta, res_eta_prime = abs(z - e_d - g * g * sig), abs(1.0 - g * g * sig1)
    if not (res_eta < ep_tol and res_eta_prime < ep_tol):
        raise ConvergenceError(
            f"EP Newton settled at z = {z}, g = {g}, e_d = {e_d} with |eta| = {res_eta:.3e}, "
            f"|eta'| = {res_eta_prime:.3e}, not below {ep_tol}", trace=trace_pts
        )
    return EpResult(g=g, e_d=e_d, z=z, residual_eta=res_eta, residual_eta_prime=res_eta_prime)


def _closest_pairs(model: ChainModel, gs: np.ndarray, eds: np.ndarray):
    """Closest resonance-pair distance and midpoint on the (g, e_d) grid.

    Cells with fewer than two resonances, and cells where discrete_states
    would raise, get distance inf.  The cells are solved in blocks of at
    most SCAN_BLOCK / deg^2.
    """
    g_cells, ed_cells = (c.ravel() for c in np.meshgrid(gs, eds, indexing="ij"))
    dist = np.full(g_cells.size, np.inf)
    mid = np.zeros(g_cells.size, dtype=complex)
    _, block = _census_block(model)
    for start in range(0, g_cells.size, block):
        cells = slice(start, start + block)
        census = _census(model, ed_cells[cells], g_cells[cells])
        _, _, failed = _audit(model, census, ROOT_TOL)
        z = census.z
        resonance = (census.cls == _RESONANCE) & ~failed[:, None]
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
    gated as discrete_states does.  A cell where discrete_states would
    raise (a root failing the |eta| gate) holds no pair and is skipped, as
    is a cell with g = 0.

    The threshold is deliberately generous: the pair splitting grows like
    the square root of the parameter distance to the coalescence point
    (about 1.0 * sqrt(delta) for the semi-infinite chain), so any grid of
    desk-scale resolution sees minima of order 0.05-0.2, all of which sit
    comfortably inside the Newton basin of the double-root solve.

    Raises
    ------
    ModelError
        If a grid size is not positive, or if the model at either grid
        corner, (g_range[0], ed_range[0]) or (g_range[1], ed_range[1]), is
        invalid.
    """
    if n_g <= 0 or n_ed <= 0:
        raise ModelError("grid sizes must be positive")
    model.with_params(g=g_range[0], e_d=ed_range[0])
    model.with_params(g=g_range[1], e_d=ed_range[1])
    if g_range[0] > g_range[1] or ed_range[0] > ed_range[1]:
        return []
    gs = np.linspace(g_range[0], g_range[1], n_g)
    eds = np.linspace(ed_range[0], ed_range[1], n_ed)

    dist, mid = _closest_pairs(model, gs, eds)
    # a finite cell below the threshold (a nan threshold bars none) and at most every
    # neighbour in its 3 x 3 window (cells off the grid are inf)
    window = sliding_window_view(np.pad(dist, 1, constant_values=np.inf), (3, 3))
    minimum = np.isfinite(dist) & ~(dist >= threshold) & (dist <= window.min(axis=(-2, -1)))
    seeds = [
        EpSeed(g=float(gs[i]), e_d=float(eds[j]), z=complex(mid[i, j]), pair_distance=float(dist[i, j]))
        for i, j in zip(*np.nonzero(minimum))
    ]
    seeds.sort(key=lambda s: s.pair_distance)
    return seeds
