"""Trajectory tracing and exceptional-point location.

A trajectory solves its sweep as one stack of dispersion polynomials p(w):
every 12th value by its companion matrix, and each value between from its
anchor's roots, moved by their second-order Taylor step
w + w' dq + w'' dq^2 / 2 and Newton-polished on p, wherever the result is
certified (pairwise disjoint inclusion discs, one root in each), else by
its companion matrix too.  It then links each branch from one value
to the next in w, where both sheets form one plane and roots move
continuously through the band: to the root nearest its Euler prediction,
with dw/dq = -(dp/dq)/p'(w) read off p in closed form (in z this is the
identity dz/de_d = N, the normalization).  p is real, so its roots come
in exact conjugate pairs, and the Newton polish and the links run on the
Im w <= 0 member of each pair and the real roots, the other member
following by exact conjugation.  A link starts from the
prediction folded below the axis, Re - i |Im|: of a pair the member on
the prediction's side is the nearer, so it still goes to the nearest
root, and crosses the axis exactly where the prediction lies above it
and the root is complex.  The links of a block are one precomputed
index map from each root of a value to the root of the next value that a
branch there goes on to, so following a branch is a lookup per value.
Every point of a branch, its first included, is pinned to the real axis
and flagged (bic, collision) by one rule.
Exceptional points are double roots of p.  Since p is linear in (e_d, g^2),
p = p' = 0 gives both in closed form at every w, and the EP is the w where
both come out real: Newton in w alone, one point at a time, so it evaluates
its rows by Horner's rule on Python complex numbers, not numpy arrays, each
from its first nonzero coefficient.
The EP scan seeds that Newton from the double roots along lines of fixed g,
the roots of the elimination polynomial E_g = P D' - P' D of p = P + e_d D.
On both chains P is even in w and D odd, so E_g is even, E_g(w) = F_g(w^2):
it is solved and linked line to line as F_g, at half its degree, each root
u standing for its root +-sqrt(u) of E_g with Im w <= 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dispersion import _BOUND_I, _BOUND_II, _RESONANCE, EP_TOL, NEAR_DEGENERATE_TOL, ROOT_TOL, roman_label
from .dispersion import _Census, _block_rows, _census, _check_tol, _derivative, _halves, _horner
from .dispersion import _rate_terms, _residual, _sweep_blocks, _w_coefficients, _w_roots, _w_rows
from .errors import ConvergenceError, FanochainError, ModelError
from .model import ChainModel
from .selfenergy import Sheet, SheetedEnergy, _sigma_at, sqrt_branch

class TrajectoryPoint(NamedTuple):
    """One sampled point of one branch (a named tuple: immutable, equal by fields)."""

    value: float
    z: complex
    bic: bool = False          # branch pinned on the real axis inside the band (zero width)
    collision: bool = False    # another branch claimed (nearly) the same root
    crossed_axis: bool = False  # prediction above the axis, complex root: went on from its conjugate


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
class EpResult:
    """A located exceptional point with its defining residuals."""

    g: float
    e_d: float
    z: complex
    residual_eta: float
    residual_eta_prime: float


def trace(model: ChainModel, parameter: str, values, root_tol: float = ROOT_TOL) -> Trajectory:
    """Trace every resonance branch over the sorted parameter values.

    The sweep is solved as stacks of polynomials p(w), in blocks of whole
    anchor intervals, as many as dispersion.SCAN_BLOCK / deg^2 values hold
    (at least one), consecutive blocks sharing their boundary anchor
    (_sweep_blocks); each block is solved, linked, gated and
    flagged in turn.  Every 12th value (dispersion._STRIDE) is an anchor,
    solved by its companion matrix; each value between starts from its
    anchor's roots moved by their second-order Taylor step in the swept
    parameter (rate and curvature from p at the anchor), and keeps the
    Newton-polished roots only where they are certified (_certified_roots:
    every root's Newton stalled, backward errors at rounding level,
    pairwise disjoint inclusion discs), else it too is a companion-matrix
    solve.  So a value's roots depend only on its own parameters and its
    anchor's, and the blocks do not change the result.  Branches are the
    resonances of its first row, classed as discrete_states classes them
    and labelled (i), (ii), ... by ascending Re z (then ascending width).
    A sweep from g = 0 solves nothing and has no branches; one where a root
    of p passes w = infinity solves its first value alone, and has no
    branches unless that value holds a resonance (then ConvergenceError).
    Each branch is linked in w to the root nearest its Euler prediction
    w + (dw/dq) dq at the next value, sheet-I roots aside, read off the
    block's index maps (_link_maps): among the Im w <= 0 member of each
    conjugate pair and the real roots, the one nearest the prediction
    folded below the axis, Re - i |Im|.
    At a BIC pinch the decaying root only touches |w| = 1.  A link whose
    prediction lies above the axis and whose root is complex crossed the
    axis: the nearest root was the anti-resonance (Im w > 0), the branch
    goes on from its conjugate, and the point is marked crossed_axis.  A
    real prediction never crosses.  Past a real-axis EP a branch follows,
    of the real roots nearer it than any other root was, the one with the
    larger |w|.  Every point, a branch's first included, is made by one
    rule: within 1e-12 of the axis it is pinned to it, and marked bic if
    it lies inside the band (|Re z| < 1); branches closer than
    NEAR_DEGENERATE_TOL are marked collision; and crossed_axis is False where
    no link leads in.

    The census of the sweep is not audited as discrete_states audits a
    model: the |eta| < root_tol gate reads only the roots the branches
    visit, the start roots and each one they go on to, the same roots
    their points come from, once each block is linked, and no other root
    is gated.  Each value is emitted, gated and flagged once: a later
    block's first row, the last of the block before, is left to that block.

    Raises
    ------
    ModelError
        If the parameter is not 'e_d' or 'g', if there are fewer than two
        values or they are not strictly increasing, if the model at the
        first or last value is invalid, or if root_tol is not a positive
        finite number.
    ConvergenceError
        If a root a branch visits misses |eta| < root_tol (the message
        names the first such value and, there, the lowest branch), or if a
        root passes w = infinity (n_d = 1, 4 g^2 v^2 = 1) and the start has a resonance.
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
    _check_tol("root_tol", root_tol)
    n = len(values)
    fixed = np.full(n, float(getattr(model, "g" if parameter == "e_d" else "e_d")))
    e_d, g = (values, fixed) if parameter == "e_d" else (fixed, values)
    if g[0] == 0.0:  # a decoupled level: no resonance to follow
        return Trajectory(parameter=parameter, values=values)
    # The leading coefficient of p changes sign where a root passes w = infinity.  e_d
    # does not enter it, so an e_d past the double range overflows nothing here.
    rows = _w_rows(model)
    lead = _w_coefficients(rows[:, -1:], e_d, g * g)[:, 0]
    through = np.flatnonzero(np.sign(lead[:-1]) * np.sign(lead[1:]) <= 0)
    if through.size:
        if (_census(model, e_d[:1], g[:1]).cls[0] == _RESONANCE).any():
            a, b = values[through[0] : through[0] + 2]
            raise ConvergenceError(f"a root of p(w) passes w = infinity for {parameter} in [{a}, {b}]")
        return Trajectory(parameter=parameter, values=values)
    points = []  # (z, bic, collision, crossed_axis) of each branch at each value, by block
    for block in _sweep_blocks(n, rows.shape[1] - 1):
        census = _census(model, e_d[block], g[block], sweep=parameter)
        if block.start == 0:
            current = np.flatnonzero(census.cls[0] == _RESONANCE)
            z0 = census.z[0, current]
            current = current[np.lexsort((-z0.imag, z0.real))].tolist()
            if not current:
                return Trajectory(parameter=parameter, values=values)
        # maps[:, k, j]: the root of row k + 1 a branch at root j of row k goes on to, the
        # one nearest its prediction folded below the axis, and whether the link crossed
        # the axis (a prediction above it and a complex root)
        maps = _link_maps(model, parameter, census, e_d[block], g[block], values[block])
        path = [current]
        for row in maps[0].tolist():
            current = [row[j] for j in current]
            path.append(current)
        path = np.array(path)
        k = np.arange(len(path))[:, None]
        crossed = np.zeros(path.shape, dtype=bool)  # no link leads into the first value
        crossed[1:] = maps[1][k[:-1], path[:-1]]
        # a later block's first row is the last of the block before, emitted there
        first = int(block.start > 0)
        k, path, crossed = k[first:], path[first:], crossed[first:]
        # the gate reads the roots the branches visit
        zs = census.z[k, path]
        residual = _residual(model, zs, census.sheet_ii[k, path], census.e_d[first:], census.g2[first:])
        failed = np.argwhere(~(residual < root_tol))
        if failed.size:
            f, i = failed[0]
            raise ConvergenceError(
                f"branch {roman_label(i)} at {parameter} = {values[block][first + f]}: |eta| = "
                f"{residual[f, i]:.3e} >= root_tol at z = {complex(zs[f, i])}"
            )
        pinned = np.abs(zs.imag) <= 1e-12
        zs = np.where(pinned, zs.real, zs)
        bic = pinned & (np.abs(zs.real) < 1.0)  # a pinned point outside the band is a virtual state
        collision = (np.abs(zs[:, :, None] - zs[:, None, :]) < NEAR_DEGENERATE_TOL).sum(axis=-1) > 1
        points.append((zs, bic, collision, crossed))

    columns = zip(*(np.concatenate(x).T.tolist() for x in zip(*points)))
    # each point as its fields' tuple, built as TrajectoryPoint._make builds it
    point = functools.partial(tuple.__new__, TrajectoryPoint)
    branches = [
        TrajectoryBranch(roman_label(i), list(map(point, zip(values.tolist(), *cols))))
        for i, cols in enumerate(columns)
    ]
    return Trajectory(parameter=parameter, values=values, branches=branches)


def _link_maps(model: ChainModel, parameter: str, census: _Census, e_d, g, values) -> np.ndarray:
    """Index maps (2, rows - 1, deg) of trace's links from each row of a sweep census
    (e_d, g and the swept values by row) to the next.

    The links run on the roots _halves computes: the Im w <= 0 member of
    each conjugate pair, and the real roots.  For a branch at such a root j
    of row k, maps[0, k, j] is the root of row k + 1 it goes on to: the one
    nearest its Euler prediction w + (dw/dq) dq folded below the axis,
    Re - i |Im|, sheet-I roots aside.  Of a conjugate pair the member on
    the prediction's side of the axis is the nearer, so this is the root
    nearest the prediction itself, read on its Im w <= 0 side, and
    maps[1, k, j] marks a link that crossed the axis: Im pred > 0 and a
    complex root.  A real prediction never crosses.  Where the root is a
    virtual state and w is complex (past a real-axis EP), it is, of the
    virtual states nearer w than any other root of row k is, the one with
    the larger |w|.  The columns of the Im w > 0 roots are never read.
    """
    w, cls = census.w, census.cls
    deg = w.shape[1]
    take = _halves(w)[0]
    source = w.take(take)
    with np.errstate(all="ignore"):
        minus_dp, slope = _rate_terms(model, parameter, source, e_d, g)
        rate = minus_dp / slope
        rate[~np.isfinite(rate)] = 0.0  # at an exact double root: predict no move
        pred = source[:-1] + rate[:-1] * np.diff(values)[:, None]
        above = pred.imag > 0.0
        gap = np.abs(source[1:, None, :] - np.where(above, pred.conj(), pred)[:, :, None])
    gap[np.broadcast_to((cls.take(take) == _BOUND_I)[1:, None, :], gap.shape)] = np.inf
    k = np.arange(len(pred))[:, None]
    nxt = take[k + 1, gap.argmin(axis=-1)] % deg
    for kk, i in zip(*np.nonzero((cls[k + 1, nxt] == _BOUND_II) & (source[:-1].imag != 0.0))):
        last, now, at = source[kk].tolist(), w[kk + 1].tolist(), complex(source[kk, i])
        split = [c for c in range(deg) if cls[kk + 1, c] == _BOUND_II
                 and abs(now[c] - at) <= min(abs(now[c] - x) for x in last)]
        nxt[kk, i] = max(split, key=lambda c: abs(now[c]), default=nxt[kk, i])
    maps = np.zeros((2, len(pred) * deg), dtype=int)
    maps[:, take[:-1]] = nxt, above & (w[k + 1, nxt].imag != 0.0)
    return maps.reshape(2, len(pred), deg)


def find_ep(
    model: ChainModel,
    seed: EpResult | tuple,
    ep_tol: float = EP_TOL,
    max_iter: int = 200,
) -> EpResult:
    """Locate the exceptional point nearest the seed as a double root of p(w).

    p is linear in (e_d, g^2), so at a double root p = p' = 0 gives both in
    closed form, e_d(w) and g^2(w), and differentiating p' = 0 gives their
    w-derivatives from p''.  The seed is an EpResult, as scan_for_ep_seeds
    returns it, or a (g, e_d, z) sequence.  Newton in w alone, from the
    seed's z on sheet II (its g and e_d are not used), drives
    Im e_d(w) = Im g^2(w) = 0 until the step is below 1e-12 |w|.  Each step
    evaluates the nine rows of _ep_rows at w by Horner's rule on Python
    complex numbers, whose IEEE products and sums no SIMD build of numpy
    changes, from each row's first nonzero coefficient.  p is real, so
    where Newton settles at Im w > 0, on the double root of an
    anti-resonance pair, its conjugate is the resonance pair's EP at the
    same g and e_d, and that is the one reported: the EP's z has Im z < 0.
    The residuals |eta| and |eta'| of the EP (sqrt(g^2), e_d,
    (w + 1/w)/2) are taken on sheet II.

    Raises
    ------
    ModelError
        If ep_tol is not a positive finite number.
    ConvergenceError
        If Newton does not settle within max_iter steps or meets a singular
        system, or settles at g^2 <= 0, with a residual not below ep_tol, or
        on the real w axis (|Im w| <= 1e-12 |w|), where each w is a double
        real root at some real (e_d, g^2).
        The trace holds (z, g^2(w), e_d(w)) at each iterate.
    """
    _check_tol("ep_tol", ep_tol)
    z = complex(seed.z if isinstance(seed, EpResult) else seed[2])
    w = z - sqrt_branch(SheetedEnergy(z, Sheet.II))
    return _ep_newton(model, _descending(_ep_rows(model)), w, ep_tol, max_iter)


def _ep_rows(model: ChainModel) -> np.ndarray:
    """The nine ascending rows of the EP Newton: base, d_ed and d_g2 of _w_rows, then
    their first w-derivatives, then their second."""
    rows = _w_rows(model)
    slope = _derivative(rows)
    return np.concatenate([rows, slope, _derivative(slope)])


def _descending(rows: np.ndarray) -> list:
    """The rows of _ep_rows descending, as lists of floats from their first nonzero
    coefficient: a leading zero only multiplies a zero, so Horner's value is the same
    from there (an all-zero row is empty, whose value is 0)."""
    return [row[next((i for i, a in enumerate(row) if a), len(row)):] for row in rows[:, ::-1].tolist()]


def _ep_newton(model: ChainModel, desc: list, w: complex, ep_tol: float, max_iter: int) -> EpResult:
    """find_ep's Newton from w, on the nine rows of _ep_rows as _descending gives them,
    each evaluated by Horner's rule on Python complex numbers."""
    resolution = 1e-12  # relative to |w|: a step that settles, and an Im w on the real axis
    trace_pts = []
    settled = False
    for _ in range(max_iter):
        y = []
        for row in desc:
            p = 0j
            for a in row:
                p = p * w + a
            y.append(p)
        b, e, c, b1, e1, c1, b2, e2, c2 = y
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
        settled = abs(step) <= resolution * abs(w)
    else:
        raise ConvergenceError(f"EP Newton unsettled after {max_iter} steps", trace=trace_pts)

    if abs(w.imag) <= resolution * abs(w):  # each real w is a double root at a real (e_d, g^2)
        raise ConvergenceError(f"EP Newton settled on the real w axis at w = {w}", trace=trace_pts)
    if not g2.real > 0:
        raise ConvergenceError(f"EP Newton settled at g^2 = {g2.real} <= 0", trace=trace_pts)
    w = w.conjugate() if w.imag > 0 else w  # the resonance pair's EP, at the same g and e_d
    g, e_d, z = math.sqrt(g2.real), e_d.real, 0.5 * (w + 1.0 / w)
    sig, sig1 = _sigma_at(model, SheetedEnergy(z, Sheet.II), 1)
    res_eta, res_eta_prime = abs(z - e_d - g * g * sig), abs(1.0 - g * g * sig1)
    if not (res_eta < ep_tol and res_eta_prime < ep_tol):
        raise ConvergenceError(
            f"EP Newton settled at z = {z}, g = {g}, e_d = {e_d} with |eta| = {res_eta:.3e}, "
            f"|eta'| = {res_eta_prime:.3e}, not below {ep_tol}", trace=trace_pts
        )
    return EpResult(g=g, e_d=e_d, z=z, residual_eta=res_eta, residual_eta_prime=res_eta_prime)


def scan_for_ep_seeds(
    model: ChainModel,
    g_range: tuple[float, float],
    ed_range: tuple[float, float],
    n_g: int = 16,
    n_ed: int = 16,
) -> list[EpResult]:
    """Every exceptional point of a resonance pair in the box, each once.

    p = P + e_d D with P = base + g^2 d_g2 and D = d_ed (the rows of
    _w_rows), so on a line of fixed g the double roots of p are the roots
    w of the real polynomial E_g = P D' - P' D, at e_d(w) = -P(w) / D(w),
    and an EP is one with complex w and real e_d.  g^2 is g * g, as in
    _census, and P and D are evaluated by _horner.  On both chains base and
    d_g2 hold only even powers of w and d_ed only odd ones, so P D' and
    P' D are even and E_g(w) = F_g(w^2) exactly: F_g, whose coefficients
    are the even ones of E_g, has half its degree (n_d, or 3 on the
    infinite chain).  F_g is solved by _w_roots on n_g evenly spaced lines,
    in blocks of at most dispersion.SCAN_BLOCK / deg^2, and each root u is
    linked to the nearest root u of the next line.  A u stands for its root
    w = +-sqrt(u) of E_g with Im w <= 0: a conjugate pair u, conj(u) for
    the mirror roots w, -conj(w), linked as mirrors since
    |conj(u) - conj(u')| = |u - u'|; a u < 0 for a w on the negative
    imaginary axis, where mirror EPs +-e_d meet at e_d = 0; a u > 0 for a
    real w, whose e_d is real, so it brackets nothing.  find_ep's Newton
    polishes each sign change of Im e_d along a link, from the w on sheet
    II of the z where its linear interpolation in w vanishes, on the nine
    rows of _ep_rows built once for the scan.  A polish that fails or lands
    outside the box is dropped.  Lines at g = 0 (no coupling) and lines
    where F_g loses its leading term (n_d = 1 at 4 g^2 v^2 = 1) are not
    solved, and their neighbours are linked across them.  Where F_g loses
    its leading term at g = 0 (the semi-infinite chain at n_d >= 2), its
    complex roots come in from w = infinity as a power of g, so the first
    interval is split further at g_1 / 2, g_1 / 4, ..., g_1 / 2^20 (g_1
    the second line), which moves them by a bounded factor per step; no EP
    below the last is sought (at n_d = 40 the roots w of F_g keep 2e-16
    relative accuracy down to g = 1e-13 and lose it by 1e-14, where
    those of E_g solved in w lose it between 1e-10 and 1e-11).  The
    infinite chain has no EP.

    Returns the EpResult of each EP in the box, as that Newton polished it: its
    g, e_d and z with its residuals |eta| and |eta'|, sorted by g, then
    e_d.  n_ed is not used; callers still pass it.

    Raises
    ------
    ModelError
        If n_g < 2, if the model at either box corner, (g_range[0], ed_range[0])
        or (g_range[1], ed_range[1]), is invalid, or then if either range is
        reversed, or if g_range has equal ends (its lines would all be one g;
        equal ed_range ends are valid).
    """
    if n_g < 2:
        raise ModelError(f"need at least two g lines, got n_g = {n_g}")
    model.with_params(g=g_range[0], e_d=ed_range[0])
    model.with_params(g=g_range[1], e_d=ed_range[1])
    for name, (lo, hi) in (("g_range", g_range), ("ed_range", ed_range)):
        if lo > hi:
            raise ModelError(f"{name} ({lo:g}, {hi:g}) is reversed: its low end is above its high end")
    if g_range[0] == g_range[1]:
        raise ModelError(f"g_range ({g_range[0]:g}, {g_range[1]:g}) has equal ends, "
                         f"so its {n_g} lines would repeat one g")
    rows = _ep_rows(model)
    base, d_ed, d_g2, base1, d_ed1, d_g21 = rows[:6]
    # E_g = E_0 + g^2 E_1, up to the highest power of w either holds
    e_rows = np.array([np.convolve(base, d_ed1) - np.convolve(base1, d_ed),
                       np.convolve(d_g2, d_ed1) - np.convolve(d_g21, d_ed)])
    # E_g is even in w, so F_g(u) = E_g(w) at u = w^2 takes its even coefficients
    f_rows = e_rows[:, : np.flatnonzero(e_rows.any(axis=0)).max() + 1 : 2]
    g = np.linspace(g_range[0], g_range[1], n_g)
    if f_rows[0, -1] == 0:
        split = g[1] * 0.5 ** np.arange(20, 0, -1)
        g = np.concatenate([g[:1], split[split > g[0]], g[1:]])
    g2 = g * g
    coeffs = f_rows[0] + g2[:, None] * f_rows[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = -coeffs[:, -2::-1] / coeffs[:, -1:]
    solved = (g > 0) & np.isfinite(top).all(axis=1)
    g, g2, coeffs, top = g[solved], g2[solved], coeffs[solved], top[solved]
    if len(g) < 2:
        return []
    block = _block_rows(coeffs.shape[1] - 1)
    u = np.concatenate([_w_roots(coeffs[i : i + block], top[i : i + block])
                        for i in range(0, len(g), block)])
    nearest = np.concatenate([np.abs(u[1:][i : i + block, None] - u[:-1][i : i + block, :, None])
                              .argmin(axis=-1) for i in range(0, len(g) - 1, block)])
    # of the roots +-sqrt(u) of E_g, the one with Im w <= 0
    w = np.sqrt(u.astype(complex))
    w = np.where(w.imag > 0, -w, w)
    with np.errstate(all="ignore"):
        e_d = -_horner((base + g2[:, None] * d_g2)[:, ::-1], w) / _horner(d_ed[None, ::-1], w)
        line = np.arange(len(w) - 1)[:, None]
        w1, e1 = w[1:][line, nearest], e_d[1:][line, nearest]
        a, b = e_d[:-1].imag, e1.imag
        k, j = np.nonzero(np.sign(a) * np.sign(b) < 0)
        w0 = w[k, j] + a[k, j] / (a[k, j] - b[k, j]) * (w1[k, j] - w[k, j])
        z0 = 0.5 * (w0 + 1.0 / w0)
    eps, desc = [], _descending(rows)
    for z in z0.tolist():
        try:
            ep = _ep_newton(model, desc, z - sqrt_branch(SheetedEnergy(z, Sheet.II)), EP_TOL, 200)
        except FanochainError:
            continue
        if g_range[0] <= ep.g <= g_range[1] and ed_range[0] <= ep.e_d <= ed_range[1]:
            eps.append(ep)
    return sorted(eps, key=lambda ep: (ep.g, ep.e_d))
