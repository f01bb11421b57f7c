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
p is one discrete state, and its sheet is read off from |w|.  A complex
root lies on sheet II and comes with its exact conjugate: the member with
Im w < 0 is the resonance and the other its anti-resonance, so one sign
decides every pair, even where the width rounds away in z.

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
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FanochainError, ModelError, RootCountError
from .model import ChainModel
from .selfenergy import Sheet, SheetedEnergy, _sheeted_s, _sigma, self_energy, self_energy_deriv, sqrt_branch

#: Default acceptance threshold on |eta| at a reported root.
ROOT_TOL = 1e-12

#: Residual bound on |eta| and |eta'| at a reported exceptional point.
EP_TOL = 1e-10

#: Two roots of one class closer than this are flagged near-degenerate.
NEAR_DEGENERATE_TOL = 1e-6


def _check_tol(name: str, tol: float) -> None:
    """Refuse a tolerance that is not a positive finite number, with a ModelError naming it."""
    if not 0 < tol < math.inf:
        raise ModelError(f"{name} must be a positive finite number, got {tol!r}")


class StateClass(enum.Enum):
    """Classification of a discrete eigenvalue."""

    BOUND_I = "boundI"          # real, outside the band, physical sheet
    BOUND_II = "boundII"        # real, outside the band, second sheet (virtual)
    RESONANCE = "resonance"     # Im w < 0 (so Im z <= 0), second sheet
    ANTIRESONANCE = "antiresonance"  # its conjugate partner
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
    w: complex | None = None  # the root of p(w) the state came from, else z - s(z)

    def __post_init__(self):
        if self.w is None:
            z = complex(self.z) + 0.0  # a real z on the +i0 side of the cut
            object.__setattr__(self, "w", complex(z - _sheeted_s(np.complex128(z), self.sheet)))

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
    if not model.is_semi_infinite:
        raise ModelError("no BIC in the infinite chain")
    return sorted(-math.cos(math.pi * k / model.n_d) for k in range(1, model.n_d))


def eta(model: ChainModel, z: SheetedEnergy) -> complex:
    """Dispersion function z - e_d - g^2 Sigma(z) on the tagged sheet."""
    return z.value - model.e_d - model.g * model.g * self_energy(model, z)


def eta_deriv(model: ChainModel, z: SheetedEnergy, order: int = 1) -> complex:
    """d(eta)/dz (order 1) or d^2(eta)/dz^2 (order 2)."""
    if order == 1:
        return 1.0 - model.g * model.g * self_energy_deriv(model, z, 1)
    if order == 2:
        return -model.g * model.g * self_energy_deriv(model, z, 2)
    raise ValueError(f"order must be 1 or 2, got {order}")


def _w_rows(model: ChainModel) -> np.ndarray:
    """Ascending rows base, d_ed, d_g2 of p(w) = base + e_d * d_ed + g^2 * d_g2: the one
    place that knows each chain's polynomial (module docstring) and so its degree."""
    c = -4.0 * (model.v * model.v)
    if model.is_semi_infinite:
        rows = np.zeros((3, 2 * model.n_d + 1))
        rows[:2, :3] = [[1.0, 0.0, 1.0], [0.0, -2.0, 0.0]]
        rows[2, 2::2] = c
        return rows
    # (w^2 - 2 e_d w + 1)(1 - w^2) - 4 g^2 v^2 w^2, expanded
    return np.array([[1.0, 0.0, 0.0, 0.0, -1.0], [0.0, -2.0, 0.0, 2.0, 0.0], [0.0, 0.0, c, 0.0, 0.0]])


def _w_coefficients(rows: np.ndarray, e_d: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Ascending coefficients of p(w) from the rows of _w_rows, one row per (e_d, g^2) pair."""
    return rows[0] + e_d[:, None] * rows[1] + g2[:, None] * rows[2]


def _horner(desc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner's rule from zero: row i of desc (descending), or its one row, at every x[i, :].

    Bit for bit numpy's polyval.  Adding a coefficient column broadcast over
    the points takes numpy's broadcast-and-cast path, about twice the cost of
    adding two contiguous arrays of one shape.  So the columns are first laid
    out as planes of x's shape and of the result's dtype, a real coefficient
    beside complex x as c + 0j, which is what adding the real does anyway,
    and each step is two same-shape ufunc calls.  The planes are built a
    chunk of max(1, SCAN_BLOCK // x.size) columns at a time, so they hold at
    most SCAN_BLOCK elements, or one plane of x.size, whatever the degree.
    """
    y = np.zeros_like(x)
    step = max(1, SCAN_BLOCK // max(1, x.size))
    planes = np.empty((min(step, desc.shape[1]),) + x.shape, dtype=y.dtype)
    for first in range(0, desc.shape[1], step):
        chunk = planes[: desc.shape[1] - first]
        chunk[...] = desc.T[first : first + step, :, None]
        for c in chunk:
            y *= x
            y += c
    return y


def _newton(coeffs: np.ndarray, w: np.ndarray, rounds: int, shrink: bool = False):
    """Newton on p from the roots w, one row of roots per row of coeffs (ascending).

    A step is kept only where it lowers |p|, and the rounds end once none
    is, or after ``rounds``.  Returns (w, p(w), moving), where moving marks
    the roots whose last step was kept: a root not moving has stalled, and
    stays so, since its next step would be the same.  So each root's result
    depends on its own value alone.  The descending rows of p and of p'
    (from _derivative; the zero that leads p' leaves Horner's value
    unchanged) are built once, and each round is one _horner pass of them.
    With ``shrink``, a row whose roots have all stalled leaves the later
    rounds, its rows of p and p' with it.  That pays on the warm starts of
    a sweep (up to 8 rounds, rows stalling at different rounds), not on the
    3 rounds of _w_roots, where the bookkeeping costs more than it saves.
    """
    desc = np.concatenate([coeffs, _derivative(coeffs)])[:, ::-1]  # the rows of p, then of p'

    def p_slope(x):
        return _horner(desc, np.concatenate([x, x])).reshape((2,) + x.shape)

    whole = None  # (w, p, moving) of every row, once a row has left the rounds
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, slope = p_slope(w)
        moving = np.ones(w.shape, dtype=bool)
        for _ in range(rounds):
            trial = w - p / slope
            p_trial, slope_trial = p_slope(trial)
            moving = np.abs(p_trial) < np.abs(p)
            if not moving.any():
                break
            w = np.where(moving, trial, w)
            p = np.where(moving, p_trial, p)
            slope = np.where(moving, slope_trial, slope)
            if shrink and not (live := moving.any(axis=1)).all():
                if whole is None:
                    whole, rows = (w.copy(), p.copy(), np.zeros(w.shape, dtype=bool)), np.arange(len(w))
                else:
                    whole[0][rows[~live]], whole[1][rows[~live]] = w[~live], p[~live]
                rows, w, p, slope, moving = (x[live] for x in (rows, w, p, slope, moving))
                desc = desc[np.concatenate([live, live])]
    if whole is None:
        return w, p, moving
    whole[0][rows], whole[1][rows], whole[2][rows] = w, p, moving
    return whole


def _w_roots(coeffs: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Companion-matrix roots of a stack of polynomials p(w), Newton-polished on p.

    coeffs is an (N, deg + 1) stack of ascending coefficients with nonzero
    leading terms, and top the finite first rows -coeffs[:, -2::-1] /
    coeffs[:, -1:] of their companion matrices; row i of the (N, deg)
    result holds the roots of row i.  The companion matrices are built as
    np.roots builds them and go to one np.linalg.eigvals call, so a single
    row gives bit for bit the roots np.roots would.  Three rounds of
    _newton on p follow, whose _horner is numpy's polyval, bit for bit.
    Real coefficients keep real roots exactly real and conjugate pairs
    exactly conjugate.
    """
    n, deg = coeffs.shape[0], coeffs.shape[1] - 1
    companion = np.zeros((n, deg, deg))
    companion[:, :1, :] = top[:, None, :]
    companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    return _newton(coeffs, np.linalg.eigvals(companion), 3)[0]


def _halves(w: np.ndarray):
    """(take, src): which roots of a stack w to compute, and where each root is read from,
    both as indices into w.ravel().

    p is real, so Horner, the Newton step and the rate -(dp/dq)/p' of
    conj(w) are, bit for bit, the conjugates of those of w: IEEE complex
    *, /, -, abs and the add of a real commute with conjugation (but for
    the sign of a zero).  An Im w > 0 root with its exact conjugate next
    to it (eigvals returns each complex pair side by side, and the roots,
    rates and warm starts built from its roots keep their columns) is
    read from that neighbour (src), the right one if both are; every
    other root, Im w <= 0 or without that partner, is read from itself.
    take (N, h) lists each row's roots read from themselves, in order,
    padded to the widest row with the row's first one.
    """
    n, d = w.shape
    upper, conj = w.imag > 0, w.conj()
    right, left = np.zeros((2, n, d), dtype=bool)
    right[:, :-1] = upper[:, :-1] & (w[:, 1:] == conj[:, :-1])
    left[:, 1:] = upper[:, 1:] & (w[:, :-1] == conj[:, 1:]) & ~right[:, 1:]
    mirrored = right | left
    count = d - mirrored.sum(axis=1)
    # one stable sort by (row, mirrored) puts each row's own roots first, in order
    take = np.argsort((np.arange(0, 2 * n, 2)[:, None] + mirrored).ravel(), kind="stable")
    take = take.reshape(n, d)[:, : count.max(initial=0)]
    take = np.where(np.arange(take.shape[1]) < count[:, None], take, take[:, :1])
    return take, np.arange(n * d).reshape(n, d) + right - left


def _unfold(half: np.ndarray, take: np.ndarray, src: np.ndarray) -> np.ndarray:
    """The stack of a quantity known at the roots take of a stack (_halves): each root's
    own value, or, for a root read from its partner, the partner's, conjugated if complex."""
    full = np.empty(src.size, dtype=half.dtype)
    full[take] = half
    full = full[src]
    if np.iscomplexobj(full):
        full = np.where(src != np.arange(src.size).reshape(src.shape), full.conj(), full)
    return full


#: Newton rounds within which every root of a warm-started row must stall.
_WARM_ROUNDS = 8

#: Bound on the backward error |p(w)| / sum |a_k| |w|^k of a certified root, in (deg + 1) eps.
_BACKWARD_ERROR = 4

#: Bound on the rounding error of Horner's |p(w)|, in (deg + 1) eps sum |a_k| |w|^k: about
#: 2 deg eps for complex w and real a (Higham, Accuracy and Stability, sections 3.6 and 5.1),
#: doubled to cover the rounding of the sum itself.
_HORNER_ROUNDING = 4


def _certified_roots(coeffs: np.ndarray, start: np.ndarray):
    """(w, certified): _newton on p from approximate roots, and the rows it certifies.

    coeffs is an (N, deg + 1) stack of ascending real coefficients and
    start holds deg approximations per row.  Newton runs on the roots
    _halves picks: where a start's exact conjugate stands next to it, as
    in the starts a sweep builds from eigvals roots, only the Im w <= 0
    member of the pair is polished, and the other result is its exact
    conjugate, bit for bit what polishing it would give; every other
    start (one without that partner, a NaN) is polished itself.  A row
    whose roots have all stalled leaves the later rounds.  A row is
    certified when
    - every root's Newton stalled within _WARM_ROUNDS rounds;
    - every backward error |p(w)| / sum |a_k| |w|^k is at most
      _BACKWARD_ERROR (deg + 1) eps;
    - the inclusion discs about its roots are pairwise disjoint.  The disc
      about w_i has radius deg (|p(w_i)| + Horner rounding bound) /
      |a_n prod_{j != i} (w_i - w_j)|, and each disc of a disjoint set
      holds exactly one root of p (Braess and Hadeler, Numer. Math. 21,
      1973; Carstensen, Numer. Math. 59, 1991).  Every product must be
      finite and every radius positive and finite: an overflowing product
      would give a radius of 0, and an overflowing bound or a duplicated
      root (a product of 0) an infinite one.
    Any non-finite value fails its test.  The disc of a real w_i is
    symmetric about the axis and that of a complex w_i mirrors its
    conjugate's, so disjoint discs also certify that each real w_i stands
    for a real root and each complex one for a complex root on its side of
    the axis: the roots are classed as the companion-matrix roots would be.
    """
    deg = coeffs.shape[1] - 1
    take, src = _halves(start)
    half = _newton(coeffs, start.take(take), _WARM_ROUNDS, shrink=True)
    w, p, moving = (_unfold(x, take, src) for x in half)
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        p, size = np.abs(p), _horner(np.abs(coeffs[:, ::-1]), np.abs(w))
        gap = np.abs(w[:, :, None] - w[:, None, :])
        other = ~np.eye(deg, dtype=bool)
        product = np.abs(coeffs[:, -1:]) * np.prod(np.where(other, gap, 1.0), axis=-1)
        radius = deg * (p + _HORNER_ROUNDING * (deg + 1) * eps * size) / product
        apart = (gap > radius[:, :, None] + radius[:, None, :]) | ~other
        certified = (
            ~moving.any(axis=1)
            & (p <= _BACKWARD_ERROR * (deg + 1) * eps * size).all(axis=1)
            & ((radius > 0) & (product < np.inf)).all(axis=1)
            & apart.all(axis=(1, 2))
        )
    return w, certified


def _derivative(a: np.ndarray) -> np.ndarray:
    """The derivative of each row of ascending coefficients a, ascending, with a zero top coefficient."""
    out = np.zeros(a.shape)
    np.multiply(a[:, 1:], np.arange(1, a.shape[1]), out=out[:, :-1])
    return out


def _rate_terms(model: ChainModel, parameter: str, w: np.ndarray, e_d: np.ndarray, g: np.ndarray,
                order: int = 1):
    """(-dp/dq, p'(w)) at the roots w of p, one row of roots per (e_d, g) row;
    with order 2, a third term, -(p_ww w'^2 + 2 p_wq w' + p_qq).

    The ratio of the first term to p' is the rate w' = dw/dq of a root,
    since p(w; e_d, g) = 0, and that of the third to p' its curvature
    d^2w/dq^2, from differentiating p_w w' + p_q = 0 once more.  p is
    linear in e_d and in g^2, so dp/dq is a coefficient row of _w_rows, or
    2 g times one, and p_qq is 0 or twice that row.  One _horner pass takes
    the stack p_q, p_w, p_ww, p_wq, p_qq, or its first two at order 1.  With
    z = (w + 1/w)/2, dz/dq = (w^2 - 1)/(2 w^2) dw/dq: dz/de_d = N, the
    normalization, and dz/dg = 2 g Sigma N, with no self-energy evaluated.
    """
    rows = _w_rows(model)
    coeffs = _w_coefficients(rows, e_d, g * g)
    if parameter == "e_d":
        dp_dq, d2p_dq2 = rows[1:2], np.zeros((1, rows.shape[1]))
    else:
        dp_dq, d2p_dq2 = 2.0 * g[:, None] * rows[2], 2.0 * rows[2:3]
    slope = _derivative(coeffs)
    terms = [dp_dq, slope] + ([_derivative(slope), _derivative(dp_dq), d2p_dq2] if order == 2 else [])
    desc = np.concatenate(np.broadcast_arrays(*terms))[:, ::-1]
    y = _horner(desc, np.concatenate([w] * len(terms)))
    p_q, p_w, *second = y.reshape((len(terms),) + w.shape)
    if order == 1:
        return -p_q, p_w
    p_ww, p_wq, p_qq = second
    rate = -p_q / p_w
    return -p_q, p_w, -(p_ww * rate * rate + 2.0 * p_wq * rate + p_qq)


#: Cap on rows * deg^2 for one batched solve of a trace (rows of p(w), of degree
#: 2 n_d, or 4 for the infinite chain) or of an EP scan (lines of F_g, E_g in u = w^2:
#: n_d, or 3; their links, between 2 n_d or 6 roots a line, are blocked at that degree).
#: Each holds several (rows, deg, deg) arrays, so this bounds the memory whatever
#: the sweep, lines and n_d; a default scan from g = 0 (35 lines) solves its lines
#: in one block up to n_d = 122, and links them in one up to n_d = 62.
#: A trace block is at least one anchor interval (_STRIDE + 1 values), more than the cap above n_d = 100.
#: It also caps the coefficient planes of one _horner chunk at SCAN_BLOCK elements.
SCAN_BLOCK = 2**19

#: A sweep census solves every _STRIDE-th value of the sweep by _w_roots (see _census).
_STRIDE = 12


def _block_rows(deg: int) -> int:
    """Rows of degree deg in one batched solve: SCAN_BLOCK / deg^2, at least one."""
    return max(1, SCAN_BLOCK // deg**2)


def _sweep_blocks(n: int, deg: int) -> list[slice]:
    """Slices of a sweep of n values of p of degree deg, solved and linked block by block:
    whole anchor intervals, as many as _block_rows values hold (at least one), the last
    holding what is left, so each block starts on the anchor where the one before ends."""
    links = _STRIDE * max(1, (_block_rows(deg) - 1) // _STRIDE)
    return [slice(first, min(first + links, n - 1) + 1) for first in range(0, n - 1, links)]


def _sweep_roots(model: ChainModel, parameter: str, coeffs, top, e_d, g) -> np.ndarray:
    """Roots of the rows of coeffs (top as for _w_roots): the values of a
    sweep over ``parameter`` whose impurity levels and couplings, by row,
    are e_d and g.  Every _STRIDE-th row, from row 0, is an anchor.

    An anchor is solved by _w_roots.  Each other row starts from its
    anchor's roots moved by their second-order Taylor step
    w + w' dq + w'' dq^2 / 2, with w' and w'' from _rate_terms at the
    anchor (a start that is not finite, at a double root of the anchor,
    stays at the anchor's root), and keeps the roots of _certified_roots if
    they are certified, else it too is solved by _w_roots.  So a row's roots
    depend only on its own coefficients and its anchor's.
    """
    w = np.zeros((len(coeffs), coeffs.shape[1] - 1), dtype=complex)
    w[::_STRIDE] = _w_roots(coeffs[::_STRIDE], top[::_STRIDE])
    warm = np.flatnonzero(np.arange(len(coeffs)) % _STRIDE)
    if warm.size:
        q = e_d if parameter == "e_d" else g
        with np.errstate(all="ignore"):
            minus_dp, slope, minus_d2p = _rate_terms(
                model, parameter, w[::_STRIDE], e_d[::_STRIDE], g[::_STRIDE], order=2
            )
            a, anchor = warm // _STRIDE, warm - warm % _STRIDE  # the anchor's place and row
            rate, curve = (minus_dp / slope)[a], (minus_d2p / slope)[a]
            h = (q[warm] - q[anchor])[:, None]
            start = w[anchor] + (rate + 0.5 * curve * h) * h
            start = np.where(np.isfinite(start), start, w[anchor])
        w[warm], certified = _certified_roots(coeffs[warm], start)
        redo = warm[~certified]
        if redo.size:
            w[redo] = _w_roots(coeffs[redo], top[redo])
    return w


#: StateClass by the integer code the batched census uses.
_CLASSES = tuple(StateClass)
_BOUND_I, _BOUND_II, _RESONANCE, _ANTIRESONANCE, _BIC = range(len(_CLASSES))


@dataclass(frozen=True)
class _Census:
    """Classified roots of p(w) for a stack of (e_d, g) rows of one chain.

    Every row is solved: each array has one row per input row, and the
    root arrays one column per root of p.  Every kept root is one state by
    construction: each conjugate pair is one resonance and one
    anti-resonance, and a BIC is one member of its pair.
    The roots are not gated: _audit does that where a caller needs it.
    """

    e_d: np.ndarray       # (rows, 1) impurity level of each row
    g2: np.ndarray        # (rows, 1) g^2 of each row
    w: np.ndarray         # the root of p (a real array if every root is real)
    z: np.ndarray         # complex energy of each root
    sheet_ii: np.ndarray  # root lies on sheet II
    cls: np.ndarray       # StateClass code, index into _CLASSES
    kept: np.ndarray      # false only for the Im w > 0 member of a BIC pair


def _census(model: ChainModel, e_d, g, sweep: str | None = None) -> _Census:
    """Roots of p(w) for every (e_d, g) row of one chain, classified.

    This is the solve of discrete_states done on arrays, each row by
    _w_roots, on p built with g^2 = g * g, the IEEE product every g^2 of
    the package is: the norms and rates _rate_terms reads off the roots
    are on the very p they solve.  A sweep parameter ('e_d' or 'g') marks
    the rows as the values of one sweep over it, solved by _sweep_roots.
    Each root maps to z = (w + 1/w)/2 on the sheet read from |w|.  Of a
    complex conjugate pair (exact, as p is real) the resonance is the
    member with Im w < 0 and the other is its anti-resonance.  Both lie on
    sheet II, where Im z has the sign of Im w; where rounding (|w| near 1)
    gives Im z the other sign, z is pinned to the real axis.  At an exact
    BIC e_d the |w| = 1 pair collapses to that one zero-width state, its
    Im w < 0 member, and the other member is not kept (the collapse runs
    only when some row's e_d hits a BIC energy).
    Nothing here gates the roots; see _audit.

    It solves exactly the rows it is handed, which callers give g > 0.
    Powers of w that vanish in every row go, as np.roots strips them: a
    lone n_d = 1 row at 4 g^2 v^2 = 1 is a polynomial of lower degree.

    Raises
    ------
    FanochainError
        If a row's companion matrix is not finite: its coefficients (e_d
        against g^2 v^2) span more than the double range.  The message
        names the first such row's e_d and g.
    """
    e_d = np.array(e_d, dtype=float)  # own copies, not views of a sweep's values
    g = np.array(g, dtype=float)
    g2 = g * g
    with np.errstate(over="ignore", invalid="ignore"):  # the top-row check below reports it
        coeffs = _w_coefficients(_w_rows(model), e_d, g2)
        coeffs = coeffs[:, : np.flatnonzero(coeffs.any(axis=0)).max(initial=0) + 1]
        top = -coeffs[:, -2::-1] / coeffs[:, -1:]
    finite = np.isfinite(top).all(axis=1)
    if not finite.all():
        i = finite.argmin()
        raise FanochainError(
            f"the companion matrix of p(w) is not finite at e_d = {float(e_d[i])!r}, "
            f"g = {float(g[i])!r}: its coefficients span more than the double range"
        )
    if sweep is None:
        w = _w_roots(coeffs, top)
    else:
        w = _sweep_roots(model, sweep, coeffs, top, e_d, g)
    e_d, g2 = e_d[:, None], g2[:, None]

    with np.errstate(divide="ignore", invalid="ignore"):
        z = (0.5 * (w + 1.0 / w)).astype(complex)
    real_w = w.imag == 0.0
    sheet_ii = ~real_w | (np.abs(w) >= 1.0)
    cls = np.where(
        real_w, np.where(sheet_ii, _BOUND_II, _BOUND_I), np.where(w.imag < 0, _RESONANCE, _ANTIRESONANCE)
    )
    # pinned to the axis: the z of a real w, and one whose Im z rounding (|w|
    # near 1) gave the sign opposite to Im w's
    z = np.where(np.sign(z.imag) == -np.sign(w.imag), z.real, z)
    energies = np.array(bic_energies(model) if model.is_semi_infinite else [])
    # The BIC energies lie far apart: a row hits at most one.
    i, k = np.nonzero(np.abs(energies - e_d) < 1e-12)
    kept = np.ones(w.shape, dtype=bool)
    if i.size:
        e_bic = np.full(e_d.shape, np.nan)
        e_bic[i, 0] = energies[k]
        # Impurity level exactly on a BIC: Sigma vanishes there, so the
        # conjugate pair on |w| = 1 is the one zero-width state z = e_d,
        # kept as its Im w < 0 member, the w a hand-built BIC state gets.
        bic = np.abs(z - e_bic) < 1e-6
        z = np.where(bic, e_bic, z)
        sheet_ii &= ~bic
        cls = np.where(bic, _BIC, cls)
        kept = ~(bic & (w.imag > 0))
    return _Census(e_d, g2, w, z, sheet_ii, cls, kept)


def _residual(model: ChainModel, z, sheet_ii, e_d, g2) -> np.ndarray:
    """|eta(z)| on the declared sheet (sheet_ii true on sheet II), elementwise,
    with real z on the +i0 side of the cut; inf at the branch points, where
    eta is singular."""
    branch = (z == 1.0) | (z == -1.0)
    with np.errstate(all="ignore"):
        (sigma,) = _sigma(np.where(z.imag == 0.0, z.real, z), sheet_ii, model.n_d, model.v)
        return np.where(branch, np.inf, np.abs(z - e_d - g2 * sigma))


def _audit(model: ChainModel, census: _Census, root_tol: float):
    """(residual, near_degenerate, failed) of every root of a census.

    ``residual`` is |eta(z)| of each root on its sheet, and ``failed``
    marks, per row, a root that misses |eta| < root_tol: a row where
    discrete_states raises.  ``near_degenerate`` flags a kept root with a
    kept partner of its class within NEAR_DEGENERATE_TOL.
    """
    residual = _residual(model, census.z, census.sheet_ii, census.e_d, census.g2)
    n = census.z.shape[1]
    near = (
        (census.cls[:, :, None] == census.cls[:, None, :])
        & (np.abs(census.z[:, :, None] - census.z[:, None, :]) < NEAR_DEGENERATE_TOL)
        & ~np.eye(n, dtype=bool)
        & census.kept[:, None, :]
    )
    return residual, near.any(axis=-1) & census.kept, ~(residual < root_tol).all(axis=1)


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
    otherwise; a complex w is a sheet-II state, and each conjugate pair of
    them is one resonance (Im w < 0) and one anti-resonance (Im w > 0);
    where the width is below the rounding of z, Im z is 0.  When e_d
    sits exactly on a BIC energy the conjugate pair on |w| = 1 collapses
    to that one zero-width state.  So every root of p is one state, except
    that a BIC is one pair.  Every state must meet |eta(z)| < root_tol on
    its declared sheet.

    By default the anti-resonances are dropped from the semi-infinite
    output (leaving the n_d + 1 physical solutions) and kept for the
    infinite chain (whose four roots are conventionally quoted together).
    Pass ``include_antiresonances`` to override.

    Raises
    ------
    ModelError
        If root_tol is not a positive finite number.
    RootCountError
        If a root misses the |eta| gate (typically a real root so close to
        a band edge that no double z resolves it).
    FanochainError
        If p(w) spans more than the double range (see _census).
    """
    _check_tol("root_tol", root_tol)
    if include_antiresonances is None:
        include_antiresonances = not model.is_semi_infinite

    if model.g == 0.0:
        # Decoupled impurity: the single eigenvalue sits at e_d.
        cls = _BIC if abs(model.e_d) < 1.0 else _BOUND_I
        return _states([model.e_d], [None], [False], [cls], [0.0], [False])

    census = _census(model, [model.e_d], [model.g])
    residual, near, failed = _audit(model, census, root_tol)
    if failed[0]:
        _raise_fault(census, residual, root_tol)
    kept, cls = census.kept[0], census.cls[0]
    if not include_antiresonances:
        kept = kept & (cls != _ANTIRESONANCE)
    fields = census.z[0], census.w[0], census.sheet_ii[0], cls, residual[0], near[0]
    return _states(*(a[kept] for a in fields))


def _raise_fault(census: _Census, residual, root_tol: float):
    """Raise the RootCountError of the single-row census, some of whose roots
    (their residuals from _audit) miss the |eta| gate."""
    z, residual = census.z[0].tolist(), residual[0].tolist()
    # eta has a square-root singularity at z = +-1: this close to a band
    # edge, one ulp of z moves |eta| by far more than root_tol.
    rejected = [i for i, r in enumerate(residual) if not r < root_tol]
    reasons = [
        f"z = {z[i]:.17g} on sheet {'II' if census.sheet_ii[0, i] else 'I'}, "
        f"{min(abs(z[i] - 1), abs(z[i] + 1)):.1e} from the band edge: "
        f"|eta| = {residual[i]:.1e} >= root_tol = {root_tol:.1e}"
        for i in rejected
    ]
    raise RootCountError(
        f"{len(rejected)} of {len(z)} roots failed the |eta| gate: " + "; ".join(reasons),
        candidates=[(z[i], residual[i]) for i in rejected],
    )


#: Sort group of each class code: resonances, BICs, real states, anti-resonances.
_GROUP = np.array([2, 2, 0, 3, 1])


def _states(z, w, sheet_ii, cls, residual, near) -> list[DiscreteState]:
    """Sorted, labelled DiscreteStates of classified roots w of p (class codes cls; a w of
    None is read off z), one per entry of the parallel sequences.

    Resonances come first, labelled (i), (ii), ... by ascending width, as
    the narrowest (dominant) state is singled out in spectra; then BICs
    bic1, ... and real solutions b1, b2, ... by ascending energy; then
    anti-resonances a1, ... by descending Im z.  Ties keep the input order.
    """
    z, cls = np.asarray(z, dtype=complex), np.asarray(cls, dtype=int)
    paired = (cls == _RESONANCE) | (cls == _ANTIRESONANCE)
    # lexsort is stable and sorts by its last key first
    keys = np.where(paired, z.real, 0.0), np.where(paired, -z.imag, z.real), _GROUP[cls]
    order = np.lexsort(keys)
    group = _GROUP[cls[order]]
    rank = np.arange(len(order)) - np.searchsorted(group, group)  # place within its group
    return [
        DiscreteState(
            complex(z[i]), Sheet.II if sheet_ii[i] else Sheet.I, _CLASSES[cls[i]],
            float(residual[i]), near_degenerate=bool(near[i]),
            label=roman_label(k) if gr == 0 else ("bic", "b", "a")[gr - 1] + str(k + 1),
            w=None if w[i] is None else complex(w[i]),
        )
        for i, gr, k in zip(order.tolist(), group.tolist(), rank.tolist())
    ]


_ROMAN = ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x"]


def roman_label(index: int) -> str:
    return _ROMAN[index] if index < len(_ROMAN) else f"r{index + 1}"


def polish_seeds(
    model: ChainModel,
    seeds: list[tuple[complex, Sheet] | tuple[complex, Sheet, complex]],
    root_tol: float = ROOT_TOL,
) -> list[DiscreteState]:
    """The states of discrete_states nearest user-supplied (z, sheet) or (z, sheet, w) seeds.

    Each seed maps to its w, where one is given, else to its one
    w = z - s(z) on its sheet, and picks the state, anti-resonances
    included, whose root w of p is nearest.  A given w tells apart the two
    members of a conjugate pair whose width rounds away in z, which share
    one z and so one z - s(z).  The result is
    the picked states, each once, in census order and with census labels,
    so a seed list exported from the same model gives back exactly the
    states it came from.  Used by the CLI round trip, where previously
    exported roots are re-ingested verbatim.

    A pick must be unambiguous: the seed's w lies nearer its root than half
    that root's distance to the nearest other root, and no two seeds pick
    one state.  A round trip moves w by rounding only, far inside that.

    Raises
    ------
    ModelError
        If root_tol is not a positive finite number (from discrete_states).
    BranchPointError
        For a seed at z = +-1 without a w.
    ConvergenceError
        If a seed's nearest state lies on the other sheet, if a seed is not
        within half the gap around its nearest state, or if two seeds pick
        one state; the message names the seeds and states, and the trace
        holds the seed z values and the state's z.
    RootCountError
        As discrete_states does, if the census of the model fails.
    """
    states = discrete_states(model, root_tol, include_antiresonances=True)
    roots = np.array([s.w for s in states])
    gaps = np.abs(roots[:, None] - roots)
    np.fill_diagonal(gaps, np.inf)
    picked = {}
    for n, (z0, sheet, *w0) in enumerate(seeds):
        z0 = complex(z0)
        w0 = complex(*w0) if w0 else z0 - sqrt_branch(SheetedEnergy(z0, sheet))
        dist = np.abs(roots - w0)
        i = int(dist.argmin())
        state, seed = states[i], f"seed z = {z0} on sheet {sheet.name}"
        if state.sheet is not sheet:
            raise ConvergenceError(
                f"{seed}: the nearest root in w is z = {state.z} "
                f"on sheet {state.sheet.name}, a root on the other sheet",
                trace=[z0, state.z],
            )
        j = int(gaps[i].argmin())
        if not dist[i] < gaps[i, j] / 2:
            raise ConvergenceError(
                f"{seed} is {dist[i]:.3g} in w from its nearest state {state.label} "
                f"(z = {state.z}), not within half the gap {gaps[i, j]:.3g} to state "
                f"{states[j].label} (z = {states[j].z}): an ambiguous seed",
                trace=[z0, state.z],
            )
        if i in picked:
            m, z1 = picked[i]
            raise ConvergenceError(
                f"seeds {m} and {n} (z = {z1} and z = {z0} on sheet {sheet.name}) both pick "
                f"state {state.label} (z = {state.z}): a duplicate seed",
                trace=[z1, z0, state.z],
            )
        picked[i] = n, z0
    return [states[i] for i in sorted(picked)]
