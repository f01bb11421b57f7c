"""Independent numerical oracles used to pin expected values.

Everything here goes back to a defining integral, a path-following
construction, or a solve in z through the self-energy, and
never calls the closed forms in w that it is used to check.  Two
exceptions: reference_eps, which checks the line enumeration of
scan_for_ep_seeds, polishes with find_ep, but from a census, not from
lines; and full_certified_roots and trace_by_loop, which check that the
warm solve of a sweep computes one member of each conjugate pair and
mirrors the other, and that trace links its branches by index maps, are
the earlier Newton and certificate on every root and the earlier
per-branch link loop, built on the same kernels and census (the Newton
builds its own stack of p and p', apart from dispersion._newton's).
ep_by_mpmath solves p = p' = 0 in w, but at 50 digits, with p written
out from its definition rather than taken from dispersion._w_rows.
green_by_complex_sigma is spectrum.green_spectrum as it was before its
self-energy became the band form: the complex closed form of
selfenergy._sigma at Omega + 0j, which the band form must match bit for bit.
broadcast_horner is dispersion._horner as it was before it laid its
coefficients out as planes: each step adds a coefficient column broadcast
over the points.  find_ep_by_horner is sweep.find_ep as it was before its
Newton ran on Python complex numbers: the same steps, each evaluating the
nine rows of p, p' and p'' by one dispersion._horner pass.
"""

from __future__ import annotations

from dataclasses import replace

import math

import mpmath
import numpy as np
from scipy.integrate import quad

from fanochain import dispersion, sweep
from fanochain.dispersion import _ANTIRESONANCE, _BACKWARD_ERROR, _BOUND_I, _BOUND_II, _HORNER_ROUNDING
from fanochain.dispersion import _RESONANCE, _WARM_ROUNDS, ROOT_TOL, DiscreteState, StateClass, _horner
from fanochain.dispersion import _derivative, _rate_terms, _residual, _w_coefficients, _w_rows
from fanochain.dispersion import NEAR_DEGENERATE_TOL, discrete_states, eta, eta_deriv, roman_label
from fanochain.errors import BranchPointError, ConvergenceError, FanochainError, ModelError
from fanochain.model import ChainModel
from fanochain.selfenergy import Sheet, SheetedEnergy, _sigma, _sigma_at, self_energy, self_energy_deriv
from fanochain.selfenergy import sqrt_branch
from fanochain.sweep import EP_TOL, EpResult, Trajectory, TrajectoryBranch
from fanochain.sweep import TrajectoryPoint, find_ep


def sigma_quadrature(model: ChainModel, z: complex) -> complex:
    """Self-energy from adaptive quadrature of its defining integral.

    Valid off the real band (the integrand is then nonsingular); on sheet
    I this is the function itself, no continuation involved.
    """
    z = complex(z)
    v = model.v
    if model.is_semi_infinite:
        n = model.n_d

        def integrand(k):
            return (2.0 / np.pi) * v * v * np.sin(n * k) ** 2 / (z + np.cos(k))

        lo, hi = 0.0, np.pi
    else:

        def integrand(k):
            return v * v / (2.0 * np.pi) / (z + np.cos(k))

        lo, hi = -np.pi, np.pi

    re = quad(lambda k: integrand(k).real, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-12)[0]
    im = quad(lambda k: integrand(k).imag, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-12)[0]
    return complex(re, im)


def _coupling_sq(model: ChainModel, t):
    """Squared coupling as a function of the band angle, folded to [0, pi]."""
    if model.is_semi_infinite:
        return (2.0 / np.pi) * model.v**2 * np.sin(model.n_d * t) ** 2
    return model.v**2 / np.pi  # both +-k branches of the infinite chain


def sigma_boundary_quadrature(model: ChainModel, energy: float) -> complex:
    """Sigma(E + i0) inside the band: principal value + spectral density.

    In the angle variable (E' = -cos t) the integrand is f(t)/(E + cos t)
    with a simple pole at t0 = arccos(-E).  The pole is subtracted and
    integrated analytically (PV of 1/(t - t0) over [0, pi] is
    log((pi - t0)/t0)); what remains is regular and goes to adaptive
    quadrature.  The imaginary part is -pi times the spectral density.
    Fully independent of the closed form.
    """
    if not -1.0 < energy < 1.0:
        raise ValueError("boundary oracle needs an in-band energy")
    t0 = float(np.arccos(-energy))
    jac = float(np.sqrt(1.0 - energy * energy))  # sin t0
    f0 = float(_coupling_sq(model, t0))
    if model.is_semi_infinite:
        n = model.n_d
        f0p = (2.0 / np.pi) * model.v**2 * n * np.sin(2 * n * t0)
    else:
        f0p = 0.0

    def regularized(t):
        delta = t - t0
        if abs(delta) < 1e-7:
            # limit of f/(E+cos t) + f0/(jac*(t-t0)) at the pole
            return -f0p / jac - f0 * energy / (2.0 * jac**2)
        return _coupling_sq(model, t) / (energy + np.cos(t)) + f0 / (jac * delta)

    regular_part = quad(
        regularized, 0.0, np.pi, points=[t0], limit=400, epsabs=1e-12, epsrel=1e-11
    )[0]
    pv = regular_part - (f0 / jac) * np.log((np.pi - t0) / t0)
    return complex(pv, -np.pi * f0 / jac)


def sigma_theta(model: ChainModel, energy: float) -> complex:
    """In-band boundary value via the angle substitution z = -cos(theta)."""
    if not model.is_semi_infinite:
        raise ValueError("theta oracle is for the semi-infinite chain")
    theta = np.arccos(-energy)
    return model.v**2 / (1j * np.sin(theta)) * (1.0 - np.exp(2j * model.n_d * theta))


def green_by_complex_sigma(model: ChainModel, omega) -> np.ndarray:
    """F(Omega) from the complex Sigma(Omega + 0j) on sheet I, 0 outside the open band
    and where the denominator is 0, by the arithmetic of spectrum.green_spectrum."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (sig,) = _sigma(omega.astype(complex), Sheet.I, model.n_d, model.v)
        g2 = model.g * model.g
        num = -g2 * sig.imag
        den = (omega - model.e_d - g2 * sig.real) ** 2 + (g2 * sig.imag) ** 2
        vals = (model.transition_weight / np.pi) * num / den
    return np.where((np.abs(omega) < 1.0) & (den > 0.0), vals, 0.0)


def continue_sqrt_through_cut(z_start: complex, z_end: complex, steps: int = 4001) -> complex:
    """Follow sqrt(z^2-1) continuously along the straight path start->end.

    At each step the principal value or its negative is chosen to keep the
    path continuous, which is exactly what analytic continuation through
    the cut does.
    """
    prev = np.sqrt(complex(z_start) - 1.0) * np.sqrt(complex(z_start) + 1.0)
    for t in np.linspace(0.0, 1.0, steps)[1:]:
        z = z_start + (z_end - z_start) * t
        cand = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
        if abs(cand - prev) > abs(-cand - prev):
            cand = -cand
        prev = cand
    return complex(prev)


def winding_number(f, corners, samples_per_edge: int = 4000) -> int:
    """Argument-principle root count of f inside a rectangle.

    corners = (re_lo, re_hi, im_lo, im_hi).  Assumes no roots on the
    contour; the phase is unwrapped along densely sampled edges.
    """
    re_lo, re_hi, im_lo, im_hi = corners
    pts = []
    pts.append(np.linspace(re_lo, re_hi, samples_per_edge) + 1j * im_lo)
    pts.append(re_hi + 1j * np.linspace(im_lo, im_hi, samples_per_edge))
    pts.append(np.linspace(re_hi, re_lo, samples_per_edge) + 1j * im_hi)
    pts.append(re_lo + 1j * np.linspace(im_hi, im_lo, samples_per_edge))
    path = np.concatenate(pts)
    vals = np.array([f(z) for z in path])
    phases = np.unwrap(np.angle(vals))
    return int(np.round((phases[-1] - phases[0]) / (2.0 * np.pi)))


def newton_polish(
    model: ChainModel,
    z0: complex,
    sheet: Sheet,
    tol: float = ROOT_TOL,
    max_iter: int = 80,
) -> tuple[complex, float]:
    """Newton iteration on eta in z from z0 on a fixed sheet.

    Returns the final iterate and |eta| there.  Raises ConvergenceError
    (with the iterate trace) if the residual never drops below tol, and
    BranchPointError if an iterate lands exactly on z = +-1.
    """
    z = complex(z0)
    trace = [z]
    best_res = float("inf")
    for _ in range(max_iter):
        at = SheetedEnergy(z, sheet)
        f = eta(model, at)
        res = abs(f)
        best_res = min(best_res, res)
        if res < tol:
            return z, res
        fp = eta_deriv(model, at)
        if fp == 0:
            break
        z = z - f / fp
        trace.append(z)
    raise ConvergenceError(
        f"Newton on eta stalled at |eta| = {best_res:.3e} (sheet {sheet.name})",
        trace=trace,
    )


def _ep_system(model: ChainModel, z: complex, g: float, e_d: float, order: int):
    """eta, eta' and [Sigma, ..., Sigma^(order)] at z on sheet II for coupling g and level e_d."""
    at = SheetedEnergy(z, Sheet.II)
    sig = [self_energy(model, at)] + [self_energy_deriv(model, at, k) for k in range(1, order + 1)]
    return z - e_d - g * g * sig[0], 1.0 - g * g * sig[1], sig


def find_ep_in_z(
    model: ChainModel, seed: tuple, ep_tol: float = EP_TOL, max_iter: int = 200
) -> EpResult:
    """Exceptional point by damped Newton on the double-root system in z.

    The unknowns are (Re z, Im z, g, e_d) of {Re eta, Im eta, Re eta',
    Im eta'} = 0 on sheet II, seeded from (g, e_d, z); the Jacobian comes
    from Sigma, Sigma' and Sigma''.  Steps are halved until the residual
    norm decreases, and the solve stops as soon as |eta| and |eta'| are both
    below ep_tol.
    """
    g, e_d, z = float(seed[0]), float(seed[1]), complex(seed[2])
    trace_pts = [(z, g, e_d)]
    for _ in range(max_iter):
        f1, f2, (sig, sig1, sig2) = _ep_system(model, z, g, e_d, 2)
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
            step = np.linalg.solve(jac, -F).tolist()
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian in EP solve: {exc}", trace=trace_pts)

        norm0 = np.linalg.norm(F)
        lam = 1.0
        for _damp in range(40):
            z_t = z + lam * complex(step[0], step[1])
            g_t = g + lam * step[2]
            e_t = e_d + lam * step[3]
            try:
                f1_t, f2_t, _ = _ep_system(model, z_t, max(g_t, 1e-12), e_t, 1)
                if np.linalg.norm([f1_t.real, f1_t.imag, f2_t.real, f2_t.imag]) < norm0:
                    break
            except BranchPointError:
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


def find_ep_by_horner(
    model: ChainModel, seed: EpResult | tuple, ep_tol: float = EP_TOL, max_iter: int = 200
) -> EpResult:
    """sweep.find_ep as it was before its Newton evaluated its nine rows on Python complex
    numbers: one dispersion._horner pass of the descending (9, deg + 1) stack at each step."""
    z = complex(seed.z if isinstance(seed, EpResult) else seed[2])
    w = z - sqrt_branch(SheetedEnergy(z, Sheet.II))
    rows = _w_rows(model)
    slope = _derivative(rows)
    desc = np.concatenate([rows, slope, _derivative(slope)])[:, ::-1]

    trace_pts = []
    settled = False
    for _ in range(max_iter):
        (b, e, c), (b1, e1, c1), (b2, e2, c2) = _horner(desc, np.full((9, 1), w)).reshape(3, 3).tolist()
        det = e * c1 - c * e1
        if det == 0:
            raise ConvergenceError(f"singular double-root system at w = {w}", trace=trace_pts)
        e_d, g2 = (c * b1 - b * c1) / det, (b * e1 - e * b1) / det
        trace_pts.append((0.5 * (w + 1.0 / w), g2, e_d))
        if settled:
            break
        p2 = b2 + e_d * e2 + g2 * c2
        de, dg2 = c * p2 / det, -e * p2 / det
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
    w = w.conjugate() if w.imag > 0 else w
    g, e_d, z = math.sqrt(g2.real), e_d.real, 0.5 * (w + 1.0 / w)
    sig, sig1 = _sigma_at(model, SheetedEnergy(z, Sheet.II), 1)
    res_eta, res_eta_prime = abs(z - e_d - g * g * sig), abs(1.0 - g * g * sig1)
    if not (res_eta < ep_tol and res_eta_prime < ep_tol):
        raise ConvergenceError(
            f"EP Newton settled at z = {z}, g = {g}, e_d = {e_d} with |eta| = {res_eta:.3e}, "
            f"|eta'| = {res_eta_prime:.3e}, not below {ep_tol}", trace=trace_pts
        )
    return EpResult(g=g, e_d=e_d, z=z, residual_eta=res_eta, residual_eta_prime=res_eta_prime)


def reference_eps(model: ChainModel, g_range, ed_range, cells: int = 12) -> list[EpResult]:
    """Every EP of a resonance pair in the box, by find_ep from a per-cell census.

    Each cell (g, e_d) with g > 0 of a cells x cells grid over the box is
    solved by discrete_states (a cell where it raises is skipped), and each
    of its resonances seeds the closed-form double-root Newton of find_ep.
    A result is taken as the resonance pair's double root (Im z < 0: a
    result above the axis is its conjugate, the anti-resonance pair's), and
    kept when its w is complex, Im z < -1e-6 (Newton may also settle on the
    real axis, where real double roots form curves, or at a triple root
    there), and it lies in the box; results within 1e-9 in g and e_d are
    one EP.  Sorted by g, then e_d.
    """
    found = []
    for g in np.linspace(*g_range, cells).tolist():
        for e_d in np.linspace(*ed_range, cells).tolist():
            if g == 0:
                continue
            try:
                states = discrete_states(model.with_params(g=g, e_d=e_d))
            except FanochainError:
                continue
            for s in states:
                if s.state_class is not StateClass.RESONANCE:
                    continue
                try:
                    ep = find_ep(model, (g, e_d, s.z))
                except FanochainError:
                    continue
                if ep.z.imag > 0:  # the anti-resonance pair's double root: the same EP
                    ep = replace(ep, z=ep.z.conjugate())
                inside = g_range[0] <= ep.g <= g_range[1] and ed_range[0] <= ep.e_d <= ed_range[1]
                if inside and ep.z.imag < -1e-6 and not any(
                    abs(ep.g - f.g) < 1e-9 and abs(ep.e_d - f.e_d) < 1e-9 for f in found
                ):
                    found.append(ep)
    return sorted(found, key=lambda ep: (ep.g, ep.e_d))


def ep_by_mpmath(model: ChainModel, ep: EpResult, dps: int = 50) -> tuple[float, float, complex]:
    """(g, e_d, z) of the semi-infinite chain's EP nearest ep, by a dps-digit solve.

    mpmath's findroot solves Re and Im of p and p' = dp/dw for (Re w,
    Im w, e_d, g^2), with p(w) = w^2 - 2 e_d w + 1 - 4 g^2 v^2 sum_{k=1}^{n_d}
    w^(2k), from ep's g, e_d and w = z - sqrt(z^2 - 1), the root of
    w^2 - 2 z w + 1 with |w| > 1 (sheet II).
    """
    with mpmath.workdps(dps):
        v2, powers = mpmath.mpf(model.v) ** 2, range(1, model.n_d + 1)

        def system(x, y, e_d, g2):
            w = mpmath.mpc(x, y)
            c = 4 * g2 * v2
            p = w * w - 2 * e_d * w + 1 - c * mpmath.fsum(w ** (2 * k) for k in powers)
            dp = 2 * w - 2 * e_d - c * mpmath.fsum(2 * k * w ** (2 * k - 1) for k in powers)
            return [p.real, p.imag, dp.real, dp.imag]

        z = mpmath.mpc(ep.z)
        s = mpmath.sqrt(z * z - 1)
        w = max(z - s, z + s, key=abs)
        start = (w.real, w.imag, mpmath.mpf(ep.e_d), mpmath.mpf(ep.g) ** 2)
        x, y, e_d, g2 = mpmath.findroot(system, start)
        w = mpmath.mpc(x, y)
        return float(mpmath.sqrt(g2)), float(e_d), complex((w + 1 / w) / 2)


def trace_by_continuation(
    model: ChainModel, parameter: str, values, root_tol: float = 1e-12, max_halvings: int = 18
) -> Trajectory:
    """Resonance trajectories by per-branch predictor-corrector continuation.

    Each branch starts from a discrete_states resonance (labelled by
    ascending Re z at the first value) and is advanced on its own: an
    Euler step with dz/de_d = N (or dz/dg = 2 g Sigma N), then Newton on
    eta in z on sheet II.  The step is halved while Newton fails or its
    correction exceeds 10% of the predicted move.  A corrected root above
    the axis is reflected to its conjugate and marked crossed_axis; one
    within 1e-12 of the axis at a sample is pinned there, and marked bic if
    it lies inside the band.
    This is a path-follower in z, independent of the w-plane census that
    sweep.trace links.
    """
    values = np.asarray(values, dtype=float)
    start = [
        s for s in discrete_states(replace(model, **{parameter: float(values[0])}))
        if s.state_class is StateClass.RESONANCE
    ]
    start.sort(key=lambda s: s.epsilon)
    branches = [[TrajectoryPoint(float(values[0]), s.z)] for s in start]
    current = [s.z for s in start]
    for v_prev, v_next in zip(values[:-1], values[1:]):
        new_points = [
            _continue_branch(model, parameter, z, v_prev, v_next, root_tol, max_halvings)
            for z in current
        ]
        for i in range(len(new_points)):
            for j in range(i + 1, len(new_points)):
                if abs(new_points[i].z - new_points[j].z) < NEAR_DEGENERATE_TOL:
                    new_points[i] = new_points[i]._replace(collision=True)
                    new_points[j] = new_points[j]._replace(collision=True)
        for br, pt in zip(branches, new_points):
            br.append(pt)
        current = [pt.z for pt in new_points]
    labelled = [TrajectoryBranch(roman_label(k), pts) for k, pts in enumerate(branches)]
    return Trajectory(parameter=parameter, values=values, branches=labelled)


def _rate(model: ChainModel, z: complex, parameter: str) -> complex:
    """dz/de_d = N = 1 / eta'(z), or dz/dg = 2 g Sigma N, on sheet II."""
    at = SheetedEnergy(z, Sheet.II)
    n = 1.0 / (1.0 - model.g**2 * self_energy_deriv(model, at, 1))
    return n if parameter == "e_d" else 2.0 * model.g * self_energy(model, at) * n


def _continue_branch(model, parameter, z, v_from, v_to, root_tol, max_halvings):
    """Advance one branch from v_from to v_to with adaptive sub-steps."""
    v, cur = float(v_from), complex(z)
    m_here = replace(model, **{parameter: v})
    h = v_to - v_from
    halvings = 0
    crossed = False
    while v < v_to - 1e-15:
        h = min(h, v_to - v)
        pred = cur + _rate(m_here, cur, parameter) * h
        m_next = replace(model, **{parameter: float(v + h)})
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
            zc = zc.conjugate()
            crossed = True
        cur, v, m_here = zc, v + h, m_next
        h *= 2.0
        halvings = max(0, halvings - 1)

    pinned = abs(cur.imag) <= 1e-12
    if pinned:
        cur = complex(cur.real, 0.0)
    bic = pinned and abs(cur.real) < 1.0
    return TrajectoryPoint(value=float(v_to), z=cur, bic=bic, crossed_axis=crossed)


def sort_and_label(states: list[DiscreteState]) -> list[DiscreteState]:
    """Deterministic order and branch labels, one sorted() per class group.

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


#: Roots of one class closer than this are one root reported twice, by census_by_z.
DEDUP_TOL = 1e-9


def census_by_z(census, at_bic: np.ndarray):
    """The census rule that classed each complex root by itself, as a reference.

    Reads the roots, z values and real/BIC classes of a dispersion._Census
    and re-decides the rest as the package once did: a complex root is a
    resonance when Im z < 0 and an anti-resonance otherwise, whatever its
    conjugate partner; a root within DEDUP_TOL of an earlier root of its
    class is a duplicate and dropped; and a row must then keep every root
    of p, one fewer where at_bic (its e_d on a BIC energy), with as many
    resonances as anti-resonances.  Returns the classes, the kept mask and,
    per row, None or the audit the row fails, "count" or "pairing".
    """
    z, n = census.z, census.z.shape[1]
    paired = (census.cls == _RESONANCE) | (census.cls == _ANTIRESONANCE)
    cls = np.where(paired, np.where(z.imag < 0, _RESONANCE, _ANTIRESONANCE), census.cls)
    same = cls[:, :, None] == cls[:, None, :]
    close = np.abs(z[:, :, None] - z[:, None, :]) < DEDUP_TOL
    kept = ~(same & close & np.tri(n, k=-1, dtype=bool)).any(axis=-1)
    count = kept.sum(axis=1).tolist()
    res, anti = ((kept & (cls == c)).sum(axis=1).tolist() for c in (_RESONANCE, _ANTIRESONANCE))
    fault = [
        "count" if k != n - b else "pairing" if r != a else None
        for k, b, r, a in zip(count, at_bic.tolist(), res, anti)
    ]
    return cls, kept, fault


def broadcast_horner(desc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner's rule from zero, as numpy's polyval: row i of desc (descending), or its one
    row, at every x[i, :], each step adding a (rows, 1) coefficient column to the points."""
    y = np.zeros_like(x)
    for c in desc.T[:, :, None]:
        y *= x
        y += c
    return y


def _full_newton(coeffs: np.ndarray, w: np.ndarray, rounds: int):
    """dispersion._newton as it was before it computed one member of each conjugate pair
    and dropped stalled rows: every root of every row in every round.  Each round stacks
    the descending rows of p and of p' anew, p' from its own derivative arithmetic and
    led by a zero (which leaves Horner's value unchanged), and takes one _horner pass."""

    def p_slope(x):
        n, m = coeffs.shape
        desc = np.zeros((2 * n, m))
        desc[:n] = coeffs[:, ::-1]
        desc[n:, 1:] = coeffs[:, :0:-1] * np.arange(m - 1, 0, -1)
        y = _horner(desc, np.concatenate([x, x]))
        return y[:n], y[n:]

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
    return w, p, moving


def full_certified_roots(coeffs: np.ndarray, start: np.ndarray):
    """dispersion._certified_roots as it was before it computed one member of each
    conjugate pair: the Newton of _full_newton on every root, then the certificate."""
    deg = coeffs.shape[1] - 1
    w, p, moving = _full_newton(coeffs, start, _WARM_ROUNDS)
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


def trace_by_loop(model: ChainModel, parameter: str, values, root_tol: float = ROOT_TOL) -> Trajectory:
    """sweep.trace as it was before its links became index maps: each branch linked one
    value at a time in Python, from every root of the census, on the same census and
    blocks (read through sweep and dispersion, so that a test patching sweep._census or
    the blocks patches both), and its flags set over the whole sweep once it is linked."""
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
    if g[0] == 0.0:
        return Trajectory(parameter=parameter, values=values)
    # The leading coefficient of p changes sign where a root passes w = infinity.
    rows = _w_rows(model)
    lead = _w_coefficients(rows, e_d, g * g)[:, -1]
    through = np.flatnonzero(np.sign(lead[:-1]) * np.sign(lead[1:]) <= 0)
    if through.size:
        if (sweep._census(model, e_d[:1], g[:1]).cls[0] == _RESONANCE).any():
            a, b = values[through[0] : through[0] + 2]
            raise ConvergenceError(f"a root of p(w) passes w = infinity for {parameter} in [{a}, {b}]")
        return Trajectory(parameter=parameter, values=values)
    deg = rows.shape[1] - 1
    # Blocks overlap by one value, so each block links its own values.
    for block in dispersion._sweep_blocks(n, deg):
        first, rows = block.start, np.arange(n)[block]
        census = sweep._census(model, e_d[block], g[block], sweep=parameter)
        if first == 0:
            current = np.flatnonzero(census.cls[0] == _RESONANCE)
            z0 = census.z[0, current]
            current = current[np.lexsort((-z0.imag, z0.real))].tolist()
            if not current:
                return Trajectory(parameter=parameter, values=values)
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
    zs = np.where(pinned, zs.real, zs)
    bic = pinned & (np.abs(zs.real) < 1.0)  # a pinned point outside the band is a virtual state
    collision = (np.abs(zs[:, :, None] - zs[:, None, :]) < NEAR_DEGENERATE_TOL).sum(axis=-1) > 1
    columns = zip(zs.T.tolist(), bic.T.tolist(), collision.T.tolist(), zip(*crossed))
    point = TrajectoryPoint._make
    branches = [
        TrajectoryBranch(roman_label(i), list(map(point, zip(values.tolist(), *cols))))
        for i, cols in enumerate(columns)
    ]
    return Trajectory(parameter=parameter, values=values, branches=branches)
