"""The model's exact symmetries, as oracles that no solver change passes by luck.

The coupling scale: p(w) and the band self-energy read g and v only as
g * g times v * v, so (g, v) -> (4 g, v / 4) scales g * g and v * v by exact
powers of two, and every coefficient of p and every product g^2 Sigma keeps
its bits.  Every output is then the same, bit for bit, with g scaled.

The level mirror: base and d_g2 of _w_rows hold only even powers of w and
d_ed only odd ones, so p(-w; -e_d) = p(w; e_d), and e_d -> -e_d maps each
root w to -w and each state z to -conj(z) (of the same class), up to the
rounding of the solve.
"""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fanochain import ChainModel, FanochainError, bic_energies, decompose, discrete_states, scan_for_ep_seeds
from fanochain import trace
from fanochain.states import attach_norms

EPS = sys.float_info.epsilon

chains = st.one_of(st.none(), st.integers(1, 24))
couplings = st.sampled_from([1.0, 0.7, 1.3])


def chain(n_d, e_d, g, v):
    return ChainModel.semi_infinite(n_d, e_d, g, v=v) if n_d else ChainModel.infinite(e_d, g, v=v)


def outcome(solve):
    """What solve() returns, or its error's type and message."""
    try:
        return solve()
    except FanochainError as exc:
        return type(exc), str(exc)


def spectrum(model):
    """The states with their norms, and decompose's curves on its default grid."""
    states = attach_norms(model, discrete_states(model))
    grid = decompose(model, states=states)
    return (states, grid.total.tobytes(), grid.continuum_residual.tobytes(),
            {k: f.tobytes() for k, f in grid.resonance_f.items()}, grid.bound_lines, grid.per_state_meta)


@settings(max_examples=120, deadline=None)
@given(n_d=chains, v=couplings, e_d=st.floats(-1.5, 1.5),
       g=st.one_of(st.just(0.0), st.floats(1e-6, 0.5)))  # g^2 v^2 a normal double, or 0
def test_states_norms_and_spectrum_keep_their_bits_under_the_coupling_scale(n_d, v, e_d, g):
    g /= v
    assert outcome(lambda: spectrum(chain(n_d, e_d, g, v))) == outcome(
        lambda: spectrum(chain(n_d, e_d, 4 * g, v / 4)))


def points(tr):
    return [[tuple(p)[1:] for p in b.points] for b in tr.branches]


@settings(max_examples=30, deadline=None)
@given(n_d=st.sampled_from([1, 2, 4, 8, 12]), v=couplings, fixed=st.floats(0.05, 0.4),
       parameter=st.sampled_from(["e_d", "g"]))
def test_trace_keeps_its_bits_under_the_coupling_scale(n_d, v, fixed, parameter):
    # an e_d sweep at fixed g, or a g sweep at fixed e_d = -fixed, its values scaled too
    if parameter == "e_d":
        values, scaled = np.linspace(-0.999, 0.999, 101), np.linspace(-0.999, 0.999, 101)
        model, other = chain(n_d, -0.5, fixed / v, v), chain(n_d, -0.5, 4 * (fixed / v), v / 4)
    else:
        values = np.linspace(0.02, 0.4, 101) / v
        scaled = 4 * values
        model, other = chain(n_d, -fixed, 0.2, v), chain(n_d, -fixed, 0.2, v / 4)
    assert outcome(lambda: points(trace(model, parameter, values))) == outcome(
        lambda: points(trace(other, parameter, scaled)))


@pytest.mark.parametrize("v", [1.0, 0.7, 1.3])
@pytest.mark.parametrize("n_d", [3, 4, 5, 8, 12, 24, 40])
def test_ep_census_keeps_its_bits_under_the_coupling_scale(n_d, v):
    # every EP of the chain (the box holds them all): g scaled by 4, all else bit-equal
    eps = scan_for_ep_seeds(chain(n_d, -0.5, 0.2, v), (0.0, 0.5 / v), (-1.5, 1.5))
    scaled = scan_for_ep_seeds(chain(n_d, -0.5, 0.8, v / 4), (0.0, 2.0 / v), (-1.5, 1.5))
    assert len(eps) == n_d - 2
    assert [(4 * ep.g, ep.e_d, ep.z, ep.residual_eta, ep.residual_eta_prime) for ep in eps] == [
        (ep.g, ep.e_d, ep.z, ep.residual_eta, ep.residual_eta_prime) for ep in scaled]


#: |z(-e_d) + conj(z(e_d))| <= MIRROR_ULPS * eps * max(1, |z|): z = (w + 1/w)/2 is
#: formed from roots w of size about 1, so its error is absolute below |z| = 1.
#: Measured on 9000 random models of these families: at most 1.03.
MIRROR_ULPS = 4


def at_a_bic_window_edge(model, e_d):
    """Whether e_d lies within 1e-15 of the edge of the census's BIC window, |e_d - E| < 1e-12
    about a BIC energy E.  The energies -cos(pi k / n_d) are not exact mirrors (they differ
    from -E(n_d - k) by up to a few ulps), so the window may hold e_d and not -e_d there."""
    return model.is_semi_infinite and any(abs(abs(e_d - e) - 1e-12) < 1e-15 for e in bic_energies(model))


@settings(max_examples=150, deadline=None)
@given(n_d=chains, v=couplings, e_d=st.floats(-1.5, 1.5), g=st.floats(0.01, 0.5))
def test_level_mirror_maps_each_state_to_minus_its_conjugate(n_d, v, e_d, g):
    model = chain(n_d, e_d, g / v, v)
    assume(not at_a_bic_window_edge(model, e_d) and not at_a_bic_window_edge(model, -e_d))
    states = outcome(lambda: discrete_states(model, include_antiresonances=True))
    mirror = outcome(lambda: discrete_states(model.with_params(e_d=-e_d), include_antiresonances=True))
    if not isinstance(states, list) or not isinstance(mirror, list):
        assert type(states) is type(mirror)  # both fail, or neither
        return
    assert len(states) == len(mirror)
    left = list(mirror)
    for s in states:
        image = min(left, key=lambda m: abs(m.z + s.z.conjugate()))
        left.remove(image)
        assert abs(image.z + s.z.conjugate()) <= MIRROR_ULPS * EPS * max(1.0, abs(s.z)), (s, image)
        assert image.state_class is s.state_class and image.sheet is s.sheet


@pytest.mark.xfail(strict=True, reason="the BIC energies are not exact mirrors: -cos(pi/2) = -6.1e-17, "
                   "so the BIC window holds e_d = -1e-12 and not +1e-12 at n_d = 4")
def test_level_mirror_at_the_bic_window_edge():
    model = ChainModel.semi_infinite(4, 1e-12, 0.5)
    assert at_a_bic_window_edge(model, 1e-12)
    assert len(discrete_states(model, include_antiresonances=True)) == len(
        discrete_states(model.with_params(e_d=-1e-12), include_antiresonances=True))
