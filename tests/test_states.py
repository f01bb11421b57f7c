from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest

from fanochain import (
    ChainModel,
    DiscreteState,
    FanochainError,
    NearExceptionalPointError,
    RootCountError,
    Sheet,
    StateClass,
    attach_norms,
    bound_weight,
    decompose,
    discrete_states,
    normalization,
)
from fanochain.dispersion import _census, _w_rows
from fanochain.states import bic_line_weight

EP_G = 0.17284479822974877
EP_ED = -0.39819697427829692
EP_Z = -0.412751820558699 - 0.15068433377044882j


def resonances(model):
    return [s for s in discrete_states(model) if s.state_class is StateClass.RESONANCE]


def match(states, z):
    return min(states, key=lambda s: abs(s.z - z))


def dz_ded_fd(model, z, h=1e-6):
    zp = match(resonances(model.with_params(e_d=model.e_d + h)), z).z
    zm = match(resonances(model.with_params(e_d=model.e_d - h)), z).z
    return (zp - zm) / (2 * h)


def test_norm_equals_dz_ded(semi_model):
    for s in resonances(semi_model):
        n = normalization(semi_model, s)
        fd = dz_ded_fd(semi_model, s.z)
        assert n == pytest.approx(fd, rel=1e-6)


def test_norm_equals_dz_ded_more_params():
    for n_d, g, e_d in [(3, 0.12, -0.3), (5, 0.18, 0.25), (2, 0.25, 0.1)]:
        m = ChainModel.semi_infinite(n_d, e_d, g)
        for s in resonances(m):
            assert normalization(m, s) == pytest.approx(dz_ded_fd(m, s.z), rel=1e-6)


def test_norm_infinite_chain(infinite_model):
    s = resonances(infinite_model)[0]
    assert normalization(infinite_model, s) == pytest.approx(
        dz_ded_fd(infinite_model, s.z), rel=1e-6
    )


def test_flagship_norm_value(semi_model):
    # narrowest resonance at the Fano-profile benchmark point: its
    # trajectory slope -Im/Re gives the asymmetry value near 0.664
    s = next(x for x in discrete_states(semi_model) if x.label == "i")
    n = normalization(semi_model, s)
    assert -n.imag / n.real == pytest.approx(0.664, rel=5e-3)


def test_small_g_norm_near_unity():
    m = ChainModel.semi_infinite(4, -0.5, 1e-3)
    analytic = match(resonances(m), complex(-0.5, 0.0))
    assert normalization(m, analytic) == pytest.approx(1.0, abs=1e-4)


def test_bound_norm_real_positive_and_equals_weight():
    m = ChainModel.semi_infinite(4, -1.5, 0.2)
    bound = next(s for s in discrete_states(m) if s.state_class is StateClass.BOUND_I)
    n = normalization(m, bound)
    assert abs(n.imag) < 1e-12
    assert n.real > 0
    assert bound_weight(m, bound) == pytest.approx(n.real, rel=1e-14)


def test_bound_weight_small_g_tends_to_one():
    m = ChainModel.semi_infinite(4, -1.5, 1e-3)
    bound = next(s for s in discrete_states(m) if s.state_class is StateClass.BOUND_I)
    assert bound_weight(m, bound) == pytest.approx(1.0, abs=1e-4)


def test_bound_weight_in_unit_interval(semi_model):
    m = ChainModel.semi_infinite(4, -1.2, 0.25)
    for s in discrete_states(m):
        if s.state_class is StateClass.BOUND_I:
            assert 0.0 < bound_weight(m, s) < 1.0


def test_bound_weight_wrong_class_rejected(semi_model):
    res = resonances(semi_model)[0]
    with pytest.raises(FanochainError, match="boundI"):
        bound_weight(semi_model, res)


def test_virtual_state_refused_by_bound_weight(semi_model):
    virt = next(s for s in discrete_states(semi_model) if s.state_class is StateClass.BOUND_II)
    with pytest.raises(FanochainError):
        bound_weight(semi_model, virt)


def test_infinite_symmetric_pbs_weights():
    m = ChainModel.infinite(0.0, 0.2)
    pbs = [s for s in discrete_states(m) if s.state_class is StateClass.BOUND_I]
    assert len(pbs) == 2
    w = [bound_weight(m, s) for s in sorted(pbs, key=lambda s: s.z.real)]
    assert w[0] == pytest.approx(w[1], rel=1e-10)


def test_near_ep_divergence():
    magnitudes = []
    for delta in (1e-2, 1e-3, 1e-4, 1e-5):
        m = ChainModel.semi_infinite(4, EP_ED + delta, EP_G)
        s = match(resonances(m), EP_Z)
        magnitudes.append(abs(normalization(m, s)))
    # square-root coalescence: |N| ~ delta^(-1/2), i.e. x10 per two decades
    assert all(b > a for a, b in zip(magnitudes, magnitudes[1:]))
    assert magnitudes[2] > 9.0 * magnitudes[0]
    assert magnitudes[3] > 9.0 * magnitudes[1]
    slope = np.polyfit(
        np.log([1e-2, 1e-3, 1e-4, 1e-5]), np.log(magnitudes), 1
    )[0]
    assert slope == pytest.approx(-0.5, abs=0.05)


def test_ep_guard_triggers():
    # park the state record exactly on the coalescence point
    m = ChainModel.semi_infinite(4, EP_ED, EP_G)
    fake = DiscreteState(z=EP_Z, sheet=Sheet.II, state_class=StateClass.RESONANCE, residual=0.0)
    with pytest.raises(NearExceptionalPointError):
        normalization(m, fake)


def test_bic_norm_convention():
    m = ChainModel.semi_infinite(4, 0.0, 0.2)
    bic = next(s for s in discrete_states(m) if s.state_class is StateClass.BIC)
    with pytest.raises(FanochainError, match="convention"):
        normalization(m, bic)
    filled = attach_norms(m, [bic])[0]
    assert filled.norm == 1.0 + 0.0j
    # the delta-line weight keeps the residue formula, which stays regular
    w = bic_line_weight(m, bic)
    n_d, v = m.n_d, m.v
    expected = 1.0 / (1.0 + 2 * n_d * m.g**2 * v**2 / (1 - bic.z.real**2))
    assert w == pytest.approx(expected, rel=1e-10)
    assert 0.0 < w < 1.0
    resonance = next(s for s in discrete_states(m) if s.state_class is StateClass.RESONANCE)
    with pytest.raises(FanochainError, match="expected a BIC state, got resonance"):
        bic_line_weight(m, resonance)


def test_attach_norms_fills_everything(semi_model):
    states = attach_norms(semi_model, discrete_states(semi_model))
    assert all(s.norm is not None for s in states)


@pytest.mark.parametrize(
    "model",
    [
        ChainModel.semi_infinite(4, -0.5, 0.2),
        ChainModel.semi_infinite(4, 0.0, 0.2),  # with a BIC
        ChainModel.semi_infinite(3, -1.8, 0.4),  # with bound states
        ChainModel.infinite(-0.6, 0.2),
    ],
)
def test_attach_norms_changes_no_field_but_norm(model):
    states = discrete_states(model, include_antiresonances=True)
    normed = attach_norms(model, states)
    assert len(normed) == len(states)
    for old, new in zip(states, normed):
        assert type(new) is DiscreteState and new is not old
        for f in fields(DiscreteState):
            if f.name != "norm":
                assert getattr(new, f.name) is getattr(old, f.name), f.name
        assert new.norm == (1 if old.state_class is StateClass.BIC else normalization(model, old))


@pytest.mark.parametrize("e_d", [-1.0, 1.0, 1.5, 0.5])
@pytest.mark.parametrize("chain", ["semi", "infinite"])
def test_decoupled_norm_is_exactly_one(chain, e_d):
    # g = 0: z = e_d, so dz/de_d = 1 exactly, also with the level on a band
    # edge, where the rate read off p(w) would be 0/0 at w = +-1
    m = ChainModel.semi_infinite(4, e_d, 0.0) if chain == "semi" else ChainModel.infinite(e_d, 0.0)
    (state,) = attach_norms(m, discrete_states(m))
    assert state.norm == 1
    sg = decompose(m)
    assert sg.bound_lines == [(e_d, m.transition_weight)]
    assert np.isfinite(sg.total).all()


@pytest.mark.parametrize(
    "n_d, e_d, g",
    [
        (16, 0.32390934022193196, 0.14650119786731408),
        (2, -0.2533849720175845, 0.43265920602992475),
        (3, -0.4999875392814377, 0.49760463721661075),
    ],
)
def test_band_edge_norm_matches_mpmath(n_d, e_d, g):
    # a real root this close to z = +-1 is resolved by its w, not by z
    m = ChainModel.semi_infinite(n_d, e_d, g)
    state = min(attach_norms(m, discrete_states(m)), key=lambda s: min(abs(s.z - 1), abs(s.z + 1)))
    assert min(abs(state.z - 1), abs(state.z + 1)) < 1e-4
    with mpmath.workdps(50):
        e, G = mpmath.mpf(e_d), mpmath.mpf(g) ** 2
        ks = range(1, n_d + 1)
        p = lambda w: w * w - 2 * e * w + 1 - 4 * G * mpmath.fsum(w ** (2 * k) for k in ks)
        dp = lambda w: 2 * w - 2 * e - 8 * G * mpmath.fsum(k * w ** (2 * k - 1) for k in ks)
        w = mpmath.findroot(p, mpmath.mpf(state.w.real))
        ref = complex((w * w - 1) / (w * dp(w)))
    assert abs(state.norm - ref) <= 1e-12 * abs(ref)


def test_state_passed_at_a_loose_root_tol_gets_its_norm():
    # the bound state 1.4e-6 above the band edge misses the default |eta| gate, but
    # passes at root_tol = 1e-9, and its norm is read off w, not re-gated in z
    m = ChainModel.infinite(-0.5, 0.05)
    with pytest.raises(RootCountError, match=r"z = 1\.0000013888853525\+0j"):
        discrete_states(m)
    states = attach_norms(m, discrete_states(m, root_tol=1e-9))
    assert len(states) == 4
    bound = [s for s in states if s.state_class is StateClass.BOUND_I]
    assert len(bound) == 2
    with mpmath.workdps(50):
        e, G = mpmath.mpf(m.e_d), mpmath.mpf(m.g) ** 2
        p = lambda w: (w * w - 2 * e * w + 1) * (1 - w * w) - 4 * G * w * w
        for state in bound:
            w = mpmath.findroot(p, mpmath.mpf(state.w.real))
            ref = complex(-((w * w - 1) ** 2) / (w * mpmath.diff(p, w)))
            assert abs(state.norm - ref) <= 1e-12 * abs(ref), (state.z, ref)


def test_hand_made_state_reads_w_off_z():
    for z in (0.3, complex(0.3, -0.0)):
        state = DiscreteState(z=z, sheet=Sheet.I, state_class=StateClass.BIC, residual=0.0)
        assert state.w == pytest.approx(0.3 - 1j * np.sqrt(0.91), abs=1e-15)
    state = DiscreteState(z=0.3, sheet=Sheet.II, state_class=StateClass.BOUND_II, residual=0.0)
    assert state.w == pytest.approx(0.3 + 1j * np.sqrt(0.91), abs=1e-15)
    state = DiscreteState(z=-1.5, sheet=Sheet.I, state_class=StateClass.BOUND_I, residual=0.0)
    assert state.w == pytest.approx(-1.5 + np.sqrt(1.25), abs=1e-15)


def test_nan_state_normalization_refused():
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    state = DiscreteState(complex(np.nan, -0.1), Sheet.II, StateClass.RESONANCE, residual=0.0)
    with pytest.raises(FanochainError, match="not a number"):
        normalization(m, state)


def test_nan_bound_norm_refused_by_bound_weight():
    m = ChainModel.semi_infinite(4, -1.5, 0.2)
    bound = next(s for s in discrete_states(m) if s.state_class is StateClass.BOUND_I)
    with pytest.raises(FanochainError, match="real positive"):
        bound_weight(m, replace(bound, norm=complex(np.nan, 0.0)))


@pytest.mark.parametrize(
    "model",
    [
        ChainModel.semi_infinite(2, 0.907, 0.1176, v=0.7),
        ChainModel.semi_infinite(22, -0.12600394353453725, 0.22232202641324106),
    ],
    ids=["g=0.1176", "n_d=22"],
)
def test_norms_are_read_off_the_polynomial_the_census_solves(model):
    # two g at which glibc's pow(g, 2) differs from g * g in the last bit: the census squares g as
    # the norms do, so each norm is (w^2 - 1)/(2 w^2) (-p_q)/p_w of the census's own p
    census = _census(model, [model.e_d], [model.g])
    assert census.g2.tobytes() == np.array([[model.g * model.g]]).tobytes()
    rows = _w_rows(model)
    p = (rows[0] + census.e_d[0] * rows[1] + census.g2[0] * rows[2])[::-1]
    states = attach_norms(model, discrete_states(model, include_antiresonances=True))
    w = np.array([s.w for s in states])
    assert set(w.tolist()) == set(census.w[0].tolist())
    minus_p_q, p_w = -np.polyval(rows[1][::-1], w), np.polyval(np.polyder(p), w)
    want = (w * w - 1.0) / (2.0 * w * w) * minus_p_q / p_w
    np.testing.assert_array_equal([s.norm for s in states], want)
