import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from fanochain import (
    BranchPointError,
    ChainModel,
    DiscreteState,
    FanochainError,
    NearExceptionalPointError,
    Sheet,
    SheetedEnergy,
    StateClass,
    attach_norms,
    decompose,
    default_grid,
    degree_of_asymmetry,
    discrete_states,
    fano_profile,
    fano_q,
    green_spectrum,
    normalization,
    resonance_component,
    self_energy,
)
from fanochain import spectrum
from fanochain.states import _norms
from oracles import green_by_complex_sigma, sigma_boundary_quadrature

#: The README exceptional point of the n_d = 4 chain (as in test_states.py).
EP_G = 0.17284479822974877
EP_ED = -0.39819697427829692
EP_Z = -0.412751820558699 - 0.15068433377044882j


def total_oracle(model, omega):
    """Independent F(Omega) from the PV-quadrature boundary self-energy."""
    sig = sigma_boundary_quadrature(model, omega)
    den = (omega - model.e_d - model.g**2 * sig.real) ** 2 + (model.g**2 * sig.imag) ** 2
    return -(model.transition_weight / math.pi) * model.g**2 * sig.imag / den


def band_integral(model, states=None):
    pts = sorted(
        s.z.real
        for s in (states or discrete_states(model))
        if s.state_class in (StateClass.RESONANCE, StateClass.BIC) and -1 < s.z.real < 1
    )
    val, err = quad(
        lambda o: green_spectrum(model, o)[0],
        -1.0,
        1.0,
        points=pts,
        limit=1000,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return val


# -------------------------------------------------------------- green's curve


def test_green_zero_when_decoupled():
    m = ChainModel.semi_infinite(4, -0.5, 0.0)
    omega = np.linspace(-0.9, 0.9, 21)
    assert np.all(green_spectrum(m, omega) == 0.0)


def test_green_positive_and_zero_outside(semi_model):
    omega = np.array([-1.5, -0.7, -0.2, 0.4, 1.2])
    vals = green_spectrum(semi_model, omega)
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert np.all(vals >= 0.0)


def test_green_zeroes_out_of_band_and_pole_points_without_warnings():
    # n_d = 2, e_d = 0 sits on the BIC energy 0, so Omega = 0 is the 0/0 pole
    m = ChainModel.semi_infinite(2, 0.0, 0.2)
    omega = np.array([-3.0, -1.2, -0.999, -0.6, -1e-3, 0.0, 0.25, 0.9, 1.0001, 7.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals = green_spectrum(m, omega)
    outside = (np.abs(omega) > 1.0) | (omega == 0.0)
    assert np.all(vals[outside] == 0.0)
    for o, got in zip(omega[~outside], vals[~outside]):
        sig = self_energy(m, SheetedEnergy(complex(o, 0.0), Sheet.I))
        g2 = m.g**2
        den = (o - m.e_d - g2 * sig.real) ** 2 + (g2 * sig.imag) ** 2
        want = (m.transition_weight / math.pi) * (-g2 * sig.imag) / den
        assert got > 0.0 and got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_green_band_edge_rejected(semi_model):
    with pytest.raises(BranchPointError):
        green_spectrum(semi_model, np.array([1.0]))


def test_green_refuses_nan_and_zeroes_infinite_omega(semi_model):
    # +-inf lies outside the band, where the curve is 0; nan is no energy at all
    with pytest.raises(FanochainError, match=r"not finite at Omega = nan"):
        green_spectrum(semi_model, [0.2, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert green_spectrum(semi_model, [-np.inf, 0.2, np.inf]).tolist()[::2] == [0.0, 0.0]


@pytest.mark.parametrize(
    "model",
    [ChainModel.semi_infinite(1, 1.5, 0.3), ChainModel.semi_infinite(2, 0.0, 0.2)],
    ids=["no_resonance", "exact_bic"],
)
def test_decompose_refuses_nan_omega_without_a_resonance(model):
    # no resonance component carries the nan into the continuum: the curve itself refuses it
    assert all(s.state_class is not StateClass.RESONANCE for s in discrete_states(model))
    with pytest.raises(FanochainError, match=r"not finite at Omega = nan"):
        decompose(model, omega=[np.nan, 0.2])


def test_green_zero_at_bic_energy(semi_model):
    # Im Sigma vanishes at the decoupling energies while the real
    # denominator stays finite for e_d away from them
    for e_b in (-1 / math.sqrt(2), 1 / math.sqrt(2)):
        assert green_spectrum(semi_model, e_b)[0] == pytest.approx(0.0, abs=1e-25)
    assert total_oracle(semi_model, -1 / math.sqrt(2)) == pytest.approx(0.0, abs=1e-12)


def test_green_matches_quadrature_oracle(semi_model, infinite_model):
    for m in (semi_model, infinite_model):
        for omega in (-0.93, -0.51, -0.12, 0.33, 0.85):
            got = green_spectrum(m, omega)[0]
            assert got == pytest.approx(total_oracle(m, omega), rel=1e-7, abs=1e-12)


def test_green_scale_with_transition_weight(semi_model):
    m2 = semi_model.with_params(transition_weight=2.5)
    omega = np.linspace(-0.8, 0.8, 11)
    assert green_spectrum(m2, omega) == pytest.approx(2.5 * green_spectrum(semi_model, omega))


#: A grid across both band edges, with no point exactly on one.
WIDE_GRID = np.linspace(-1.3, 1.3, 20001)


@pytest.mark.parametrize("v", [0.7, 1.0, 1.3])
@pytest.mark.parametrize("grid", ["default", "cached", "wide"])
def test_green_band_form_matches_the_complex_sigma_bit_for_bit(v, grid):
    # "cached" is decompose's own default grid, whose band terms are computed once at import
    omega = {"default": default_grid(), "cached": spectrum._DEFAULT_GRID, "wide": WIDE_GRID}[grid]
    outside = np.abs(omega) > 1.0
    models = [ChainModel.infinite(0.3, 0.2, v=v),
              ChainModel.infinite(-0.6, 0.35, v=v, transition_weight=0.37)]
    models += [
        ChainModel.semi_infinite(n_d, 0.3 - 0.02 * n_d, 0.1 + 0.005 * n_d, v=v,
                                 transition_weight=0.37 if n_d % 2 else 1.0)
        for n_d in range(1, 65)
    ]
    for m in models:
        got = green_spectrum(m, omega)
        assert got.tobytes() == green_by_complex_sigma(m, omega).tobytes(), m
        assert np.all(got[outside] == 0.0) and np.all(got[~outside] >= 0.0)


@pytest.mark.parametrize("e_d", [0.0, -0.5], ids=["pole", "zero"])
def test_green_band_form_reads_0_at_the_bic_energy(e_d):
    # n_d = 2: at Omega = 0, w^4 = 1 and Sigma = 0, so the curve is 0/0 at e_d = 0 (the BIC
    # pole) and 0 elsewhere, with the complex form's sign of that zero
    m = ChainModel.semi_infinite(2, e_d, 0.2)
    omega = np.array([-0.5, -0.0, 0.0, 0.5])
    got = green_spectrum(m, omega)
    assert got.tobytes() == green_by_complex_sigma(m, omega).tobytes()
    assert got[1] == got[2] == 0.0 and np.all(got[[0, 3]] > 0.0)


# ------------------------------------------------------- resonance components


def test_component_split_identity(semi_model):
    omega = default_grid(301)
    for s in discrete_states(semi_model):
        if s.state_class is not StateClass.RESONANCE:
            continue
        f, fs, fa = resonance_component(semi_model, s, omega)
        assert f == pytest.approx(fs + fa, rel=1e-14)
        n = normalization(semi_model, s)
        direct = -(semi_model.transition_weight / np.pi) * np.imag(
            n / (omega - s.z)
        )
        assert f == pytest.approx(direct, rel=1e-12)


def test_component_requires_resonance(semi_model):
    from fanochain import FanochainError

    virt = next(s for s in discrete_states(semi_model) if s.state_class is StateClass.BOUND_II)
    with pytest.raises(FanochainError):
        resonance_component(semi_model, virt, default_grid(11))


def test_antisymmetric_kernel_peak():
    # (Omega-eps)/((Omega-eps)^2+gamma^2) peaks at 1/(2 gamma) at eps+gamma;
    # the symmetric kernel's max is 1/gamma at the centre
    eps, gam = -0.3, 0.05
    omega = np.linspace(eps - 0.5, eps + 0.5, 200001)
    anti = (omega - eps) / ((omega - eps) ** 2 + gam**2)
    sym = gam / ((omega - eps) ** 2 + gam**2)
    assert anti.max() == pytest.approx(1 / (2 * gam), rel=1e-6)
    assert omega[anti.argmax()] == pytest.approx(eps + gam, abs=1e-5)
    assert sym.max() == pytest.approx(1 / gam, rel=1e-8)


def test_markovian_limit_pure_lorentzian(semi_model):
    # synthetic state with a real norm: antisymmetric part must vanish
    s = DiscreteState(
        z=-0.2 - 0.01j,
        sheet=Sheet.II,
        state_class=StateClass.RESONANCE,
        residual=0.0,
        norm=0.9 + 0.0j,
    )
    omega = default_grid(101)
    f, fs, fa = resonance_component(semi_model, s, omega)
    assert np.all(fa == 0.0)
    assert f == pytest.approx(fs)


# ------------------------------------------------------------ DA and q factor


def test_da_flagship_value(semi_model):
    states = discrete_states(semi_model)
    s = next(x for x in states if x.label == "i")
    da = degree_of_asymmetry(normalization(semi_model, s))
    assert da == pytest.approx(0.664, rel=5e-3)


def test_da_markovian_zero():
    assert degree_of_asymmetry(0.7 + 0.0j) == 0.0


def test_da_infinite_small_but_nonzero(infinite_model):
    s = next(
        x for x in discrete_states(infinite_model) if x.state_class is StateClass.RESONANCE
    )
    da = degree_of_asymmetry(normalization(infinite_model, s))
    assert da != 0.0
    assert abs(da) < 0.1


def test_da_vertical_trajectory_sentinel():
    assert math.isinf(degree_of_asymmetry(0.0 + 0.5j))
    assert degree_of_asymmetry(0.0 - 0.5j) > 0  # +inf, dgamma>0


def test_fano_q_flagship():
    assert fano_q(0.664, +1.0) == pytest.approx(3.313, rel=1e-3)


def test_fano_q_limits():
    assert abs(fano_q(1e12, +1.0)) == pytest.approx(1.0, abs=1e-6)
    assert abs(fano_q(-1e12, -1.0)) == pytest.approx(1.0, abs=1e-6)
    assert math.isinf(fano_q(0.0, +1.0))
    # an infinite DA is |q| = 1 exactly, its sign following DA and d(gamma)
    q = [fano_q(da, s) for da in (math.inf, -math.inf) for s in (1.0, -1.0)]
    assert q == [1.0, -1.0, -1.0, 1.0]


def test_fano_q_branch_identity():
    # the two sign choices are negative reciprocals, and (q^2-1)/(2q) = 1/DA
    for da in (0.3, 0.664, -1.7, 5.0):
        qp, qm = fano_q(da, +1.0), fano_q(da, -1.0)
        assert qp * qm == pytest.approx(-1.0, rel=1e-12)
        assert (qp * qp - 1.0) / (2.0 * qp) == pytest.approx(1.0 / da, rel=1e-12)


def test_fano_profile_shape():
    assert fano_profile(-2.0, 2.0) == 0.0  # the Fano zero at x = -q
    assert fano_profile(1e9, 2.0) == pytest.approx(1.0, rel=1e-6)
    assert fano_profile(-1e9, 2.0) == pytest.approx(1.0, rel=1e-6)
    x = np.linspace(-5, 5, 11)
    assert fano_profile(x, 0.0) == pytest.approx(x * x / (x * x + 1.0))


# ------------------------------------------------------------------ decompose


def test_decompose_closure_and_positivity(semi_model):
    sg = decompose(semi_model)
    assert np.all(sg.total >= -1e-12)
    recon = sg.resonance_sum + sg.continuum_residual
    assert recon == pytest.approx(sg.total, rel=1e-12, abs=1e-12)
    assert set(sg.resonance_f) == {"i", "ii", "iii"}


def test_decompose_refuses_non_finite_continuum(semi_model):
    with pytest.raises(FanochainError, match=r"not finite at Omega = nan"):
        decompose(semi_model, omega=[0.1, np.nan])
    states = [replace(s, norm=complex(np.nan, np.nan)) for s in discrete_states(semi_model)]
    with pytest.raises(FanochainError, match=r"not finite at Omega = -0\.999"):
        decompose(semi_model, states=states)


def test_decompose_computes_each_resonance_norm_once(semi_model, monkeypatch):
    calls = []

    def counted(model, states):
        calls.append([s.label for s in states])
        return _norms(model, states)

    monkeypatch.setattr(spectrum, "_norms", counted)
    sg = decompose(semi_model)
    # one call for all the resonances, and none for states that carry a norm
    assert calls == [sorted(sg.resonance_f)] == [["i", "ii", "iii"]]
    decompose(semi_model, states=attach_norms(semi_model, discrete_states(semi_model)))
    assert calls[1:] == [[]]


def test_decompose_batched_norms_raise_what_normalization_raises(semi_model):
    # the first bad resonance in list order names the error, as if each were
    # normalized on its own: here an EP-like norm before a nan one
    res = [s for s in discrete_states(semi_model) if s.state_class is StateClass.RESONANCE]
    on_ep = DiscreteState(
        z=EP_Z, sheet=Sheet.II, state_class=StateClass.RESONANCE, residual=0.0, label="i"
    )
    bad = replace(res[1], w=complex(np.nan, -0.1))
    m = semi_model.with_params(e_d=EP_ED, g=EP_G)
    with pytest.raises(NearExceptionalPointError):
        normalization(m, on_ep)
    with pytest.raises(NearExceptionalPointError):
        decompose(m, states=[on_ep, bad])
    with pytest.raises(FanochainError, match="not a number"):
        decompose(m, states=[bad, on_ep])


def test_decompose_components_equal_resonance_component(semi_model, infinite_model):
    omega = default_grid(501)
    for m in (semi_model, infinite_model):
        states = attach_norms(m, discrete_states(m, include_antiresonances=True))
        sg = decompose(m, omega, states)
        res = [s for s in states if s.state_class is StateClass.RESONANCE]
        assert sorted(sg.resonance_f) == sorted(s.label for s in res)
        for s in res:
            f, fs, fa = resonance_component(m, s, omega)
            assert np.array_equal(sg.resonance_f[s.label], f)
            assert np.array_equal(sg.resonance_fs[s.label], fs)
            assert np.array_equal(sg.resonance_fa[s.label], fa)


def test_far_grid_points_get_zero_components_without_warnings(semi_model):
    # (Omega - eps)^2 overflows past |Omega - eps| ~ 1.3e154, where every component is 0
    omega = [-1e200, 0.1, 1e200]
    states = attach_norms(semi_model, discrete_states(semi_model))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sg = decompose(semi_model, omega, states)
        parts = [resonance_component(semi_model, s, omega) for s in states
                 if s.state_class is StateClass.RESONANCE]
    assert len(parts) == 3
    for f in [*sg.resonance_f.values(), *sg.resonance_fs.values(), *sg.resonance_fa.values(),
              *(f for part in parts for f in part)]:
        assert f[0] == f[2] == 0.0 and f[1] != 0.0
    assert sg.total[[0, 2]].tolist() == sg.continuum_residual[[0, 2]].tolist() == [0.0, 0.0]


def test_decompose_default_grid_is_a_fresh_copy(semi_model):
    states = attach_norms(semi_model, discrete_states(semi_model))
    first = decompose(semi_model, states=states)
    assert np.array_equal(first.omega, default_grid())
    first.omega[:] = 0.0  # a caller may write to its grid
    second = decompose(semi_model, states=states)
    assert second.omega.flags.writeable and not np.shares_memory(first.omega, second.omega)
    assert np.array_equal(second.omega, default_grid())
    assert second.total.tobytes() == decompose(semi_model, default_grid(), states).total.tobytes()


def test_decompose_g_zero_single_line():
    m = ChainModel.semi_infinite(4, -0.5, 0.0, transition_weight=1.3)
    sg = decompose(m)
    assert np.all(sg.total == 0.0)
    assert sg.bound_lines == [(-0.5, pytest.approx(1.3))]


@pytest.mark.parametrize(
    "model",
    [
        ChainModel.semi_infinite(4, -0.5, 0.2),
        ChainModel.semi_infinite(3, -0.25, 0.1),
        ChainModel.semi_infinite(2, 0.3, 0.25),
        ChainModel.semi_infinite(4, -1.5, 0.2),
        ChainModel.infinite(-0.6, 0.2),
        ChainModel.infinite(0.2, 0.3),
    ],
    ids=["semi4", "semi3", "semi2", "semi-bound", "inf1", "inf2"],
)
def test_sum_rule(model):
    states = discrete_states(model)
    sg = decompose(model, np.linspace(-0.9, 0.9, 11), states=states)
    lines = sum(w for _, w in sg.bound_lines)
    assert band_integral(model, states) + lines == pytest.approx(
        model.transition_weight, abs=1e-6
    )


def test_sum_rule_with_bic_line():
    # impurity parked exactly on a decoupling energy: the in-band pole is a
    # delta line with the regular residue, and the sum rule still closes
    m = ChainModel.semi_infinite(4, 0.0, 0.2)
    states = discrete_states(m)
    sg = decompose(m, np.linspace(-0.9, 0.9, 7), states=states)
    lines = sum(w for _, w in sg.bound_lines)
    assert len(sg.bound_lines) == 1
    assert band_integral(m, states) + lines == pytest.approx(1.0, abs=1e-6)


def test_decompose_fig_panel_signs():
    # weak coupling at e_d = -0.4: the broad companion resonance runs
    # backwards (negative d eps/d e_d), so its symmetric part is negative
    m = ChainModel.semi_infinite(4, -0.4, 0.16)
    sg = decompose(m)
    meta = {x.label: x for x in sg.per_state_meta}
    assert meta["ii"].norm.real < 0
    fs_ii = sg.resonance_fs["ii"]
    centre = np.argmin(np.abs(sg.omega - meta["ii"].epsilon))
    assert fs_ii[centre] < 0
    # the narrow state dominates the sum
    peak = sg.total.argmax()
    assert sg.resonance_f["i"][peak] > 0.8 * sg.total[peak]


def test_decompose_strong_coupling_antisymmetric_dominates():
    m = ChainModel.semi_infinite(4, -0.4, 0.2)
    sg = decompose(m)
    for label in ("i", "ii"):
        fa = np.abs(sg.resonance_fa[label]).max()
        fs = np.abs(sg.resonance_fs[label]).max()
        assert fa > fs


def test_decompose_near_ep_large_cancelling_components():
    # at the coalescence coupling the two inner components blow up while
    # their sum stays at the size of the physical curve
    m = ChainModel.semi_infinite(4, -0.4, 0.1728)
    sg = decompose(m)
    big = max(np.abs(sg.resonance_f["i"]).max(), np.abs(sg.resonance_f["ii"]).max())
    assert big > 2.0 * sg.total.max()
    pair = sg.resonance_f["i"] + sg.resonance_f["ii"]
    assert np.abs(pair).max() < 0.5 * big

    # parked essentially on the coalescence point the blow-up is extreme
    m_ep = ChainModel.semi_infinite(4, -0.39819697427829692 + 1e-5, 0.17284479822974877)
    sg_ep = decompose(m_ep)
    big_ep = np.abs(sg_ep.resonance_f["i"]).max()
    assert big_ep > 20.0 * sg_ep.total.max()
    pair_ep = sg_ep.resonance_f["i"] + sg_ep.resonance_f["ii"]
    assert np.abs(pair_ep).max() < 0.1 * big_ep


def test_q_consistency_affine_rescale(semi_model):
    # each component is an exact affine image of the classic profile in
    # x = (Omega - eps)/gamma with the computed q
    sg = decompose(semi_model)
    for m in sg.per_state_meta:
        x = (sg.omega - m.epsilon) / m.gamma
        window = np.abs(x) <= 3.0
        a = (
            semi_model.transition_weight
            / (np.pi * m.gamma)
            * (-m.norm.imag)
            / (2.0 * m.q)
        )
        fitted = a * (fano_profile(x[window], m.q) - 1.0)
        actual = sg.resonance_f[m.label][window]
        scale = np.abs(actual).max()
        assert np.max(np.abs(fitted - actual)) / scale < 0.02


def test_default_grid_shape():
    g = default_grid()
    assert len(g) == 2001
    assert g[0] == -0.999 and g[-1] == 0.999


def test_infinite_peak_shifts_with_level():
    peaks = []
    for e_d in (-0.9, -0.6, -0.3, 0.0):
        sg = decompose(ChainModel.infinite(e_d, 0.2))
        peaks.append(sg.omega[sg.total.argmax()])
    assert all(b > a for a, b in zip(peaks, peaks[1:]))
