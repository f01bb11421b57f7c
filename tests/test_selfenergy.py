import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanochain import (
    BranchPointError,
    ChainModel,
    Sheet,
    SheetedEnergy,
    band_energy,
    bic_energies,
    coupling,
    self_energy,
    self_energy_deriv,
    sqrt_branch,
)
from fanochain.selfenergy import _band_point, _band_sigma, _sigma
from oracles import (
    continue_sqrt_through_cut,
    sigma_boundary_quadrature,
    sigma_quadrature,
    sigma_theta,
)

I, II = Sheet.I, Sheet.II


def se(z, sheet=I):
    return SheetedEnergy(complex(z), sheet)


# ---------------------------------------------------------------- sqrt branch


def test_sqrt_real_above_band():
    assert sqrt_branch(se(2.0, I)) == pytest.approx(math.sqrt(3.0))
    assert sqrt_branch(se(2.0, II)) == pytest.approx(-math.sqrt(3.0))


def test_sqrt_real_below_band_asymptote_sign():
    # s ~ z on sheet I, so it must come out negative below the band
    assert sqrt_branch(se(-2.0, I)) == pytest.approx(-math.sqrt(3.0))


def test_sqrt_branch_points_rejected():
    for z in (1.0, -1.0):
        with pytest.raises(BranchPointError):
            sqrt_branch(se(z, I))


def test_sqrt_in_band_plus_i0():
    # E + i0 limit: i*sqrt(1-E^2) on sheet I
    s = sqrt_branch(se(0.5, I))
    assert s == pytest.approx(1j * math.sqrt(0.75))
    assert sqrt_branch(se(0.5, II)) == pytest.approx(-1j * math.sqrt(0.75))


def test_sqrt_sheet_two_is_continuation_through_cut():
    # frozen from the path-following oracle: continuing from 0.5+0.1i on
    # sheet I straight down through the cut lands on -s_I(0.5-0.1i)
    expected = continue_sqrt_through_cut(0.5 + 0.1j, 0.5 - 0.1j)
    assert expected == pytest.approx(-0.05723074291616352 + 0.8736563156841117j, rel=1e-9)
    got = sqrt_branch(se(0.5 - 0.1j, II))
    assert got == pytest.approx(expected, rel=1e-9)


def test_sqrt_continuity_across_cut_upper_to_lower():
    eps = 1e-9
    upper = sqrt_branch(se(complex(0.3, eps), I))
    lower = sqrt_branch(se(complex(0.3, -eps), II))
    assert upper == pytest.approx(lower, abs=1e-7)


@given(
    x=st.floats(-3, 3, allow_nan=False),
    y=st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=200)
def test_sqrt_squares_back(x, y):
    z = complex(x, y)
    if abs(z - 1.0) < 1e-9 or abs(z + 1.0) < 1e-9:
        return
    for sheet in (I, II):
        s = sqrt_branch(se(z, sheet))
        zc = complex(z.real, 0.0) if z.imag == 0 else z
        assert s * s == pytest.approx(zc * zc - 1.0, rel=1e-12, abs=1e-12)


def test_sqrt_asymptotic():
    z = 1e6 + 1e5j
    assert sqrt_branch(se(z, I)) / z == pytest.approx(1.0, rel=1e-6)


# -------------------------------------------------------------- band/coupling


def test_band_energy_examples():
    assert band_energy(math.pi / 2) == pytest.approx(0.0)
    assert band_energy(0.0) == pytest.approx(-1.0)
    assert band_energy(math.pi) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        band_energy(-0.1)


def test_coupling_bic_wavenumber(semi_model):
    # sin(n_d k) = 0 at k = pi/4 * ... for n_d=4: k=pi/4 gives sin(pi)=0
    assert coupling(semi_model, math.pi / 4) == pytest.approx(0.0, abs=1e-15)
    assert coupling(semi_model, 0.3) == pytest.approx(
        math.sqrt(2 / math.pi) * math.sin(4 * 0.3)
    )
    for k in (-0.1, math.pi + 0.1):
        with pytest.raises(ValueError, match=r"k must lie in \[0, pi\]"):
            coupling(semi_model, k)


def test_coupling_infinite_flat(infinite_model):
    vals = {coupling(infinite_model, k) for k in (0.1, 0.7, 2.0)}
    assert len(vals) == 1
    assert vals.pop() == pytest.approx(1.0 / math.sqrt(2 * math.pi))


# ----------------------------------------------------------------- selfenergy


def test_self_energy_closed_form_value(semi_model):
    # (1/sqrt 3)(1 - (2 - sqrt 3)^8), frozen; the quadrature oracle agrees
    expected = 0.5773349280016151
    assert self_energy(semi_model, se(2.0, I)) == pytest.approx(expected, rel=1e-14)
    assert sigma_quadrature(semi_model, 2.0) == pytest.approx(expected, rel=1e-9)


def test_self_energy_vs_quadrature_off_axis(semi_model, infinite_model):
    for m in (semi_model, infinite_model):
        for z in (0.5 + 0.3j, -1.4 + 0.2j, 0.1 - 0.4j, 2.0 + 0j, -3.0 + 1.0j):
            closed = self_energy(m, se(z, I))
            assert closed == pytest.approx(sigma_quadrature(m, z), rel=1e-8, abs=1e-12)


def test_self_energy_boundary_vs_pv_quadrature(semi_model, infinite_model):
    for m in (semi_model, infinite_model):
        for energy in (-0.83, -0.31, 0.12, 0.64):
            closed = self_energy(m, se(energy, I))
            oracle = sigma_boundary_quadrature(m, energy)
            assert closed == pytest.approx(oracle, rel=1e-7, abs=1e-9)


def test_self_energy_theta_oracle(semi_model):
    for energy in (-0.9, -0.4, 0.2, 0.77):
        assert self_energy(semi_model, se(energy, I)) == pytest.approx(
            sigma_theta(semi_model, energy), rel=1e-12
        )


def test_self_energy_bic_zero_exact(semi_model):
    # z = 0 is a decoupling point for n_d = 4: exactly zero, not just small
    assert self_energy(semi_model, se(0.0, I)) == 0.0


def test_self_energy_bic_zeros_all(semi_model):
    for n_d in (2, 3, 4, 5, 7):
        for v in (1.0, 1.7):
            m = ChainModel.semi_infinite(n_d, -0.5, 0.2, v=v)
            for e_b in bic_energies(m):
                assert abs(self_energy(m, se(e_b, I))) < 1e-13


def test_self_energy_infinite_closed_form(infinite_model):
    assert self_energy(infinite_model, se(2.0, I)) == pytest.approx(1 / math.sqrt(3))


def test_asymptotic_sum_rule():
    # z * Sigma -> integral of V_k^2 dk = V^2 at large |z|, both variants
    for m in (
        ChainModel.semi_infinite(4, -0.5, 0.2, v=1.3),
        ChainModel.infinite(-0.6, 0.2, v=0.8),
    ):
        for z in (1e3 + 0j, -600 + 800j, 1e3j):
            ratio = z * self_energy(m, se(z, I)) / m.v**2
            assert ratio == pytest.approx(1.0, rel=1e-5)


def test_schwarz_symmetry(semi_model):
    for z in (0.4 + 0.7j, -1.3 + 0.2j, 2.0 + 1.0j):
        upper = self_energy(semi_model, se(z, I))
        lower = self_energy(semi_model, se(np.conj(z), I))
        assert lower == pytest.approx(np.conj(upper), rel=1e-14)


def test_negative_spectral_density(semi_model):
    omega = np.linspace(-0.999, 0.999, 801)
    vals = np.array([self_energy(semi_model, se(o, I)).imag for o in omega])
    assert np.all(vals <= 1e-14)
    # strictly negative away from the BIC energies and edges
    bics = bic_energies(semi_model)
    away = [o for o in omega if min(abs(o - b) for b in bics) > 1e-3]
    assert all(self_energy(semi_model, se(o, I)).imag < 0 for o in away)


def test_sheet_consistency_via_path_continuation(semi_model):
    # continue Sigma from the conjugate upper-half point through the cut;
    # the result must equal the direct sheet-II evaluation below
    for z_end in (0.5 - 0.1j, -0.2 - 0.3j):
        z_start = np.conj(z_end)
        s_cont = continue_sqrt_through_cut(z_start, z_end)
        n, v = semi_model.n_d, semi_model.v
        sigma_cont = (v * v / s_cont) * (1.0 - (z_end - s_cont) ** (2 * n))
        assert self_energy(semi_model, se(z_end, II)) == pytest.approx(
            sigma_cont, rel=1e-9
        )


# ---------------------------------------------------------------- derivatives


@pytest.mark.parametrize("sheet", [I, II])
@pytest.mark.parametrize("z", [0.3 - 0.2j, -1.5 + 0.1j, 2.0 + 0j, 0.9 + 0.4j])
def test_deriv_matches_finite_difference(semi_model, infinite_model, sheet, z):
    h = 1e-6
    for m in (semi_model, infinite_model):
        d1 = self_energy_deriv(m, se(z, sheet), 1)
        fd1 = (self_energy(m, se(z + h, sheet)) - self_energy(m, se(z - h, sheet))) / (2 * h)
        assert d1 == pytest.approx(fd1, rel=1e-6)
        d2 = self_energy_deriv(m, se(z, sheet), 2)
        fd2 = (
            self_energy_deriv(m, se(z + h, sheet), 1)
            - self_energy_deriv(m, se(z - h, sheet), 1)
        ) / (2 * h)
        assert d2 == pytest.approx(fd2, rel=1e-5)


def test_deriv_infinite_closed_form():
    # Sigma' = -v^2 z / s^3 and Sigma'' = v^2 (2 z^2 + 1) / s^5, on both sheets
    for v in (1.0, 1.3):
        m = ChainModel.infinite(-0.6, 0.2, v=v)
        for z in (1.7 + 0.3j, 0.4 - 0.2j, -2.5 + 0j):
            for sheet in (I, II):
                s = sqrt_branch(se(z, sheet))
                assert self_energy_deriv(m, se(z, sheet), 1) == pytest.approx(
                    -(v**2) * z / s**3, rel=1e-13
                )
                assert self_energy_deriv(m, se(z, sheet), 2) == pytest.approx(
                    v**2 * (2 * z * z + 1) / s**5, rel=1e-13
                )


@pytest.mark.parametrize("n_d", [1, 4, None])
def test_array_kernel_with_sheet_mask_matches_scalar(n_d):
    m = (
        ChainModel.infinite(-0.6, 0.2, v=1.3)
        if n_d is None
        else ChainModel.semi_infinite(n_d, -0.5, 0.2, v=1.3)
    )
    z = np.array([0.3 - 0.2j, -1.5 + 0.1j, 2.0 + 0j, 0.9 + 0.4j, -0.45 + 0j, 1.2 - 0.7j])
    sheet_ii = np.array([True, False, True, False, True, True])
    got = _sigma(z, sheet_ii, m.n_d, m.v, order=2)
    assert len(got) == 3
    for k, (zk, ii) in enumerate(zip(z, sheet_ii)):
        point = se(zk, II if ii else I)
        want = (self_energy(m, point), self_energy_deriv(m, point, 1),
                self_energy_deriv(m, point, 2))
        for order in range(3):
            assert got[order][k] == pytest.approx(want[order], rel=1e-14)


@pytest.mark.parametrize("v", [0.7, 1.0, 1.3])
def test_band_kernel_is_the_complex_kernel_at_plus_i0(v):
    # inside the band, the band form is the complex Sigma(Omega + 0j) to the last bit,
    # signed zeros included: the BIC energies of each n_d, where Sigma is 0, among them
    bic = [-math.cos(math.pi * k / n) for n in range(1, 65) for k in range(1, n)]
    omega = np.concatenate([np.linspace(-0.9999, 0.9999, 4001), bic, [-0.0, 0.0, -1e-300, 1e-300]])
    for n_d in [None, *range(1, 65)]:
        got = _band_sigma(*_band_point(omega), n_d, v)
        (want,) = _sigma(omega.astype(complex), Sheet.I, n_d, v)
        assert got.tobytes() == want.tobytes(), n_d


def test_deriv_asymptote(semi_model, infinite_model):
    # Sigma ~ V^2/z  =>  Sigma' ~ -V^2/z^2
    z = 2e3 + 1e3j
    for m in (semi_model, infinite_model):
        d1 = self_energy_deriv(m, se(z, I), 1)
        assert d1 == pytest.approx(-m.v**2 / z**2, rel=1e-4)


def test_deriv_order_validation(semi_model):
    with pytest.raises(ValueError):
        self_energy_deriv(semi_model, se(2.0, I), 3)
