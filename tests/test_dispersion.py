import math

import numpy as np
import pytest

from fanochain import (
    BranchPointError,
    ChainModel,
    ModelError,
    RootCountError,
    Sheet,
    SheetedEnergy,
    StateClass,
    bic_energies,
    discrete_states,
    eta,
    self_energy,
)
from fanochain.dispersion import ROOT_TOL, newton_polish, polish_seeds
from oracles import sigma_quadrature, winding_number

I, II = Sheet.I, Sheet.II


def classes(states):
    out = {}
    for s in states:
        out[s.state_class] = out.get(s.state_class, 0) + 1
    return out


# ----------------------------------------------------------------- bic points


def test_bic_nd4(semi_model):
    got = bic_energies(semi_model)
    expected = [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)]
    assert got == pytest.approx(expected, abs=1e-14)


def test_bic_nd2():
    m = ChainModel.semi_infinite(2, -0.5, 0.2)
    assert bic_energies(m) == pytest.approx([0.0], abs=1e-14)


def test_bic_nd1_empty():
    m = ChainModel.semi_infinite(1, -0.5, 0.2)
    assert bic_energies(m) == []


def test_bic_infinite_rejected(infinite_model):
    with pytest.raises(ModelError, match="infinite"):
        bic_energies(infinite_model)


# ------------------------------------------------------------------------ eta


def test_eta_at_root_is_zero(semi_model):
    for s in discrete_states(semi_model):
        assert abs(eta(semi_model, s.sheeted())) < 1e-12


def test_eta_g_zero():
    m = ChainModel.semi_infinite(4, -0.5, 0.0)
    assert eta(m, SheetedEnergy(-0.5 + 0j, I)) == 0.0


def test_eta_against_quadrature(semi_model):
    # frozen: 2 - e_d - g^2 * Sigma(2) with Sigma from the quadrature oracle
    expected = 2.0 - semi_model.e_d - semi_model.g**2 * sigma_quadrature(semi_model, 2.0)
    assert expected == pytest.approx(2.4769066028799354, rel=1e-12)
    assert eta(semi_model, SheetedEnergy(2.0 + 0j, I)) == pytest.approx(expected, rel=1e-10)


# -------------------------------------------------------------- state finding


def test_counts_flagship(semi_model):
    states = discrete_states(semi_model)
    by = classes(states)
    assert by[StateClass.RESONANCE] == 3
    assert by.get(StateClass.BOUND_I, 0) + by.get(StateClass.BOUND_II, 0) == 2
    assert len(states) == 5


def test_flagship_resonance_positions(semi_model):
    # frozen from the polished solve; Newton on eta verifies independently
    res = sorted(
        (s.z for s in discrete_states(semi_model) if s.state_class is StateClass.RESONANCE),
        key=lambda z: z.real,
    )
    expected = [
        -0.5704389029971567 - 0.0411459769011912j,
        -0.3054482904852066 - 0.2268410389813878j,
        0.6011739860845702 - 0.3527705881174854j,
    ]
    assert res == pytest.approx(expected, abs=1e-9)


def test_every_root_verified_on_declared_sheet(semi_model, infinite_model):
    for m in (semi_model, infinite_model):
        for s in discrete_states(m):
            assert s.residual < 1e-12
            assert abs(eta(m, s.sheeted())) < 1e-12


def test_resonances_have_positive_gamma_on_sheet_two(semi_model):
    for s in discrete_states(semi_model):
        if s.state_class is StateClass.RESONANCE:
            assert s.gamma > 0
            assert s.sheet is II


def test_count_law_on_grid():
    # generic points: away from BIC energies and from the thresholds
    # e_d = +-(1 - 2 n_d g^2 v^2) where a real root sits on a band edge
    for n_d in (2, 3, 4, 5):
        for g in (0.05, 0.1, 0.2, 0.3):
            for e_d in (-0.85, -0.55, -0.25, 0.35, 0.58):
                if min(abs(e_d - b) for b in bic_energies(ChainModel.semi_infinite(n_d, e_d, g))) < 1e-3:
                    continue
                states = discrete_states(ChainModel.semi_infinite(n_d, e_d, g))
                by = classes(states)
                assert by.get(StateClass.RESONANCE, 0) == n_d - 1, (n_d, g, e_d)
                n_real = by.get(StateClass.BOUND_I, 0) + by.get(StateClass.BOUND_II, 0)
                assert n_real == 2, (n_d, g, e_d)


def test_census_complete_or_band_edge():
    # far past the count-law grid in n_d: the full census, or a loud
    # failure naming only real roots so close to a band edge that no
    # double z meets the |eta| gate there
    points = [(12, -0.5, 0.2)] + [
        (n_d, e_d, g)
        for n_d in (12, 20, 24, 32, 48, 64)
        for g in (0.05, 0.1, 0.2, 0.3)
        for e_d in (-0.85, -0.55, -0.25, 0.35, 0.58)
    ]
    for n_d, e_d, g in points:
        m = ChainModel.semi_infinite(n_d, e_d, g)
        if min(abs(e_d - b) for b in bic_energies(m)) < 1e-3:
            continue
        try:
            states = discrete_states(m)
        except RootCountError as exc:
            assert exc.candidates, (n_d, g, e_d)
            for z, _ in exc.candidates:
                assert z.imag == 0 and abs(abs(z.real) - 1) < 1e-4, (n_d, g, e_d, str(exc))
            continue
        by = classes(states)
        assert by.get(StateClass.RESONANCE, 0) == n_d - 1, (n_d, g, e_d)
        n_real = by.get(StateClass.BOUND_I, 0) + by.get(StateClass.BOUND_II, 0)
        assert n_real == 2, (n_d, g, e_d)


def test_band_edge_roots_fail_loudly():
    # both bound states sit within 1e-6 of a band edge, where eta has a
    # square-root singularity: one ulp of z moves |eta| past ROOT_TOL
    with pytest.raises(RootCountError, match="band edge") as info:
        discrete_states(ChainModel.infinite(-0.2, 0.03))
    assert len(info.value.candidates) == 2
    for z, residual in info.value.candidates:
        assert z.imag == 0 and 0 < abs(z.real) - 1 < 1e-6
        assert ROOT_TOL <= residual < 1e-8


def test_infinite_census(infinite_model):
    states = discrete_states(infinite_model)
    by = classes(states)
    assert by[StateClass.BOUND_I] == 2
    assert by[StateClass.RESONANCE] == 1
    assert by[StateClass.ANTIRESONANCE] == 1
    res = next(s for s in states if s.state_class is StateClass.RESONANCE)
    anti = next(s for s in states if s.state_class is StateClass.ANTIRESONANCE)
    assert res.z == pytest.approx(np.conj(anti.z), rel=1e-12)
    assert res.z.imag < 0


def test_true_bound_states_when_level_below_band():
    m = ChainModel.semi_infinite(4, -1.5, 0.2)
    states = discrete_states(m)
    bound_i = [s for s in states if s.state_class is StateClass.BOUND_I]
    assert len(bound_i) == 1
    assert bound_i[0].z.real < -1
    assert bound_i[0].sheet is I


def test_out_of_band_weak_coupling_virtual_pair():
    # outside the band at weak coupling a resonance pair sits on the
    # second-sheet real axis instead: 4 real solutions, 2 resonances,
    # including a virtual twin right below the physical bound state
    m = ChainModel.semi_infinite(4, -1.5, 1e-3)
    states = discrete_states(m)
    by = classes(states)
    assert by[StateClass.BOUND_I] == 1
    assert by[StateClass.BOUND_II] == 3
    assert by[StateClass.RESONANCE] == 2
    bound = next(s for s in states if s.state_class is StateClass.BOUND_I)
    twin = min(
        (s for s in states if s.state_class is StateClass.BOUND_II),
        key=lambda s: abs(s.z - bound.z),
    )
    assert abs(twin.z - bound.z) < 0.01
    assert twin.z != bound.z


def test_conjugation_property(semi_model):
    states = discrete_states(semi_model, include_antiresonances=True)
    res = [s.z for s in states if s.state_class is StateClass.RESONANCE]
    antis = [s.z for s in states if s.state_class is StateClass.ANTIRESONANCE]
    assert len(res) == len(antis) == 3
    for z in res:
        partner = min(antis, key=lambda a: abs(a - np.conj(z)))
        assert partner == pytest.approx(np.conj(z), abs=1e-10)
        # the conjugate satisfies the sheet-II dispersion relation directly
        assert abs(eta(semi_model, SheetedEnergy(np.conj(z), II))) < 1e-11


def test_mirror_symmetry():
    for e_d in (-0.55, -0.3, 0.15):
        for g in (0.1, 0.2):
            plus = discrete_states(ChainModel.semi_infinite(4, e_d, g))
            minus = discrete_states(ChainModel.semi_infinite(4, -e_d, g))
            rp = sorted(
                (s.z for s in plus if s.state_class is StateClass.RESONANCE),
                key=lambda z: z.real,
            )
            rm = sorted(
                (-np.conj(s.z) for s in minus if s.state_class is StateClass.RESONANCE),
                key=lambda z: z.real,
            )
            assert rp == pytest.approx(rm, abs=1e-10)


def test_small_g_analytic_root():
    m = ChainModel.semi_infinite(4, -0.5, 1e-6)
    states = discrete_states(m)
    analytic = min(
        (s for s in states if s.state_class is StateClass.RESONANCE),
        key=lambda s: abs(s.z - m.e_d),
    )
    # gamma = O(g^2): the boundary density at e_d fixes the prefactor
    assert analytic.gamma == pytest.approx(1.732e-12, rel=1e-2)
    assert abs(analytic.z.real - m.e_d) < 1e-11


def test_exact_bic_parameter_emits_bic_state():
    for e_b_index, n_d in ((0, 4), (1, 4), (0, 2)):
        e_b = bic_energies(ChainModel.semi_infinite(n_d, 0.0, 0.1))[e_b_index]
        m = ChainModel.semi_infinite(n_d, e_b, 0.2)
        states = discrete_states(m)
        by = classes(states)
        assert by.get(StateClass.BIC, 0) == 1
        bic = next(s for s in states if s.state_class is StateClass.BIC)
        assert bic.z == pytest.approx(complex(e_b, 0.0), abs=1e-12)
        assert bic.gamma == 0.0
        assert by.get(StateClass.RESONANCE, 0) == n_d - 2
        assert len(states) == n_d + 1


def np_roots_reference(model):
    """(z, sheet) per root of p(w), solved with np.roots and np.polyval alone."""
    G = model.g**2 * model.v**2
    if model.is_semi_infinite:
        coeffs = np.zeros(2 * model.n_d + 1)
        coeffs[:3] = 1.0, -2.0 * model.e_d, 1.0
        coeffs[2::2] -= 4.0 * G
    else:
        coeffs = np.array([1.0, -2.0 * model.e_d, -4.0 * G, 2.0 * model.e_d, -1.0])
    desc = np.trim_zeros(coeffs, "b")[::-1]
    w = np.roots(desc)
    f = np.abs(np.polyval(desc, w))
    for _ in range(3):
        trial = w - np.polyval(desc, w) / np.polyval(np.polyder(desc), w)
        f_trial = np.abs(np.polyval(desc, trial))
        better = f_trial < f
        w, f = np.where(better, trial, w), np.where(better, f_trial, f)
    out = []
    for wk in w:
        z = complex(0.5 * (wk + 1.0 / wk))
        if wk.imag == 0.0:
            out.append((complex(z.real, 0.0), I if abs(wk) < 1.0 else II))
        else:
            out.append((z, II))
    return sorted(out, key=lambda t: (t[0].real, t[0].imag))


@pytest.mark.parametrize(
    "model",
    [
        ChainModel.semi_infinite(1, -0.3, 0.2),
        ChainModel.semi_infinite(4, -0.5, 0.2),
        ChainModel.semi_infinite(24, 0.3, 0.3),
        ChainModel.infinite(-0.6, 0.2),
    ],
    ids=["n_d=1", "n_d=4", "n_d=24", "infinite"],
)
def test_single_model_solve_matches_np_roots(model):
    want = np_roots_reference(model)
    got = sorted(
        discrete_states(model, include_antiresonances=True), key=lambda s: (s.z.real, s.z.imag)
    )
    assert [(s.z, s.sheet) for s in got] == want  # bit for bit
    # The gate evaluates eta on arrays, where numpy's SIMD complex multiply
    # may fuse a multiply and an add: |eta| may then differ from the scalar
    # eta by a few ulps of its largest term for each power of w.
    eps = np.finfo(float).eps
    degree = 2 * (model.n_d or 1) + 2
    for s in got:
        scale = abs(s.z) + abs(model.e_d) + model.g**2 * abs(self_energy(model, s.sheeted()))
        assert abs(s.residual - abs(eta(model, s.sheeted()))) <= 4 * degree * eps * scale


def test_g_zero_single_state():
    m = ChainModel.semi_infinite(4, -0.5, 0.0)
    states = discrete_states(m)
    assert len(states) == 1
    assert states[0].z == pytest.approx(-0.5 + 0j)


def test_near_ep_pair_flagged():
    # just off the known coalescence point the two close resonances come
    # out individually but are marked when within the degeneracy window
    m = ChainModel.semi_infinite(4, -0.39819697427829692, 0.17284479822974877)
    states = discrete_states(m)
    flagged = [s for s in states if s.near_degenerate]
    assert len(flagged) == 2
    assert all(s.state_class is StateClass.RESONANCE for s in flagged)


def test_labels_by_ascending_width(semi_model):
    res = [s for s in discrete_states(semi_model) if s.state_class is StateClass.RESONANCE]
    labels = {s.label: s.gamma for s in res}
    assert set(labels) == {"i", "ii", "iii"}
    assert labels["i"] < labels["ii"] < labels["iii"]


def test_polish_seeds_round_trip(semi_model):
    states = discrete_states(semi_model)
    seeds = [(s.z, s.sheet) for s in states]
    again = polish_seeds(semi_model, seeds)
    assert len(again) == len(states)
    for a, b in zip(
        sorted(states, key=lambda s: (s.z.real, s.z.imag)),
        sorted(again, key=lambda s: (s.z.real, s.z.imag)),
    ):
        assert a.z == pytest.approx(b.z, abs=1e-12)
        assert a.state_class is b.state_class


def test_newton_polish_reports_trace_on_failure(semi_model):
    from fanochain import ConvergenceError

    with pytest.raises(ConvergenceError) as info:
        # absurd tolerance cannot be met; the trace must come back
        newton_polish(semi_model, 0.5 - 0.2j, II, tol=1e-40, max_iter=5)
    assert len(info.value.trace) > 0


@pytest.mark.parametrize("sheet", [I, II])
@pytest.mark.parametrize("z0", [1.0, -1.0])
def test_seed_at_branch_point_fails_loudly(semi_model, z0, sheet):
    # eta is singular at z = +-1: a seed there is refused
    with pytest.raises(BranchPointError, match="branch point"):
        newton_polish(semi_model, complex(z0), sheet)
    with pytest.raises(BranchPointError, match="branch point"):
        polish_seeds(semi_model, [(complex(z0), sheet)])


# -------------------------------------------- argument-principle equivalence


@pytest.mark.parametrize(
    "n_d,g,e_d",
    [(4, 0.2, -0.5), (3, 0.12, -0.3), (5, 0.18, 0.25)],
)
def test_roots_match_argument_principle(n_d, g, e_d):
    """Polynomial-path roots = contour-counted roots of eta on sheet II."""
    m = ChainModel.semi_infinite(n_d, e_d, g)
    states = discrete_states(m)
    res = [s.z for s in states if s.state_class is StateClass.RESONANCE]

    rect = (-2.0, 2.0, -1.5, -1e-4)  # lower half of sheet II, off the axis

    def f(z):
        return eta(m, SheetedEnergy(z, II))

    inside = [z for z in res if -2 < z.real < 2 and -1.5 < z.imag < -1e-4]
    count = winding_number(f, rect)
    assert count == len(inside)

    # dense-grid Newton sweep finds the same set, no extras
    found = []
    for re0 in np.linspace(-1.8, 1.8, 25):
        for im0 in np.linspace(-1.2, -0.02, 13):
            try:
                z, _ = newton_polish(m, complex(re0, im0), II, tol=1e-12)
            except Exception:
                continue
            if not (-2 < z.real < 2 and -1.5 < z.imag < -1e-4):
                continue
            if any(abs(z - w) < 1e-8 for w in found):
                continue
            found.append(z)
    assert len(found) == len(inside)
    for z in found:
        assert min(abs(z - w) for w in inside) < 1e-9
