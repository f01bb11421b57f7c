import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanochain import (
    BranchPointError,
    ChainModel,
    ConvergenceError,
    FanochainError,
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
from fanochain.dispersion import _ANTIRESONANCE, _CLASSES, _RESONANCE, ROOT_TOL, DiscreteState
from fanochain.dispersion import _audit, _census, _raise_fault, _states, _w_coefficients, _w_rows
from fanochain.dispersion import _certified_roots, _newton, _w_roots
from fanochain.dispersion import polish_seeds
from fanochain.spectrum import decompose
from fanochain.states import attach_norms
from oracles import census_by_z, newton_polish, sigma_quadrature, sort_and_label, winding_number

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


@pytest.mark.parametrize("v", [1.0, 0.7, 1e-5])
@pytest.mark.parametrize("n_d", [1, 2, 5, None], ids=["n_d=1", "n_d=2", "n_d=5", "infinite"])
def test_w_rows_are_the_expanded_polynomial(n_d, v):
    # the g^2 row is -4 v^2 itself, not (1 - 4 v^2) - 1, which loses digits at small v,
    # and each stack is p(w) expanded
    model = ChainModel.semi_infinite(n_d, 0.0, 0.0, v=v) if n_d else ChainModel.infinite(0.0, 0.0, v=v)
    rows = _w_rows(model)
    assert rows.shape == (3, 2 * n_d + 1 if n_d else 5)
    assert rows[2][rows[2] != 0].tolist() == [-4.0 * v**2] * (n_d or 1)
    e_d, g = np.array([-0.5, 0.3, 1.7]), np.array([0.2, 3.0, 1e-3]) / v
    P = np.polynomial.polynomial
    for coeffs, e, g2 in zip(_w_coefficients(rows, e_d, g * g), e_d, g * g):
        level, coupling = [1.0, -2.0 * e, 1.0], 4.0 * g2 * v**2 * np.array([0.0, 0.0, 1.0])
        if n_d:  # (w^2 - 2 e_d w + 1) - 4 g^2 v^2 w^2 sum_{k<n_d} w^(2k)
            want = P.polysub(level, P.polymul(coupling, [1.0, 0.0] * (n_d - 1) + [1.0]))
        else:  # (w^2 - 2 e_d w + 1)(1 - w^2) - 4 g^2 v^2 w^2
            want = P.polysub(P.polymul(level, [1.0, 0.0, -1.0]), coupling)
        np.testing.assert_array_equal(coeffs, want)


def test_g_zero_single_state():
    m = ChainModel.semi_infinite(4, -0.5, 0.0)
    states = discrete_states(m)
    assert len(states) == 1
    assert states[0].z == pytest.approx(-0.5 + 0j)


@pytest.mark.parametrize("e_d, label", [(-0.5, "bic1"), (0.5, "bic1"), (-1.0, "b1"), (1.5, "b1")])
@pytest.mark.parametrize("chain", ["semi", "infinite"])
def test_g_zero_state_is_labelled(chain, e_d, label):
    m = ChainModel.semi_infinite(4, e_d, 0.0) if chain == "semi" else ChainModel.infinite(e_d, 0.0)
    (state,) = discrete_states(m)
    assert state.label == label
    assert state.state_class is (StateClass.BIC if label == "bic1" else StateClass.BOUND_I)


def test_audited_census_rows_agree_with_discrete_states():
    # a stack of seeded (e_d, g) rows per chain, some on an exact BIC e_d and
    # one next to the README EP: row i of the audited census is
    # discrete_states of that row, states or error
    faults = bics = flagged = 0
    for n_d in [*range(1, 25), None]:
        rng = np.random.default_rng(n_d or 0)
        e_d, g = rng.uniform(-1.5, 1.5, 24), rng.uniform(0.02, 0.5, 24)
        if n_d:
            model = ChainModel.semi_infinite(n_d, 0.0, 0.2)
            on_bic = rng.permutation(bic_energies(model))[:3]
            e_d[: len(on_bic)] = on_bic
            if n_d == 4:
                e_d[-1], g[-1] = -0.39819697427829692, 0.17284479822974877
        else:
            model = ChainModel.infinite(0.0, 0.2)
        census = _census(model, e_d, g)
        residual, near, failed = _audit(model, census, ROOT_TOL)
        kept = census.kept
        assert census.rows.tolist() == list(range(24))
        bics += int((~kept).any(axis=1).sum())
        flagged += int(near.sum())
        for i in range(24):
            m = model.with_params(e_d=float(e_d[i]), g=float(g[i]))
            if failed[i]:
                faults += 1
                one = replace(census, **{f.name: getattr(census, f.name)[i : i + 1]
                                         for f in fields(census)})
                with pytest.raises(RootCountError) as want:
                    _raise_fault(one, residual[i : i + 1], ROOT_TOL)
                with pytest.raises(RootCountError, match=f"^{re.escape(str(want.value))}$"):
                    discrete_states(m)
                continue
            states = discrete_states(m, include_antiresonances=True)
            assert len(states) == int(kept[i].sum())
            want = sorted(
                (s.z.real, s.z.imag, s.residual, s.near_degenerate, s.sheet is Sheet.II)
                for s in states
            )
            got = sorted(
                (z.real, z.imag, r, bool(d), bool(s2))
                for z, r, d, s2, k in zip(census.z[i].tolist(), residual[i].tolist(), near[i],
                                          census.sheet_ii[i], kept[i])
                if k
            )
            assert got == want
    assert faults > 0 and bics > 0 and flagged > 0


def test_census_rows_keep_every_root_and_agree_with_the_rule_by_z():
    # seeded stacks with exact and near-BIC rows and couplings down to 1e-6,
    # where Im z of an in-band pair can round to 0: every row keeps every root
    # of p but one member of a BIC pair, with one resonance per anti-resonance,
    # and wherever the rule by z of tests/oracles.py does not fault (it drops
    # one member of such a pair as a duplicate), the same classed roots
    oracle_faults = bic_rows = agreed = 0
    for n_d in [*range(1, 25), None]:
        rng = np.random.default_rng([14, n_d or 0])
        e_d = rng.uniform(-1.5, 1.5, 48)
        g = np.exp(rng.uniform(math.log(1e-6), math.log(0.5), 48))
        if n_d:
            model = ChainModel.semi_infinite(n_d, 0.0, 0.2)
            energies = np.array(bic_energies(model))
        else:
            model, energies = ChainModel.infinite(0.0, 0.2), np.array([])
        if energies.size:
            offsets = rng.choice([0.0, 5e-13, -5e-13, 1e-9, -1e-9], 24)
            e_d[:24] = rng.choice(energies, 24) + offsets
        census = _census(model, e_d, g)
        assert census.rows.tolist() == list(range(48))
        at_bic = (np.abs(census.e_d - energies) < 1e-12).any(axis=1)
        kept, cls, z = census.kept, census.cls, census.z
        # one sign decides each pair, and z never has the other one
        res, anti = cls == _RESONANCE, cls == _ANTIRESONANCE
        assert (census.w.imag[res] < 0).all() and (z.imag[res] <= 0).all()
        assert (census.w.imag[anti] > 0).all() and (z.imag[anti] >= 0).all()
        np.testing.assert_array_equal(kept.sum(axis=1), census.w.shape[1] - at_bic)
        np.testing.assert_array_equal(
            (kept & (cls == _RESONANCE)).sum(axis=1), (kept & (cls == _ANTIRESONANCE)).sum(axis=1)
        )
        ref_cls, ref_kept, fault = census_by_z(census, at_bic)
        for i, f in enumerate(fault):
            if f is not None:
                oracle_faults += 1
                continue
            agreed += 1
            got, want = (
                sorted((x.real, x.imag, c) for x, c in zip(z[i, k].tolist(), c_row[k].tolist()))
                for k, c_row in ((kept[i], cls[i]), (ref_kept[i], ref_cls[i]))
            )
            assert got == want, (n_d, e_d[i], g[i])
        bic_rows += int(at_bic.sum())
    assert oracle_faults > 0 and bic_rows > 0 and agreed > 0


def test_pair_below_the_rounding_of_z_is_one_resonance_and_one_antiresonance():
    # near a BIC e_d at weak coupling the in-band pair has Im z = 0 in double,
    # while its w are an exact conjugate pair: the Im w < 0 member decays
    model = ChainModel.semi_infinite(11, 0.14237, 4.5e-6)
    assert len(discrete_states(model)) == 12
    pair = [s for s in discrete_states(model, include_antiresonances=True) if s.z.imag == 0.0
            and s.state_class in (StateClass.RESONANCE, StateClass.ANTIRESONANCE)]
    assert [s.state_class for s in pair] == [StateClass.RESONANCE, StateClass.ANTIRESONANCE]
    assert pair[0].w == pair[1].w.conjugate() and pair[0].w.imag < 0


@pytest.mark.parametrize(
    "n_d, g, offset",
    [(n_d, g, offset) for offset in (5e-13, -5e-13, 1e-9, -1e-9)
     for n_d in range(2, 17) for g in (0.05, 0.2, 0.45)],
)
def test_near_bic_models_give_the_full_census(n_d, g, offset):
    # offsets within 1e-12 collapse the pair to the BIC; the others leave a
    # resonance whose width can round to 0 in z
    omega = np.linspace(-2.5, 2.5, 200)
    base = ChainModel.semi_infinite(n_d, 0.0, g)
    growing = []
    for e in bic_energies(base):
        model = base.with_params(e_d=e + offset)
        states = attach_norms(model, discrete_states(model))
        assert len(states) == n_d + 1, e
        assert all(np.isfinite(s.norm) for s in states), e
        sg = decompose(model, omega, states=states)
        assert np.isfinite(sg.total).all() and np.isfinite(sg.continuum_residual).all()
        growing += [s for s in states if s.state_class is StateClass.RESONANCE
                    and not (s.w.imag < 0 and s.z.imag <= 0)]
    assert not growing


@pytest.mark.parametrize(
    "model",
    [
        ChainModel.semi_infinite(4, -0.5, 0.2),
        ChainModel.semi_infinite(4, 0.0, 0.2),  # exact BIC e_d
        ChainModel.semi_infinite(2, -1.8, 0.4),  # a sheet-I bound state
        ChainModel.infinite(-0.6, 0.2),
    ],
)
def test_states_carry_their_root_w(model):
    # the census w itself, not z - s(z) rebuilt from the rounded z
    roots = _census(model, [model.e_d], [model.g]).w[0].tolist()
    states = discrete_states(model, include_antiresonances=True)
    assert all(s.w in roots for s in states)
    for s in polish_seeds(model, [(s.z, s.sheet) for s in states]):
        assert min(abs(s.w - w) for w in roots) <= 1e-12 * abs(s.w)
        if s.state_class is not StateClass.BIC:
            assert 0.5 * (s.w + 1 / s.w) == pytest.approx(s.z, abs=1e-12)


def test_near_ep_pair_flagged():
    # just off the known coalescence point the two close resonances come
    # out individually but are marked when within the degeneracy window
    m = ChainModel.semi_infinite(4, -0.39819697427829692, 0.17284479822974877)
    states = discrete_states(m)
    flagged = [s for s in states if s.near_degenerate]
    assert len(flagged) == 2
    assert all(s.state_class is StateClass.RESONANCE for s in flagged)


# Few distinct parts, signed zeros among them, so that Re z and Im z tie often.
_TIED = st.sampled_from([-0.5, -0.0, 0.0, 0.25, 0.5])


@given(st.lists(st.tuples(st.integers(0, len(_CLASSES) - 1), _TIED, _TIED), max_size=14))
def test_states_order_and_labels_match_reference(rows):
    # each w tags its row, so a tie resolved in another order shows
    n = len(rows)
    z = [complex(re, im) for _, re, im in rows]
    cls = [c for c, _, _ in rows]
    sheet_ii = [k % 2 == 1 for k in range(n)]
    residual = [k / 8 for k in range(n)]
    near = [k % 3 == 0 for k in range(n)]
    reference = sort_and_label([
        DiscreteState(z[k], II if sheet_ii[k] else I, _CLASSES[cls[k]], residual[k],
                      near_degenerate=near[k], w=complex(k))
        for k in range(n)
    ])
    assert _states(z, list(range(n)), sheet_ii, cls, residual, near) == reference


def test_labels_by_ascending_width(semi_model):
    res = [s for s in discrete_states(semi_model) if s.state_class is StateClass.RESONANCE]
    labels = {s.label: s.gamma for s in res}
    assert set(labels) == {"i", "ii", "iii"}
    assert labels["i"] < labels["ii"] < labels["iii"]


@pytest.mark.parametrize(
    "model, anti",
    [
        (ChainModel.semi_infinite(4, -0.5, 0.2), None),
        (ChainModel.semi_infinite(7, 0.4, 0.3, v=1.3), True),
        (ChainModel.semi_infinite(4, -0.7071067811865476, 0.2), None),
        (ChainModel.infinite(-0.6, 0.2), None),
        (ChainModel.semi_infinite(4, 0.3, 0.0), None),
        # real roots near the band edges, where Newton from the seeds missed the gate
        (ChainModel.semi_infinite(20, -1.1553290280037287, 0.24086912104183864), None),
    ],
    ids=["readme", "antiresonances", "exact-bic", "infinite", "decoupled", "band-edge"],
)
def test_polish_seeds_round_trip(model, anti):
    # the seeds a roots export holds give back exactly the states they came from
    states = discrete_states(model, include_antiresonances=anti)
    assert polish_seeds(model, [(s.z, s.sheet) for s in states]) == states


def test_polish_seeds_keeps_census_labels_of_a_partial_seed_set():
    model = ChainModel.semi_infinite(4, -0.39819697427829692, 0.17284479822974877)
    states = discrete_states(model)
    picked = [s for s in states if s.near_degenerate][1:] + [states[-1]]
    seeds = [(s.z, s.sheet) for s in reversed(picked)]
    assert polish_seeds(model, seeds) == picked


def test_polish_seeds_refuses_two_seeds_of_one_state(semi_model):
    # a repeated seed would come back as one state, a list shorter than the seeds
    first, second = discrete_states(semi_model)[:2]
    seeds = [(first.z, II), (second.z, II), (first.z + 1e-3j, II)]
    message = re.escape(f"seeds 0 and 2 (z = {first.z} and z = {first.z + 1e-3j} on sheet II)")
    with pytest.raises(ConvergenceError, match=message + f".*pick state {first.label}") as info:
        polish_seeds(semi_model, seeds)
    assert info.value.trace == [first.z, first.z + 1e-3j, first.z]


def test_polish_seeds_refuses_a_seed_between_two_states():
    # the near-EP pair of resonances: a seed off the middle of the pair, as
    # far from either root in w as they are from each other, picks neither
    model = ChainModel.semi_infinite(4, -0.39819697427829692, 0.17284479822974877)
    a, b = [s for s in discrete_states(model) if s.near_degenerate]
    w = (a.w + b.w) / 2 + 1j * (b.w - a.w)
    with pytest.raises(ConvergenceError, match="not within half the gap.*ambiguous seed"):
        polish_seeds(model, [((w + 1 / w) / 2, II)])


@pytest.mark.parametrize(
    "model",
    [ChainModel.semi_infinite(4, 1e300, 1e-5), ChainModel.infinite(-1e308, 1e-5)],
    ids=["semi", "infinite"],
)
def test_companion_matrix_not_finite_fails_loudly(model):
    # a valid model whose p(w) spans more than the double range: no LinAlgError, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = re.escape(f"not finite at e_d = {model.e_d!r}, g = 1e-05")
        with pytest.raises(FanochainError, match=message):
            discrete_states(model)


def test_polish_seeds_fails_with_the_census(semi_model):
    # a root_tol no root meets fails the census, whatever the seeds
    with pytest.raises(RootCountError, match=r"failed the \|eta\| gate"):
        polish_seeds(semi_model, [(0.5 - 0.2j, II)], root_tol=1e-40)


@pytest.mark.parametrize("e_d", [-0.5, 0.3])
def test_polish_seeds_refuses_a_sheet_ii_seed_of_a_decoupled_level(e_d):
    # at g = 0 the one state is the level on sheet I; its mirror seed on sheet II is no state
    model = ChainModel.semi_infinite(4, e_d, 0.0)
    message = re.escape(f"seed z = {complex(e_d)} on sheet II") + ".*other sheet"
    with pytest.raises(ConvergenceError, match=message):
        polish_seeds(model, [(complex(e_d), II)])


@pytest.mark.parametrize("sheet", [I, II])
@pytest.mark.parametrize("z0", [1.0, -1.0])
def test_seed_at_branch_point_fails_loudly(semi_model, z0, sheet):
    # eta is singular at z = +-1: a seed there is refused
    with pytest.raises(BranchPointError, match="branch point"):
        polish_seeds(semi_model, [(complex(z0), sheet)])


def test_polish_seeds_refuses_a_root_on_the_other_sheet():
    # Newton on p from w(-1.3, sheet II) = -2.13 lands on the sheet-I bound
    # state w = -0.2847: an error naming the seed, not a state on sheet I
    model = ChainModel.semi_infinite(2, -1.8, 0.4)
    (bound,) = [s for s in discrete_states(model) if s.state_class is StateClass.BOUND_I]
    message = r"seed z = \(-1\.3\+0j\) on sheet II.*other sheet"
    with pytest.raises(ConvergenceError, match=message) as info:
        polish_seeds(model, [(-1.3 + 0j, II)])
    assert info.value.trace[-1] == pytest.approx(bound.z, abs=1e-12)
    assert bound.z == pytest.approx(-0.5 * (0.2847 + 1 / 0.2847), abs=1e-3)


# ----------------------------------------------------------- root certificate


def companion_stack(model, e_d, g):
    """Ascending coefficients of p(w) per (e_d, g) and the first rows of their companion matrices."""
    coeffs = _w_coefficients(_w_rows(model), np.asarray(e_d, float), np.asarray(g, float) ** 2)
    return coeffs, -coeffs[:, -2::-1] / coeffs[:, -1:]


def certify_companion_roots(coeffs, top):
    """_certified_roots from the companion roots: every row is certified, and comes back
    bit for bit wherever one more Newton round moves no root (most rows)."""
    roots = _w_roots(coeffs, top)
    w, certified = _certified_roots(coeffs, roots)
    assert certified.all()
    stalled = ~_newton(coeffs, roots, 1)[2].any(axis=1)
    assert stalled.mean() > 0.5
    np.testing.assert_array_equal(w[stalled], roots[stalled])
    return roots


def test_certificate_keeps_the_roots_between_two_real_axis_eps():
    # between e_d = -0.98301 and -0.98156 a complex pair has met the real axis:
    # four real roots, two of them close to a double root near either end
    model = ChainModel.semi_infinite(4, 0.0, 0.0625, v=0.7)
    e_d = np.linspace(-0.983008, -0.981559, 401)
    roots = certify_companion_roots(*companion_stack(model, e_d, np.full(e_d.size, model.g)))
    assert ((roots.imag == 0).sum(axis=1) == 4).all()


def test_certificate_keeps_the_roots_near_the_readme_ep():
    model = ChainModel.semi_infinite(4, -0.5, 0.2)
    g_ep, e_ep = 0.17284479822974866, -0.3981969742782969  # find_ep on the README box
    offsets = np.linspace(-1e-7, 1e-7, 20)
    g, e_d = (x.ravel() for x in np.meshgrid(g_ep + offsets, e_ep + offsets))
    roots = certify_companion_roots(*companion_stack(model, e_d, g))
    gap = np.where(np.eye(8, dtype=bool), np.inf, np.abs(roots[:, :, None] - roots[:, None, :]))
    assert gap.min(axis=(1, 2)).max() < 1e-3  # a nearly double root in every row
    # at the EP itself the double root splits by rounding alone: its discs overlap
    coeffs, top = companion_stack(model, [e_ep], [g_ep])
    assert not _certified_roots(coeffs, _w_roots(coeffs, top))[1].any()


def test_certificate_rejects_a_duplicated_or_swapped_root():
    coeffs, top = companion_stack(ChainModel.semi_infinite(4, -0.5, 0.2), [-0.5] * 4, [0.2] * 4)
    start = _w_roots(coeffs, top)
    start[0, 1] = start[0, 0]  # one root twice, another left out
    start[1, 1] = start[1, 0] * (1 + 1e-9)  # swapped onto its neighbour's root
    start[2, 3] = np.nan
    w, certified = _certified_roots(coeffs, start)
    assert certified.tolist() == [False, False, False, True]
    assert abs(w[1, 1] - w[1, 0]) < 1e-15


@pytest.mark.parametrize(
    "coeffs, unit, scale",
    [
        # roots of modulus 1e160, whose product of differences overflows
        ([1e180, 0.0, 0.0, 1e-300], [1.0, 0.0, 0.0, 1.0], 1e160),
        # roots of modulus 1.3e154, where sum |a_k| |w|^k overflows
        ([1.7e308, 0.0, 1.0], [1.0, 0.0, 1.0], math.sqrt(1.7e308)),
    ],
    ids=["product", "bound"],
)
def test_certificate_rejects_an_overflowing_product_or_bound(coeffs, unit, scale):
    # p(w) is a multiple of unit(w / scale), which is certified, so only the
    # overflow rejects it: an infinite product must not give a disc of radius 0
    roots = np.roots(unit[::-1])[None, :]
    assert _certified_roots(np.array([unit]), roots)[1].all()
    assert not _certified_roots(np.array([coeffs]), roots * scale)[1].any()


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
