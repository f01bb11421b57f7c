import math

import numpy as np
import pytest

from fanochain import (
    ChainModel,
    ConvergenceError,
    FanochainError,
    ModelError,
    Sheet,
    SheetedEnergy,
    StateClass,
    discrete_states,
    eta,
    eta_deriv,
    find_ep,
    scan_for_ep_seeds,
    trace,
)
from fanochain import sweep
from fanochain.sweep import EpSeed, _closest_pairs, _continue_branch

EP_G = 0.1728
EP_ED = 0.3981


def grid(lo, hi, n, avoid=(), eps=5e-4):
    vals = np.linspace(lo, hi, n)
    for a in avoid:
        vals = vals[np.abs(vals - a) > eps]
    return vals


BICS4 = (-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2))


# ----------------------------------------------------------------------- trace


def test_trace_weak_coupling_branch_i_hugs_axis():
    m = ChainModel.semi_infinite(4, -0.5, 0.16)
    tr = trace(m, "e_d", grid(-0.999, 0.999, 161, avoid=BICS4))
    assert [b.label for b in tr.branches] == ["i", "ii", "iii"]
    gammas = {b.label: max(-p.z.imag for p in b.points) for b in tr.branches}
    assert gammas["i"] < 0.1           # stays close to the real axis
    assert gammas["ii"] > 0.2 and gammas["iii"] > 0.2
    # branch (i) crosses the whole band
    re_i = [p.z.real for p in tr.branches[0].points]
    assert re_i[0] < -0.8 and re_i[-1] > 0.8


def test_trace_strong_coupling_no_branch_near_axis():
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    tr = trace(m, "e_d", grid(-0.999, 0.999, 161, avoid=BICS4))
    # repulsion parallel to the real axis: every branch spends part of the
    # sweep far from the axis, none survives near it throughout
    for b in tr.branches:
        assert max(-p.z.imag for p in b.points) > 0.25
    # and the branch count never changes
    assert all(len(b.points) == len(tr.values) for b in tr.branches)


def test_trace_endpoint_pinned_at_bic():
    m = ChainModel.semi_infinite(4, -0.9, 0.2)
    values = np.linspace(-0.9, -1 / math.sqrt(2), 41)
    tr = trace(m, "e_d", values)
    pinned = [b for b in tr.branches if b.points[-1].bic]
    assert len(pinned) == 1
    end = pinned[0].points[-1]
    assert abs(end.z.imag) < 1e-10
    assert end.z.real == pytest.approx(-1 / math.sqrt(2), abs=1e-9)


def test_trace_points_continuous():
    m = ChainModel.semi_infinite(4, -0.5, 0.16)
    tr = trace(m, "e_d", grid(-0.999, 0.999, 201, avoid=BICS4))
    for b in tr.branches:
        steps = [abs(b.points[k + 1].z - b.points[k].z) for k in range(len(b.points) - 1)]
        assert max(steps) < 0.05


def test_trace_axis_crossing_marked():
    # with g > g_EP branch (ii) passes through the central BIC pinch
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    tr = trace(m, "e_d", grid(-0.45, 0.45, 91, avoid=(0.0,)))
    crossings = [p for b in tr.branches for p in b.points if p.crossed_axis]
    assert crossings, "expected a marked passage through the BIC pinch"
    for b in tr.branches:
        assert all(p.z.imag <= 1e-12 for p in b.points)


def test_trace_predictor_second_order():
    # Euler predictor + Newton corrector: halving the step quarters the
    # max correction
    m = ChainModel.semi_infinite(4, -0.6, 0.16)
    start = next(
        s for s in discrete_states(m) if s.state_class is StateClass.RESONANCE and s.label == "i"
    )

    def max_correction(h):
        worst = 0.0
        z = start.z
        e_d = m.e_d
        for _ in range(16):
            m_here = m.with_params(e_d=e_d)
            n = 1.0 / eta_deriv(m_here, SheetedEnergy(z, Sheet.II))
            pred = z + n * h
            pt = _continue_branch(m, "e_d", z, e_d, e_d + h, 1e-13, 0)
            worst = max(worst, abs(pt.z - pred))
            z, e_d = pt.z, e_d + h
        return worst

    c1 = max_correction(2e-3)
    c2 = max_correction(1e-3)
    assert c1 / c2 == pytest.approx(4.0, rel=0.35)


def test_trace_g_parameter():
    m = ChainModel.semi_infinite(4, -0.5, 0.1)
    tr = trace(m, "g", np.linspace(0.1, 0.25, 61))
    assert len(tr.branches) == 3
    for b in tr.branches:
        z_end = b.points[-1].z
        m_end = m.with_params(g=0.25)
        assert abs(eta(m_end, SheetedEnergy(z_end, Sheet.II))) < 1e-11


def test_trace_infinite_single_branch_monotone():
    m = ChainModel.infinite(-0.9, 0.2)
    tr = trace(m, "e_d", np.linspace(-0.95, 0.95, 96))
    assert len(tr.branches) == 1
    re = [p.z.real for p in tr.branches[0].points]
    assert all(b > a for a, b in zip(re, re[1:]))


def test_trace_input_validation():
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    with pytest.raises(FanochainError):
        trace(m, "e_d", [0.3, 0.1])
    with pytest.raises(FanochainError):
        trace(m, "nope", [0.1, 0.3])
    with pytest.raises(FanochainError):
        trace(m, "e_d", [0.1])


@pytest.mark.parametrize(
    "parameter, values",
    [("g", [-0.1, 0.1, 0.2]), ("g", [0.1, 0.2, math.inf]), ("e_d", [-0.5, 0.0, math.inf])],
)
def test_trace_rejects_invalid_sweep_range(parameter, values):
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    with pytest.raises(ModelError):
        trace(m, parameter, values)


# --------------------------------------------------------------------- find_ep


def test_find_ep_flagship():
    m = ChainModel.semi_infinite(4, -0.4, 0.17)
    res = sorted(
        (s.z for s in discrete_states(m) if s.state_class is StateClass.RESONANCE),
        key=lambda z: z.real,
    )
    seed_z = 0.5 * (res[0] + res[1])
    ep = find_ep(m, (0.17, -0.4, seed_z))
    assert ep.g == pytest.approx(EP_G, abs=1e-3)
    assert ep.e_d == pytest.approx(-EP_ED, abs=1e-3)
    assert ep.residual_eta < 1e-10
    assert ep.residual_eta_prime < 1e-10


def test_ep_result_holds_python_floats():
    m = ChainModel.semi_infinite(4, -0.4, 0.17)
    ep = find_ep(m, (0.17, -0.4, -0.41 - 0.15j))
    for value in (ep.g, ep.e_d, ep.residual_eta, ep.residual_eta_prime):
        assert type(value) is float
    assert type(ep.z) is complex


def test_find_ep_mirror():
    m = ChainModel.semi_infinite(4, 0.4, 0.17)
    ep = find_ep(m, (0.17, 0.4, 0.41 - 0.15j))
    assert ep.e_d == pytest.approx(EP_ED, abs=1e-3)
    assert ep.g == pytest.approx(EP_G, abs=1e-3)


def test_ep_square_root_splitting():
    m = ChainModel.semi_infinite(4, -0.4, 0.17)
    ep = find_ep(m, (0.17, -0.4, -0.41 - 0.15j))
    deltas = np.geomspace(1e-6, 1e-3, 7)
    split = []
    for d in deltas:
        states = discrete_states(m.with_params(g=ep.g, e_d=ep.e_d + d))
        res = sorted(
            (s.z for s in states if s.state_class is StateClass.RESONANCE),
            key=lambda z: abs(z - ep.z),
        )
        split.append(abs(res[0] - res[1]))
    slope = np.polyfit(np.log(deltas), np.log(split), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)


def test_find_ep_bad_seed_raises():
    m = ChainModel.semi_infinite(4, -0.4, 0.17)
    with pytest.raises(ConvergenceError):
        find_ep(m, (0.17, -0.4, -0.41 - 0.15j), ep_tol=1e-30, max_iter=8)


# ------------------------------------------------------------------- seed scan


def test_scan_finds_flagship_seed():
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    seeds = scan_for_ep_seeds(m, (0.1, 0.25), (-0.8, 0.0), n_g=16, n_ed=17)
    assert seeds
    best = seeds[0]
    assert best.g == pytest.approx(0.173, abs=0.02)
    assert best.e_d == pytest.approx(-0.40, abs=0.06)
    ep = find_ep(m, best)
    assert ep.g == pytest.approx(EP_G, abs=1e-3)
    assert ep.e_d == pytest.approx(-EP_ED, abs=1e-3)


@pytest.mark.parametrize(
    "g_range, ed_range",
    [((-1.0, -0.5), (-0.8, 0.0)), ((0.1, 0.25), (-0.8, math.nan)), ((0.1, math.inf), (-0.8, 0.0))],
    ids=["negative-g", "nan", "inf"],
)
def test_scan_rejects_invalid_range(g_range, ed_range):
    # cells of these ranges are invalid models: an error, not failed cells and []
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    with pytest.raises(ModelError):
        scan_for_ep_seeds(m, g_range, ed_range)


def test_scan_empty_ranges():
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    assert scan_for_ep_seeds(m, (0.3, 0.1), (-0.8, 0.0)) == []
    with pytest.raises(FanochainError):
        scan_for_ep_seeds(m, (0.1, 0.3), (-0.8, 0.0), n_g=0)


def test_scan_seeds_are_local_minima():
    m = ChainModel.semi_infinite(2, -0.5, 0.2)
    seeds = scan_for_ep_seeds(m, (0.05, 0.6), (-0.9, 0.9), n_g=10, n_ed=11, threshold=1.0)
    # n_d = 2 has a single resonance: no pairs at all, so no seeds
    assert seeds == []
    m3 = ChainModel.semi_infinite(3, -0.5, 0.2)
    seeds3 = scan_for_ep_seeds(m3, (0.05, 0.5), (-0.9, 0.9), n_g=12, n_ed=13, threshold=1.0)
    for s in seeds3:
        assert s.pair_distance < 1.0


def test_seed_tuple_and_dataclass_equivalent():
    m = ChainModel.semi_infinite(4, -0.4, 0.17)
    seed = EpSeed(g=0.17, e_d=-0.4, z=-0.41 - 0.15j, pair_distance=0.1)
    a = find_ep(m, seed)
    b = find_ep(m, (0.17, -0.4, -0.41 - 0.15j))
    assert a.g == pytest.approx(b.g, rel=1e-12)
    assert a.e_d == pytest.approx(b.e_d, rel=1e-12)


def reference_scan(model, g_range, ed_range, n_g, n_ed, threshold):
    """The scan as one discrete_states solve per cell: (seeds, distance grid)."""
    gs = np.linspace(g_range[0], g_range[1], n_g)
    eds = np.linspace(ed_range[0], ed_range[1], n_ed)
    dist = np.full((n_g, n_ed), np.inf)
    mid = np.zeros((n_g, n_ed), dtype=complex)
    for i, g in enumerate(gs):
        for j, ed in enumerate(eds):
            try:
                states = discrete_states(model.with_params(g=float(g), e_d=float(ed)))
            except FanochainError:
                continue
            res = [s.z for s in states if s.state_class is StateClass.RESONANCE]
            best, best_mid = np.inf, 0j
            for a in range(len(res)):
                for b in range(a + 1, len(res)):
                    if abs(res[a] - res[b]) < best:
                        best, best_mid = abs(res[a] - res[b]), 0.5 * (res[a] + res[b])
            dist[i, j], mid[i, j] = best, best_mid
    seeds = []
    for i in range(n_g):
        for j in range(n_ed):
            d = dist[i, j]
            window = dist[max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2]
            if np.isfinite(d) and d < threshold and d <= window.min():
                seeds.append(EpSeed(float(gs[i]), float(eds[j]), complex(mid[i, j]), float(d)))
    seeds.sort(key=lambda s: s.pair_distance)
    return seeds, dist


SCAN_BOXES = {
    # README box; its last column is the exact BIC at e_d = 0
    "readme": (ChainModel.semi_infinite(4, -0.5, 0.2), (0.1, 0.25), (-0.8, 0.0), 16, 16),
    "g-from-zero": (ChainModel.semi_infinite(4, -0.5, 0.2), (0.0, 0.3), (-0.9, 0.9), 11, 13),
    # the w^2 term of p cancels at g = 0.5 (4 g^2 v^2 = 1)
    "n_d=1": (ChainModel.semi_infinite(1, -0.5, 0.2), (0.0, 1.0), (-1.2, 1.2), 9, 13),
    # band-edge roots fail the |eta| gate at weak coupling
    "infinite": (ChainModel.infinite(-0.5, 0.2), (0.0, 0.12), (-0.99, 0.99), 13, 21),
    "n_d=12": (ChainModel.semi_infinite(12, -0.5, 0.2), (0.05, 0.3), (-0.8, 0.8), 10, 11),
}


@pytest.mark.parametrize("box", SCAN_BOXES)
@pytest.mark.parametrize("threshold", [0.2, 10.0])
def test_scan_matches_per_cell_solves(box, threshold):
    model, g_range, ed_range, n_g, n_ed = SCAN_BOXES[box]
    want, want_dist = reference_scan(model, g_range, ed_range, n_g, n_ed, threshold)
    got = scan_for_ep_seeds(model, g_range, ed_range, n_g, n_ed, threshold)
    dist, _ = _closest_pairs(
        model, np.linspace(*g_range, n_g), np.linspace(*ed_range, n_ed)
    )
    np.testing.assert_array_equal(np.isinf(dist), np.isinf(want_dist))
    np.testing.assert_allclose(dist, want_dist, rtol=0, atol=1e-12)
    assert [(s.g, s.e_d) for s in got] == [(s.g, s.e_d) for s in want]
    for s, t in zip(got, want):
        assert abs(s.z - t.z) <= 1e-12
        assert abs(s.pair_distance - t.pair_distance) <= 1e-12


@pytest.mark.parametrize("box", SCAN_BOXES)
@pytest.mark.parametrize("block", [1, 100, 1000])
def test_scan_blocks_match_single_block(box, block, monkeypatch):
    model, g_range, ed_range, n_g, n_ed = SCAN_BOXES[box]
    gs, eds = np.linspace(*g_range, n_g), np.linspace(*ed_range, n_ed)
    deg = 2 * model.n_d if model.is_semi_infinite else 4
    assert n_g * n_ed * deg**2 <= sweep.SCAN_BLOCK  # one block by default
    dist, mid = _closest_pairs(model, gs, eds)
    seeds = scan_for_ep_seeds(model, g_range, ed_range, n_g, n_ed, threshold=10.0)
    monkeypatch.setattr(sweep, "SCAN_BLOCK", block)
    blocked_dist, blocked_mid = _closest_pairs(model, gs, eds)
    np.testing.assert_array_equal(blocked_dist, dist)
    np.testing.assert_array_equal(blocked_mid, mid)
    assert scan_for_ep_seeds(model, g_range, ed_range, n_g, n_ed, threshold=10.0) == seeds


def test_scan_boxes_exercise_their_edge_cases():
    # guards the equivalence test: each box really holds what it is meant to
    def failing_cells(box):
        model, g_range, ed_range, n_g, n_ed = SCAN_BOXES[box]
        fails = 0
        for g in np.linspace(*g_range, n_g):
            for ed in np.linspace(*ed_range, n_ed):
                try:
                    discrete_states(model.with_params(g=float(g), e_d=float(ed)))
                except FanochainError:
                    fails += 1
        return fails

    assert failing_cells("infinite") > 0
    assert 0.5 in np.linspace(*SCAN_BOXES["n_d=1"][1], SCAN_BOXES["n_d=1"][3])
    assert np.linspace(*SCAN_BOXES["readme"][2], 16)[-1] == 0.0
    assert reference_scan(*SCAN_BOXES["n_d=12"], threshold=10.0)[0]
