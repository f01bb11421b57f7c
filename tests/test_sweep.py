import dataclasses
import functools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanochain import (
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
    eta_deriv,
    find_ep,
    scan_for_ep_seeds,
    self_energy,
    trace,
)
from fanochain import dispersion, sweep
from fanochain.dispersion import ROOT_TOL, _audit, _census, _certified_roots, _halves, _rate_terms
from fanochain.dispersion import _w_coefficients, _w_rows
from fanochain.states import attach_norms
from fanochain.sweep import EP_TOL, EpResult, TrajectoryPoint

from oracles import ep_by_mpmath, find_ep_by_horner, find_ep_in_z, full_certified_roots, reference_eps
from oracles import trace_by_continuation, trace_by_loop

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


# a branch's prediction real and exactly halfway between the two members of a conjugate
# pair: in the link to g = 0.1882 of the first sweep, and to e_d = 0.98901 of the second
TIE_SWEEPS = {
    "n_d=2:g:tie": (ChainModel.semi_infinite(2, 0.92, 0.1, v=0.7), "g", np.linspace(0.02, 0.6, 201)),
    "n_d=4:e_d:g=0.0625": (
        ChainModel.semi_infinite(4, 0.0, 0.0625, v=0.7), "e_d", np.linspace(-0.999, 0.999, 401)
    ),
}


def test_trace_axis_crossing_marked():
    # near e_d = -0.98 branch (i) passes between samples the real-axis EPs of the pair
    # w = -1.30 +- 0.10i (JUMP_SWEEPS); in the link to e_d = -0.97902 its Euler prediction
    # lies above the axis, nearest an anti-resonance: the one crossing of the sweep
    branches = trace(*TIE_SWEEPS["n_d=4:e_d:g=0.0625"]).branches
    crossed = [(b.label, p) for b in branches for p in b.points if p.crossed_axis]
    assert [(label, p.value) for label, p in crossed] == [("i", pytest.approx(-0.97902))]
    # the branch goes on from that root's conjugate, below the axis
    assert crossed[0][1].z == pytest.approx(-0.9989348 - 0.0103924j, abs=1e-7)


def test_trace_real_prediction_does_not_cross_the_axis():
    # the branch turns into a virtual state at g = 0.1853 and splits off the axis again:
    # its prediction is real, as near the pair's Im w > 0 member as its Im w < 0 one, and
    # the link, to the root nearest the prediction folded below the axis, does not cross
    (branch,) = trace(*TIE_SWEEPS["n_d=2:g:tie"]).branches
    assert not any(p.crossed_axis for p in branch.points)
    assert all(p.z.imag <= 1e-12 for p in branch.points)
    (split,) = [p for p in branch.points if p.value == pytest.approx(0.1882)]
    assert split.z == pytest.approx(1.1327217 - 0.0880807j, abs=1e-7)
    assert np.abs(np.diff([p.z for p in branch.points])).max() < 0.1


def test_trace_passes_bic_pinch_on_decaying_side():
    # with g > g_EP branch (ii) passes through the central BIC pinch: in w
    # it touches |w| = 1 and turns back, so no link needs reflecting
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    tr = trace(m, "e_d", grid(-0.45, 0.45, 91, avoid=(0.0,)))
    assert max(p.z.imag for p in tr.branches[1].points) > -1e-4
    for b in tr.branches:
        assert all(p.z.imag < 0 and not p.crossed_axis for p in b.points)


@pytest.mark.parametrize(
    "model",
    [
        ChainModel.semi_infinite(1, -0.5, 0.2),
        ChainModel.semi_infinite(4, -0.5, 0.2),
        ChainModel.semi_infinite(12, -0.45, 0.2),
        ChainModel.semi_infinite(7, -0.3, 0.15, v=1.3),
        ChainModel.infinite(-0.6, 0.2),
    ],
    ids=["n_d=1", "n_d=4", "n_d=12", "n_d=7,v=1.3", "infinite"],
)
def test_rates_are_norm_and_coupling_derivative(model):
    # the w-form rates at the census roots and the norms of the states both
    # match the Sigma form: dz/de_d = N = 1/eta'(z) and dz/dg = 2 g Sigma N
    e_d, g = np.array([model.e_d]), np.array([model.g])
    census = _census(model, e_d, g)
    w = census.w

    def dz_dq(parameter):
        minus_dp, slope = _rate_terms(model, parameter, w, e_d, g)
        return ((w * w - 1.0) / (2.0 * w * w) * minus_dp / slope)[0]

    dz_ded, dz_dg = dz_dq("e_d"), dz_dq("g")
    states = attach_norms(model, discrete_states(model, include_antiresonances=True))
    assert len(states) == census.w.shape[1]
    for s in states:
        j = np.abs(census.z[0] - s.z).argmin()
        norm = 1.0 / eta_deriv(model, s.sheeted())
        assert s.norm == pytest.approx(norm, rel=1e-12)
        assert dz_ded[j] == pytest.approx(norm, rel=1e-12)
        sigma = self_energy(model, s.sheeted())
        assert dz_dg[j] == pytest.approx(2 * model.g * sigma * norm, rel=1e-12)


@pytest.mark.parametrize("parameter", ["e_d", "g"])
def test_rates_euler_error_is_second_order(parameter):
    # halving the step quarters the Euler error in w of every root
    model = ChainModel.semi_infinite(4, -0.6, 0.16)

    def euler_error(h):
        q = np.array([getattr(model, parameter), getattr(model, parameter) + h])
        e_d, g = (q, np.full(2, model.g)) if parameter == "e_d" else (np.full(2, model.e_d), q)
        w = _census(model, e_d, g).w
        minus_dp, slope = _rate_terms(model, parameter, w, e_d, g)
        pred = w[0] + (minus_dp / slope)[0] * h
        return np.abs(w[1][None, :] - pred[:, None]).min(axis=1)

    np.testing.assert_allclose(euler_error(2e-3) / euler_error(1e-3), 4.0, rtol=0.02)


@pytest.mark.parametrize("parameter", ["e_d", "g"])
@pytest.mark.parametrize(
    "model",
    [ChainModel.semi_infinite(4, -0.6, 0.16), ChainModel.infinite(-0.6, 0.2)],
    ids=["n_d=4", "infinite"],
)
def test_rate_and_curvature_match_central_differences(model, parameter):
    # w' and w'' of the second-order warm start, at every root, against central differences
    # of the companion roots at q - h, q, q + h (each matched to the nearest root)
    h = 1e-4
    q = getattr(model, parameter) + np.array([-h, 0.0, h])
    e_d, g = (q, np.full(3, model.g)) if parameter == "e_d" else (np.full(3, model.e_d), q)
    w = _census(model, e_d, g).w
    minus_dp, slope, minus_d2p = _rate_terms(model, parameter, w[1:2], e_d[1:2], g[1:2], order=2)
    rate, curve = (minus_dp / slope)[0], (minus_d2p / slope)[0]
    lo, hi = (r[np.abs(r[None, :] - w[1][:, None]).argmin(axis=1)] for r in (w[0], w[2]))
    for got, want in ((rate, (hi - lo) / (2 * h)), (curve, (hi - 2 * w[1] + lo) / h**2)):
        assert (np.abs(got - want) <= 1e-6 * np.maximum(1.0, np.abs(want))).all()


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


ED_SWEEP = np.linspace(-0.999, 0.999, 401)
G_SWEEP = np.linspace(0.02, 0.4, 201)

TRACE_SWEEPS = {
    # n_d = 1 has its one resonance pair only for e_d^2 < 1 - 4 g^2; the
    # sweep meets the real axis at e_d = 0.9165
    "n_d=1:e_d": (ChainModel.semi_infinite(1, 0.0, 0.2), "e_d", np.linspace(-0.9, 0.999, 401)),
    "n_d=1:g": (ChainModel.semi_infinite(1, -0.3, 0.2), "g", G_SWEEP),
    "n_d=2:e_d": (ChainModel.semi_infinite(2, 0.0, 0.25), "e_d", ED_SWEEP),
    "n_d=2:g": (ChainModel.semi_infinite(2, 0.4, 0.2), "g", G_SWEEP),
    "n_d=4:e_d": (ChainModel.semi_infinite(4, 0.0, 0.15), "e_d", ED_SWEEP),
    "n_d=4:g": (ChainModel.semi_infinite(4, -0.35, 0.2), "g", G_SWEEP),
    "n_d=8:e_d": (ChainModel.semi_infinite(8, 0.0, 0.23), "e_d", ED_SWEEP),
    "n_d=8:g": (ChainModel.semi_infinite(8, 0.75, 0.2), "g", G_SWEEP),
    "n_d=12:e_d": (ChainModel.semi_infinite(12, 0.0, 0.1), "e_d", ED_SWEEP),
    "n_d=12:g": (ChainModel.semi_infinite(12, -0.5, 0.2), "g", G_SWEEP),
    "infinite:e_d": (ChainModel.infinite(0.0, 0.3), "e_d", ED_SWEEP),
    "infinite:g": (ChainModel.infinite(-0.3, 0.2), "g", np.linspace(0.15, 0.4, 201)),
    "bic-pinch": (
        ChainModel.semi_infinite(4, -0.5, 0.2), "e_d", grid(-0.45, 0.45, 91, avoid=(0.0,))
    ),
    "bic-endpoint": (
        ChainModel.semi_infinite(4, -0.9, 0.2), "e_d", np.linspace(-0.9, -1 / math.sqrt(2), 41)
    ),
    "real-axis-ep": (ChainModel.semi_infinite(1, 0.691, 0.2), "g", G_SWEEP),
}


@pytest.mark.parametrize("sweep_name", TRACE_SWEEPS)
def test_trace_matches_continuation(sweep_name):
    model, parameter, values = TRACE_SWEEPS[sweep_name]
    want = trace_by_continuation(model, parameter, values)
    got = trace(model, parameter, values)
    np.testing.assert_array_equal(got.values, values)
    assert [b.label for b in got.branches] == [b.label for b in want.branches]
    for b, ref in zip(got.branches, want.branches):
        assert [p.value for p in b.points] == [p.value for p in ref.points]
        assert max(abs(p.z - q.z) for p, q in zip(b.points, ref.points)) <= 1e-9
        # crossed_axis is left out: the oracle, linking in z, marks an Euler
        # overshoot at a BIC pinch, which the link in w never makes
        for p, q in zip(b.points, ref.points):
            assert (p.bic, p.collision) == (q.bic, q.collision), (b.label, p.value)


def test_trace_sweeps_exercise_their_edge_cases():
    # guards the equivalence test: each sweep really holds what it is meant to
    def flags(name, flag):
        tr = trace(*TRACE_SWEEPS[name])
        return sum(getattr(p, flag) for b in tr.branches for p in b.points)

    def faulting_rows(name):
        model, parameter, values = TRACE_SWEEPS[name]
        fixed = np.full(len(values), getattr(model, "g" if parameter == "e_d" else "e_d"))
        e_d, g = (values, fixed) if parameter == "e_d" else (fixed, values)
        return int(_audit(model, _census(model, e_d, g), ROOT_TOL)[2].sum())

    # the oracle reflects the branch where it passes the pinch
    oracle = trace_by_continuation(*TRACE_SWEEPS["bic-pinch"])
    assert sum(p.crossed_axis for b in oracle.branches for p in b.points) > 0
    assert trace(*TRACE_SWEEPS["bic-endpoint"]).branches[0].points[-1].bic
    for name in ("real-axis-ep", "n_d=1:e_d"):
        # a resonance that turns into a real virtual state outside the band
        (branch,) = trace(*TRACE_SWEEPS[name]).branches
        assert branch.points[0].z.imag < 0 and abs(branch.points[-1].z.real) > 1
        # pinned on the axis, but a virtual state outside the band is no BIC
        assert not branch.points[-1].bic and branch.points[-1].z.imag == 0.0
    # band-edge roots no branch links to fail the census gate on some values
    assert faulting_rows("n_d=8:g") > 0 and faulting_rows("n_d=12:g") > 0


@pytest.mark.parametrize("n", [2, 13, 14, 401])
@pytest.mark.parametrize("cap", [1, 24, 25, 1000])
def test_sweep_blocks_are_whole_anchor_intervals(n, cap, monkeypatch):
    # cap: the values SCAN_BLOCK holds at degree 8
    monkeypatch.setattr(dispersion, "SCAN_BLOCK", cap * 8**2)
    blocks = dispersion._sweep_blocks(n, 8)
    stride = dispersion._STRIDE
    # the blocks cover the sweep, each starting on an anchor where the one before ends
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop - 1 == b.start for a, b in zip(blocks, blocks[1:]))
    links = [b.stop - b.start - 1 for b in blocks]
    assert all(k > 0 and k % stride == 0 for k in links[:-1]) and 0 < links[-1] <= links[0]
    # as many whole intervals as the cap holds, and one where it holds none
    assert links[0] == min(n - 1, stride * max(1, (cap - 1) // stride))


@pytest.mark.parametrize("sweep_name", ["bic-pinch", "real-axis-ep", "n_d=8:e_d"])
@pytest.mark.parametrize("intervals", [1, 2, 3, 5, 7, 50])
def test_trace_blocks_match_single_block(sweep_name, intervals, monkeypatch):
    # blocks of whole anchor intervals, the last one partial on most of these sweeps,
    # give the trajectories of the whole sweep in one block, at the default stride and at 4
    model, parameter, values = TRACE_SWEEPS[sweep_name]
    deg = 2 * model.n_d
    assert len(values) * deg**2 <= dispersion.SCAN_BLOCK  # one block by default
    for stride in (None, 4):
        with pytest.MonkeyPatch.context() as mp:
            if stride is not None:
                mp.setattr(dispersion, "_STRIDE", stride)
            whole = trace(model, parameter, values)
            # a block of links + 1 values links them; consecutive blocks share their boundary anchor
            links = intervals * dispersion._STRIDE
            mp.setattr(dispersion, "SCAN_BLOCK", (links + 1) * deg**2)
            blocks = dispersion._sweep_blocks(len(values), deg)
            assert [b.start for b in blocks] == list(range(0, len(values) - 1, links))
            assert trace(model, parameter, values).branches == whole.branches


def test_trace_gate_names_the_first_failing_value_and_lowest_branch(monkeypatch):
    # a root_tol that 13 linked roots of this sweep miss: the gate reads the
    # linked roots once a block is linked, whatever the blocks (of 1 and 2
    # anchor intervals at a stride of 4, and the whole sweep)
    monkeypatch.setattr(dispersion, "_STRIDE", 4)
    model, values, tol = ChainModel.semi_infinite(4, -0.3, 0.2), np.linspace(0.05, 0.4, 61), 1e-15
    deg = 2 * model.n_d
    # |eta| of each branch at each value after the first: the linked roots, as
    # no point is pinned to the axis or crossed it
    branches = trace(model, "g", values).branches
    assert not any(p.z.imag == 0.0 or p.crossed_axis for b in branches for p in b.points)
    linked = [
        [abs(eta(model.with_params(g=g), SheetedEnergy(b.points[k].z, Sheet.II))) for b in branches]
        for k, g in enumerate(values[1:].tolist(), 1)
    ]
    assert sum(r >= tol for row in linked for r in row) >= 10
    messages = set()
    for rows in (5, 9, len(values)):
        monkeypatch.setattr(dispersion, "SCAN_BLOCK", rows * deg**2)
        with pytest.raises(ConvergenceError) as exc:
            trace(model, "g", values, root_tol=tol)
        messages.add(str(exc.value))
    (message,) = messages
    # the first failing value is the tenth, inside the second block of 9 values;
    # there branches i and ii pass and iii, the lowest that fails, is named
    k = next(k for k, row in enumerate(linked, 1) if max(row) >= tol)
    assert k == 9 and [r >= tol for r in linked[k - 1]] == [False, False, True]
    assert message.startswith(f"branch iii at g = {values[k]}: |eta| = ")
    trace(model, "g", values[:k], root_tol=tol)
    with pytest.raises(ConvergenceError, match=re.escape(message)):
        trace(model, "g", values[: k + 1], root_tol=tol)


def test_trajectory_point_is_an_immutable_named_tuple():
    assert TrajectoryPoint._fields == ("value", "z", "bic", "collision", "crossed_axis")
    defaults = {"bic": False, "collision": False, "crossed_axis": False}
    assert TrajectoryPoint._field_defaults == defaults
    p = TrajectoryPoint(0.5, -0.3 - 0.1j)
    assert p == TrajectoryPoint(0.5, -0.3 - 0.1j, False, False, False)
    assert hash(p) == hash(TrajectoryPoint(value=0.5, z=-0.3 - 0.1j))
    assert p != TrajectoryPoint(0.5, -0.3 - 0.1j, collision=True)
    with pytest.raises(AttributeError):
        p.z = 0j
    q = p._replace(collision=True)
    assert tuple(q) == (0.5, -0.3 - 0.1j, False, True, False) and not p.collision
    tr = trace(ChainModel.semi_infinite(2, -0.5, 0.2), "e_d", [-0.5, -0.4])
    assert all(type(p) is TrajectoryPoint for b in tr.branches for p in b.points)


def test_trace_leaves_sampled_bic_through_the_pinch():
    # the sweep samples the BIC at e_d = 0: the pinned point is the Im w < 0
    # member of the pair on |w| = 1, so the branch leaves it on the decaying side
    model = ChainModel.semi_infinite(8, 0.0, 0.2)
    values = np.linspace(-0.999, 0.999, 201)
    k = int(np.abs(values).argmin())
    assert abs(values[k]) < 1e-12
    (branch,) = [b for b in trace(model, "e_d", values).branches if b.points[k].bic]
    assert branch.points[k].z.imag == 0.0 and abs(branch.points[k].z) < 1e-15
    assert branch.points[k + 1].z.imag < 0
    assert not any(p.crossed_axis for p in branch.points)


# weak coupling at n_d = 24: at g = 1e-4 the w^4 .. w^48 coefficients of p are -4e-8,
# and the far roots sit where 4 g^2 |w|^46 is about 1, at |w| up to 1.46
WEAK_SWEEP = (ChainModel.semi_infinite(24, 0.3, 0.2), "g", np.geomspace(1e-4, 0.4, 301))

JUMP_SWEEPS = {
    # linked in z, branch (i) jumped at g = 0.19385 from 1.0330 - 0.0443i to
    # the virtual state at -2.2915 and ended on the real axis
    "n_d=2:g": (ChainModel.semi_infinite(2, 0.907, 0.1, v=0.7), "g", np.linspace(0.02, 0.63, 201)),
    # near e_d = -0.98 the pair w = -1.30 +- 0.10i meets the axis and one of
    # its real roots then pairs off with the next, all between two samples:
    # linked in z, branch (i) jumped to the far virtual state near z = 1.43
    "n_d=4:e_d:g=0.063": (
        ChainModel.semi_infinite(4, 0.0, 0.063, v=0.7), "e_d", np.linspace(-0.999, 0.999, 401)
    ),
    # as above; here the larger |w| of all real roots, not only of those
    # split off the branch, jumps
    "n_d=4:e_d:g=0.065": (
        ChainModel.semi_infinite(4, 0.0, 0.065, v=0.7), "e_d", np.linspace(-0.999, 0.999, 401)
    ),
}


@pytest.mark.parametrize("sweep_name", JUMP_SWEEPS)
def test_trace_links_no_distant_root(sweep_name):
    model, parameter, values = JUMP_SWEEPS[sweep_name]
    for b in trace(model, parameter, values).branches:
        steps = np.abs(np.diff([p.z for p in b.points]))
        assert steps.max() < 0.1, (b.label, values[steps.argmax() + 1])


def test_trace_stays_on_the_resonance_past_the_virtual_states():
    (branch,) = trace(*JUMP_SWEEPS["n_d=2:g"]).branches
    end = branch.points[-1]
    assert end.z == pytest.approx(0.4074 - 0.1953j, abs=1e-3)
    assert end.z.imag < 0 and not end.bic


def traced(model, parameter, values):
    """The trajectory, or the type and message of the error trace raises."""
    try:
        return trace(model, parameter, values)
    except FanochainError as exc:
        return type(exc), str(exc)


EQUIVALENCE_SWEEPS = {
    **{f"trace:{name}": sweep for name, sweep in TRACE_SWEEPS.items()},
    **{f"jump:{name}": sweep for name, sweep in JUMP_SWEEPS.items()},
    "weak:n_d=24:g": WEAK_SWEEP,
}


@pytest.mark.parametrize(
    "sweep_name, stride",
    [pytest.param(name, stride, id=name if stride is None else f"{name}:stride={stride}")
     for stride in (None, 4, 16) for name in EQUIVALENCE_SWEEPS],
)
def test_trace_matches_every_value_solved_by_eigvals(sweep_name, stride, monkeypatch):
    # the values between anchors start from their anchor's roots; with a
    # stride of 1 every value is a companion-matrix solve.  The stride only
    # moves work between the two: the default and other strides agree
    args = EQUIVALENCE_SWEEPS[sweep_name]
    if stride is not None:
        monkeypatch.setattr(dispersion, "_STRIDE", stride)
    assert dispersion._STRIDE > 1
    got = traced(*args)
    monkeypatch.setattr(dispersion, "_STRIDE", 1)
    want = traced(*args)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert [b.label for b in got.branches] == [b.label for b in want.branches]
    for b, ref in zip(got.branches, want.branches):
        assert [p._replace(z=0j) for p in b.points] == [p._replace(z=0j) for p in ref.points]
        for p, q in zip(b.points, ref.points):
            assert abs(p.z - q.z) <= 1e-14 * max(1.0, abs(q.z)), (b.label, p.value)


def test_warm_started_roots_are_as_accurate_as_the_companion_roots(monkeypatch):
    # each root of a value between anchors is as close to the exact root of
    # the double-coefficient p(w) as the companion-matrix root, to 4 ulps
    mpmath = pytest.importorskip("mpmath")
    model, parameter, values = TRACE_SWEEPS["n_d=12:e_d"]
    stride = dispersion._STRIDE
    n = stride + 1  # one whole anchor interval, its far anchor included
    e_d, g = values[:n], np.full(n, model.g)
    warm = _census(model, e_d, g, sweep=parameter).w
    monkeypatch.setattr(dispersion, "_STRIDE", 1)
    eig = _census(model, e_d, g, sweep=parameter).w
    moved = np.flatnonzero((warm != eig).any(axis=1))
    assert len(moved) >= 3 and not (moved % stride == 0).any()  # the anchors are companion solves
    coeffs = _w_coefficients(_w_rows(model), e_d, g * g)
    with mpmath.workdps(40):
        for row in range(1, stride):  # every value between, the one farthest from its anchor too
            exact = mpmath.polyroots([mpmath.mpf(c) for c in coeffs[row, ::-1]], maxsteps=200, extraprec=200)
            exact = np.array([complex(r) for r in exact])
            for w in warm[row]:
                nearest = exact[np.abs(exact - w).argmin()]
                companion = eig[row][np.abs(eig[row] - nearest).argmin()]
                ulp = np.spacing(max(abs(nearest.real), abs(nearest.imag)))
                assert abs(w - nearest) <= abs(companion - nearest) + 4 * ulp


def solve_counts(args):
    """(rows solved by eigvals, warm values, warm values that fell back to eigvals) of the
    trace of a sweep."""
    counts, w_roots, certify = [0, 0, 0], dispersion._w_roots, dispersion._certified_roots

    def eig(coeffs, top):
        counts[0] += len(coeffs)
        return w_roots(coeffs, top)

    def warm(coeffs, start):
        w, certified = certify(coeffs, start)
        counts[1] += len(certified)
        counts[2] += int((~certified).sum())
        return w, certified

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dispersion, "_w_roots", eig)
        mp.setattr(dispersion, "_certified_roots", warm)
        traced(*args)
    return counts


def test_heavy_sweep_solves_little_more_than_its_anchors_by_eigvals():
    # the continuation benchmark's n_d = 12 e_d sweep shape: its anchors, plus at most 2% of
    # the values between them, are companion-matrix solves
    values = np.linspace(-0.999, 0.999, 401)
    eig, warm, fallback = solve_counts((ChainModel.semi_infinite(12, 0.0, 0.2), "e_d", values))
    anchors = len(range(0, len(values), dispersion._STRIDE))
    assert warm == len(values) - anchors
    assert eig == anchors + fallback and fallback <= 0.02 * warm


def test_few_warm_values_fall_back_to_eigvals():
    warm = fallback = 0
    for args in EQUIVALENCE_SWEEPS.values():
        _, n, f = solve_counts(args)
        warm, fallback = warm + n, fallback + f
    assert warm > 4000 and fallback <= 0.03 * warm


def test_blocks_solve_each_value_between_anchors_once():
    # at n_d = 64 a block holds 2 anchor intervals (25 values), so this sweep is 17 blocks:
    # each value between anchors is warm-started once, with no lead-in back to an anchor,
    # and only the 16 anchors two blocks share are solved twice
    model, values = ChainModel.semi_infinite(64, 0.0, 0.2), np.linspace(-0.999, 0.999, 401)
    blocks = dispersion._sweep_blocks(len(values), 2 * model.n_d)
    assert len(blocks) == 17
    eig, warm, fallback = solve_counts((model, "e_d", values))
    anchors = len(range(0, len(values), dispersion._STRIDE))
    assert warm == len(values) - anchors == 367
    assert eig == anchors + len(blocks) - 1 + fallback and fallback <= 0.02 * warm


def test_long_sweep_in_small_blocks_holds_no_whole_sweep_pair_array(monkeypatch):
    # the collision flags are set block by block: the peak memory of a sweep in blocks
    # of 25 values stays below one complex entry per pair of branches at every value
    tracemalloc = pytest.importorskip("tracemalloc")
    model, values = ChainModel.semi_infinite(32, 0.0, 0.2), np.linspace(-0.999, 0.999, 1001)
    monkeypatch.setattr(dispersion, "SCAN_BLOCK", 25 * (2 * model.n_d) ** 2)
    tracemalloc.start()
    try:
        branches = trace(model, "e_d", values).branches
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(values) * len(branches) ** 2 * np.dtype(complex).itemsize


def warm_blocks(args):
    """(coeffs, start) of each _certified_roots call of the trace of a sweep."""
    blocks, certify = [], dispersion._certified_roots

    def record(coeffs, start):
        blocks.append((coeffs, start.copy()))
        return certify(coeffs, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dispersion, "_certified_roots", record)
        traced(*args)
    return blocks


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_warm_starts_come_in_exact_adjacent_pairs():
    # guards the tests below: each Im w > 0 warm start has its exact conjugate next to it,
    # as eigvals puts each pair of the anchor's roots, so one member of each pair is solved
    mirrored = upper = 0
    for args in EQUIVALENCE_SWEEPS.values():
        for coeffs, start in warm_blocks(args):
            src = _halves(start)[1]
            mirrored += (src != np.arange(start.size).reshape(start.shape)).sum()
            upper += (start.imag > 0).sum()
    assert mirrored == upper > 10000


def linked_censuses(args):
    """The roots w of each block census that the trace of a sweep links."""
    censuses, link_maps = [], sweep._link_maps

    def record(model, parameter, census, *rest):
        censuses.append(census.w)
        return link_maps(model, parameter, census, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_link_maps", record)
        traced(*args)
    return censuses


def test_linked_censuses_come_in_exact_adjacent_pairs():
    # guards the links, which run on the Im w <= 0 member of each pair alone: each Im w > 0
    # root of a census that trace links has its exact conjugate next to it
    mirrored = upper = 0
    for args in EQUIVALENCE_SWEEPS.values():
        for w in linked_censuses(args):
            src = _halves(w)[1]
            mirrored += (src != np.arange(w.size).reshape(w.shape)).sum()
            upper += (w.imag > 0).sum()
    assert mirrored == upper > 10000


@pytest.mark.parametrize("sweep_name", EQUIVALENCE_SWEEPS)
def test_certified_roots_match_the_full_solve_bit_for_bit(sweep_name):
    # one member of each conjugate pair is polished and the other is its conjugate: the
    # same bits as Newton on every root, on every warm block of the sweep
    blocks = warm_blocks(EQUIVALENCE_SWEEPS[sweep_name])
    assert blocks
    for coeffs, start in blocks:
        for got, want in zip(_certified_roots(coeffs, start), full_certified_roots(coeffs, start)):
            assert_same_bits(got, want)


def test_certified_roots_match_the_full_solve_on_starts_without_exact_pairs():
    coeffs, start = warm_blocks(TRACE_SWEEPS["n_d=4:e_d"])[0]
    assert len(start) >= 6
    k = int(np.flatnonzero(start[0].imag > 0)[0])
    assert start[0, k + 1] == start[0, k].conjugate()
    start = start[:6].copy()
    start[0, k] = complex(np.nextafter(start[0, k].real, np.inf), start[0, k].imag)  # 1 ulp off
    start[1, k + 1] = np.nan
    start[2, k + 1] = start[2, k]  # one root twice, its conjugate left out
    start[3, [k, k + 1]] = start[3, [k + 1, k]]  # the pair's Im w < 0 member first
    start[4, k] = start[4, k + 2] * (1 + 1e-9)  # swapped onto another root
    w, certified = _certified_roots(coeffs[:6], start)
    want_w, want_certified = full_certified_roots(coeffs[:6], start)
    assert_same_bits(w, want_w)
    assert_same_bits(certified, want_certified)
    assert certified.tolist() == [True, False, False, True, False, True]


def trace_record(trace_fn, *args):
    """repr of the branches a trace returns, which tells every bit of each point, split
    point by point so that a difference shows as the first point that differs, or the
    type and message of the error it raises."""
    try:
        return repr(trace_fn(*args).branches).split("TrajectoryPoint")
    except FanochainError as exc:
        return type(exc), str(exc)


def every_root(w):
    """_halves as if no root were read from its conjugate: every root is solved."""
    every = np.arange(w.size).reshape(w.shape)
    return every, every


@pytest.mark.parametrize("sweep_name", EQUIVALENCE_SWEEPS)
def test_trace_is_the_same_with_every_root_solved_and_linked(sweep_name, monkeypatch):
    # polishing, rating and linking from both members of each conjugate pair, as the
    # full solve did, gives the same trajectories, point for point, or the same error
    args = EQUIVALENCE_SWEEPS[sweep_name]
    got = trace_record(trace, *args)
    monkeypatch.setattr(dispersion, "_certified_roots", full_certified_roots)
    assert trace_record(trace, *args) == got
    for module in (dispersion, sweep):
        monkeypatch.setattr(module, "_halves", every_root)
    assert trace_record(trace, *args) == got


@pytest.mark.parametrize("sweep_name", EQUIVALENCE_SWEEPS)
def test_trace_links_as_the_per_branch_loop(sweep_name):
    # the index maps give every point, flag and error of the loop that linked each
    # branch one value at a time from every root
    args = EQUIVALENCE_SWEEPS[sweep_name]
    assert trace_record(trace, *args) == trace_record(trace_by_loop, *args)


@pytest.mark.parametrize("sweep_name", [*EQUIVALENCE_SWEEPS, *TIE_SWEEPS])
def test_trace_is_the_same_with_the_census_columns_reversed(sweep_name, monkeypatch):
    # the links are decided by the roots, not by their order in a row: with every row's
    # columns reversed (each pair still side by side, its Im w < 0 member first), every
    # point, flag and error stays
    args = {**EQUIVALENCE_SWEEPS, **TIE_SWEEPS}[sweep_name]
    want, census = trace_record(trace, *args), sweep._census

    def reversed_columns(*args, **kwargs):
        c = census(*args, **kwargs)
        flip = {name: getattr(c, name)[:, ::-1] for name in ("w", "z", "sheet_ii", "cls", "kept")}
        return dataclasses.replace(c, **flip)

    monkeypatch.setattr(sweep, "_census", reversed_columns)
    assert trace_record(trace, *args) == want


def test_trace_refuses_root_through_infinity():
    # n_d = 1: past its real-axis EP the branch follows the root that
    # escapes to w = infinity where 4 g^2 v^2 = 1, here at g = 0.3846
    model = ChainModel.semi_infinite(1, -0.5, 0.2, v=1.3)
    with pytest.raises(ConvergenceError, match=r"infinity for g in \[0\.384, 0\.386\]"):
        trace(model, "g", np.linspace(0.15, 0.4, 126))


def test_trace_whose_end_overflows_p_fails_cleanly():
    # e_d = 1e308 is a valid model whose p(w) spans more than the double range: the census
    # refuses it, and the sign test of p's leading coefficient, which e_d does not enter,
    # raises no overflow warning first
    model = ChainModel.semi_infinite(4, -0.5, 0.2)
    message = r"companion matrix of p\(w\) is not finite at e_d = 1e\+308"
    with pytest.raises(FanochainError, match=message):
        trace(model, "e_d", [0.1, 1e308])


@pytest.mark.parametrize(
    "model, values",
    [
        # the first value decouples the level, or puts the one root of
        # n_d = 1 at w = infinity (4 g^2 v^2 = 1) and the other at z = -1:
        # neither has a resonance
        (ChainModel.semi_infinite(4, -0.5, 0.2), np.linspace(0.0, 0.3, 31)),
        (ChainModel.semi_infinite(1, -0.5, 0.2), np.linspace(0.5, 0.8, 31)),
        # no resonance at the start, so the later passage through w = infinity is not followed
        (ChainModel.semi_infinite(1, 0.95, 0.2), np.linspace(0.2, 0.8, 31)),
        # a first value that is solved and holds a bound state and a virtual state alone
        (ChainModel.semi_infinite(1, 0.9, 0.2), np.linspace(0.45, 0.48, 31)),
    ],
)
def test_trace_without_start_resonance_has_no_branches(model, values):
    assert trace(model, "g", values).branches == []


@pytest.mark.parametrize(
    "model, values, counts, error",
    [
        # a start at g = 0 solves nothing, at any n_d
        pytest.param(ChainModel.semi_infinite(4, -0.5, 0.2), np.linspace(0.0, 0.3, 31),
                     [0, 0, 0], None, id="n_d=4:from_g=0"),
        pytest.param(ChainModel.semi_infinite(64, 0.0, 0.2), np.linspace(0.0, 0.3, 401),
                     [0, 0, 0], None, id="n_d=64:from_g=0"),
        # a root through w = infinity: the first value alone decides, by its resonances
        pytest.param(ChainModel.semi_infinite(1, -0.5, 0.2), np.linspace(0.5, 0.8, 31),
                     [1, 0, 0], None, id="n_d=1:from_infinity"),
        pytest.param(ChainModel.semi_infinite(1, 0.95, 0.2), np.linspace(0.2, 0.8, 31),
                     [1, 0, 0], None, id="n_d=1:through_infinity"),
        pytest.param(ChainModel.semi_infinite(1, -0.5, 0.2, v=1.3), np.linspace(0.15, 0.4, 126),
                     [1, 0, 0], r"infinity for g in \[0\.384, 0\.386\]", id="n_d=1:resonant_start"),
    ],
)
def test_trace_settles_its_start_before_solving_the_sweep(model, values, counts, error):
    assert solve_counts((model, "g", values)) == counts
    if error is None:
        assert trace(model, "g", values).branches == []
    else:
        with pytest.raises(ConvergenceError, match=error):
            trace(model, "g", values)


def test_trace_gates_linked_roots():
    # the start roots are gated at the trace's root_tol too, so the first value fails
    model = ChainModel.semi_infinite(4, -0.5, 0.16)
    with pytest.raises(ConvergenceError, match=r"branch i at e_d = -0\.9: \|eta\| = "):
        trace(model, "e_d", [-0.9, -0.8], root_tol=1e-30)


def test_trace_pins_and_flags_its_first_point_as_every_other():
    # 1e-7 above a BIC e_d branch (i) lies within 1e-12 of the axis: its first point is
    # pinned and marked bic, as its second is
    e = -0.7071067811865476
    values = np.linspace(e + 1e-7, e + 3e-7, 5)
    branches = trace(ChainModel.semi_infinite(4, -0.5, 0.2), "e_d", values).branches
    for p in branches[0].points[:2]:
        assert p.z.imag == 0.0 and p.bic and abs(p.z.real) < 1, p
    # the README EP: branches (i) and (ii) start 7e-9 from its z, and both are marked
    g, e_d = 0.17284479822974866, -0.39819697427829687
    model = ChainModel.semi_infinite(4, e_d, g)
    ep = find_ep(model, (g, e_d, -0.41 - 0.15j))
    first = [b.points[0] for b in trace(model, "e_d", np.linspace(e_d, e_d + 1e-9, 5)).branches]
    assert [abs(p.z - ep.z) < 1e-8 for p in first] == [True, True, False]
    assert [p.collision for p in first] == [True, True, False]
    assert not any(p.crossed_axis for p in first)


def test_trace_gates_each_value_once(monkeypatch):
    # 401 values in 17 blocks at n_d = 64: each block's first row after the first is
    # the last of the block before, and is gated there alone
    gated, residual = [], sweep._residual

    def counted(model, z, *args):
        gated.append(z.size)
        return residual(model, z, *args)

    monkeypatch.setattr(sweep, "_residual", counted)
    values = np.linspace(-0.999, 0.999, 401)
    branches = trace(ChainModel.semi_infinite(64, 0.0, 0.2), "e_d", values).branches
    assert len(gated) == 17 and sum(gated) == len(values) * len(branches)


def test_trace_starts_past_band_edge_roots_no_branch_links():
    # at g = 0.02 both sheet-I bound states lie within 1e-7 of a band edge and
    # miss the |eta| gate of discrete_states; no branch links to them
    model = ChainModel.infinite(0.05, 0.2)
    values = np.linspace(0.02, 0.4, 201)
    with pytest.raises(RootCountError, match="band edge"):
        discrete_states(model.with_params(g=0.02))
    (branch,) = trace(model, "g", values).branches
    for p in branch.points:
        assert abs(eta(model.with_params(g=p.value), SheetedEnergy(p.z, Sheet.II))) <= 1e-9, p


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


@pytest.mark.parametrize("v", [1.0, 0.01, 1e-4, 1e-5])
def test_find_ep_does_not_move_with_v(v):
    # p depends on g and v only through g v, so the EP does not move at fixed g v;
    # its g^2 row is -4 v^2 exactly, not (1 - 4 v^2) - 1
    seed_z = -0.41 - 0.15j
    ref = find_ep(ChainModel.semi_infinite(4, -0.4, 0.17), (0.17, -0.4, seed_z))
    ep = find_ep(ChainModel.semi_infinite(4, -0.4, 0.17 / v, v=v), (0.17 / v, -0.4, seed_z))
    assert ep.g * v == pytest.approx(ref.g, rel=1e-13)
    assert ep.e_d == pytest.approx(ref.e_d, rel=1e-13)
    assert ep.z == pytest.approx(ref.z, rel=1e-13)
    assert ep.residual_eta < 1e-14 and ep.residual_eta_prime < 1e-14


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


EP_SCANS = {
    f"n_d={n_d}": (n_d, (0.02, 0.5), (-0.95, 0.95), 24) for n_d in (3, 4, 5, 6, 8)
}
EP_SCANS["readme"] = (4, (0.1, 0.25), (-0.8, 0.0), 16)


@pytest.mark.parametrize("scan", list(EP_SCANS.values()), ids=list(EP_SCANS))
def test_find_ep_matches_z_plane_solve(scan):
    # Newton in w agrees with the damped 4x4 Newton in (z, g, e_d), seeded two decimals off
    n_d, g_range, ed_range, n = scan
    model = ChainModel.semi_infinite(n_d, -0.5, 0.2)
    seeds = scan_for_ep_seeds(model, g_range, ed_range, n, n)
    assert len(seeds) == ({3: 1, 4: 2, 5: 3, 6: 4, 8: 6}[n_d] if n == 24 else 1)
    for seed in seeds:
        ep = find_ep(model, seed)
        ref = find_ep_in_z(model, (round(seed.g, 2), round(seed.e_d, 2), complex(round(
            seed.z.real, 2), round(seed.z.imag, 2))))
        assert abs(ep.g - ref.g) < 1e-9 and abs(ep.e_d - ref.e_d) < 1e-9
        assert abs(ep.z - ref.z) < 1e-9
        assert ep.residual_eta < EP_TOL and ep.residual_eta_prime < EP_TOL


@pytest.mark.parametrize(
    "model, z0",
    [(ChainModel.semi_infinite(24, 0.75, 0.05), 0.7533617 + 0.0175381j),
     (ChainModel.semi_infinite(4, -0.5, 0.2), -0.41 + 0.15j)],
    ids=["n_d=24", "readme"],
)
def test_find_ep_reports_the_resonance_pair(model, z0):
    # from these seeds Newton settles on the anti-resonance pair's double root (Im w > 0);
    # its conjugate, at the same g and e_d, is the EP reported, as from the conjugate seed
    ep = find_ep(model, (model.g, model.e_d, z0))
    mirror = find_ep(model, (model.g, model.e_d, z0.conjugate()))
    assert ep.z.imag < 0 and mirror.z.imag < 0
    assert ep.g == pytest.approx(mirror.g, abs=1e-14) and ep.e_d == pytest.approx(mirror.e_d, abs=1e-14)
    assert abs(ep.z - mirror.z) < 1e-14
    assert ep.residual_eta < EP_TOL and ep.residual_eta_prime < EP_TOL
    assert find_ep(model, (ep.g, ep.e_d, ep.z)).z.imag < 0


def test_readme_ep_is_the_scan_ep():
    # the README box's one EP, as the scan returns it and as find_ep polishes it from
    # either member of a seed pair
    model = ChainModel.semi_infinite(4, -0.5, 0.2)
    (seed,) = scan_for_ep_seeds(model, (0.1, 0.25), (-0.8, 0.0))
    assert (round(seed.g, 7), round(seed.e_d, 7)) == (0.1728448, -0.398197)
    for ep in (find_ep(model, seed), find_ep(model, (0.2, -0.5, -0.41 + 0.15j)),
               find_ep(model, (0.2, -0.5, -0.41 - 0.15j))):
        assert abs(ep.g - seed.g) < 1e-12 and abs(ep.e_d - seed.e_d) < 1e-12
        assert abs(ep.z - seed.z) < 1e-12 and ep.z.imag < 0


def test_find_ep_digits_are_ieee_complex_arithmetic():
    # the README seed: Python complex arithmetic gives these digits on every SIMD build,
    # where numpy's AVX2 and AVX-512 kernels gave ...487 and ...2968, and no SIMD ...488
    # and ...297
    ep = find_ep(ChainModel.semi_infinite(4, -0.5, 0.2), (0.17, -0.4, -0.41 - 0.15j))
    assert ep.g == 0.1728447982297488 and ep.e_d == -0.398196974278297


@functools.cache
def ep_seed_zs(n_d, v):
    """A chain (n_d None: the infinite one) and the z of every w its wide-box scan hands
    the EP Newton, or z = 0, where the Newton meets a singular system, for a chain whose
    scan hands it none (the infinite chain, n_d 1 and 2: no EP of a resonance pair)."""
    model = ChainModel.semi_infinite(n_d, -0.5, 0.2, v=v) if n_d else ChainModel.infinite(-0.5, 0.2, v=v)
    ws, newton = [], sweep._ep_newton

    def spy(model, desc, w, *args):
        ws.append(w)
        return newton(model, desc, w, *args)

    with mock.patch.object(sweep, "_ep_newton", spy):
        scan_for_ep_seeds(model, (0.01, 0.5 / v), (-1.5, 1.5))
    return model, [0.5 * (w + 1.0 / w) for w in ws] or [0j]


@settings(max_examples=200, deadline=None)
@given(n_d=st.one_of(st.none(), st.integers(1, 40)), v=st.sampled_from([1.0, 0.7, 1.3]),
       pick=st.integers(0, 10**6), nudge=st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1e-3)))
def test_find_ep_matches_the_horner_newton(n_d, v, pick, nudge):
    # from the scan's seeds, moved by up to 1e-3 relative, the Newton on Python complex
    # numbers and the one on _horner's arrays take the same steps up to rounding: the
    # same error class, or the same EP within 4e-14 relative
    model, seeds = ep_seed_zs(n_d, v)
    seed = (model.g, model.e_d, seeds[pick % len(seeds)] * (1.0 + nudge))
    try:
        want = find_ep_by_horner(model, seed)
    except FanochainError as exc:
        with pytest.raises(type(exc)):
            find_ep(model, seed)
        return
    ep = find_ep(model, seed)
    assert abs(ep.g - want.g) <= 4e-14 * want.g
    assert abs(ep.e_d - want.e_d) <= 4e-14 * (abs(want.e_d) if abs(want.e_d) > 1e-10 else 1.0)
    assert abs(ep.z - want.z) <= 4e-14 * abs(want.z)
    assert ep.residual_eta < EP_TOL and ep.residual_eta_prime < EP_TOL


def test_find_ep_bad_seed_raises():
    m = ChainModel.semi_infinite(4, -0.4, 0.17)
    with pytest.raises(ConvergenceError):
        find_ep(m, (0.17, -0.4, -0.41 - 0.15j), ep_tol=1e-30, max_iter=8)
    # z = 0 of the infinite chain is w = i, where p = p' = 0 has no single (e_d, g^2)
    with pytest.raises(ConvergenceError, match=re.escape("singular double-root system at w = 1j")):
        find_ep(ChainModel.infinite(-0.5, 0.2), (0.2, -0.5, 0j))


def test_find_ep_refuses_a_double_root_on_the_real_axis():
    # on the real w axis e_d(w) and g^2(w) are real at every w, so Newton from this seed
    # settles at an arbitrary double real root (w = 1.40275, g = 5.0e-05), not an EP
    m = ChainModel.semi_infinite(20, -0.5, 0.2, v=1.3)
    with pytest.raises(ConvergenceError, match="settled on the real w axis") as info:
        find_ep(m, (0.2, -0.5, -0.8773 - 0.0127j))
    assert info.value.trace
    # the README EP, off the axis, still polishes
    m = ChainModel.semi_infinite(4, -0.4, 0.17)
    ep = find_ep(m, (0.17, -0.4, -0.41 - 0.15j))
    assert ep.g == pytest.approx(EP_G, abs=1e-3) and ep.e_d == pytest.approx(-EP_ED, abs=1e-3)
    assert ep.residual_eta < EP_TOL and ep.residual_eta_prime < EP_TOL


# ------------------------------------------------------------------- EP scan


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
    [
        ((-1.0, -0.5), (-0.8, 0.0)),
        ((0.1, 0.25), (-0.8, math.nan)),
        ((0.1, math.inf), (-0.8, 0.0)),
        ((0.0, 1e200), (-0.8, 0.0)),  # g^2 v^2 overflows
    ],
    ids=["negative-g", "nan", "inf", "overflow"],
)
def test_scan_rejects_invalid_range(g_range, ed_range):
    # a corner of these boxes is an invalid model: an error, not []
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    with pytest.raises(ModelError):
        scan_for_ep_seeds(m, g_range, ed_range)


def test_scan_empty_ranges():
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    # a box of zero width in e_d holds no EP off that e_d; one of zero width in g is refused
    assert scan_for_ep_seeds(m, (0.1, 0.25), (-0.5, -0.5)) == []
    for g_range in ((0.1, 0.1), (0.0, 0.0)):
        with pytest.raises(ModelError, match="has equal ends"):
            scan_for_ep_seeds(m, g_range, (-0.8, 0.0))


@pytest.mark.parametrize("model, g_range, ed_range", [
    # boxes from g = 0, and in the n_d = 1 one p loses its leading term at g = 0.5
    (ChainModel.infinite(-0.5, 0.2), (0.0, 0.12), (-0.99, 0.99)),
    (ChainModel.semi_infinite(1, -0.5, 0.2), (0.0, 0.5), (-1.2, 1.2)),
], ids=["infinite", "n_d=1"])
def test_scan_with_fewer_than_two_solvable_lines_is_empty(model, g_range, ed_range, monkeypatch):
    # neither chain has an EP, so the scan polishes nothing and returns no EP
    def unsolved(*args):
        raise AssertionError("an EP was polished")

    monkeypatch.setattr(sweep, "_ep_newton", unsolved)
    assert scan_for_ep_seeds(model, g_range, ed_range, n_g=2) == []


def test_scan_refuses_equal_g_ends_even_at_an_ep():
    # as a trajectory refuses a sweep of one value, even at the README EP's own g, which a
    # box around it finds; equal e_d ends stay valid
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    [ep] = scan_for_ep_seeds(m, (0.1, 0.25), (-0.8, 0.0))
    assert ep.g == pytest.approx(0.1728447982297488, rel=1e-14)
    assert ep.e_d == pytest.approx(-0.398196974278297, rel=1e-14)
    with pytest.raises(ModelError, match=re.escape("g_range (0.172845, 0.172845) has equal ends") + "$"):
        scan_for_ep_seeds(m, (ep.g, ep.g), (-0.8, 0.0))
    [near] = scan_for_ep_seeds(m, (0.17, 0.175), (-0.8, 0.0))
    assert near.g == pytest.approx(ep.g, rel=1e-14) and near.e_d == pytest.approx(ep.e_d, rel=1e-14)
    # the e_d box only filters the census, so it keeps this one exactly
    assert scan_for_ep_seeds(m, (0.1, 0.25), (ep.e_d, ep.e_d)) == [ep]


@pytest.mark.parametrize(
    "g_range, ed_range, message",
    [((0.25, 0.1), (-0.8, 0.0), "g_range (0.25, 0.1) is reversed"),
     ((0.1, 0.25), (0.0, -0.8), "ed_range (0, -0.8) is reversed"),
     ((0.25, -0.1), (-0.8, 0.0), "g must be >= 0, got -0.1")],  # the corners are checked first
    ids=["g_range", "ed_range", "invalid-corner"],
)
def test_scan_refuses_a_reversed_box(g_range, ed_range, message):
    # as trace refuses a sweep that is not increasing, not an empty list
    with pytest.raises(ModelError, match=re.escape(message)):
        scan_for_ep_seeds(ChainModel.semi_infinite(4, -0.5, 0.2), g_range, ed_range)


@settings(max_examples=60, deadline=None)
@given(n_d=st.one_of(st.none(), st.integers(1, 40)),
       v=st.one_of(st.sampled_from([1.0, 0.7, 1.3]), st.floats(1e-3, 1e3)))
def test_ep_newton_rows_start_at_their_first_nonzero(n_d, v):
    # the rows of _ep_rows descending, as lists of Python floats from their first nonzero
    # coefficient (an all-zero row is empty); the Newton's steps on them are those on the
    # full rows, bit for bit
    model = ChainModel.semi_infinite(n_d, -0.5, 0.2, v=v) if n_d else ChainModel.infinite(-0.5, 0.2, v=v)
    rows = sweep._ep_rows(model)
    desc, full = sweep._descending(rows), rows[:, ::-1].tolist()
    assert len(desc) == 9
    for got, row in zip(desc, full):
        assert all(type(a) is float for a in got)
        assert got == row[len(row) - len(got):] and not any(row[: len(row) - len(got)])
        assert not got or got[0] != 0.0

    def newton(rows):  # from about the README seed's w on sheet II
        try:
            return repr(sweep._ep_newton(model, rows, -0.48 - 1.08j, EP_TOL, 200))
        except FanochainError as exc:
            return repr(exc) + repr(getattr(exc, "trace", None))

    assert newton(desc) == newton(full)


def test_scan_seeds_are_exceptional_points():
    # n_d = 2 has a single resonance: no pair at all, so no EP
    m2 = ChainModel.semi_infinite(2, -0.5, 0.2)
    assert scan_for_ep_seeds(m2, (0.05, 0.6), (-0.9, 0.9), n_g=10) == []
    m5 = ChainModel.semi_infinite(5, -0.5, 0.2)
    seeds = scan_for_ep_seeds(m5, (0.05, 0.5), (-0.9, 0.9), n_g=12)
    assert seeds
    for s in seeds:
        # each seed is its own EP: find_ep settles where it starts
        ep = find_ep(m5, s)
        assert abs(ep.g - s.g) < 1e-12 and abs(ep.e_d - s.e_d) < 1e-12 and abs(ep.z - s.z) < 1e-12
        assert ep.residual_eta < EP_TOL and ep.residual_eta_prime < EP_TOL


def test_seed_tuple_and_dataclass_equivalent():
    # a scan result seeds find_ep as its (g, e_d, z) tuple does
    m = ChainModel.semi_infinite(4, -0.4, 0.17)
    (seed,) = scan_for_ep_seeds(m, (0.1, 0.25), (-0.8, 0.0))
    assert isinstance(seed, EpResult)
    assert find_ep(m, seed) == find_ep(m, (seed.g, seed.e_d, seed.z))


def split_slope(model, ep):
    """d log |z_1 - z_2| / d log(delta e_d) of the resonance pair nearest the EP."""
    deltas = np.geomspace(1e-6, 1e-3, 7)
    split = []
    for d in deltas:
        states = discrete_states(model.with_params(g=ep.g, e_d=ep.e_d + d))
        res = sorted((s.z for s in states if s.state_class is StateClass.RESONANCE),
                     key=lambda z: abs(z - ep.z))
        split.append(abs(res[0] - res[1]))
    return np.polyfit(np.log(deltas), np.log(split), 1)[0]


@pytest.mark.parametrize("n_d, g_ep", [(3, 0.21886216), (5, 0.16779810)])
def test_scan_finds_the_ep_at_e_d_zero(n_d, g_ep):
    # the pair coalesces on the imaginary w axis, where the mirror EPs +-e_d meet: the
    # census seeds it exactly on the axis, Re z = 0, and it stays there
    model = ChainModel.semi_infinite(n_d, -0.5, 0.2)
    seeds = [s for s in scan_for_ep_seeds(model, (0.02, 0.5), (-0.95, 0.95)) if s.e_d == 0.0]
    (seed,) = seeds
    assert seed.g == pytest.approx(g_ep, abs=1e-8)
    assert seed.z.real == 0.0 and seed.z.imag < 0
    ep = find_ep(model, seed)
    assert ep.residual_eta < EP_TOL and ep.residual_eta_prime < EP_TOL
    assert split_slope(model, ep) == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize("v, g_ep", [(0.7, 0.23971157208454885), (1.3, 0.12907546189168012)])
def test_scan_keeps_the_axis_ep_at_the_box_edge(v, g_ep):
    # the README box ends at e_d = 0, where the n_d = 5 chain has an EP on the imaginary
    # axis: polished from a seed off the axis it can land at an e_d of order +1e-56,
    # outside the box, and be dropped; the scan seeds it on the axis, where the polish
    # keeps e_d = 0 and Re z = 0 exactly
    model = ChainModel.semi_infinite(5, -0.5, 0.2, v=v)
    axis = [ep for ep in scan_for_ep_seeds(model, (0.1, 0.25), (-0.8, 0.0)) if ep.e_d == 0.0]
    assert [(ep.g, ep.z) for ep in axis] == [(g_ep, -0.1304544989993373j)]
    assert axis[0].z.real == 0.0


def test_scan_finds_both_eps_of_the_wide_box():
    model = ChainModel.semi_infinite(4, -0.5, 0.2)
    seeds = scan_for_ep_seeds(model, (0.01, 0.5), (-1.5, 1.5))
    assert [(round(s.g, 7), round(s.e_d, 7)) for s in seeds] == [
        (0.1728448, -0.398197), (0.1728448, 0.398197)
    ]


def test_scan_from_g_zero_at_large_n_d():
    # the n_d - 2 EPs of adjacent resonance pairs, the lowest at g = 0.0068
    model = ChainModel.semi_infinite(40, -0.5, 0.2)
    seeds = scan_for_ep_seeds(model, (0.0, 0.5), (-1.5, 1.5), n_g=8)
    assert len({(round(s.g, 9), round(s.e_d, 9)) for s in seeds}) == len(seeds) == 38
    assert min(s.g for s in seeds) == pytest.approx(0.00677, abs=1e-5)
    for s in seeds:
        assert s.z.imag < -1e-6
        ep = find_ep(model, s)
        assert ep.residual_eta < EP_TOL and ep.residual_eta_prime < EP_TOL


MPMATH_BOXES = {
    "readme": (ChainModel.semi_infinite(4, -0.5, 0.2), (0.1, 0.25), (-0.8, 0.0), 1),
    "n_d=4:wide": (ChainModel.semi_infinite(4, -0.5, 0.2), (0.01, 0.5), (-1.5, 1.5), 2),
    "n_d=3:axis": (ChainModel.semi_infinite(3, -0.5, 0.2), (0.02, 0.5), (-0.95, 0.95), 1),
    "n_d=12:v=0.7": (ChainModel.semi_infinite(12, -0.5, 0.2, v=0.7), (0.01, 0.6 / 0.7),
                     (-1.5, 1.5), 10),
}


@pytest.mark.parametrize("box", MPMATH_BOXES)
def test_scan_eps_match_a_50_digit_solve(box):
    # the scan polishes each EP once, to rounding: a 50-digit solve of p = p' = 0 moves
    # g, z and e_d (off the e_d = 0 axis) by under 2e-14 relative, and the residuals the
    # scan reports are its own, below EP_TOL
    model, g_range, ed_range, count = MPMATH_BOXES[box]
    eps = scan_for_ep_seeds(model, g_range, ed_range)
    assert len(eps) == count
    for ep in eps:
        assert ep.residual_eta < EP_TOL and ep.residual_eta_prime < EP_TOL
        g, e_d, z = ep_by_mpmath(model, ep)
        assert abs(ep.g - g) <= 2e-14 * g and abs(ep.z - z) <= 2e-14 * abs(z)
        assert abs(ep.e_d - e_d) <= 2e-14 * (abs(e_d) if abs(e_d) > 1e-10 else 1.0)


SCAN_BOXES = {
    # README box; its e_d range ends at the exact BIC e_d = 0
    "readme": (ChainModel.semi_infinite(4, -0.5, 0.2), (0.1, 0.25), (-0.8, 0.0)),
    # a box from g = 0, where no EP lies
    "g-from-zero": (ChainModel.semi_infinite(4, -0.5, 0.2), (0.0, 0.3), (-0.9, 0.9)),
    # p loses its leading term at g = 0.5 (4 g^2 v^2 = 1)
    "n_d=1": (ChainModel.semi_infinite(1, -0.5, 0.2), (0.0, 1.0), (-1.2, 1.2)),
    # one resonance, so no EP; band-edge roots fail the |eta| gate at weak coupling
    "infinite": (ChainModel.infinite(-0.5, 0.2), (0.0, 0.12), (-0.99, 0.99)),
    "n_d=12": (ChainModel.semi_infinite(12, -0.5, 0.2), (0.05, 0.3), (-0.8, 0.8)),
}
EP_BOXES = {
    **SCAN_BOXES,
    **{f"n_d={n_d}:{name}": (ChainModel.semi_infinite(n_d, -0.5, 0.2), g_range, ed_range)
       for n_d in (3, 4, 5, 6, 8, 12, 16, 24)
       for name, g_range, ed_range in [("narrow", (0.02, 0.5), (-0.95, 0.95)),
                                       ("wide", (0.01, 0.5), (-1.5, 1.5))]},
    # its 11 EP pairs reach down to g = 0.0145
    "n_d=24:g-from-zero": (ChainModel.semi_infinite(24, -0.5, 0.2), (0.0, 0.5), (-1.5, 1.5)),
    # p depends on g and v only through g v
    "v=1e-5": (ChainModel.semi_infinite(4, -0.5, 2e4, v=1e-5), (1e4, 2.5e4), (-0.8, 0.0)),
}


@functools.cache
def reference(box):
    return reference_eps(*EP_BOXES[box])


@pytest.mark.parametrize("box", EP_BOXES)
@pytest.mark.parametrize("n_g", [8, 16])
def test_scan_matches_per_cell_solves(box, n_g, monkeypatch):
    # the census finds exactly the EPs that find_ep finds from every resonance of a
    # per-cell census, each once, and every seed it polishes gives an EP, whatever the
    # unused n_g
    model, g_range, ed_range = EP_BOXES[box]
    failed, newton = [], sweep._ep_newton

    def polish(*args):
        try:
            return newton(*args)
        except FanochainError as exc:
            failed.append(exc)
            raise

    monkeypatch.setattr(sweep, "_ep_newton", polish)
    got = scan_for_ep_seeds(model, g_range, ed_range, n_g)
    assert not failed
    assert got == sorted(got, key=lambda s: (s.g, s.e_d))
    want = reference(box)
    assert len(got) == len(want)
    for s in got:
        (ep,) = [r for r in want if abs(r.g - s.g) < 1e-9 and abs(r.e_d - s.e_d) < 1e-9]
        assert abs(ep.z - s.z) < 1e-9
        ep = find_ep(model, s)
        assert ep.residual_eta < EP_TOL and ep.residual_eta_prime < EP_TOL


def test_a_failed_polish_raises_naming_its_gap(monkeypatch):
    # the census never drops an EP: a seed whose Newton fails, or settles outside its gap
    # between adjacent BIC energies, raises ConvergenceError naming that gap
    model, g_range, ed_range = SCAN_BOXES["n_d=12"]
    newton = sweep._ep_newton

    def refused(*args):
        raise ConvergenceError("refused", trace=[(0j, 0j, 0j)])

    monkeypatch.setattr(sweep, "_ep_newton", refused)
    with pytest.raises(ConvergenceError, match=re.escape(
            "no EP in BIC gap 1 of 10, e_d in (-0.9659258262890683, -0.8660254037844387): refused")) as info:
        scan_for_ep_seeds(model, g_range, ed_range)
    assert info.value.trace == [(0j, 0j, 0j)]
    seeds = []

    def swapped(*args):  # the fourth seed lands on the third gap's EP
        seeds.append(args[2])
        return newton(*args[:2], seeds[2] if len(seeds) == 4 else args[2], *args[3:])

    monkeypatch.setattr(sweep, "_ep_newton", swapped)
    with pytest.raises(ConvergenceError, match=re.escape(
            "no EP in BIC gap 4 of 10, e_d in (-0.5000000000000001, -0.25881904510252074): its seed's "
            "Newton settled at e_d = -0.6")):
        scan_for_ep_seeds(model, g_range, ed_range)


@pytest.mark.parametrize("v", [1e-5, 1.0, 1e3])
def test_ep_census_has_one_ep_in_each_bic_gap(v):
    # n_d - 2 EPs, one strictly inside each gap between adjacent BIC energies; seeded in
    # exact mirror pairs, they come back as exact mirror pairs (g, e_d, z), (g, -e_d,
    # -conj(z)), and the middle one of an odd n_d lies on the axis, e_d = 0, Re z = 0
    for n_d in [*range(3, 65), 128, 256]:
        model = ChainModel.semi_infinite(n_d, -0.5, 0.2, v=v)
        eps, bics = sweep._ep_census(model), bic_energies(model)
        assert len(eps) == n_d - 2
        for ep, lo, hi in zip(eps, bics, bics[1:]):
            assert lo < ep.e_d < hi and ep.z.imag < 0
            assert ep.residual_eta < EP_TOL and ep.residual_eta_prime < EP_TOL
        for ep, image in zip(eps, eps[::-1]):
            assert (image.g, image.e_d, image.z) == (ep.g, -ep.e_d, -ep.z.conjugate())
        if n_d % 2:
            axis = eps[n_d // 2 - 1]
            assert axis.e_d == 0.0 and axis.z.real == 0.0


@pytest.mark.parametrize("v", [1e-5, 0.7, 1.0, 1.3])
def test_w_rows_have_exact_parity(v):
    # base and d_g2 hold only even powers of w and d_ed only odd ones, on both chains, so
    # p(-w; -e_d) = p(w; e_d): the fact the EP census's exact mirror pairs rest on
    for model in [ChainModel.infinite(-0.5, 0.2, v=v)] + [
            ChainModel.semi_infinite(n_d, -0.5, 0.2, v=v) for n_d in range(1, 65)]:
        base, d_ed, d_g2 = _w_rows(model)
        assert not base[1::2].any() and not d_g2[1::2].any() and not d_ed[::2].any()
        assert base.any() and d_ed.any() and d_g2.any()


def test_scan_calls_no_eigvals(monkeypatch):
    # the EP census polishes closed-form seeds: no polynomial is solved
    def unsolved(*args):
        raise AssertionError("eigvals was called")

    monkeypatch.setattr(np.linalg, "eigvals", unsolved)
    for n_d in (None, 1, 2, 4, 5, 12, 40):
        model = ChainModel.semi_infinite(n_d, -0.5, 0.2) if n_d else ChainModel.infinite(-0.5, 0.2)
        assert len(scan_for_ep_seeds(model, (0.0, 0.5), (-1.5, 1.5))) == max(0, (n_d or 0) - 2)


@pytest.mark.parametrize("v", [1.0, 0.7, 1.3])
@pytest.mark.parametrize("n_d", [2, 3, 4, 5, 6, 8, 12, 16, 24, 40])
def test_scan_of_a_box_symmetric_in_e_d_is_mirror_symmetric(n_d, v):
    # p(-w; -e_d) = p(w; e_d), so each EP (g, e_d, z) comes with (g, -e_d, -conj(z)), and
    # the scan finds both bit for bit, from exact mirror seeds; the axis EPs are their own mirrors
    model = ChainModel.semi_infinite(n_d, -0.5, 0.2, v=v)
    for g_range, ed_range in [((0.02, 0.5), (-0.95, 0.95)), ((0.01, 0.5 / v), (-1.5, 1.5)),
                              ((0.0, 0.5 / v), (-1.5, 1.5))]:
        eps = {(ep.g, ep.e_d, ep.z) for ep in scan_for_ep_seeds(model, g_range, ed_range)}
        assert eps == {(g, -e_d, -z.conjugate()) for g, e_d, z in eps}


def test_scan_boxes_exercise_their_edge_cases():
    # guards the equivalence tests: each box really holds what it is meant to
    def failing_cells(box):
        model, g_range, ed_range = SCAN_BOXES[box]
        fails = 0
        for g in np.linspace(*g_range, 13):
            for ed in np.linspace(*ed_range, 21):
                try:
                    discrete_states(model.with_params(g=float(g), e_d=float(ed)))
                except FanochainError:
                    fails += 1
        return fails

    assert failing_cells("infinite") > 0
    model, g_range, ed_range = SCAN_BOXES["n_d=1"]
    assert 4 * 0.5**2 * model.v**2 == 1.0 and 0.5 in np.linspace(*g_range, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the lost leading term raises nothing on the way
        assert scan_for_ep_seeds(model, g_range, ed_range, 9) == []
    assert SCAN_BOXES["readme"][2][1] == 0.0
    assert SCAN_BOXES["g-from-zero"][1][0] == 0.0
    assert reference("n_d=12")
    assert min(ep.g for ep in reference("n_d=24:g-from-zero")) < 0.5 / 15


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")], ids=str)
@pytest.mark.parametrize("name, solve", [
    ("root_tol", lambda m, tol: trace(m, "e_d", [-0.5, -0.4], root_tol=tol)),
    ("ep_tol", lambda m, tol: find_ep(m, (0.17, -0.4, -0.41 - 0.15j), ep_tol=tol)),
], ids=["trace", "find_ep"])
def test_tolerance_that_is_not_a_positive_finite_number_is_refused(name, solve, tol):
    with pytest.raises(ModelError, match=f"^{name} must be a positive finite number, got {tol!r}$"):
        solve(ChainModel.semi_infinite(4, -0.5, 0.2), tol)

