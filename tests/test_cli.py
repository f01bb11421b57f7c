import csv
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanochain import (
    ChainModel,
    Sheet,
    SheetedEnergy,
    attach_norms,
    bic_energies,
    decompose,
    discrete_states,
    scan_for_ep_seeds,
    self_energy,
    self_energy_deriv,
    trace,
)
from fanochain.cli import _json_rows, _json_spectrum, build_parser, model_from_args, run
from fanochain.dispersion import polish_seeds


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_roots_counts(tmp_path, capsys):
    rc = run(["roots", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "branch,class,re_z,im_z,re_norm,im_norm,residual"
    records = out[1:]
    assert len(records) == 5
    assert sum("resonance" in r for r in records) == 3


@pytest.mark.parametrize(
    "e_d, record", [("1", "b1,boundI,1,0,1,0,0"), ("0.5", "bic1,bic,0.5,0,1,0,0")]
)
def test_roots_and_lines_of_decoupled_impurity(tmp_path, capsys, e_d, record):
    # g = 0: the one state is labelled, and its norm and line weight are exactly 1
    model = ["--chain", "semi", "--nd", "4", "--g", "0", "--ed", e_d]
    assert run(["roots", *model]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [record]
    out = tmp_path / "g0.csv"
    assert run(["spectrum", *model, "--points", "3", "--out", str(out)]) == 0
    lines = (tmp_path / "g0.csv.lines.csv").read_text()
    assert lines == f"energy,weight\n{e_d},1\n"
    assert "nan" not in out.read_text() + lines


def test_roots_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["roots", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "model",
    [["--nd", "4", "--g", "0.2", "--ed", "-0.5"],
     ["--nd", "7", "--g", "0.3", "--ed", "0.4", "--v", "1.3", "--antiresonances"],
     ["--nd", "4", "--g", "0.2", "--ed", "-0.7071067811865476"],
     ["--nd", "3", "--g", "0.2", "--ed", "0.499999999", "--antiresonances"]],
    ids=["readme", "antiresonances", "at-bic", "near-bic"],
)
def test_roots_json_round_trip(tmp_path, model):
    # a roots export fed back through --seeds reproduces itself byte for byte: the README
    # model, one with anti-resonances, one at an exact BIC e_d and one 1e-9 from a BIC,
    # whose pair shares one z and is told apart by w
    roots, again = tmp_path / "roots.json", tmp_path / "again.json"
    argv = ["roots", "--chain", "semi", *model, "--format", "json"]
    assert run([*argv, "--out", str(roots)]) == 0
    assert run([*argv, "--seeds", str(roots), "--out", str(again)]) == 0
    assert again.read_bytes() == roots.read_bytes()


def test_model_json_descriptor(tmp_path, capsys):
    descriptor = tmp_path / "model.json"
    descriptor.write_text(
        json.dumps({"variant": "semi-infinite", "n_d": 4, "e_d": -0.5, "g": 0.2})
    )
    rc = run(["bic", "--model", str(descriptor)])
    assert rc == 0
    vals = [float(x) for x in capsys.readouterr().out.strip().splitlines()[1:]]
    assert vals == pytest.approx([-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)], abs=1e-14)


def test_spectrum_csv_schema_and_lines(tmp_path):
    out = tmp_path / "spectrum.csv"
    rc = run(
        [
            "spectrum", "--chain", "infinite", "--g", "0.2", "--ed", "-0.6",
            "--points", "101", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 101
    assert list(rows[0].keys()) == [
        "Omega", "total", "f_i", "fS_i", "fA_i", "continuum_residual",
    ]
    lines = read_csv(tmp_path / "spectrum.csv.lines.csv")
    assert len(lines) == 2  # the two persistent bound states
    assert all(float(l["weight"]) > 0 for l in lines)


def test_spectrum_peak_shifts_right(tmp_path):
    peaks = []
    for i, ed in enumerate(("-0.9", "-0.6", "-0.3", "0")):
        out = tmp_path / f"s{i}.csv"
        rc = run(
            [
                "spectrum", "--chain", "infinite", "--g", "0.2", "--ed", ed,
                "--points", "801", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out)
        best = max(rows, key=lambda r: float(r["total"]))
        peaks.append(float(best["Omega"]))
    assert peaks == sorted(peaks)
    assert len(set(peaks)) == len(peaks)


def test_spectrum_photon_axis_shift(tmp_path):
    base, shifted = tmp_path / "a.csv", tmp_path / "b.csv"
    common = ["spectrum", "--chain", "infinite", "--g", "0.2", "--ed", "-0.6", "--points", "11"]
    assert run(common + ["--out", str(base)]) == 0
    assert run(common + ["--ec", "0.25", "--photon-axis", "--out", str(shifted)]) == 0
    a = read_csv(base)
    b = read_csv(shifted)
    assert float(b[0]["omega"]) == pytest.approx(float(a[0]["Omega"]) - 0.25)
    assert float(b[0]["total"]) == pytest.approx(float(a[0]["total"]))


def test_trajectory_csv(tmp_path):
    out = tmp_path / "traj.csv"
    rc = run(
        [
            "trajectory", "--chain", "semi", "--nd", "4", "--g", "0.16", "--ed", "-0.5",
            "--start", "-0.95", "--stop", "-0.25", "--steps", "36", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out)
    assert {r["branch"] for r in rows} == {"i", "ii", "iii"}
    assert len(rows) == 3 * 36
    assert all(float(r["im_z"]) <= 1e-12 for r in rows)


def test_ep_record(tmp_path):
    out = tmp_path / "ep.csv"
    rc = run(
        [
            "ep", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
            "--g-range", "0.1", "0.25", "--ed-range", "-0.8", "0", "--out", str(out),
        ]
    )
    assert rc == 0
    (row,) = read_csv(out)
    assert float(row["g"]) == pytest.approx(0.1728448, abs=1e-7)
    assert float(row["ed"]) == pytest.approx(-0.3981970, abs=1e-7)
    assert float(row["res_eta"]) < 1e-10
    assert float(row["res_etaprime"]) < 1e-10


def test_ep_at_small_v(tmp_path):
    # the scan and find_ep at v = 1e-5 give the one EP of the v = 1 model, at the same g v
    out = tmp_path / "ep.csv"
    rc = run(["ep", "--chain", "semi", "--nd", "4", "--ed", "-0.5", "--g", "20000", "--v", "1e-5",
              "--g-range", "10000", "25000", "--ed-range", "-0.8", "0", "--out", str(out)])
    assert rc == 0
    (row,) = read_csv(out)
    assert float(row["g"]) * 1e-5 == pytest.approx(0.1728447982297487, rel=1e-13)
    assert float(row["res_eta"]) < 1e-14 and float(row["res_etaprime"]) < 1e-14


def test_selfenergy_probe(capsys):
    rc = run(
        [
            "selfenergy", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
            "--re", "2", "--sheet", "1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert float(row["re_sigma"]) == pytest.approx(0.5773349280016151, rel=1e-14)
    assert float(row["im_sigma"]) == 0.0


def test_exit_code_validation_error(capsys):
    rc = run(["roots", "--chain", "semi", "--nd", "0", "--g", "0.2", "--ed", "-0.5"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_usage_error():
    assert run(["roots", "--chain", "semi", "--no-such-flag"]) == 2


def test_exit_code_numerical_failure(capsys):
    # a grid point exactly on a band edge is a numerical refusal, not usage
    rc = run(
        [
            "spectrum", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
            "--omega-min", "-1", "--omega-max", "1", "--points", "5",
        ]
    )
    assert rc == 3
    assert "failure" in capsys.readouterr().err


def test_roots_at_a_loose_root_tol_get_their_norms(capsys):
    # the looser --root-tol passes a bound state 1.4e-6 above the band edge, and its
    # norm is read off w, so the command writes all 4 states; the default still fails
    model = ["roots", "--chain", "infinite", "--ed", "-0.5", "--g", "0.05"]
    assert run([*model, "--root-tol", "1e-9"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 4
    assert run(model) == 3
    assert "z = 1.0000013888853525+0j" in capsys.readouterr().err


def test_bic_on_infinite_is_validation_error(capsys):
    rc = run(["bic", "--chain", "infinite", "--g", "0.2", "--ed", "-0.5"])
    assert rc == 2


def test_missing_model_args(capsys):
    assert run(["roots", "--chain", "semi"]) == 2


@pytest.mark.parametrize(
    "start, stop", [("0.5", "-0.5"), ("0.5", "0.5")], ids=["reversed", "empty"]
)
def test_trajectory_sweep_not_increasing_is_usage_error(capsys, start, stop):
    rc = run(["trajectory", "--chain", "semi", "--nd", "4", "--g", "0.16", "--ed", "-0.5",
              "--start", start, "--stop", stop])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: parameter values must be strictly increasing")


_G2V2, _V2 = "g^2 v^2 must be a finite normal double", "4 v^2 must be finite"
_OUT_OF_RANGE = [
    (["roots", "--ed", "0.3", "--g", "1e200"], _G2V2),
    (["roots", "--ed", "0.3", "--g", "0.2", "--v", "1e200"], _G2V2),
    (["roots", "--ed", "0.3", "--g", "1e-200"], _G2V2),
    (["roots", "--ed", "0", "--g", "0.2", "--v", "1e-300"], _G2V2),
    (["roots", "--ed", "0.3", "--g", "1e-100", "--v", "1e160"], _G2V2),  # v^2 overflows
    (["roots", "--ed", "0.3", "--g", "1e155", "--v", "1e-155"], _G2V2),  # g^2 overflows
    (["trajectory", "--ed", "0.3", "--g", "0.2", "--parameter", "g",
      "--start", "1e-200", "--stop", "0.3"], _G2V2),
    # v^2 overflows where g = 0
    (["trajectory", "--ed", "0.3", "--g", "0", "--v", "1e200",
      "--start", "0.1", "--stop", "0.2", "--steps", "3"], _V2),
    (["selfenergy", "--ed", "0.3", "--g", "0", "--v", "1e200", "--re", "0.3"], _V2),
    # the EP scan's far grid corner
    (["ep", "--ed", "0.3", "--g", "0.2", "--g-range", "0", "1e200", "--ed-range", "-0.8", "0"], _G2V2),
]


@pytest.mark.parametrize(
    "argv, error", _OUT_OF_RANGE, ids=[f"argv{i}" for i in range(len(_OUT_OF_RANGE))]
)
def test_coupling_outside_the_double_range_is_usage_error(capsys, argv, error):
    # past the double range the coupling overflows, or underflows and the census comes back short
    rc = run([argv[0], "--chain", "semi", "--nd", "4", *argv[1:]])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")


def test_companion_matrix_not_finite_is_numerical_failure(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        rc = run(["roots", "--chain", "semi", "--nd", "4", "--ed", "1e300", "--g", "1e-5"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "companion matrix" in err and "e_d = 1e+300, g = 1e-05" in err


_EXTREME_SWEEPS = {
    # the roots' z overflow the gate's self-energy
    "e_d=1e300": ["--nd", "4", "--g", "0.2", "--start", "-1e300", "--stop", "1e300"],
    # the rates overflow in the links
    "n_d=64:e_d=1e100": ["--nd", "64", "--g", "0.2", "--start", "-1e100", "--stop", "1e100"],
    # the leading coefficients of p reach 4e300: a product of two overflows
    "g=1e150": ["--nd", "4", "--g", "0.2", "--parameter", "g", "--start", "0.01", "--stop", "1e150"],
    # |lead| = 4 g^2 v^2 is 4e-200 at every value: a product of two underflows to 0,
    # but an e_d sweep cannot move it through zero
    "g=1e-100": ["--nd", "4", "--g", "1e-100", "--start", "-0.9", "--stop", "0.9", "--steps", "5"],
}


@pytest.mark.parametrize("argv", _EXTREME_SWEEPS.values(), ids=_EXTREME_SWEEPS)
def test_extreme_sweep_fails_the_gate_without_warnings(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(["trajectory", "--chain", "semi", "--ed", "-0.5", "--steps", "3", *argv])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: branch i at ")


_FAILED_SWEEPS = {
    # a valid model whose p(w) spans more than the double range at the middle value
    "e_d=1e308": (["--nd", "4", "--g", "0.2", "--ed", "-0.5", "--start", "0.1", "--stop", "1e308",
                   "--steps", "3"],
                  "the companion matrix of p(w) is not finite at e_d = 5e+307, g = 0.2: "
                  "its coefficients span more than the double range"),
    # n_d = 1 from a resonant start: past its real-axis EP the branch's root escapes to w = infinity
    "n_d=1:w=infinity": (["--nd", "1", "--v", "1.3", "--g", "0.2", "--ed", "-0.5", "--parameter", "g",
                          "--start", "0.15", "--stop", "0.4", "--steps", "126"],
                         "a root of p(w) passes w = infinity for g in [0.384, 0.386]"),
}


@pytest.mark.parametrize("argv, cause", _FAILED_SWEEPS.values(), ids=_FAILED_SWEEPS)
def test_sweep_that_cannot_be_solved_is_numerical_failure(capsys, argv, cause):
    assert run(["trajectory", "--chain", "semi", *argv]) == 3
    assert capsys.readouterr() == ("", f"numerical failure: {cause}\n")


def test_selfenergy_that_is_not_finite_is_numerical_failure(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(["selfenergy", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
                  "--re", "1e300", "--im", "1e300"])
    assert rc == 3
    assert capsys.readouterr() == (
        "", "numerical failure: the self-energy at z = (1e+300+1e+300j) on sheet 1 is not finite\n"
    )


@pytest.mark.parametrize("text", ["5", "null", '[{"a": 1}]'])
def test_model_file_that_is_not_an_object_is_usage_error(tmp_path, capsys, text):
    descriptor = tmp_path / "model.json"
    descriptor.write_text(text)
    assert run(["roots", "--model", str(descriptor)]) == 2
    assert capsys.readouterr().err.startswith("error: a model descriptor must be a JSON object")


def test_float_formatting_17_digits(tmp_path):
    out = tmp_path / "r.csv"
    assert run(
        ["roots", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
         "--out", str(out)]
    ) == 0
    text = out.read_text()
    # round-trip: every float parses back to the identical double
    for row in read_csv(out):
        z = float(row["re_z"])
        assert f"{z:.17g}" == row["re_z"]


@pytest.mark.parametrize(
    "records",
    [
        [1.0],  # not an object
        [{"re_z": "a", "im_z": 0.0}],  # non-numeric coordinate
        [{"re_z": -0.4, "im_z": -0.1, "sheet": "x"}],  # no such sheet
        [{"re_z": 0.5, "im_z": False, "sheet": True}],  # booleans are not numbers
        [{"re_z": True, "im_z": -0.1}],
        [{"re_z": -0.4, "im_z": -0.1, "sheet": False}],
        [{"re_z": math.nan, "im_z": -0.1}],  # not a number, though JSON reads it
        [{"re_z": -0.4, "im_z": -math.inf}],
        [{"re_z": -0.4, "im_z": -0.1, "re_w": -1.2}],  # re_w without im_w
        [{"re_z": -0.4, "im_z": -0.1, "re_w": -1.2, "im_w": True}],
        [{"re_z": -0.4, "im_z": -0.1, "re_w": math.nan, "im_w": 0.3}],
    ],
)
def test_malformed_seed_record_is_usage_error(tmp_path, capsys, records):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps(records))
    rc = run(["roots", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
              "--seeds", str(seeds)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed record 0 ")
    assert json.dumps(records[0]) in err


NEAR_BIC_MODELS = [
    (n_d, e + offset)
    for n_d in (3, 5, 8, 12, 16)
    for e in bic_energies(ChainModel.semi_infinite(n_d, 0.0, 0.2))
    for offset in (-1e-9, 1e-9)
]


@pytest.mark.parametrize("n_d, e_d", NEAR_BIC_MODELS)
def test_near_bic_roots_round_trip_through_seeds(tmp_path, n_d, e_d):
    # the width of the pair nearest the BIC rounds away in z, so both members
    # export one real z; their re_w and im_w tell them apart
    roots, again = tmp_path / "roots.json", tmp_path / "again.json"
    argv = ["roots", "--chain", "semi", "--nd", str(n_d), "--g", "0.2", f"--ed={e_d!r}",
            "--antiresonances", "--format", "json"]
    assert run(argv + ["--out", str(roots)]) == 0
    assert run(argv + ["--seeds", str(roots), "--out", str(again)]) == 0
    assert again.read_bytes() == roots.read_bytes()


def test_near_bic_models_export_pairs_with_one_z():
    # guards the round trip above: most of its models have such a pair
    shared = 0
    for n_d, e_d in NEAR_BIC_MODELS:
        states = discrete_states(ChainModel.semi_infinite(n_d, e_d, 0.2), include_antiresonances=True)
        shared += len({s.z for s in states}) < len(states)
    assert len(NEAR_BIC_MODELS) == 78 and shared >= 60


def test_seeds_file_that_is_not_a_list_is_usage_error(tmp_path, capsys):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"re_z": -0.4, "im_z": -0.1}))
    assert run(["roots", *SEMI, "--seeds", str(seeds)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: seeds file {seeds} must hold a JSON list of roots records\n"


def test_seed_at_branch_point_is_numerical_failure(tmp_path, capsys):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps([{"re_z": 1.0, "im_z": 0.0, "sheet": 2}]))
    rc = run(["roots", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
              "--seeds", str(seeds)])
    assert rc == 3
    assert capsys.readouterr().err == "numerical failure: z = (1+0j) is a branch point\n"


def test_seeds_of_another_model_are_refused(tmp_path, capsys):
    # the e_d = -0.5 export fed to the e_d = 0.5 model: two of its seeds pick
    # one state, where the states would come back as a shorter list
    seeds = tmp_path / "seeds.json"
    assert run(["roots", *SEMI, "--format", "json", "--out", str(seeds)]) == 0
    rc = run(["roots", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "0.5",
              "--seeds", str(seeds)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: seeds ")


def test_two_seeds_near_one_state_are_refused(tmp_path, capsys):
    (ii,) = [s for s in discrete_states(ChainModel.semi_infinite(4, -0.5, 0.2)) if s.label == "ii"]
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps([
        {"re_z": ii.z.real, "im_z": ii.z.imag, "sheet": 2},
        {"re_z": ii.z.real + 1e-3, "im_z": ii.z.imag - 1e-3, "sheet": 2},
    ]))
    assert run(["roots", *SEMI, "--seeds", str(seeds)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: seeds 0 and 1 ")
    assert f"both pick state ii (z = {ii.z})" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["spectrum", "--chain", "infinite", "--g", "0.2", "--ed", "-0.6", "--points", "-1"],
         "--points"),
        (["spectrum", "--chain", "infinite", "--g", "0.2", "--ed", "-0.6", "--points", "0"],
         "--points"),
        (["trajectory", "--chain", "semi", "--nd", "4", "--g", "0.16", "--ed", "-0.5",
          "--start", "-0.9", "--stop", "-0.3", "--steps", "1"], "--steps"),
    ],
)
def test_bad_count_is_usage_error(capsys, argv, option):
    assert run(argv) == 2
    assert f"argument {option}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, named",
    [(["--chain", "semi"], "--chain"), (["--nd", "4"], "--nd"), (["--ed", "-0.5"], "--ed"),
     (["--g", "0.3"], "--g"), (["--v", "1"], "--v"), (["--weight", "1"], "--weight"),
     (["--ec", "0"], "--ec"), (["--g", "0.3", "--nd", "2"], "--nd --g")],
    ids=["--chain", "--nd", "--ed", "--g", "--v", "--weight", "--ec", "--g--nd"],
)
def test_model_file_with_an_inline_model_option_is_usage_error(tmp_path, capsys, options, named):
    # the file is the whole model: an option beside it is refused, not silently outvoted
    descriptor = tmp_path / "model.json"
    descriptor.write_text(json.dumps(ChainModel.semi_infinite(4, -0.5, 0.2).to_dict()))
    assert run(["roots", "--model", str(descriptor), *options]) == 2
    assert capsys.readouterr() == ("", f"error: --model takes no inline model option, got {named}\n")


ROOTS = ["roots", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5"]


def last_option(argv):
    """The last option of argv and its value, given as --opt VALUE or --opt=VALUE."""
    return argv[-1].split("=", 1) if argv[-1].startswith("--") else argv[-2:]


EP_BOX = ["ep", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
          "--g-range", "0.1", "0.25", "--ed-range", "-0.8", "0"]
PROBE = ["selfenergy", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5"]
SWEEP = ["trajectory", "--chain", "semi", "--nd", "4", "--g", "0.16", "--ed", "-0.5"]
SPECTRUM = ["spectrum", "--chain", "infinite", "--g", "0.2", "--ed", "-0.6", "--points", "5"]


@pytest.mark.parametrize(
    "argv",
    [ROOTS + ["--root-tol", x] for x in ("nan", "0", "-1", "inf")]
    + [EP_BOX + ["--ep-tol", x] for x in ("nan", "0", "-1", "inf")]
    + [PROBE + ["--re", "nan"], PROBE + ["--re", "inf"], PROBE + ["--re", "0.3", "--im", "nan"]]
    + [SPECTRUM + ["--omega-max", "inf"], SPECTRUM + ["--omega-min", "nan"]]
    + [SWEEP + ["--stop", "0.5", "--start", "nan"], SWEEP + ["--start", "0.1", "--stop", "inf"],
       SWEEP + ["--stop", "0.2", "--start=-inf"]],
    ids=lambda argv: " ".join([argv[0], *last_option(argv)]),
)
def test_bad_number_is_usage_error(capsys, argv):
    # a tolerance must be positive and finite, and a coordinate finite: not an EP list
    # emptied by a nan tolerance, a failed |eta| gate, or a row of nan
    assert run(argv) == 2
    assert f"argument {last_option(argv)[0]}: need a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, options",
    [(SPECTRUM + ["--omega-min=-1e308", "--omega-max", "1e308"], ("--omega-min", "--omega-max")),
     (SWEEP + ["--start=-1e308", "--stop", "1e308"], ("--start", "--stop"))],
    ids=["spectrum", "trajectory"],
)
def test_range_whose_span_overflows_is_usage_error(capsys, argv, options):
    # each end is finite, but stop - start is not: refused before np.linspace overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(argv)
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"error: {options[0]} -1e+308 to {options[1]} 1e+308 spans more than the double range\n"
    )


@pytest.mark.parametrize(
    "argv",
    [ROOTS,
     ["spectrum", "--chain", "infinite", "--g", "0.2", "--ed", "-0.6", "--points", "5",
      "--photon-axis", "--format", "json"]],
    ids=["roots", "spectrum"],
)
def test_model_defaults_are_chain_models(capsys, argv):
    # --v, --weight and --ec left out take ChainModel's defaults, so giving those
    # values changes no byte of the output
    args = build_parser().parse_args(argv)
    assert (args.v, args.weight, args.ec) == (None, None, None)
    assert model_from_args(args) == ChainModel(
        "semi-infinite" if args.chain == "semi" else "infinite", args.ed, args.g, n_d=args.nd
    )
    outputs = []
    for extra in ([], ["--v", "1", "--weight", "1", "--ec", "0"]):
        assert run([*argv, *extra]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_spectrum_on_stdout_names_the_lines_it_leaves_out(tmp_path, capsys):
    # stdout holds the curve alone, byte for byte the --out file; one stderr line
    # says how many discrete lines that leaves out, here the bound state that
    # carries most of the weight
    model = ["spectrum", "--chain", "semi", "--nd", "4", "--g", "0.2", "--points", "3"]
    out = tmp_path / "spectrum.csv"
    assert run([*model, "--ed", "-1.6"]) == 0
    stdout = capsys.readouterr()
    assert run([*model, "--ed", "-1.6", "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    note = "note: 1 discrete line(s) not written; --lines-out FILE writes them\n"
    assert stdout == (out.read_text(), note)
    lines = (tmp_path / "spectrum.csv.lines.csv").read_text()
    assert lines == "energy,weight\n-1.631037491431611,0.97044579540741716\n"
    assert run([*model, "--ed", "-1.6", "--lines-out", str(tmp_path / "lines.csv")]) == 0
    assert capsys.readouterr() == (out.read_text(), "")
    # a spectrum without discrete lines leaves nothing out
    assert run([*model, "--ed", "-0.5"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, named",
    [
        (["roots", "--model", "DIR"], "DIR"),
        (["roots", "--model", "LATIN1"], "LATIN1"),
        ([*ROOTS, "--seeds", "DIR"], "DIR"),
        ([*ROOTS, "--seeds", "LATIN1"], "LATIN1"),
        ([*ROOTS, "--out", "DIR"], "DIR"),
        ([*SPECTRUM, "--out", "CSV", "--lines-out", "DIR"], "DIR"),
        (["roots", "--model", "TRUNC"], "TRUNC"),
        ([*ROOTS, "--seeds", "TRUNC"], "TRUNC"),
    ],
    ids=["model-dir", "model-latin1", "seeds-dir", "seeds-latin1", "out-dir", "lines-out-dir",
         "model-not-json", "seeds-not-json"],
)
def test_file_that_cannot_be_read_or_written_is_usage_error(tmp_path, capsys, argv, named):
    # a directory, a file that is not UTF-8 or one that is not JSON is refused as a missing
    # file is: exit 2, with an error line that names the path
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"variant": "semi_infinite", "n_d": 4, "e_d": -0.5, "g": 0.2, "note": "caf\xe9"}')
    trunc = tmp_path / "trunc.json"
    trunc.write_text('{"variant": ')
    paths = {"DIR": str(tmp_path), "LATIN1": str(latin1), "TRUNC": str(trunc),
             "CSV": str(tmp_path / "spectrum.csv")}
    assert run([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and paths[named] in err and err.count("\n") == 1


@pytest.mark.parametrize("out, lines", [("NEW", "DIR"), ("DIR", "NEW"), ("OLD", "DIR"), ("DIR", "OLD")])
def test_spectrum_refused_for_one_path_writes_neither(tmp_path, capsys, out, lines):
    # both paths are opened before either is written: a directory at one leaves no new
    # file at the other, and a file that was there keeps its bytes
    old = tmp_path / "old.csv"
    old.write_text("old\n")
    paths = {"DIR": str(tmp_path), "NEW": str(tmp_path / "new.csv"), "OLD": str(old)}
    assert run([*SPECTRUM, "--out", paths[out], "--lines-out", paths[lines]]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv"]
    assert old.read_text() == "old\n"


@pytest.mark.parametrize(
    "paths, error",
    [(["--out", "a.csv", "--lines-out", "a.csv"],
      "--lines-out a.csv is the --out file a.csv, so the lines would overwrite the curve"),
     (["--out", "a.csv", "--lines-out", "./a.csv"],
      "--lines-out ./a.csv is the --out file a.csv, so the lines would overwrite the curve"),
     (["--format", "json", "--out", "a.json", "--lines-out", "a.csv"],
      "--lines-out takes no --format json, whose output holds the lines itself")],
    ids=["same-path", "same-file", "json"],
)
def test_spectrum_lines_out_that_would_lose_output_is_usage_error(tmp_path, monkeypatch, capsys,
                                                                   paths, error):
    # the lines written over the curve, or a side file that JSON output never writes:
    # refused, and neither path is written
    monkeypatch.chdir(tmp_path)
    assert run([*SPECTRUM, *paths]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == []


def test_closed_stdout_is_not_a_usage_error(monkeypatch):
    # a reader that closes the pipe early gets the BrokenPipeError, not an exit 2
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(BrokenPipeError):
        run(ROOTS)


def test_spectrum_far_outside_the_band_is_zero_without_warnings(capsys):
    # (Omega - eps)^2 overflows at Omega = +-1e200, where every component is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(["spectrum", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
                  "--points", "3", "--omega-min=-1e200", "--omega-max", "1e200"])
    assert rc == 0
    header, *rows = csv.reader(capsys.readouterr().out.splitlines())
    assert len(header) == 12 and len(rows) == 3
    for row in (rows[0], rows[2]):
        assert [float(x) for x in row[1:]] == [0.0] * 11


@pytest.mark.parametrize("option", [["--grid", "16", "16"], ["--threshold", "0.2"]],
                         ids=["--grid", "--threshold"])
def test_retired_ep_options_are_usage_errors(capsys, option):
    # the scan filters the EP census by the box: no grid, no threshold
    argv = ["ep", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
            "--g-range", "0.1", "0.25", "--ed-range", "-0.8", "0", *option]
    assert run(argv) == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


_EP = ["ep", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5"]
_EXPONENT_FORMS = {
    "--ed": ["roots", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-1e-09"],
    "--g-range:lo": [*_EP, "--g-range", "-1e-09", "0.25", "--ed-range", "-0.8", "0"],
    "--g-range:hi": [*_EP, "--g-range", "0.1", "-1e-09", "--ed-range", "-0.8", "0"],
    "--ed-range:lo": [*_EP, "--g-range", "0.1", "0.25", "--ed-range", "-1e-09", "0"],
    "--ed-range:hi": [*_EP, "--g-range", "0.1", "0.25", "--ed-range", "-0.8", "-1e-09"],
    "--start": ["trajectory", "--chain", "semi", "--nd", "4", "--g", "0.16", "--ed", "-0.5",
                "--start", "-1e-09", "--stop", "0.5", "--steps", "5"],
    "--stop": ["trajectory", "--chain", "semi", "--nd", "4", "--g", "0.16", "--ed", "-0.5",
               "--start", "-0.5", "--stop", "-1e-09", "--steps", "5"],
    "--re": ["selfenergy", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
             "--re", "-1e-09", "--im", "0.1", "--sheet", "2"],
    "--im": ["selfenergy", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
             "--re", "0.3", "--im", "-1e-09", "--sheet", "2"],
}


@pytest.mark.parametrize("argv", _EXPONENT_FORMS.values(), ids=_EXPONENT_FORMS)
def test_negative_exponent_values_parse_as_numbers(capsys, argv):
    # the CSV output writes -1e-09 so: each float option takes it as written, as it
    # takes --opt=-1e-09 (or, for the two-valued ranges, -0.000000001)
    i = argv.index("-1e-09")
    if argv[i - 1] in ("--ed", "--start", "--stop", "--re", "--im"):
        joined = argv[: i - 1] + [f"{argv[i - 1]}=-1e-09"] + argv[i + 1 :]
    else:
        joined = argv[:i] + ["-0.000000001"] + argv[i + 1 :]
    outputs = []
    for args in (argv, joined):
        rc = run(args)
        outputs.append((rc, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] in (0, 2) and "argument" not in outputs[0][2]


@pytest.mark.parametrize(
    "ranges, option",
    [(["--g-range", "0.25", "0.1", "--ed-range", "-0.8", "0"], "g_range (0.25, 0.1)"),
     (["--g-range", "0.1", "0.25", "--ed-range", "0", "-0.8"], "ed_range (0, -0.8)")],
    ids=["--g-range", "--ed-range"],
)
def test_reversed_ep_box_is_usage_error(capsys, ranges, option):
    # as a reversed trajectory sweep is, not a header with no rows
    assert run([*_EP, *ranges]) == 2
    assert capsys.readouterr() == ("", f"error: {option} is reversed: its low end is above its high end\n")


def test_ep_box_of_equal_g_ends_is_usage_error(capsys):
    # as equal trajectory and spectrum ends are, not a header with no rows, even at the
    # README EP's own g; equal --ed-range ends stay valid, and at the EP's own e_d they
    # keep its row
    box = [*_EP, "--g-range", "0.1", "0.25"]
    assert run([*box, "--ed-range", "-0.8", "0"]) == 0
    readme = capsys.readouterr().out
    g, e_d = readme.splitlines()[1].split(",")[:2]
    assert run([*_EP, "--g-range", g, g, "--ed-range", "-0.8", "0"]) == 2
    assert capsys.readouterr() == (
        "", "error: g_range (0.172845, 0.172845) has equal ends\n")
    assert run([*box, "--ed-range", e_d, e_d]) == 0
    assert capsys.readouterr().out == readme


def test_reversed_spectrum_range_is_usage_error(capsys):
    # as a reversed ep box is, not rows in descending Omega
    assert run([*SPECTRUM, "--omega-min", "0.5", "--omega-max", "-0.5"]) == 2
    assert capsys.readouterr() == ("", "error: --omega-min 0.5 is above --omega-max -0.5\n")


def test_spectrum_range_of_one_point_takes_one_point(capsys):
    # as a trajectory from --start to an equal --stop is refused, not rows repeating one Omega
    one = [*SPECTRUM, "--omega-min", "0.3", "--omega-max", "0.3"]
    assert run([*one, "--points", "3"]) == 2
    assert capsys.readouterr() == (
        "", "error: --omega-min 0.3 equals --omega-max 0.3, so --points 3 would repeat one Omega\n")
    assert run([*one, "--points", "1", "--format", "json"]) == 0
    assert [row[0] for row in json.loads(capsys.readouterr().out)["rows"]] == [0.3]


# ---------------------------------------------------------------- output bytes
# Reference text built from the library results cell by cell: a float gets
# f"{x:.17g}" in CSV, every other cell str(); JSON is json.dumps of one
# mapping per row (or the spectrum wrapper) with indent=2 and sorted keys.
# Both write a float zero as 0, whatever its sign.

SEMI = ["--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5"]
INFINITE = ["--chain", "infinite", "--g", "0.2", "--ed", "-0.6"]


def unsigned_zeros(cell):
    """The cell, or every float inside it, with -0.0 as 0.0."""
    if isinstance(cell, float):
        return 0.0 if cell == 0 else cell
    if isinstance(cell, dict):
        return {k: unsigned_zeros(v) for k, v in cell.items()}
    if isinstance(cell, list):
        return [unsigned_zeros(v) for v in cell]
    return cell


def cell_csv(header, rows):
    return "".join(
        ",".join(f"{unsigned_zeros(c):.17g}" if isinstance(c, float) else str(c) for c in row)
        + "\n"
        for row in [header, *rows]
    )


def sorted_json(payload):
    return json.dumps(unsigned_zeros(payload), indent=2, sort_keys=True) + "\n"


def table(fmt, header, rows, json_only=None):
    if fmt == "csv":
        return cell_csv(header, rows)
    json_only = json_only or [{} for _ in rows]
    return sorted_json([{**dict(zip(header, r)), **x} for r, x in zip(rows, json_only)])


def roots_table(fmt, states):
    header = ["branch", "class", "re_z", "im_z", "re_norm", "im_norm", "residual"]
    rows = [
        [s.label, s.state_class.value, s.z.real, s.z.imag, s.norm.real, s.norm.imag, s.residual]
        for s in states
    ]
    json_only = [
        {"sheet": s.sheet.value, "near_degenerate": s.near_degenerate,
         "re_w": s.w.real, "im_w": s.w.imag}
        for s in states
    ]
    return table(fmt, header, rows, json_only)


def expect_roots(fmt, tmp_path):
    model = ChainModel.semi_infinite(4, -0.5, 0.2)
    return ["roots", *SEMI], roots_table(fmt, attach_norms(model, discrete_states(model)))


def expect_roots_seeds(fmt, tmp_path):
    model = ChainModel.semi_infinite(4, -0.5, 0.2)
    seeds = tmp_path / "seeds.json"
    assert run(["roots", *SEMI, "--format", "json", "--out", str(seeds)]) == 0
    records = json.loads(seeds.read_text())
    triples = [
        (complex(r["re_z"], r["im_z"]), Sheet(r["sheet"]), complex(r["re_w"], r["im_w"]))
        for r in records
    ]
    states = attach_norms(model, polish_seeds(model, triples))
    return ["roots", *SEMI, "--seeds", str(seeds)], roots_table(fmt, states)


def expect_bic(fmt, tmp_path):
    energies = bic_energies(ChainModel.semi_infinite(4, -0.5, 0.2))
    return ["bic", *SEMI], table(fmt, ["energy"], [[e] for e in energies])


def expect_spectrum(fmt, tmp_path, photon_axis=False):
    model = ChainModel.infinite(-0.6, 0.2, e_c=0.25)
    sg = decompose(model, np.linspace(-0.999, 0.999, 101))
    axis, shift = ("omega", 0.25) if photon_axis else ("Omega", 0.0)
    labels = [m.label for m in sg.per_state_meta]
    header = [axis, "total"]
    for lab in labels:
        header += [f"f_{lab}", f"fS_{lab}", f"fA_{lab}"]
    header.append("continuum_residual")
    rows = []
    for i, om in enumerate(sg.omega):
        row = [float(om - shift), float(sg.total[i])]
        for lab in labels:
            row += [float(sg.resonance_f[lab][i]), float(sg.resonance_fs[lab][i]),
                    float(sg.resonance_fa[lab][i])]
        rows.append(row + [float(sg.continuum_residual[i])])
    lines = [[e - shift, w] for e, w in sg.bound_lines]
    assert lines
    argv = ["spectrum", *INFINITE, "--ec", "0.25", "--points", "101"]
    argv += ["--photon-axis"] if photon_axis else []
    if fmt == "csv":
        return argv, cell_csv(header, rows), cell_csv(["energy", "weight"], lines)
    meta = [
        {"branch": m.label, "epsilon": m.epsilon, "gamma": m.gamma, "da": m.da, "q": m.q,
         "near_degenerate": m.near_degenerate}
        for m in sg.per_state_meta
    ]
    payload = {
        "axis": axis,
        "meta": meta,
        "lines": [{"energy": e, "weight": w} for e, w in lines],
        "columns": header,
        "rows": rows,
    }
    return argv, sorted_json(payload), None


def expect_spectrum_photon_axis(fmt, tmp_path):
    return expect_spectrum(fmt, tmp_path, photon_axis=True)


def expect_trajectory(fmt, tmp_path):
    model = ChainModel.semi_infinite(4, -0.5, 0.16)
    tr = trace(model, "e_d", np.linspace(-0.95, -0.25, 36))
    points = [(br, pt) for br in tr.branches for pt in br.points]
    rows = [[pt.value, br.label, pt.z.real, pt.z.imag] for br, pt in points]
    json_only = [
        {"bic": pt.bic, "collision": pt.collision, "crossed_axis": pt.crossed_axis}
        for _, pt in points
    ]
    argv = ["trajectory", "--chain", "semi", "--nd", "4", "--g", "0.16", "--ed", "-0.5",
            "--start", "-0.95", "--stop", "-0.25", "--steps", "36"]
    return argv, table(fmt, ["param", "branch", "re_z", "im_z"], rows, json_only)


def expect_ep(fmt, tmp_path, n_d=4, g_range=("0.1", "0.25"), ed_range=("-0.8", "0")):
    model = ChainModel.semi_infinite(n_d, -0.5, 0.2)
    # each EP as the scan polished it
    results = scan_for_ep_seeds(model, tuple(map(float, g_range)), tuple(map(float, ed_range)))
    assert results
    header = ["g", "ed", "re_z", "im_z", "res_eta", "res_etaprime"]
    rows = [
        [r.g, r.e_d, r.z.real, r.z.imag, r.residual_eta, r.residual_eta_prime] for r in results
    ]
    argv = ["ep", "--chain", "semi", "--nd", str(n_d), "--g", "0.2", "--ed", "-0.5",
            "--g-range", *g_range, "--ed-range", *ed_range]
    return argv, table(fmt, header, rows)


def expect_ep_wide(fmt, tmp_path):
    # both EPs of n_d = 4, mirror images in e_d
    return expect_ep(fmt, tmp_path, g_range=("0.01", "0.5"), ed_range=("-1.5", "1.5"))


def expect_ep_axis(fmt, tmp_path):
    # the one EP of n_d = 3 in this box, on the e_d = 0 line
    (ep,) = scan_for_ep_seeds(ChainModel.semi_infinite(3, -0.5, 0.2), (0.02, 0.5), (-0.95, 0.95))
    assert abs(ep.e_d) <= 1e-12
    return expect_ep(fmt, tmp_path, n_d=3, g_range=("0.02", "0.5"), ed_range=("-0.95", "0.95"))


def expect_selfenergy(fmt, tmp_path):
    model = ChainModel.semi_infinite(4, -0.5, 0.2)
    se = SheetedEnergy(complex(0.3, -0.2), Sheet.II)
    sig, d1, d2 = (self_energy(model, se), self_energy_deriv(model, se, 1),
                   self_energy_deriv(model, se, 2))
    header = ["re_z", "im_z", "sheet", "re_sigma", "im_sigma", "re_dsigma", "im_dsigma",
              "re_d2sigma", "im_d2sigma"]
    rows = [[0.3, -0.2, 2, sig.real, sig.imag, d1.real, d1.imag, d2.real, d2.imag]]
    argv = ["selfenergy", *SEMI, "--re", "0.3", "--im", "-0.2", "--sheet", "2"]
    return argv, table(fmt, header, rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "expect",
    [expect_roots, expect_roots_seeds, expect_bic, expect_spectrum, expect_spectrum_photon_axis,
     expect_trajectory, expect_ep, expect_ep_wide, expect_ep_axis, expect_selfenergy],
)
def test_output_bytes_match_cell_by_cell_formatting(tmp_path, fmt, expect):
    argv, text, *side = expect(fmt, tmp_path)
    out = tmp_path / f"out.{fmt}"
    assert run(argv + ["--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()
    lines = tmp_path / f"out.{fmt}.lines.csv"
    if side and side[0] is not None:
        assert lines.read_bytes() == side[0].encode()
    else:
        assert not lines.exists()


@pytest.mark.parametrize("sheet", ["1", "2"])
def test_negative_zero_is_written_as_zero(tmp_path, sheet):
    # Sigma'(0) = 0 exactly on the infinite chain; on sheet II its arithmetic
    # gives -0.0, as it does for Re Sigma(0)
    argv = ["selfenergy", "--chain", "infinite", "--ed", "-0.5", "--g", "0.2", "--re", "0",
            "--im", "0", "--sheet", sheet]
    out = tmp_path / "se.csv"
    assert run(argv + ["--out", str(out)]) == 0
    header, line = out.read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert (row["re_dsigma"], row["im_dsigma"]) == ("0", "0")
    assert "-0" not in row.values()
    assert run(argv + ["--format", "json", "--out", str(out)]) == 0
    assert "-0.0" not in out.read_text()


# Runs at the edges of the model space, as --out FILE: each output, and a CSV spectrum's
# FILE.lines.csv, holds no nan cell, and a JSON one is exactly json.dumps(indent=2,
# sort_keys=True).  The expected number of data rows, where it is fixed, or one data line
# the output must hold.
_EDGE_RUNS = {
    # a bound state 1.4e-6 above the band edge passes the census at 1e-9 and gets its norm from its w
    "roots:loose-root-tol": (["roots", "--chain", "infinite", "--ed", "-0.5", "--g", "0.05",
                              "--root-tol", "1e-9"], 4),
    # an in-band pair whose width rounds to 0 in z: one resonance, one anti-resonance
    "roots:narrow-pair": (["roots", "--chain", "semi", "--nd", "11", "--ed", "0.14237",
                           "--g", "4.5e-6"], 12),
    "roots:near-bic": (["roots", "--chain", "semi", "--nd", "3", "--g", "0.2", "--ed", "0.499999999",
                        "--antiresonances", "--format", "json"], None),
    # Omega = 0 is the exact BIC pole of n_d = 2 at e_d = 0: its weight is a line, and the curve
    # there is 0, not the 0/0 of the Green's function
    "spectrum:bic-pole": (["spectrum", "--chain", "semi", "--nd", "2", "--g", "0.2", "--ed", "0",
                           "--points", "3"], "0,0,0"),
    "spectrum:far": (["spectrum", *SEMI, "--omega-min=-1e200", "--omega-max", "1e200",
                      "--points", "3"], 3),
    "spectrum:bound": (["spectrum", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-1.6",
                        "--points", "3"], 3),
    # at bench size
    "spectrum:20001-json": (["spectrum", "--chain", "infinite", "--g", "0.2", "--ed", "-0.6",
                             "--points", "20001", "--format", "json"], 20001),
    "trajectory:readme": ([*SWEEP, "--start", "-0.999", "--stop", "0.999", "--steps", "401"], 3 * 401),
    "trajectory:readme-json": ([*SWEEP, "--start", "-0.999", "--stop", "0.999", "--steps", "401",
                                "--format", "json"], 3 * 401),
    # a branch that meets two real-axis EPs and must not jump to a distant root
    "trajectory:two-eps": (["trajectory", "--chain", "semi", "--nd", "2", "--v", "0.7", "--g", "0.1",
                            "--ed", "0.907", "--parameter", "g", "--start", "0.02", "--stop", "0.63",
                            "--steps", "201"], 201),
    # 1e-7 above a BIC e_d: branch (i) starts on the real axis, marked bic
    "trajectory:bic-start": (["trajectory", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "0",
                              "--start=-0.7071066811865476", "--stop=-0.7071064811865476",
                              "--steps", "5", "--format", "json"], None),
    # a trace starts from its own census: band-edge bound states no branch links to
    "trajectory:band-edge-start": (["trajectory", "--chain", "infinite", "--g", "0.2", "--ed", "0.05",
                                    "--parameter", "g", "--start", "0.02", "--stop", "0.4",
                                    "--steps", "201"], 201),
    # weak coupling at n_d = 24: the values between anchors start from their anchor's roots
    "trajectory:weak-n_d=24": (["trajectory", "--chain", "semi", "--nd", "24", "--ed", "0.3",
                                "--g", "0.2", "--parameter", "g", "--start", "1e-4", "--stop", "0.4",
                                "--steps", "301"], None),
    # the bench's heaviest trace shape: its warm starts divide by p'(w) at the anchor's roots
    "trajectory:n_d=12": (["trajectory", "--chain", "semi", "--nd", "12", "--g", "0.2", "--ed", "0",
                           "--start", "-0.999", "--stop", "0.999", "--steps", "401"], None),
    # 17 blocks of whole anchor intervals, each solved and linked on its own
    "trajectory:n_d=64": (["trajectory", "--chain", "semi", "--nd", "64", "--g", "0.2", "--ed", "0",
                           "--start", "-0.999", "--stop", "0.999", "--steps", "401"], None),
    # from g = 0 there is no resonance to follow: the header alone
    "trajectory:from-g=0": (["trajectory", *SEMI, "--parameter", "g", "--start", "0",
                             "--stop", "0.3", "--steps", "31"], 0),
    # at v = 1e-5 the one EP of the v = 1 model, at the same g v
    "ep:small-v": (["ep", "--chain", "semi", "--nd", "4", "--ed", "-0.5", "--g", "20000",
                    "--v", "1e-5", "--g-range", "10000", "25000", "--ed-range", "-0.8", "0"], 1),
    # every EP of a box, each once
    "ep:wide": ([*_EP, "--g-range", "0.01", "0.5", "--ed-range", "-1.5", "1.5"], 2),
    "ep:axis": (["ep", "--chain", "semi", "--nd", "3", "--g", "0.2", "--ed", "-0.5",
                 "--g-range", "0.02", "0.5", "--ed-range", "-0.95", "0.95"], 1),
}


def data_rows(text, fmt):
    """The data rows of a CSV or JSON output, as text lines or parsed rows."""
    if fmt == "csv":
        return text.splitlines()[1:]
    payload = json.loads(text)
    return payload["rows"] if isinstance(payload, dict) else payload


@pytest.mark.parametrize("name", _EDGE_RUNS)
def test_edge_run_writes_no_nan(tmp_path, name):
    argv, expect = _EDGE_RUNS[name]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 0
    text, fmt = out.read_text(), "json" if "json" in argv else "csv"
    lines = tmp_path / "out.lines.csv"
    for written in (text, lines.read_text() if lines.exists() else ""):
        # as a word: "resonance" in the class column is no nan
        assert not re.search(r"\bnan\b", written, re.IGNORECASE)
    if fmt == "json":
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    if isinstance(expect, int):
        assert len(data_rows(text, fmt)) == expect
    elif expect is not None:
        assert expect in data_rows(text, fmt)


# ------------------------------------------------------------ JSON writer
# The columnar writer against json.dumps(indent=2, sort_keys=True) on random
# records: float edge cases, ints, bools, null and strings that need escapes.

_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.225e-308, 1e300, -1e-300, math.inf, -math.inf, math.nan]
)
_TEXT = st.text(st.sampled_from('a%"\\/\n\té€😀') | st.characters(), max_size=6)
_CELLS = _FLOATS | st.integers() | st.booleans() | st.none() | _TEXT


@st.composite
def _records(draw):
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 30))
    record = {}
    for name in draw(st.lists(_TEXT, min_size=1, max_size=8, unique=True)):
        column = draw(st.lists(draw(st.sampled_from([_FLOATS, _CELLS])), min_size=n, max_size=n))
        floats = all(type(x) is float for x in column)
        record[name] = np.array(column) if floats and draw(st.booleans()) else column
    return record


def _rows(record):
    return [list(r) for r in zip(*(list(c) for c in record.values()))]


@given(_records())
def test_json_rows_match_json_dumps(record):
    objects = [dict(zip(record, row)) for row in _rows(record)]
    assert _json_rows(record) + "\n" == sorted_json(objects)


@given(_records(), _records(), _records(), _TEXT)
def test_json_spectrum_matches_json_dumps(record, meta, lines, axis):
    payload = {
        "axis": axis,
        "columns": list(record),
        "lines": [dict(zip(lines, row)) for row in _rows(lines)],
        "meta": [dict(zip(meta, row)) for row in _rows(meta)],
        "rows": _rows(record),
    }
    assert _json_spectrum(axis, record, meta, lines) == sorted_json(payload)


# ---------------------------------------------------------------- start-up
# A command imports only the layers it uses: fanochain.cli itself loads the
# model, self-energy and dispersion layers, and each command adds its own.

_CLI_LAYERS = {"fanochain.dispersion", "fanochain.errors", "fanochain.model", "fanochain.selfenergy"}
_COMMAND_LAYERS = {
    "roots": (ROOTS, {"fanochain.states"}),
    "bic": (["bic", *SEMI], set()),
    "selfenergy": ([*PROBE, "--re", "2"], set()),
    "spectrum": (SPECTRUM, {"fanochain.spectrum", "fanochain.states"}),
    "trajectory": ([*SWEEP, "--start", "-0.9", "--stop", "0.9", "--steps", "5"], {"fanochain.sweep"}),
    "ep": (EP_BOX, {"fanochain.sweep"}),
}
# python -m fanochain.cli ARGS, then the exit code and the fanochain modules loaded
_RUN_AS_MAIN = """
import json, runpy, sys
try:
    runpy.run_module("fanochain.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("fanochain."))]))
"""


def test_importing_the_cli_loads_no_command_layer(python_child):
    child = python_child("-c", "import json, sys, fanochain.cli; print(json.dumps(sorted(sys.modules)))")
    assert child.returncode == 0, child.stderr
    loaded = {m for m in json.loads(child.stdout) if m.startswith("fanochain.")}
    assert loaded == _CLI_LAYERS | {"fanochain.cli"}


@pytest.mark.parametrize("command", _COMMAND_LAYERS)
def test_a_command_loads_only_the_layers_it_uses(tmp_path, python_child, command):
    argv, layers = _COMMAND_LAYERS[command]
    child = python_child("-c", _RUN_AS_MAIN, *argv, "--out", str(tmp_path / "out"))
    assert child.returncode == 0, child.stderr
    code, loaded = json.loads(child.stdout)
    assert code == 0, child.stderr
    assert set(loaded) == _CLI_LAYERS | layers


@pytest.mark.parametrize(
    "argv, code",
    [(ROOTS, 0),
     ([*ROOTS, "--no-such-flag"], 2),
     (["roots", "--chain", "semi", "--nd", "0", "--g", "0.2", "--ed", "-0.5"], 2),
     (["spectrum", *SEMI, "--omega-min", "-1", "--omega-max", "1", "--points", "5"], 3)],
    ids=["success", "argparse", "model", "numerical"],
)
def test_main_keeps_the_exit_code_and_stdout_of_run(capsys, python_child, argv, code):
    # python -m fanochain.cli goes through main(), with stdout a pipe
    child = python_child("-m", "fanochain.cli", *argv)
    assert child.returncode == code
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert child.stdout == out.encode()
    # argparse wraps its usage text to the terminal's width: compare the error line only
    assert child.stderr.splitlines()[-1:] == err.encode().splitlines()[-1:]


# ------------------------------------------------------------------ SIMD builds
# An EP's Newton runs on Python complex numbers, not numpy's SIMD kernels: the ep CSVs are
# the same bytes with every SIMD target numpy dispatches to (AVX2, AVX-512, ...) disabled.

_SIMD_TARGETS_IN_USE = """
from numpy._core import _multiarray_umath as m
print(sorted(f for f in m.__cpu_dispatch__ if m.__cpu_features__[f]))
"""


def test_ep_bytes_do_not_depend_on_simd_kernels(capsys, python_child):
    if int(np.__version__.split(".")[0]) < 2:
        pytest.skip("the SIMD dispatch list is read from numpy._core, which needs numpy >= 2")
    from numpy._core import _multiarray_umath

    scalar = {"NPY_DISABLE_CPU_FEATURES": " ".join(_multiarray_umath.__cpu_dispatch__)}
    # the setting takes: numpy then reports none of those targets in use
    check = python_child("-c", _SIMD_TARGETS_IN_USE, env=scalar)
    assert (check.returncode, check.stdout) == (0, b"[]\n"), check.stderr
    # the README box, the wide box, and the from-zero box of n_d = 40, which holds all 38
    # of its EPs
    n_d40 = ["ep", "--chain", "semi", "--nd", "40", "--g", "0.2", "--ed", "-0.5"]
    for argv, rows in (([*_EP, "--g-range", "0.1", "0.25", "--ed-range", "-0.8", "0"], 1),
                       ([*_EP, "--g-range", "0.01", "0.5", "--ed-range", "-1.5", "1.5"], 2),
                       ([*n_d40, "--g-range", "0", "0.5", "--ed-range", "-1.5", "1.5"], 38)):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1 + rows
        child = python_child("-m", "fanochain.cli", *argv, env=scalar)
        assert child.returncode == 0, child.stderr
        assert child.stdout == out.encode()
