import csv
import json
import math

import numpy as np
import pytest

from fanochain import (
    ChainModel,
    FanochainError,
    Sheet,
    SheetedEnergy,
    attach_norms,
    bic_energies,
    decompose,
    discrete_states,
    find_ep,
    scan_for_ep_seeds,
    self_energy,
    self_energy_deriv,
    trace,
)
from fanochain.cli import run
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


def test_roots_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["roots", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_roots_json_round_trip(tmp_path):
    out = tmp_path / "roots.json"
    argv = [
        "roots", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
        "--format", "json", "--out", str(out),
    ]
    assert run(argv) == 0
    first = json.loads(out.read_text())
    again = tmp_path / "again.json"
    assert run(argv[:-1] + [str(again), "--seeds", str(out)]) == 0
    second = json.loads(again.read_text())
    assert len(first) == len(second)
    by_branch = {r["branch"]: r for r in second}
    for rec in first:
        twin = by_branch[rec["branch"]]
        assert abs(complex(rec["re_z"], rec["im_z"]) - complex(twin["re_z"], twin["im_z"])) < 1e-12


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
            "--g-range", "0.1", "0.25", "--ed-range", "-0.8", "0",
            "--grid", "10", "12", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out)
    assert rows
    assert float(rows[0]["g"]) == pytest.approx(0.1728, abs=1e-3)
    assert float(rows[0]["ed"]) == pytest.approx(-0.3981, abs=1e-3)
    assert float(rows[0]["res_eta"]) < 1e-10
    assert float(rows[0]["res_etaprime"]) < 1e-10


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


def test_bic_on_infinite_is_validation_error(capsys):
    rc = run(["bic", "--chain", "infinite", "--g", "0.2", "--ed", "-0.5"])
    assert rc == 2


def test_missing_model_args(capsys):
    assert run(["roots", "--chain", "semi"]) == 2


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


def test_seed_at_branch_point_is_numerical_failure(tmp_path, capsys):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps([{"re_z": 1.0, "im_z": 0.0, "sheet": 2}]))
    rc = run(["roots", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
              "--seeds", str(seeds)])
    assert rc == 3
    assert capsys.readouterr().err == "numerical failure: z = (1+0j) is a branch point\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["spectrum", "--chain", "infinite", "--g", "0.2", "--ed", "-0.6", "--points", "-1"],
         "--points"),
        (["ep", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
          "--g-range", "0.1", "0.25", "--ed-range", "-0.8", "0", "--grid", "0", "4"], "--grid"),
        (["trajectory", "--chain", "semi", "--nd", "4", "--g", "0.16", "--ed", "-0.5",
          "--start", "-0.9", "--stop", "-0.3", "--steps", "1"], "--steps"),
    ],
)
def test_bad_count_is_usage_error(capsys, argv, option):
    assert run(argv) == 2
    assert f"argument {option}" in capsys.readouterr().err


# ---------------------------------------------------------------- output bytes
# Reference text built from the library results cell by cell: a float gets
# f"{x:.17g}" in CSV, every other cell str(); JSON is json.dumps of one
# mapping per row (or the spectrum wrapper) with indent=2 and sorted keys.

SEMI = ["--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5"]
INFINITE = ["--chain", "infinite", "--g", "0.2", "--ed", "-0.6"]


def cell_csv(header, rows):
    return "".join(
        ",".join(f"{c:.17g}" if isinstance(c, float) else str(c) for c in row) + "\n"
        for row in [header, *rows]
    )


def sorted_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
    json_only = [{"sheet": s.sheet.value, "near_degenerate": s.near_degenerate} for s in states]
    return table(fmt, header, rows, json_only)


def expect_roots(fmt, tmp_path):
    model = ChainModel.semi_infinite(4, -0.5, 0.2)
    return ["roots", *SEMI], roots_table(fmt, attach_norms(model, discrete_states(model)))


def expect_roots_seeds(fmt, tmp_path):
    model = ChainModel.semi_infinite(4, -0.5, 0.2)
    seeds = tmp_path / "seeds.json"
    assert run(["roots", *SEMI, "--format", "json", "--out", str(seeds)]) == 0
    pairs = [
        (complex(r["re_z"], r["im_z"]), Sheet(r["sheet"])) for r in json.loads(seeds.read_text())
    ]
    states = attach_norms(model, polish_seeds(model, pairs))
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


def expect_ep(fmt, tmp_path):
    model = ChainModel.semi_infinite(4, -0.5, 0.2)
    results = []
    for seed in scan_for_ep_seeds(model, (0.1, 0.25), (-0.8, 0.0), n_g=10, n_ed=12):
        try:
            ep = find_ep(model, seed)
        except FanochainError:
            continue
        if not any(abs(ep.g - r.g) < 1e-6 and abs(ep.e_d - r.e_d) < 1e-6 for r in results):
            results.append(ep)
    assert results
    header = ["g", "ed", "re_z", "im_z", "res_eta", "res_etaprime"]
    rows = [
        [r.g, r.e_d, r.z.real, r.z.imag, r.residual_eta, r.residual_eta_prime] for r in results
    ]
    argv = ["ep", *SEMI, "--g-range", "0.1", "0.25", "--ed-range", "-0.8", "0", "--grid", "10", "12"]
    return argv, table(fmt, header, rows)


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
     expect_trajectory, expect_ep, expect_selfenergy],
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
