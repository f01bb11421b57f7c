"""Command-line front end emitting figure-ready CSV/JSON data.

Exit codes: 0 success, 2 usage/validation error, 3 numerical failure.
Each subcommand builds one columnar record, which one CSV writer (floats
with 17 significant digits) and one JSON writer (floats as Python's
shortest repr) turn into files that round-trip losslessly; identical
invocations produce byte-identical output.  The JSON text is exactly
json.dumps(..., indent=2, sort_keys=True) of one object per row, or of
the spectrum's wrapper object, but written a column at a time: each
column becomes cell text once, and one %-template per row lays the
cells out.  (json.dumps with an indent runs its pure-Python encoder
cell by cell, the slowest part of a 20001-point spectrum.)

A subcommand imports the sweep, spectrum and states layers only where it
uses them, so start-up pays for no layer the command does not run.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .dispersion import EP_TOL, ROOT_TOL, bic_energies, discrete_states, polish_seeds
from .errors import FanochainError, ModelError
from .model import INFINITE, SEMI_INFINITE, ChainModel, _read_json
from .selfenergy import Sheet, SheetedEnergy, self_energy, self_energy_deriv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _number(kind: type = float, above: float = -math.inf):
    """argparse type for a finite int or float greater than ``above``, so a count too
    small, a nan or infinite coordinate or a tolerance <= 0 is a usage error."""

    def number(text: str):
        x = kind(text)
        if not above < x < math.inf:
            bound = f" > {above:g}" if above > -math.inf else ""
            raise argparse.ArgumentTypeError(f"need a finite number{bound}, got {text}")
        return x

    return number


def _add_command(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A subcommand with the model and output arguments every command takes."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--model", help="JSON file with the model descriptor")
    p.add_argument("--chain", choices=["semi", "infinite"], help="chain variant")
    p.add_argument("--nd", type=int, help="impurity site index (semi-infinite)")
    p.add_argument("--ed", type=float, help="bare impurity level")
    p.add_argument("--g", type=float, help="coupling constant")
    p.add_argument("--v", type=float, help="potential amplitude")
    p.add_argument("--weight", type=float, help="transition weight mu^2 T_dc^2")
    p.add_argument("--ec", type=float, help="core level (axis shift only)")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    return p


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -1e-09 (the CSV output's form) as a number, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fanochain",
        description="Discrete resonance states and Fano absorption spectra of a "
        "two-level impurity in a tight-binding chain.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "roots", "discrete eigenvalues with norms")
    p.add_argument(
        "--root-tol", type=_number(float, 0), default=ROOT_TOL,
        help="bound on |eta(z)| at every root (default %(default)s); a root that misses it fails",
    )
    p.add_argument(
        "--seeds",
        help="JSON roots file: report the states nearest its (z, sheet) records, with their labels",
    )
    p.add_argument(
        "--antiresonances", action="store_true", help="include anti-resonance partners"
    )

    _add_command(sub, "bic", "bound-in-continuum energies")

    p = _add_command(sub, "spectrum", "absorption spectrum decomposition")
    p.add_argument("--points", type=_number(int, 0), default=2001)
    p.add_argument("--omega-min", type=_number(), default=-0.999)
    p.add_argument("--omega-max", type=_number(), default=0.999)
    p.add_argument(
        "--photon-axis",
        action="store_true",
        help="label the axis as omega = Omega - e_c instead of Omega",
    )
    p.add_argument(
        "--lines-out", help="side file for the discrete lines (default: <out>.lines.csv)"
    )

    p = _add_command(sub, "trajectory", "trace resonance branches over a parameter")
    p.add_argument("--parameter", choices=["ed", "g"], default="ed")
    p.add_argument("--start", type=_number(), required=True)
    p.add_argument("--stop", type=_number(), required=True)
    p.add_argument("--steps", type=_number(int, 1), default=201)

    p = _add_command(sub, "ep", "scan for and polish exceptional points")
    p.add_argument("--g-range", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--ed-range", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument(
        "--ep-tol", type=_number(float, 0), default=EP_TOL,
        help="bound on |eta| and |eta'| of an EP; only tightens, as every EP the scan returns is below "
             "%(default)s",
    )

    p = _add_command(sub, "selfenergy", "pointwise self-energy probe")
    p.add_argument("--re", type=_number(), required=True, help="Re z")
    p.add_argument("--im", type=_number(), default=0.0, help="Im z")
    p.add_argument("--sheet", type=int, choices=[1, 2], default=1)

    return parser


def model_from_args(args) -> ChainModel:
    """The model of the --model file (ChainModel.from_json), which takes no inline model
    option (a ModelError names those given), or of those options, with ChainModel's defaults."""
    given = [f"--{dest}" for dest in ("chain", "nd", "ed", "g", "v", "weight", "ec")
             if getattr(args, dest) is not None]
    if args.model and given:
        raise ModelError(f"--model takes no inline model option, got {' '.join(given)}")
    if args.model:
        return ChainModel.from_json(args.model)
    if args.chain is None or args.ed is None or args.g is None:
        raise ModelError("need --model or all of --chain/--ed/--g")
    optional = {"n_d": args.nd, "v": args.v, "transition_weight": args.weight, "e_c": args.ec}
    return ChainModel(SEMI_INFINITE if args.chain == "semi" else INFINITE, args.ed, args.g,
                      **{k: x for k, x in optional.items() if x is not None})


class _JsonOnly(list):
    """A record column that the JSON output carries and the CSV output leaves out."""


def _lists(record: dict) -> dict[str, list]:
    """The record as lists of Python scalars, with every -0.0 written as 0.0.

    The sign of a zero is an artefact of the arithmetic order, not a result,
    so neither writer prints it (x + 0.0 is 0.0 for both zeros).
    """
    return {k: _unsigned_zeros(c) for k, c in record.items()}


def _unsigned_zeros(column) -> list:
    if isinstance(column, np.ndarray):
        return (column + 0.0 if column.dtype.kind == "f" else column).tolist()
    return [x + 0.0 if isinstance(x, float) else x for x in column]


def _re_im(name: str, values) -> dict:
    """The columns re_<name> and im_<name> of complex values."""
    values = np.asarray(values, dtype=complex)
    return {f"re_{name}": values.real, f"im_{name}": values.imag}


def _csv(record: dict) -> str:
    """Header line, then one line per row: floats as %.17g, other cells as %s."""
    cols = _lists({k: c for k, c in record.items() if not isinstance(c, _JsonOnly)})
    line = ",".join("%.17g" if c and isinstance(c[0], float) else "%s" for c in cols.values())
    return ",".join(cols) + "\n" + "".join(line % row + "\n" for row in zip(*cols.values()))


def _write(*outputs: tuple[str | None, str]) -> None:
    """Write each (path, text), a None path to stdout.  Every path is first opened to
    append, which changes no file, and where one cannot be, the files that this made
    are removed: a command refused for one of its paths leaves no output behind."""
    made = []
    try:
        for path in filter(None, (path for path, _ in outputs)):
            new = not os.path.lexists(path)
            with open(path, "a"):
                pass
            if new:
                made.append(path)
    except OSError:
        for path in made:
            os.remove(path)
        raise
    for path, text in outputs:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _json_column(column: list) -> tuple[str, list]:
    """The %-placeholder and cells that print a column's cells as json.dumps does.

    A column of finite floats goes to %r as it is, since a float's repr is
    its JSON text; any other column becomes text here, by one json.dumps
    per distinct (type, value), so that True, 1 and 1.0 stay apart.
    """
    if set(map(type, column)) <= {float} and all(map(math.isfinite, column)):
        return "%r", column
    keys = list(zip(map(type, column), column))
    text = {k: json.dumps(k[1]) for k in set(keys)}
    return "%s", [text[k] for k in keys]


def _json_array(items: list[str], level: int) -> str:
    """A JSON array, `level` deep, of items that already carry their indent."""
    return "[\n" + ",\n".join(items) + "\n" + "  " * level + "]" if items else "[]"


def _json_rows(record: dict, level: int = 0, keyed: bool = True) -> str:
    """json.dumps(rows, indent=2, sort_keys=True) of the record's rows, `level` deep.

    A row is an object of the record's fields (keyed) or the array of its
    cells in column order.  Each column becomes cells once, and one
    %-template per row, its keys sorted once, writes the rows.
    """
    cols = _lists(record)
    names = sorted(cols) if keyed else list(cols)
    columns = [_json_column(cols[k]) for k in names]
    pad = "  " * (level + 1)
    keys = [json.dumps(k).replace("%", "%%") + ": " for k in names] if keyed else [""] * len(names)
    fields = ",\n".join(f"{pad}  {k}{f}" for k, (f, _) in zip(keys, columns))
    start, end = "{}" if keyed else "[]"
    template = f"{pad}{start}\n{fields}\n{pad}{end}"
    return _json_array([template % row for row in zip(*(c for _, c in columns))], level)


def _json_spectrum(axis: str, record: dict, meta: dict, lines: dict) -> str:
    """json.dumps(wrapper, indent=2, sort_keys=True) + newline, for the spectrum.

    The wrapper object holds the axis name, the record's column names, one
    array of cells per grid point (rows), and one object per row of the
    meta and lines records.
    """
    fields = {
        "axis": json.dumps(axis),
        "columns": _json_array([f"    {json.dumps(c)}" for c in record], 1),
        "lines": _json_rows(lines, 1),
        "meta": _json_rows(meta, 1),
        "rows": _json_rows(record, 1, keyed=False),
    }
    return "{\n" + ",\n".join(f'  "{k}": {v}' for k, v in sorted(fields.items())) + "\n}\n"


def _emit(args, record: dict) -> None:
    _write((args.out, _csv(record) if args.format == "csv" else _json_rows(record) + "\n"))


def _read_seeds(path: str) -> list[tuple]:
    """(z, sheet, w) seeds from a JSON roots file, or (z, sheet) where a record has
    no re_w and im_w; a malformed record is a ModelError."""
    records = _read_json(path)
    if not isinstance(records, list):
        raise ModelError(f"seeds file {path} must hold a JSON list of roots records")
    seeds = []
    for i, rec in enumerate(records):
        try:
            z = _coordinate(rec["re_z"], rec["im_z"])
            w = [_coordinate(rec["re_w"], rec["im_w"])] if "re_w" in rec or "im_w" in rec else []
            sheet = rec.get("sheet", 2)
            if type(sheet) is bool:
                raise TypeError("a JSON boolean is not a sheet")
            seeds.append((z, Sheet(sheet), *w))
        except (TypeError, KeyError, ValueError, OverflowError):
            raise ModelError(
                f"seed record {i} {json.dumps(rec)}: need an object with finite numeric "
                "re_z and im_z, optional finite numeric re_w and im_w (both or neither) "
                "and an optional sheet of 1 or 2"
            ) from None
    return seeds


def _coordinate(re, im) -> complex:
    """The finite complex number re + i im of a seed record."""
    if bool in (type(re), type(im)):
        raise TypeError("a JSON boolean is not a coordinate")
    x = complex(re, im)
    if not cmath.isfinite(x):
        raise ValueError("NaN and Infinity are not coordinates")
    return x


def _linspace(args, start: str, stop: str, num: int) -> np.ndarray:
    """np.linspace between the options whose dests are start and stop; a span that
    overflows a double is a ModelError naming both, raised before numpy overflows."""
    lo, hi = getattr(args, start), getattr(args, stop)
    if not math.isfinite(hi - lo):
        names = [f"--{dest.replace('_', '-')}" for dest in (start, stop)]
        raise ModelError(f"{names[0]} {lo:g} to {names[1]} {hi:g} spans more than the double range")
    return np.linspace(lo, hi, num)


def _cmd_roots(model: ChainModel, args) -> None:
    from .states import attach_norms

    if args.seeds:
        states = polish_seeds(model, _read_seeds(args.seeds), args.root_tol)
    else:
        anti = args.antiresonances or None
        states = discrete_states(model, root_tol=args.root_tol, include_antiresonances=anti)
    states = attach_norms(model, states)
    record = {
        "branch": [s.label for s in states],
        "class": [s.state_class.value for s in states],
        **_re_im("z", [s.z for s in states]),
        **_re_im("norm", [s.norm for s in states]),
        "residual": [s.residual for s in states],
        # the root of p(w): it tells apart the two members of a pair whose width rounds away in z
        **{k: _JsonOnly(c.tolist()) for k, c in _re_im("w", [s.w for s in states]).items()},
        "sheet": _JsonOnly(s.sheet.value for s in states),
        "near_degenerate": _JsonOnly(s.near_degenerate for s in states),
    }
    _emit(args, record)


def _cmd_bic(model: ChainModel, args) -> None:
    _emit(args, {"energy": bic_energies(model)})


def _cmd_spectrum(model: ChainModel, args) -> None:
    from .spectrum import decompose

    if args.omega_min > args.omega_max:
        raise ModelError(f"--omega-min {args.omega_min} is above --omega-max {args.omega_max}")
    if args.omega_min == args.omega_max and args.points > 1:
        raise ModelError(f"--omega-min {args.omega_min} equals --omega-max {args.omega_max}, "
                         f"so --points {args.points} would repeat one Omega")
    if args.lines_out and args.format == "json":
        raise ModelError("--lines-out takes no --format json, whose output holds the lines itself")
    if args.lines_out and args.out and os.path.realpath(args.lines_out) == os.path.realpath(args.out):
        raise ModelError(f"--lines-out {args.lines_out} is the --out file {args.out}, "
                         "so the lines would overwrite the curve")
    sg = decompose(model, _linspace(args, "omega_min", "omega_max", args.points))
    axis = "omega" if args.photon_axis else "Omega"
    shift = model.e_c if args.photon_axis else 0.0
    record = {axis: sg.omega - shift, "total": sg.total}
    for m in sg.per_state_meta:
        record[f"f_{m.label}"] = sg.resonance_f[m.label]
        record[f"fS_{m.label}"] = sg.resonance_fs[m.label]
        record[f"fA_{m.label}"] = sg.resonance_fa[m.label]
    record["continuum_residual"] = sg.continuum_residual
    bound = np.reshape(sg.bound_lines, (-1, 2))
    lines = {"energy": bound[:, 0] - shift, "weight": bound[:, 1]}

    if args.format == "csv":
        lines_path = args.lines_out or ((args.out + ".lines.csv") if args.out else None)
        outputs = [(args.out, _csv(record))]
        if lines_path:
            outputs.append((lines_path, _csv(lines)))
        _write(*outputs)
        if not lines_path and len(bound):  # the curve alone went to stdout
            print(f"note: {len(bound)} discrete line(s) not written; --lines-out FILE writes them",
                  file=sys.stderr)
        return
    meta = sg.per_state_meta
    meta_record = {
        "branch": [m.label for m in meta],
        "epsilon": [m.epsilon for m in meta],
        "gamma": [m.gamma for m in meta],
        "da": [m.da for m in meta],
        "q": [m.q for m in meta],
        "near_degenerate": [m.near_degenerate for m in meta],
    }
    _write((args.out, _json_spectrum(axis, record, meta_record, lines)))


def _cmd_trajectory(model: ChainModel, args) -> None:
    from .sweep import trace

    parameter = "e_d" if args.parameter == "ed" else "g"
    tr = trace(model, parameter, _linspace(args, "start", "stop", args.steps))
    points = [(br.label, pt) for br in tr.branches for pt in br.points]
    record = {
        "param": [pt.value for _, pt in points],
        "branch": [label for label, _ in points],
        **_re_im("z", [pt.z for _, pt in points]),
        "bic": _JsonOnly(pt.bic for _, pt in points),
        "collision": _JsonOnly(pt.collision for _, pt in points),
        "crossed_axis": _JsonOnly(pt.crossed_axis for _, pt in points),
    }
    _emit(args, record)


def _cmd_ep(model: ChainModel, args) -> None:
    from .sweep import scan_for_ep_seeds

    results = [ep for ep in scan_for_ep_seeds(model, args.g_range, args.ed_range)
               if ep.residual_eta < args.ep_tol and ep.residual_eta_prime < args.ep_tol]
    record = {
        "g": [r.g for r in results],
        "ed": [r.e_d for r in results],
        **_re_im("z", [r.z for r in results]),
        "res_eta": [r.residual_eta for r in results],
        "res_etaprime": [r.residual_eta_prime for r in results],
    }
    _emit(args, record)


def _cmd_selfenergy(model: ChainModel, args) -> None:
    se = SheetedEnergy(complex(args.re, args.im), Sheet(args.sheet))
    with np.errstate(all="ignore"):
        sigma = [self_energy(model, se), self_energy_deriv(model, se, 1), self_energy_deriv(model, se, 2)]
    if not np.isfinite(sigma).all():
        raise FanochainError(f"the self-energy at z = {se.value} on sheet {args.sheet} is not finite")
    record = {
        **_re_im("z", [se.value]),
        "sheet": [args.sheet],
        **_re_im("sigma", sigma[:1]),
        **_re_im("dsigma", sigma[1:2]),
        **_re_im("d2sigma", sigma[2:]),
    }
    _emit(args, record)


_COMMANDS = {
    "roots": _cmd_roots,
    "bic": _cmd_bic,
    "spectrum": _cmd_spectrum,
    "trajectory": _cmd_trajectory,
    "ep": _cmd_ep,
    "selfenergy": _cmd_selfenergy,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _COMMANDS[args.command](model_from_args(args), args)
    except BrokenPipeError:  # stdout closed by its reader: not a usage error, so it propagates
        raise
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FanochainError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main() -> None:
    # The import-time heap lives until exit: frozen, the collector never rescans it,
    # neither during the run nor at shutdown.
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    main()
