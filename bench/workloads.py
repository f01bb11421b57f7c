"""The three benchmark workloads: census, continuation and cli.

Each workload is closed-loop with one caller and no threads.  Its
constructor is the set-up: a fixed batch of operations made from the
seed.  ``measure`` runs the whole batch again and again until the given
number of seconds is spent and times each operation by its fastest
repeat; ``batch`` runs the batch once, so that an untraced and a traced
copy of it can be compared and the per-layer counts repeat exactly.
Attempted and failed operations are counted once per operation of the
batch, so they depend on the seed and nothing else.

Library calls go through attributes of the ``fanochain`` package (looked
up at call time) so that a traced pass sees them.  The correctness gates
use the functions captured below, at import time, which tracing never
replaces.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

import fanochain
from calibration import CALIBRATION_REF_S, calibration_kernel, kernel_seconds
from fanochain.dispersion import ROOT_TOL, StateClass, bic_energies, discrete_states, eta
from fanochain.errors import FanochainError
from fanochain.model import ChainModel
from fanochain.selfenergy import Sheet, SheetedEnergy, self_energy, self_energy_deriv
from fanochain.spectrum import decompose
from fanochain.states import attach_norms
from fanochain.sweep import EP_TOL, trace

#: The exceptional point of the n_d = 4 chain quoted in the README.
EP_EXPECTED = (0.1728, -0.3981)
EP_BOX = {"n_d": 4, "g_range": (0.1, 0.25), "ed_range": (-0.8, 0.0), "grid": 16}

#: Residual bound for sampled trajectory points (reflected and pinned
#: points are not re-polished, so this is looser than the root tolerance).
TRAJECTORY_TOL = 1e-9

#: Relative tolerance when comparing CLI output with the in-process result.
#: Looser than the 17 printed digits, so numerics that change the last
#: digits still pass.
CLI_RTOL = 1e-8

#: Upper bound on any one child process, so a hang cannot stall the run.
CHILD_TIMEOUT_S = 60


#: Every timing is CPU time of the process doing the work: on a shared
#: machine, elapsed time also counts the time other tenants held the CPU.
clock = time.process_time

#: Longest stretch of elapsed time between two calibrations inside a pass.
CALIBRATE_EVERY_S = 0.25


def run_child(cmd: list[str], env: dict) -> tuple[float, float, int, str]:
    """Run one child process: (wall s, its CPU s, exit code, stderr).

    The child's user + system time comes from RUSAGE_CHILDREN; children are
    run one at a time, so the difference across the call is this child's.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:  # the child was killed and waited for
        code, stderr = -1, f"no exit within {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, code, stderr


def child_env(src: Path) -> dict:
    """The environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tally:
    """Attempted and failed operations of a batch, with the reasons for each failure.

    Operations are keyed by their index in the batch: however often an
    operation is repeated it counts once, and it counts as failed if any
    repeat raised or returned a wrong result.
    """

    def __init__(self):
        self.kinds: dict[int, str] = {}
        self.failures: dict[int, str] = {}
        self.wrong_ops: set[int] = set()
        self.wrong: list[str] = []

    def record(self, op: int, kind: str, error: str | None = None,
               wrong: str | None = None) -> None:
        """Count one run of operation ``op``: it raised ``error``, or its output was ``wrong``, or neither."""
        self.kinds[op] = kind
        if error is None and wrong is None:
            return
        self.failures.setdefault(op, f"{kind}:{error or 'wrong result'}")
        if wrong is not None and op not in self.wrong_ops:
            self.wrong_ops.add(op)
            if len(self.wrong) < 20:
                self.wrong.append(f"{kind}: {wrong}")

    @property
    def attempted(self) -> int:
        return len(self.kinds)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted

    @property
    def correct(self) -> bool:
        """No output failed its check (raised errors are failures, not wrong results)."""
        return not self.wrong_ops

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "attempted_by_kind": dict(sorted(Counter(self.kinds.values()).items())),
            "failed_by_kind_and_reason": dict(sorted(Counter(self.failures.values()).items())),
            "wrong_results": len(self.wrong_ops),
            "wrong_examples": self.wrong,
        }


def calibrated_setup(setup_s: float) -> float:
    """Set-up time in reference seconds, calibrated right after the set-up."""
    return setup_s * CALIBRATION_REF_S / kernel_seconds()


def timed_passes(wl, seconds: float, tally: Tally, between=None) -> tuple[list[list[float]], dict]:
    """Repeat the workload's whole batch until ``seconds`` are spent on it.

    The calibration kernel runs at the start and end of every pass and
    whenever the workload's ``calibrate_every_s`` have passed since it last ran.  Each
    operation's CPU time is scaled by ``CALIBRATION_REF_S`` over the
    geometric mean of the calibrations around it.  Returns the scaled
    times of each operation's repeats, and what the record keeps of the run.
    ``between`` runs after each pass but the last and is not counted.
    """
    times = [[] for _ in range(wl.size)]
    slices = [[] for _ in range(wl.size)]  # index of the calibration before each repeat
    calib = []
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        last = -math.inf
        for op in range(wl.size):
            if time.perf_counter() - last >= wl.calibrate_every_s:
                calib.append(calibration_kernel())
                last = time.perf_counter()
            times[op].append(wl.run_op(op, tally, check=True))
            slices[op].append(len(calib) - 1)
        calib.append(calibration_kernel())
        spent += time.perf_counter() - t0
        if spent >= seconds:
            break
        if between is not None:
            between()
    scale = [CALIBRATION_REF_S / math.sqrt(a * b) for a, b in zip(calib, calib[1:])]
    scaled = [[t * scale[k] for t, k in zip(ts, ks)] for ts, ks in zip(times, slices)]
    raw = [statistics.median(ts) for ts in times]
    return scaled, {
        "passes": len(times[0]),
        "calibrations": len(calib),
        "calibration_s": {"median": statistics.median(calib), "min": min(calib),
                          "max": max(calib)},
        "raw_cpu_s": {"sum_of_medians": sum(raw), "median": statistics.median(raw)},
    }


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from U[lo, hi], one in each of n equal strata, in random order."""
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------- census


def _nd_band(model: ChainModel) -> str:
    if model.n_d is None:
        return "infinite:g<0.1" if model.g < 0.1 else "infinite:g>=0.1"
    lo = 4 * ((model.n_d - 1) // 4) + 1
    return f"semi:n_d={lo}-{lo + 3}"


def check_census(model, states, sg) -> str | None:
    """None if the solve, norms and decomposition are right, else why not."""
    limit = 10 * ROOT_TOL
    resonances = 0
    for s in states:
        res = abs(eta(model, s.sheeted()))
        if not res <= limit:
            return f"|eta| = {res:.3e} > {limit:.0e} at z = {s.z} ({s.state_class.value})"
        if s.state_class is StateClass.RESONANCE:
            resonances += 1
            if s.sheet is not Sheet.II or not s.z.imag < 0:
                return f"resonance z = {s.z} on sheet {s.sheet.name}"
        if s.norm is None or not np.isfinite(s.norm):
            return f"missing or non-finite norm at z = {s.z}"
    if len(sg.per_state_meta) != resonances:
        return f"{len(sg.per_state_meta)} spectral components for {resonances} resonances"
    if not np.all(np.isfinite(sg.total)) or not np.all(np.isfinite(sg.continuum_residual)):
        return "non-finite spectrum"
    return None


class Census:
    """Seeded model draws through discrete_states -> attach_norms -> decompose.

    The draws are stratified: ``n_d`` takes every value of 1..24 equally
    often among the semi-infinite chains, and ``e_d`` and ``g`` take one
    value in each of equal strata of their ranges, per variant.  The
    distribution is the uniform one; stratifying only makes two seeds'
    batches cost about the same.
    """

    name = "census"
    calibrate_every_s = CALIBRATE_EVERY_S
    SEMI_SHARE = 0.85
    N_D_MAX = 24

    def __init__(self, seed: int, draws: int = 1200):
        rng = random.Random(seed)
        n_semi = round(self.SEMI_SHARE * draws)
        n_ds = [1 + k % self.N_D_MAX for k in range(n_semi)]
        rng.shuffle(n_ds)
        self.models = []
        for semi, count in ((True, n_semi), (False, draws - n_semi)):
            for k, (e_d, g) in enumerate(zip(stratified(rng, count, -1.5, 1.5),
                                              stratified(rng, count, 0.02, 0.5))):
                if semi:
                    self.models.append(ChainModel.semi_infinite(n_d=n_ds[k], e_d=e_d, g=g))
                else:
                    self.models.append(ChainModel.infinite(e_d=e_d, g=g))
        rng.shuffle(self.models)
        self.size = len(self.models)

    def run_op(self, op: int, tally: Tally, check: bool) -> float:
        model = self.models[op]
        error = states = sg = None
        t0 = clock()
        try:
            states = fanochain.attach_norms(model, fanochain.discrete_states(model))
            sg = fanochain.decompose(model, states=states)
        except FanochainError as exc:
            error = type(exc).__name__
        dt = clock() - t0
        wrong = check_census(model, states, sg) if check and error is None else None
        tally.record(op, _nd_band(model), error, wrong)
        return dt

    def measure(self, seconds: float, tally: Tally, between=None) -> tuple[dict, dict, dict]:
        repeats, samples = timed_passes(self, seconds, tally, between)
        best = [statistics.median(r) for r in repeats]
        metrics = {
            "throughput": len(best) / sum(best),
            "latency_ms": 1e3 * percentile(best, 50),
            "tail_ms": 1e3 * percentile(best, 99),
            "ok_ratio": tally.ok_ratio,
        }
        named = {
            "census.models_per_s": metrics["throughput"],
            "census.solve_ms_p50": metrics["latency_ms"],
            "census.solve_ms_p99": metrics["tail_ms"],
            "census.fail_ratio": tally.failed / tally.attempted,
        }
        samples.update({
            "census.solve_ms_p50": len(best),
            "census.solve_ms_p99": len(best),
            "census.solve_ms_p99.beyond": len(best) - math.ceil(0.99 * len(best)),
        })
        return metrics, named, samples

    def batch(self, tally: Tally, check: bool, tracer=None) -> None:
        for op in range(self.size):
            self.run_op(op, tally, check)

    def close(self) -> None:
        pass


# ---------------------------------------------------------- continuation


def check_trajectory(model, tr) -> str | None:
    """Sampled trajectory points must solve eta on sheet II at their parameter."""
    for br in tr.branches:
        pts = br.points
        for pt in pts[::4] + pts[-1:]:
            m = replace(model, **{tr.parameter: pt.value})
            res = abs(eta(m, SheetedEnergy(pt.z, Sheet.II)))
            if not res <= TRAJECTORY_TOL:
                return f"branch {br.label} at {tr.parameter} = {pt.value}: |eta| = {res:.3e}"
    return None


def check_ep(ep) -> str | None:
    g0, e0 = EP_EXPECTED
    if not (abs(ep.g - g0) <= 1e-3 and abs(ep.e_d - e0) <= 1e-3):
        return f"EP at (g, e_d) = ({ep.g:.6f}, {ep.e_d:.6f}), expected ({g0}, {e0})"
    if not (ep.residual_eta < EP_TOL and ep.residual_eta_prime < EP_TOL):
        return f"EP residuals {ep.residual_eta:.2e}, {ep.residual_eta_prime:.2e} >= {EP_TOL}"
    return None


class Continuation:
    """Seeded e_d and g sweeps over several chains, plus the README EP scan.

    Each chain gets ``SWEEPS`` sweeps of each parameter; the fixed ``g`` of
    its ``e_d`` sweeps and the fixed ``e_d`` of its ``g`` sweeps take one
    value in each of ``SWEEPS`` equal strata of their ranges.  The batch
    runs the EP scan ``EP_SCANS`` times, spread among the sweeps, so that
    its median rests on more repeats.
    """

    name = "continuation"
    calibrate_every_s = CALIBRATE_EVERY_S
    N_DS = (1, 2, 4, 8, 12)
    SWEEPS = 3
    EP_SCANS = 3

    def __init__(self, seed: int, ed_steps: int = 401, g_steps: int = 201):
        rng = random.Random(seed)
        ed_values = np.linspace(-0.999, 0.999, ed_steps)
        g_values = np.linspace(0.02, 0.4, g_steps)
        self.jobs = []
        for n_d in self.N_DS + (None,):
            sweeps = (
                [("e_d", {"g": g}, ed_values) for g in stratified(rng, self.SWEEPS, 0.05, 0.35)]
                + [("g", {"e_d": e_d}, g_values) for e_d in stratified(rng, self.SWEEPS, -0.9, 0.9)]
            )
            for parameter, fixed, values in sweeps:
                base = {"e_d": 0.0, "g": 0.2, **fixed}
                if n_d is None:
                    model = ChainModel.infinite(**base)
                else:
                    model = ChainModel.semi_infinite(n_d=n_d, **base)
                self.jobs.append((model, parameter, values))
        self.ep_model = ChainModel.semi_infinite(n_d=EP_BOX["n_d"], e_d=-0.5, g=0.2)
        # None marks an EP scan, after each EP_SCANS-th part of the sweeps
        per_part = math.ceil(len(self.jobs) / self.EP_SCANS)
        self.ops = []
        for k in range(0, len(self.jobs), per_part):
            self.ops += self.jobs[k:k + per_part] + [None]
        self.size = len(self.ops)
        self.branch_steps = [0] * self.size

    def run_op(self, op: int, tally: Tally, check: bool) -> float:
        if self.ops[op] is None:
            return self._ep_scan(op, tally, check)
        model, parameter, values = self.ops[op]
        kind = f"trace:{'infinite' if model.n_d is None else f'n_d={model.n_d}'}:{parameter}"
        error = tr = None
        t0 = clock()
        try:
            tr = fanochain.trace(model, parameter, values)
        except FanochainError as exc:
            error = type(exc).__name__
        dt = clock() - t0
        if tr is not None:
            self.branch_steps[op] = len(tr.branches) * len(tr.values)
        wrong = check_trajectory(model, tr) if check and error is None else None
        tally.record(op, kind, error, wrong)
        return dt

    def _ep_scan(self, op: int, tally: Tally, check: bool) -> float:
        error = ep = None
        t0 = clock()
        try:
            seeds = fanochain.scan_for_ep_seeds(
                self.ep_model, EP_BOX["g_range"], EP_BOX["ed_range"],
                n_g=EP_BOX["grid"], n_ed=EP_BOX["grid"],
            )
            if not seeds:
                raise FanochainError("no EP seed in the scan box")
            ep = fanochain.find_ep(self.ep_model, seeds[0])
        except FanochainError as exc:
            error = type(exc).__name__
        dt = clock() - t0
        wrong = check_ep(ep) if check and error is None else None
        tally.record(op, "ep_scan", error, wrong)
        return dt

    def measure(self, seconds: float, tally: Tally, between=None) -> tuple[dict, dict, dict]:
        repeats, samples = timed_passes(self, seconds, tally, between)
        traces = [statistics.median(r) for r, job in zip(repeats, self.ops) if job is not None]
        ep_scan = statistics.median(
            t for r, job in zip(repeats, self.ops) if job is None for t in r)
        metrics = {
            "throughput": sum(self.branch_steps) / sum(traces),
            "latency_ms": 1e3 * ep_scan,
            "tail_ms": 1e3 * max(traces),
            "ok_ratio": tally.ok_ratio,
        }
        named = {
            "continuation.branch_steps_per_s": metrics["throughput"],
            "continuation.ep_scan_s": ep_scan,
            "continuation.fail_ratio": tally.failed / tally.attempted,
        }
        samples.update({"branch_steps": sum(self.branch_steps), "trace_s": sum(traces),
                        "continuation.ep_scan_s": self.EP_SCANS * samples["passes"]})
        return metrics, named, samples

    def batch(self, tally: Tally, check: bool, tracer=None) -> None:
        for op in range(self.size):
            self.run_op(op, tally, check)

    def close(self) -> None:
        pass


# -------------------------------------------------------------------- cli


def _near(a, b, rtol=CLI_RTOL, atol=1e-12):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Cli:
    """Each README example run through ``python -m fanochain.cli``."""

    name = "cli"
    #: Every command is bracketed by calibrations of its own.
    calibrate_every_s = 0.0
    #: The end-to-end metric each command feeds; ``bic`` and ``selfenergy``
    #: share ``cli.probe_s`` and both ``roots`` formats share ``cli.roots_s``.
    METRIC = {
        "roots_csv": "cli.roots_s",
        "roots_json": "cli.roots_s",
        "roots_seeds": "cli.roots_seeds_s",
        "bic": "cli.probe_s",
        "selfenergy": "cli.probe_s",
        "spectrum_csv": "cli.spectrum_csv_s",
        "spectrum_json": "cli.spectrum_json_s",
        "trajectory": "cli.trajectory_s",
        "ep": "cli.ep_s",
    }

    def __init__(self, seed: int, workdir: Path, src: Path, points: int = 20001,
                 steps: int = 401):
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.roots_model = {"n_d": 4, "e_d": rng.uniform(-0.8, 0.8), "g": rng.uniform(0.1, 0.3)}
        self.bic_nd = rng.randint(2, 12)
        self.probe = (rng.uniform(1.5, 3.0), rng.uniform(-0.5, 0.5), rng.choice((1, 2)))
        self.points = points
        self.steps = steps
        self._refs: dict = {}
        self.env = child_env(src)
        self.cmds = self.commands()
        self.size = len(self.cmds)
        self.walls: list[list[float]] = [[] for _ in self.cmds]

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def commands(self) -> list[tuple[str, list[str]]]:
        rm = self.roots_model
        semi = ["--chain", "semi", "--nd", str(rm["n_d"]), "--g", repr(rm["g"]), "--ed", repr(rm["e_d"])]
        re_z, im_z, sheet = self.probe
        return [
            ("roots_csv", ["roots", *semi, "--out", self._path("roots.csv")]),
            ("roots_json", ["roots", *semi, "--format", "json", "--out", self._path("roots.json")]),
            ("roots_seeds", ["roots", *semi, "--seeds", self._path("roots.json"),
                             "--out", self._path("roots_seeds.csv")]),
            ("bic", ["bic", "--chain", "semi", "--nd", str(self.bic_nd), "--g", "0.2",
                     "--ed", "-0.5", "--out", self._path("bic.csv")]),
            ("selfenergy", ["selfenergy", *semi, "--re", repr(re_z), "--im", repr(im_z),
                            "--sheet", str(sheet), "--out", self._path("selfenergy.csv")]),
            ("spectrum_csv", ["spectrum", "--chain", "infinite", "--g", "0.2", "--ed", "-0.6",
                              "--points", str(self.points), "--out", self._path("spectrum.csv")]),
            ("spectrum_json", ["spectrum", "--chain", "infinite", "--g", "0.2", "--ed", "-0.6",
                               "--points", str(self.points), "--format", "json",
                               "--out", self._path("spectrum.json")]),
            ("trajectory", ["trajectory", "--chain", "semi", "--nd", "4", "--g", "0.16",
                            "--ed", "-0.5", "--start", "-0.999", "--stop", "0.999",
                            "--steps", str(self.steps), "--out", self._path("trajectory.csv")]),
            ("ep", ["ep", "--chain", "semi", "--nd", "4", "--g", "0.2", "--ed", "-0.5",
                    "--g-range", "0.1", "0.25", "--ed-range", "-0.8", "0",
                    "--out", self._path("ep.csv")]),
        ]

    def output_files(self, name: str, argv: list[str]) -> list[str]:
        out = argv[argv.index("--out") + 1]
        return [out, out + ".lines.csv"] if name == "spectrum_csv" else [out]

    # -- correctness gates -------------------------------------------------

    def _model(self):
        rm = self.roots_model
        return ChainModel.semi_infinite(n_d=rm["n_d"], e_d=rm["e_d"], g=rm["g"])

    def _ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def _check_roots(self, records) -> str | None:
        model = self._model()
        ref = self._ref("roots", lambda: attach_norms(model, discrete_states(model)))
        if len(records) != len(ref):
            return f"{len(records)} roots, expected {len(ref)}"
        for rec, s in zip(records, ref):
            if rec["branch"] != s.label or rec["class"] != s.state_class.value:
                return f"root {rec['branch']}/{rec['class']} where {s.label}/{s.state_class.value}"
            z = complex(float(rec["re_z"]), float(rec["im_z"]))
            n = complex(float(rec["re_norm"]), float(rec["im_norm"]))
            if not (_near(z.real, s.z.real) and _near(z.imag, s.z.imag)):
                return f"root {s.label}: z = {z}, expected {s.z}"
            if not (_near(n.real, s.norm.real, 1e-6) and _near(n.imag, s.norm.imag, 1e-6)):
                return f"root {s.label}: norm = {n}, expected {s.norm}"
        return None

    def _check_spectrum(self, columns, rows, lines) -> str | None:
        model = ChainModel.infinite(e_d=-0.6, g=0.2)
        sg = self._ref(
            "spectrum", lambda: decompose(model, np.linspace(-0.999, 0.999, self.points))
        )
        expected = {"Omega": sg.omega, "total": sg.total,
                    "continuum_residual": sg.continuum_residual}
        for lab, f in sg.resonance_f.items():
            expected[f"f_{lab}"] = f
            expected[f"fS_{lab}"] = sg.resonance_fs[lab]
            expected[f"fA_{lab}"] = sg.resonance_fa[lab]
        got = [(float(ln["energy"]), float(ln["weight"])) for ln in lines]
        if len(got) != len(sg.bound_lines) or not all(
            _near(e, e_ref) and _near(w, w_ref)
            for (e, w), (e_ref, w_ref) in zip(got, sg.bound_lines)
        ):
            return f"bound lines {got}, expected {sg.bound_lines}"
        if sorted(columns) != sorted(expected):
            return f"spectrum columns {columns}"
        data = np.asarray(rows, dtype=float)
        if data.shape != (self.points, len(columns)):
            return f"spectrum shape {data.shape}"
        for k, col in enumerate(columns):
            ref = expected[col]
            scale = float(np.max(np.abs(ref))) or 1.0
            if not np.allclose(data[:, k], ref, rtol=CLI_RTOL, atol=1e-12 * scale):
                return f"spectrum column {col} differs from decompose()"
        return None

    def check(self, name: str, argv: list[str]) -> str | None:
        """Parse one command's output and compare it with the library."""
        out = argv[argv.index("--out") + 1]
        if name in ("roots_csv", "roots_json"):
            if name == "roots_json":
                with open(out, encoding="utf-8") as fh:
                    return self._check_roots(json.load(fh))
            return self._check_roots(_read_csv(out))
        if name == "roots_seeds":
            return self._check_roots(_read_csv(out))
        if name == "bic":
            got = [float(r["energy"]) for r in _read_csv(out)]
            ref = bic_energies(ChainModel.semi_infinite(n_d=self.bic_nd, e_d=-0.5, g=0.2))
            if len(got) != len(ref) or not all(_near(a, b) for a, b in zip(got, ref)):
                return f"bic energies {got}, expected {ref}"
            return None
        if name == "selfenergy":
            (row,) = _read_csv(out)
            re_z, im_z, sheet = self.probe
            se = SheetedEnergy(complex(re_z, im_z), Sheet.I if sheet == 1 else Sheet.II)
            model = self._model()
            for key, val in (("sigma", self_energy(model, se)),
                             ("dsigma", self_energy_deriv(model, se, 1)),
                             ("d2sigma", self_energy_deriv(model, se, 2))):
                if not (_near(float(row[f"re_{key}"]), val.real)
                        and _near(float(row[f"im_{key}"]), val.imag)):
                    return f"selfenergy {key} differs from the library"
            return None
        if name == "spectrum_csv":
            with open(out, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                columns = next(reader)
                rows = list(reader)
            return self._check_spectrum(columns, rows, _read_csv(out + ".lines.csv"))
        if name == "spectrum_json":
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
            return self._check_spectrum(payload["columns"], payload["rows"], payload["lines"])
        if name == "trajectory":
            model = ChainModel.semi_infinite(n_d=4, e_d=-0.5, g=0.16)
            tr = self._ref("trajectory", lambda: trace(
                model, "e_d", np.linspace(-0.999, 0.999, self.steps)))
            rows = _read_csv(out)
            ref = [(pt.value, br.label, pt.z) for br in tr.branches for pt in br.points]
            if len(rows) != len(ref):
                return f"{len(rows)} trajectory rows, expected {len(ref)}"
            for row, (value, label, z) in zip(rows, ref):
                if row["branch"] != label or not (
                    _near(float(row["param"]), value)
                    and _near(float(row["re_z"]), z.real, atol=1e-10)
                    and _near(float(row["im_z"]), z.imag, atol=1e-10)
                ):
                    return f"trajectory row {row} differs from trace()"
            return None
        if name == "ep":
            rows = _read_csv(out)
            if not rows:
                return "no exceptional point found"
            g0, e0 = EP_EXPECTED
            r = rows[0]
            if not (abs(float(r["g"]) - g0) <= 1e-3 and abs(float(r["ed"]) - e0) <= 1e-3):
                return f"EP at ({r['g']}, {r['ed']}), expected ({g0}, {e0})"
            if not (float(r["res_eta"]) < EP_TOL and float(r["res_etaprime"]) < EP_TOL):
                return f"EP residuals {r['res_eta']}, {r['res_etaprime']}"
            return None
        raise ValueError(name)

    # -- runs ----------------------------------------------------------------

    def _record(self, op, code, stderr, tally, check):
        name, argv = self.cmds[op]
        if code != 0:
            tally.record(op, name, f"exit {code}: {stderr.strip()[-200:]}")
            return
        try:
            wrong = self.check(name, argv) if check else None
        except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
            wrong = f"unreadable output: {type(exc).__name__}: {exc}"
        tally.record(op, name, None, wrong)

    def run_op(self, op: int, tally: Tally, check: bool) -> float:
        """Run one command as a subprocess; its CPU time."""
        wall, cpu, code, stderr = run_child(
            [sys.executable, "-m", "fanochain.cli", *self.cmds[op][1]], self.env)
        self.walls[op].append(wall)
        self._record(op, code, stderr, tally, check)
        return cpu

    def measure(self, seconds: float, tally: Tally, between=None) -> tuple[dict, dict, dict]:
        repeats, samples = timed_passes(self, seconds, tally, between)
        metrics, named = self._summarize([statistics.median(r) for r in repeats])
        metrics["ok_ratio"] = tally.ok_ratio
        named["cli.fail_ratio"] = tally.failed / tally.attempted
        # for reference only: the same figures in unscaled elapsed time
        samples["wall_clock"] = dict(zip(
            ("metrics", "named"), self._summarize([statistics.median(w) for w in self.walls])))
        return metrics, named, samples

    def _summarize(self, best):
        metrics = {
            "throughput": len(best) / sum(best),
            "latency_ms": 1e3 * statistics.median(best),
            "tail_ms": 1e3 * max(best),
        }
        by_metric = {}
        for (name, _), t in zip(self.cmds, best):
            by_metric.setdefault(self.METRIC[name], []).append(t)
        named = {k: statistics.median(v) for k, v in sorted(by_metric.items())}
        return metrics, named

    def batch(self, tally: Tally, check: bool, tracer=None) -> None:
        """The same commands through ``fanochain.cli.run`` in this process.

        Traced, each call sits in a ``cli.run.<command>`` span opened here,
        and the bytes it wrote are counted.
        """
        import fanochain.cli

        for op, (name, argv) in enumerate(self.cmds):
            if tracer is None:
                code = fanochain.cli.run(argv)
            else:
                with tracer.span(f"cli.run.{name}"):
                    code = fanochain.cli.run(argv)
                size = sum(os.path.getsize(p) for p in self.output_files(name, argv))
                tracer.count(f"cli.output_bytes.{name}", size)
            self._record(op, code, "", tally, check)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
