"""Benchmark of the fanochain package: one workload per run.

    python3 bench/run.py --workload census|continuation|cli --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.  With ``--trace 0`` it measures the end-to-end metrics with no
instrumentation; with ``--trace 1`` it alternates untraced and traced
copies of a fixed batch of the same work and reports the per-layer
metrics (see ``tracer.py``).  Every output is checked; a wrong result or
a raised error counts as a failed operation.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record with the machine, the seed, the sample counts
and the failure breakdown goes to ``bench/out/``.  See ``README.md``.
"""

import time

_T0 = time.process_time()  # set-up is timed from here, before numpy is imported

import os  # noqa: E402

# One caller on one thread: BLAS/OpenMP worker pools would only spin on the
# second core, and that spinning counts as CPU time of the process that owns
# them.  Set before numpy is first imported; children inherit it; a value the
# caller set is kept.  The run record lists the values in force.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

WORKLOADS = ("census", "continuation", "cli")

#: How many times set-up is repeated (in fresh interpreters) besides the run's
#: own.  The repeats run between passes of the timed batch, spread over the run.
SETUP_PROBES = 6
#: Repetitions of each interpreter start behind ``cli.import_s``.
IMPORT_PROBES = 5
#: End-to-end metrics, common to every workload; what a unit of work is
#: depends on the workload (see README.md).
END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "latency_ms": "ms",
    "tail_ms": "ms",
    "ok_ratio": "ratio",
}

CLI_COMMANDS = ("roots_csv", "roots_json", "roots_seeds", "bic", "selfenergy",
                "spectrum_csv", "spectrum_json", "trajectory", "ep")

PER_LAYER = {
    "dispersion.polynomial_coefficients.self_s": "s",
    "dispersion.np_roots.self_s": "s",
    "dispersion.newton_polish.calls": "count",
    "dispersion.newton_polish.failed": "count",
    "dispersion.newton_polish.self_s": "s",
    "dispersion.polish_per_state": "ratio",
    "dispersion.discrete_states.calls": "count",
    "dispersion.discrete_states.failed": "count",
    "dispersion.discrete_states.self_s": "s",
    "dispersion.eta.calls": "count",
    "dispersion.eta_per_polish": "ratio",
    "selfenergy.self_energy.calls": "count",
    "selfenergy.self_energy_deriv.calls": "count",
    "model.with_params.calls": "count",
    "model.validate.calls": "count",
    "model.validate.self_s": "s",
    "sweep.trace.self_s": "s",
    "sweep.trace.polish_per_step": "ratio",
    "sweep.trace.polish_failed": "count",
    "sweep.scan_for_ep_seeds.self_s": "s",
    "sweep.scan.solves": "count",
    "sweep.find_ep.self_s": "s",
    "states.attach_norms.self_s": "s",
    "states.normalization.calls": "count",
    "spectrum.decompose.self_s": "s",
    "spectrum.green_spectrum.self_s": "s",
    "spectrum.grid_points": "count",
    **{f"{layer}.self_s": "s" for layer in
       ("model", "selfenergy", "dispersion", "states", "spectrum", "sweep", "cli")},
    **{f"cli.run.{c}.self_s": "s" for c in CLI_COMMANDS},
    **{f"cli.output_bytes.{c}": "bytes" for c in CLI_COMMANDS},
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES")


def named_unit(name: str) -> str:
    """Unit of a workload's named metric, which its name ends in."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "ms" if "_ms_" in name else "s"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: set up, print the set-up time and exit (used for the set-up repeats)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import fanochain from this checkout's ``src/``, or exit with code 2."""
    if not (SRC / "fanochain" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'fanochain'}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fanochain

    if Path(fanochain.__file__).resolve().parent != (SRC / "fanochain").resolve():
        print(f"bench: imported fanochain from {fanochain.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)


def make_workload(name: str, seed: int, sizes=None):
    """The workload's set-up: its inputs, made from the seed."""
    import workloads

    sizes = sizes or {}
    if name == "census":
        return workloads.Census(seed, **sizes)
    if name == "continuation":
        return workloads.Continuation(seed, **sizes)
    return workloads.Cli(seed, OUT / f"tmp-{os.getpid()}", SRC, **sizes)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time, in reference seconds, of one fresh interpreter doing this run's set-up."""
    from workloads import CHILD_TIMEOUT_S

    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def import_seconds() -> float:
    """CPU time of ``import fanochain.cli`` in a fresh interpreter, minus a bare one."""
    from workloads import child_env, run_child

    env = child_env(SRC)

    def cpu(code):
        return statistics.median(
            run_child([sys.executable, "-c", code], env)[1] for _ in range(IMPORT_PROBES)
        )

    return cpu("import fanochain.cli") - cpu("pass")


def machine() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def git_commit():
    """Commit of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def run(wl, seed: int, seconds: float, trace: int, setup_main: float,
        setup_probes: int = SETUP_PROBES):
    """One benchmark run of a set-up workload; returns (result, record, tracer)."""
    import tracer as tracing
    from workloads import Tally

    workload = wl.name
    tally = Tally()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    tr = None
    try:
        if trace == 0:
            setup = [setup_main]

            def probe():
                if len(setup) <= setup_probes:
                    setup.append(setup_probe(workload, seed))

            metrics, named, samples = wl.measure(seconds, tally, between=probe)
            record["named_metrics"] = named
            while len(setup) <= setup_probes:
                probe()
            metrics["setup_s"] = statistics.median(setup)
            samples["setup_s"] = len(setup)
            record["setup_s_samples"] = setup
            names = END_TO_END
        else:
            # Each traced batch gets a fresh tracer, so memory holds one
            # batch of spans; the last batch's spans are written out.
            untraced, traced, per_batch = [], [], []
            deadline = time.perf_counter() + seconds
            while True:
                t0 = time.perf_counter()
                wl.batch(tally, check=True)
                untraced.append(time.perf_counter() - t0)
                tr = tracing.Tracer()
                with tracing.installed(tr):
                    t0 = time.perf_counter()
                    wl.batch(tally, check=False, tracer=tr)
                    traced.append(time.perf_counter() - t0)
                per_batch.append(tracing.layer_metrics(tr))
                if time.perf_counter() >= deadline:
                    break
            metrics = {k: statistics.fmean(b.get(k, 0.0) for b in per_batch)
                       for k in set().union(*per_batch)}
            metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
            metrics["cli.import_s"] = import_seconds()
            samples = {"batches": len(traced), "spans_per_batch": len(tr.start),
                       "untraced_batch_s": untraced, "traced_batch_s": traced}
            names = PER_LAYER
    finally:
        wl.close()
    values = {k: metrics.get(k, 0.0) for k in names}
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values[k]), "unit": names[k]} for k in names},
    }
    record.update({
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_commit": git_commit(),
        "machine": machine(),
        "samples": samples,
        "tally": tally.summary(),
        "result": result,
    })
    return result, record, tr


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    wl = make_workload(args.workload, args.seed)
    setup_main = time.process_time() - _T0
    from workloads import calibrated_setup

    setup_main = calibrated_setup(setup_main)
    if args.setup_probe:
        wl.close()
        print(repr(setup_main))
        return 0
    result, record, tr = run(wl, args.seed, args.seconds, args.trace, setup_main)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    if tr is not None:
        tr.write(OUT / f"{stem}_spans.npz")
    for name, value in record.get("named_metrics", {}).items():
        print(f"{name:45s} {value:.6g} {named_unit(name)}")
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
