"""Outside-in span tracer for the fanochain layers.

The package is never edited for tracing.  For a traced pass, every
module-level binding of each public function of the layer modules is
replaced by a timing wrapper, in every ``fanochain`` module that holds
one.  That matters because ``sweep``, ``spectrum``, ``states``,
``dispersion`` and ``cli`` bind their callees with ``from ... import``:
wrapping only the defining module would miss those calls.  ``numpy.roots``
is timed as ``dispersion`` calls it, through a view of ``numpy`` placed on
``dispersion.np``; other callers of numpy are untouched.

Spans (name, start, end, parent, ok) are kept in compact in-memory arrays
and written out once, when the run ends.  A span's self time is its
duration minus the time its direct children cover; spans nest strictly
because the benchmark runs one caller on one thread.
"""

from __future__ import annotations

import array
import contextlib
import functools
import inspect
import sys
import time

import numpy as np

#: Package modules that do work, i.e. the layers; ``errors`` does none.
LAYERS = ("model", "selfenergy", "dispersion", "states", "spectrum", "sweep", "cli")

#: The cli layer is the outermost one.  Its public helpers (``fmt`` runs once
#: per printed float) are cli work: spans around them would move output
#: formatting out of the ``cli.run.<command>`` self time.  The benchmark
#: opens the ``cli.run.<command>`` spans itself, around its calls to
#: ``cli.run``.
UNWRAPPED = {"cli"}


class Tracer:
    """In-memory span store plus counters filled from return values."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.ok = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")
        self.current = -1
        self.counters: dict[str, float] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.ok.append(1)
        self.end.append(0.0)
        self.current = i
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, ok: bool) -> None:
        self.end[i] = time.perf_counter()
        if not ok:
            self.ok[i] = 0
        self.current = self.parent[i]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark around one call into a layer."""
        i = self._open(self.intern(name))
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(i, ok)

    def wrap(self, name: str, fn, on_return=None):
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(i, ok)
            if on_return is not None:
                on_return(self, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "ok": np.frombuffer(self.ok, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        """Write every span (and the name table) as one compressed archive."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())


class _NumpyView:
    """``numpy`` with some attributes replaced, for one module's ``np``."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _count_states(tracer, result):
    tracer.count("dispersion.discrete_states.states", len(result))


def _count_branch_steps(tracer, result):
    tracer.count("sweep.trace.branch_steps", len(result.branches) * len(result.values))


def _count_grid(tracer, result):
    tracer.count("spectrum.grid_points", len(result.omega))


_ON_RETURN = {
    "dispersion.discrete_states": _count_states,
    "sweep.trace": _count_branch_steps,
    "spectrum.decompose": _count_grid,
}


def public_functions(layer: str) -> dict[str, object]:
    """Public functions defined (not merely imported) in one layer module."""
    mod = sys.modules[f"fanochain.{layer}"]
    return {
        name: obj
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == mod.__name__
    }


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every binding of every layer's public functions, then restore."""
    import fanochain.cli  # noqa: F401  (loads every layer module)
    from fanochain import dispersion
    from fanochain.model import ChainModel

    wrappers = {}
    for layer in LAYERS:
        if layer in UNWRAPPED:
            continue
        for name, fn in public_functions(layer).items():
            key = f"{layer}.{name}"
            wrappers[fn] = tracer.wrap(key, fn, _ON_RETURN.get(key))

    saved = []
    modules = [m for n, m in sys.modules.items() if n == "fanochain" or n.startswith("fanochain.")]
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                saved.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
    with_params = ChainModel.__dict__["with_params"]
    saved.append((ChainModel, "with_params", with_params))
    ChainModel.with_params = tracer.wrap("model.with_params", with_params)
    saved.append((dispersion, "np", dispersion.np))
    dispersion.np = _NumpyView(np, roots=tracer.wrap("dispersion.np_roots", np.roots))
    try:
        yield tracer
    finally:
        for owner, name, obj in reversed(saved):
            setattr(owner, name, obj)


def _self_times(t: dict[str, np.ndarray]) -> np.ndarray:
    dur = t["end"] - t["start"]
    has_parent = t["parent"] >= 0
    covered = np.zeros_like(dur)
    np.add.at(covered, t["parent"][has_parent], dur[has_parent])
    return dur - covered


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced batch, from its spans and counters."""
    t = tracer.arrays()
    names = tracer.names
    n_names = len(names)
    nid = t["name_id"]
    self_t = _self_times(t)
    calls = np.bincount(nid, minlength=n_names)
    failed = np.bincount(nid, weights=1 - t["ok"], minlength=n_names)
    self_by = np.bincount(nid, weights=self_t, minlength=n_names)
    parent_name = np.where(t["parent"] >= 0, nid[np.maximum(t["parent"], 0)], -1)

    def of(values, name):
        i = tracer._ids.get(name)
        return float(values[i]) if i is not None else 0.0

    def under(child, parent, failed_only=False):
        """Spans of ``child`` whose direct parent is a ``parent`` span."""
        mask = (nid == tracer._ids.get(child, -2)) & (parent_name == tracer._ids.get(parent, -2))
        if failed_only:
            mask &= t["ok"] == 0
        return float(np.count_nonzero(mask))

    def layer_self(layer):
        return sum(float(self_by[i]) for i, n in enumerate(names) if n.startswith(layer + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    polishes = of(calls, "dispersion.newton_polish")
    states = tracer.counters.get("dispersion.discrete_states.states", 0.0)
    branch_steps = tracer.counters.get("sweep.trace.branch_steps", 0.0)
    out = {
        "dispersion.polynomial_coefficients.self_s": of(self_by, "dispersion.polynomial_coefficients"),
        "dispersion.np_roots.self_s": of(self_by, "dispersion.np_roots"),
        "dispersion.newton_polish.calls": polishes,
        "dispersion.newton_polish.failed": of(failed, "dispersion.newton_polish"),
        "dispersion.newton_polish.self_s": of(self_by, "dispersion.newton_polish"),
        "dispersion.polish_per_state": ratio(
            under("dispersion.newton_polish", "dispersion.discrete_states"), states
        ),
        "dispersion.discrete_states.calls": of(calls, "dispersion.discrete_states"),
        "dispersion.discrete_states.failed": of(failed, "dispersion.discrete_states"),
        "dispersion.discrete_states.self_s": of(self_by, "dispersion.discrete_states"),
        "dispersion.eta.calls": of(calls, "dispersion.eta"),
        "dispersion.eta_per_polish": ratio(
            under("dispersion.eta", "dispersion.newton_polish"), polishes
        ),
        "selfenergy.self_energy.calls": of(calls, "selfenergy.self_energy"),
        "selfenergy.self_energy_deriv.calls": of(calls, "selfenergy.self_energy_deriv"),
        "model.with_params.calls": of(calls, "model.with_params"),
        "model.validate.calls": of(calls, "model.validate"),
        "model.validate.self_s": of(self_by, "model.validate"),
        "sweep.trace.self_s": of(self_by, "sweep.trace"),
        "sweep.trace.polish_per_step": ratio(
            under("dispersion.newton_polish", "sweep.trace"), branch_steps
        ),
        "sweep.trace.polish_failed": under("dispersion.newton_polish", "sweep.trace", failed_only=True),
        "sweep.scan_for_ep_seeds.self_s": of(self_by, "sweep.scan_for_ep_seeds"),
        "sweep.scan.solves": ratio(
            under("dispersion.discrete_states", "sweep.scan_for_ep_seeds"),
            of(calls, "sweep.scan_for_ep_seeds"),
        ),
        "sweep.find_ep.self_s": of(self_by, "sweep.find_ep"),
        "states.attach_norms.self_s": of(self_by, "states.attach_norms"),
        "states.normalization.calls": of(calls, "states.normalization"),
        "spectrum.decompose.self_s": of(self_by, "spectrum.decompose"),
        "spectrum.green_spectrum.self_s": of(self_by, "spectrum.green_spectrum"),
        "spectrum.grid_points": tracer.counters.get("spectrum.grid_points", 0.0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self(layer)
    for name in names:
        if name.startswith("cli.run."):
            out[f"{name}.self_s"] = of(self_by, name)
    for key, value in tracer.counters.items():
        if key.startswith("cli.output_bytes."):
            out[key] = value
    return out
