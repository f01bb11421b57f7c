"""The calibration kernel that puts timings on a shared machine in reference seconds.

The speed a shared machine gives a process swings by up to a factor of
two within seconds, in CPU time too.  The benchmark therefore times this
kernel next to the work it measures and reports each time scaled by
``CALIBRATION_REF_S`` over the kernel's time.  This module imports only
the standard library and numpy, so that ``cli_child.py`` can load it in a
command's process after the command is done.
"""

import cmath
import time

import numpy as np

#: CPU seconds ``calibration_kernel`` takes on the reference machine.
CALIBRATION_REF_S = 0.010


def calibration_kernel() -> float:
    """CPU time of a fixed mix of the kinds of work the package does.

    Small ``numpy.roots`` calls, ufuncs on short complex arrays, scalar
    complex arithmetic and short-lived Python objects: on a shared
    machine these slow down together with the package's own work, where
    a tight arithmetic loop alone slows down less.  It uses nothing of
    ``fanochain``, so a change to the package cannot move it.
    """
    t0 = time.process_time()
    coeffs = np.arange(1.0, 10.0)
    for i in range(50):
        np.roots(coeffs + i)
    z = np.linspace(-1.0, 1.0, 64) + 0.1j
    for _ in range(150):
        w = np.sqrt(z * z - 1.0)
        z = z + 1e-12 * (np.exp(1j * w).sum() + np.abs(w).max())
    acc = 0j
    for i in range(3000):
        x = complex(i * 1e-3, 0.1)
        acc += cmath.sqrt(x * x - 1.0) / (x + 2.0)
    rows = []
    for i in range(1500):
        d = {"a": i, "b": (i, i + 1), "c": [i] * 3}
        rows.append((d["b"][1], str(i)))
    rows.sort(key=lambda r: r[1])
    return time.process_time() - t0


def kernel_seconds(repeats: int = 3) -> float:
    """Median CPU time of a few kernel runs in a row."""
    return sorted(calibration_kernel() for _ in range(repeats))[repeats // 2]
