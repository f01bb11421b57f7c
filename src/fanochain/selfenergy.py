"""Branch-cut-aware self-energy of the impurity level, on both Riemann sheets.

The continuum produces a level-shift function with a square-root branch
cut on the band [-1, 1].  All formulas below are written in terms of

    s(z) = sqrt(z - 1) * sqrt(z + 1)      (principal square roots)

which is analytic off the cut and behaves like z at infinity; this is the
first-sheet branch.  The second sheet, reached by continuing downward
through the cut from the upper half plane, simply negates s.  Writing the
factor as sqrt(z*z - 1) with a single principal root would put spurious
sign flips on the imaginary axis, so it is deliberately avoided.

Real energies inside the band are always understood as E + i0 limits on
the requested sheet; the limit is finite there, so no broadening epsilon
is ever needed or exposed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import BranchPointError
from .model import ChainModel


class Sheet(enum.Enum):
    """Riemann sheet of sqrt(z^2 - 1) over the cut [-1, 1]."""

    I = 1
    II = 2


@dataclass(frozen=True)
class SheetedEnergy:
    """A complex energy tagged with its Riemann sheet."""

    value: complex
    sheet: Sheet = Sheet.I

    def conjugate(self) -> "SheetedEnergy":
        return SheetedEnergy(complex(self.value).conjugate(), self.sheet)


def _canonical(z: complex) -> complex:
    """Force real-axis inputs onto the +i0 side of the cut.

    complex(x, -0.0) would otherwise select the lower lip of the principal
    branch cut and silently break the E + i0 convention.
    """
    z = complex(z)
    if z.imag == 0.0:
        return complex(z.real, 0.0)
    return z


def _sqrt_pm1(z):
    """sqrt(z-1)*sqrt(z+1) with principal roots; array friendly."""
    return np.sqrt(z - 1.0) * np.sqrt(z + 1.0)


def sqrt_branch(z: SheetedEnergy) -> complex:
    """Branch-resolved square-root factor s(z).

    On sheet I, ``s(z) ~ z`` as ``|z| -> infinity`` and ``s(E + i0) =
    i*sqrt(1 - E^2)`` inside the band; sheet II negates the value, which
    makes s continuous when passing from the upper half of sheet I down
    through the cut.

    Raises
    ------
    BranchPointError
        If z is exactly +1 or -1.
    """
    value = _canonical(z.value)
    if value == 1.0 or value == -1.0:
        raise BranchPointError(f"z = {value} is a branch point")
    s = complex(_sqrt_pm1(value))
    return s if z.sheet is Sheet.I else -s


def band_energy(k: float) -> float:
    """Continuum dispersion E_k = -cos k for k in [0, pi]."""
    if not 0.0 <= k <= np.pi:
        raise ValueError(f"k must lie in [0, pi], got {k}")
    return -float(np.cos(k))


def coupling(model: ChainModel, k: float) -> float:
    """Impurity-continuum coupling V_k at wavenumber k.

    For the semi-infinite chain the hard wall imprints sin(n_d k); at the
    wavenumbers where that vanishes the impurity decouples, which is the
    origin of the bound states in the continuum.  The infinite chain has a
    flat coupling.
    """
    if not 0.0 <= k <= np.pi:
        raise ValueError(f"k must lie in [0, pi], got {k}")
    if model.is_semi_infinite:
        return float(np.sqrt(2.0 / np.pi) * model.v * np.sin(model.n_d * k))
    return float(model.v / np.sqrt(2.0 * np.pi))


def _sheeted_s(z, sheet):
    """s(z) on a Sheet, or per element on sheet II where the bool array sheet is true."""
    s = _sqrt_pm1(z)
    if isinstance(sheet, Sheet):
        return -s if sheet is Sheet.II else s
    return np.where(sheet, -s, s)


def _sigma(z, sheet, n_d: int | None, v: float):
    """Self-energy core, vectorized over z (already canonicalized).

    sheet is a Sheet, or a bool array (broadcast with z) true on sheet II.
    """
    s = _sheeted_s(z, sheet)
    if n_d is None:
        return (v * v) / s
    w = z - s
    return (v * v) / s * (1.0 - w ** (2 * n_d))


def _sigma_d1(z, sheet, n_d: int | None, v: float):
    """First z-derivative of the self-energy.

    Uses s' = z/s (valid on both sheets) and (z - s)' = -(z - s)/s, so the
    expression below holds with s carrying the sheet sign.
    """
    s = _sheeted_s(z, sheet)
    if n_d is None:
        return -(v * v) * z / s**3
    w = z - s
    w2n = w ** (2 * n_d)
    return (v * v) * (2 * n_d * w2n / s**2 - z * (1.0 - w2n) / s**3)


def _sigma_d2(z, sheet, n_d: int | None, v: float):
    """Second z-derivative of the self-energy (closed form)."""
    s = _sheeted_s(z, sheet)
    if n_d is None:
        return (v * v) * (2.0 * z * z + 1.0) / s**5
    w = z - s
    w2n = w ** (2 * n_d)
    n = n_d
    return (v * v) * (
        -2.0 * n * w2n * (2.0 * n * s + 3.0 * z) / s**4
        + (1.0 - w2n) * (2.0 * z * z + 1.0) / s**5
    )


def self_energy(model: ChainModel, z: SheetedEnergy) -> complex:
    """Self-energy on the tagged sheet.

    Semi-infinite chain:  (v^2/s) * [1 - (z - s)^(2 n_d)];
    infinite chain:        v^2 / s.
    """
    value = _canonical(z.value)
    if value == 1.0 or value == -1.0:
        raise BranchPointError(f"z = {value} is a branch point")
    return complex(_sigma(value, z.sheet, model.n_d, model.v))


def self_energy_deriv(model: ChainModel, z: SheetedEnergy, order: int = 1) -> complex:
    """First or second derivative of the self-energy, closed form.

    Finite differences are never used here; the derivatives feed Newton
    iterations and the double-root system, where full precision matters.
    """
    value = _canonical(z.value)
    if value == 1.0 or value == -1.0:
        raise BranchPointError(f"z = {value} is a branch point")
    if order == 1:
        return complex(_sigma_d1(value, z.sheet, model.n_d, model.v))
    if order == 2:
        return complex(_sigma_d2(value, z.sheet, model.n_d, model.v))
    raise ValueError(f"order must be 1 or 2, got {order}")
